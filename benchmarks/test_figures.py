"""Every paper table and figure, and every figure the repository adds,
regenerated and checked against the claims tables
(:mod:`repro.experiments.paper_values`: the paper's ``CLAIMS`` and the
repository's ``REPO_CLAIMS``): one case per figure, then the fidelity
report over the paper's figures (``benchmarks/results/fidelity.txt``)."""

from typing import Dict

import pytest

from benchmarks.conftest import save_table
from repro.experiments import paper_values
from repro.experiments.registry import render, run


@pytest.fixture(scope="module")
def runs() -> Dict:
    """The module's memo: each figure runs once, the fidelity case reuses it."""
    return {}


@pytest.mark.benchmark(group="figures")
@pytest.mark.parametrize("exp_id", paper_values.FIGURES + paper_values.REPO_FIGURES)
def test_figure(exp_id, runs, benchmark):
    title, rows = benchmark.pedantic(run, args=(exp_id, True, runs), rounds=1, iterations=1)
    save_table(exp_id, render(exp_id, title, rows))
    claims = paper_values.CLAIMS + paper_values.REPO_CLAIMS
    failed = paper_values.score({exp_id: rows}, claims).failed
    assert not failed, "\n".join(
        f"{row.claim.measure} = {row.measured:.3f}, bound lo={row.claim.lo} hi={row.claim.hi}"
        f" ({row.claim.source})"
        for row in failed
    )


@pytest.mark.benchmark(group="figures")
def test_fidelity(runs, benchmark):
    title, rows = benchmark.pedantic(run, args=("fidelity", True, runs), rounds=1, iterations=1)
    save_table("fidelity", render("fidelity", title, rows))
