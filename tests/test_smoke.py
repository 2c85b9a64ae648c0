"""The smoke table: every committed ``*_smoke.golden`` is compared in full
(on every core the machine has; ``-j N`` prints the same bytes as ``-j 1``),
every correctness verdict fires by name, and the one CLI entry behaves.
The bounds on the grids' numbers are rows of
``repro.experiments.paper_values.REPO_CLAIMS`` (tests/test_paper_values.py).
Regenerate a golden with ``python -m repro.experiments smoke <name>
--write-golden``.
"""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.experiments import smoke
from repro.experiments.__main__ import main
from repro.experiments.runner import JOBS_ENV_VAR
from repro.experiments.smoke import SMOKES, failed_checks, golden_path, run_smoke
from repro.metrics.report import Row

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", list(SMOKES))
def test_report_matches_committed_golden(name):
    report, failures = run_smoke(name)
    assert failures == []
    assert report == golden_path(name).read_text()


def test_serial_matches_parallel():
    assert run_smoke("chaos", jobs=1) == run_smoke("chaos", jobs=2)


# -- named checks: doctored results that violate exactly one verdict ---------


def _chaos_outcomes(**changes):
    outcomes = [point.execute() for point in SMOKES["chaos"].points[:2]]
    return [dataclasses.replace(outcomes[0], **changes), outcomes[1]]


VIOLATIONS = [
    ("chaos", "every-schedule-ok", lambda: _chaos_outcomes(verified=False)),
    ("integrity", "every-schedule-ok", lambda: _chaos_outcomes(unrecoverable=1)),
    ("fuzz", "every-schedule-ok", lambda: _chaos_outcomes(scrub_clean=False)),
    ("geometries", "every-schedule-ok",
     lambda: [Row("rotating/rs", "dRAID", dict(chaos_ok=1.0)),
              Row("declustered/rs", "dRAID", dict(chaos_ok=0.0))]),
]


def test_every_named_check_is_exercised():
    named = {(name, check) for name, spec in SMOKES.items() for check, _ in spec.checks}
    assert named == {(name, check) for name, check, _ in VIOLATIONS}


@pytest.mark.parametrize(
    "name, check, results", VIOLATIONS, ids=[f"{n}-{c}" for n, c, _ in VIOLATIONS]
)
def test_violated_check_is_reported_by_name(name, check, results):
    failures = failed_checks(SMOKES[name], results())
    assert len(failures) == 1
    assert failures[0].startswith(f"{name}: check {check!r} failed: ")


# -- the CLI entry -------------------------------------------------------------


@pytest.fixture
def serial(monkeypatch):
    """One in-process worker, restored afterwards (``-j`` would leave
    ``REPRO_JOBS`` set for the rest of the session)."""
    monkeypatch.setenv(JOBS_ENV_VAR, "1")


def test_write_golden_round_trips(tmp_path, monkeypatch, capsys, serial):
    monkeypatch.setattr(smoke, "GOLDEN_DIR", tmp_path)
    assert main(["smoke", "fuzz", "--write-golden"]) == 0
    written = tmp_path / "fuzz_smoke.golden"
    assert written.read_text() == (ROOT / "tests/golden/fuzz_smoke.golden").read_text()
    assert main(["smoke", "fuzz", "--check"]) == 0
    written.write_text(written.read_text().replace("result=ok", "result=diff", 1))
    capsys.readouterr()
    assert main(["smoke", "fuzz", "--check"]) == 1
    assert "-" + written.read_text().splitlines()[0] in capsys.readouterr().out


def test_plain_run_prints_the_report(capsys, serial):
    assert main(["smoke", "fuzz"]) == 0
    assert capsys.readouterr().out == golden_path("fuzz").read_text()


def test_unknown_smoke_exits_2_and_lists_the_known_names(capsys):
    assert main(["smoke", "nope"]) == 2
    assert f"known: {', '.join(SMOKES)}" in capsys.readouterr().err


def test_zero_jobs_exits_2(capsys):
    assert main(["smoke", "fuzz", "-j", "0"]) == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err


def test_ci_matrix_runs_every_smoke():
    ci = (ROOT / ".github/workflows/ci.yml").read_text()
    matrix = re.search(r"^\s+name: \[([^\]]+)\]$", ci, re.MULTILINE)
    assert matrix and matrix.group(1).split(", ") == list(SMOKES)
