"""Benchmark-suite plumbing.

``test_figures.py`` regenerates every paper table and figure, and the
figures the repository adds (its ablation and what-if studies among them),
through the experiment registry and checks each against the claims tables
(:mod:`repro.experiments.paper_values`); ``test_perf_kernel.py`` measures
kernel speeds.  Each saves its rendered table under ``benchmarks/results/``
with :func:`save_table`.
"""

from __future__ import annotations

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def save_table(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)
