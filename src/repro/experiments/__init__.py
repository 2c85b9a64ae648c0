"""Experiment harnesses reproducing every table and figure of the paper.

Each experiment in :data:`repro.experiments.registry.EXPERIMENTS` maps a
paper table/figure id to a runner that executes the corresponding sweep on
the simulated testbed and returns rows shaped like the paper's plot axes.
The paper's claims about those rows are one table,
:mod:`repro.experiments.paper_values` (imported on demand, not here);
``benchmarks/test_figures.py`` checks every figure against it and the
``fidelity`` experiment scores them all.
"""

from repro.experiments.common import (
    SYSTEMS,
    build_array,
    fio_point,
    nic_goodput_mb_s,
    traced_fio_point,
)
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.runner import (
    JOBS_ENV_VAR,
    SweepPoint,
    SweepSpec,
    resolve_jobs,
    run_points,
)

__all__ = [
    "EXPERIMENTS",
    "JOBS_ENV_VAR",
    "SYSTEMS",
    "SweepPoint",
    "SweepSpec",
    "build_array",
    "fio_point",
    "nic_goodput_mb_s",
    "resolve_jobs",
    "run_experiment",
    "run_points",
    "traced_fio_point",
]
