"""Registry: paper table/figure id -> experiment runner.

Each runner takes ``fast`` (short measurement windows, slightly sparser
sweeps) and returns ``(title, rows)``.  The FIO figures (9-18 and their
RAID-6 twins 22-30) are rows of one table, :data:`FIO_FIGURES`, run by
:func:`run_fio_figure`; the rest are small functions.  ``run_experiment``
executes one and renders its table.  Benchmarks in ``benchmarks/`` wrap
these one-to-one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from importlib import import_module
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.analysis.table1 import architecture_table
from repro.experiments import app_figures, fio_figures
from repro.metrics.report import Row, format_table
from repro.raid.geometry import RaidLevel

R5, R6 = RaidLevel.RAID5, RaidLevel.RAID6

#: Sweep points (full mode mirrors the paper's x axes; fast mode thins them).
IO_SIZES_READ = [4, 8, 16, 32, 64, 128]
IO_SIZES_WRITE_R5 = [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 3584]
IO_SIZES_WRITE_R6 = [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 3072]
CHUNK_SIZES = [32, 64, 128, 256, 512, 1024]
WIDTHS = [4, 6, 8, 10, 12, 14, 16, 18]
RATIOS = [0.0, 0.25, 0.5, 0.75, 1.0]
QUEUE_DEPTHS = [1, 2, 4, 8, 16, 32, 64, 128]


def _thin(points: Sequence, fast: bool, keep_every: int = 2) -> List:
    """Drop every other interior point in fast mode (keep both endpoints)."""
    if not fast or len(points) <= 4:
        return list(points)
    kept = [p for i, p in enumerate(points) if i % keep_every == 0]
    if kept[-1] != points[-1]:
        kept.append(points[-1])
    return kept


def run_table1(fast: bool = True) -> Tuple[str, List[Row]]:
    table = architecture_table()
    # Rendered analytically; rows carry the numeric overhead columns.
    rows = [
        Row("Single-Machine", "analytical", {"write_overhead_x": 1.0, "dread_overhead_x": 1.0}),
        Row("Distributed", "analytical", {"write_overhead_x": 4.0, "dread_overhead_x": 7.0}),
        Row("dRAID", "analytical", {"write_overhead_x": 1.0, "dread_overhead_x": 1.0}),
    ]
    return "Table 1: remote RAID architectures\n" + table, rows


@dataclass(frozen=True)
class Sweep:
    """One sweep of a FIO figure: ``fn(level, <axis>=values, **kwargs)``."""

    fn: Callable[..., List[Row]]
    axis: str  #: the keyword of ``fn`` the x values go to
    values: Sequence  #: the full-mode x axis
    kwargs: Dict[str, Any] = field(default_factory=dict)
    prefix: str = ""  #: prepended to every row's x (figures made of two sweeps)
    thin: bool = True  #: fast mode drops every other interior x value


def _bandwidth_aware(level, **kwargs):
    # Figure 17b is a RAID-5 experiment in the paper; the sweep takes no level
    return fio_figures.bandwidth_aware_comparison(**kwargs)


NORMAL_READ = Sweep(
    fio_figures.sweep_io_size, "sizes_kb", IO_SIZES_READ,
    dict(read_fraction=1.0, servers=6),
)
WRITE_R5 = Sweep(
    fio_figures.sweep_io_size, "sizes_kb", IO_SIZES_WRITE_R5, dict(read_fraction=0.0)
)
WRITE_R6 = Sweep(
    fio_figures.sweep_io_size, "sizes_kb", IO_SIZES_WRITE_R6, dict(read_fraction=0.0)
)
CHUNK_SIZE = Sweep(fio_figures.sweep_chunk_size, "chunks_kb", CHUNK_SIZES)
WIDTH = Sweep(fio_figures.sweep_stripe_width, "widths", WIDTHS)
READ_RATIO = Sweep(fio_figures.sweep_read_ratio, "ratios", RATIOS, thin=False)
LATENCY = (
    Sweep(fio_figures.latency_curve, "queue_depths", QUEUE_DEPTHS,
          dict(read_fraction=0.0), prefix="wo-qd"),
    Sweep(fio_figures.latency_curve, "queue_depths", QUEUE_DEPTHS,
          dict(read_fraction=0.5), prefix="rw-qd"),
)
DEGRADED_READ = Sweep(
    fio_figures.sweep_io_size, "sizes_kb", IO_SIZES_READ,
    dict(read_fraction=1.0, failed_drives=(0,)),
)
DEGRADED_WIDTH = Sweep(
    fio_figures.sweep_stripe_width, "widths", WIDTHS,
    dict(read_fraction=1.0, failed=True),
)
RECONSTRUCTION = (
    Sweep(fio_figures.reconstruction_scalability, "widths", WIDTHS, prefix="width-"),
    Sweep(_bandwidth_aware, "load_points", [4, 8, 16, 32, 64], prefix="qd-"),
)
DEGRADED_WRITE = Sweep(
    fio_figures.sweep_io_size, "sizes_kb", IO_SIZES_READ,
    dict(read_fraction=0.0, failed_drives=(0,)),
)

#: The FIO figures, one row each: id -> (level, sweeps, title).  Figures
#: 22-30 (Appendix A) are the RAID-6 twins of 9-18; Figure 17 has none.
FIO_FIGURES: Dict[str, Tuple[RaidLevel, Tuple[Sweep, ...], str]] = {
    "fig09": (R5, (NORMAL_READ,), "Figure 9: RAID-5 normal-state read vs I/O size (6 targets)"),
    "fig10": (R5, (WRITE_R5,), "Figure 10: RAID-5 write vs I/O size"),
    "fig11": (R5, (CHUNK_SIZE,), "Figure 11: RAID-5 write vs chunk size"),
    "fig12": (R5, (WIDTH,), "Figure 12: RAID-5 write vs stripe width"),
    "fig13": (R5, (READ_RATIO,), "Figure 13: RAID-5 write vs read/write ratio"),
    "fig14": (R5, LATENCY, "Figure 14: RAID-5 latency vs bandwidth (write-only and 50/50)"),
    "fig15": (R5, (DEGRADED_READ,), "Figure 15: RAID-5 degraded read vs I/O size"),
    "fig16": (R5, (DEGRADED_WIDTH,), "Figure 16: RAID-5 degraded read vs stripe width"),
    "fig17": (R5, RECONSTRUCTION, "Figure 17: reconstruction scalability and BW-aware reducer"),
    "fig18": (R5, (DEGRADED_WRITE,), "Figure 18: RAID-5 degraded write vs I/O size"),
    "fig22": (R6, (NORMAL_READ,), "Figure 22: RAID-6 normal-state read vs I/O size"),
    "fig23": (R6, (WRITE_R6,), "Figure 23: RAID-6 write vs I/O size"),
    "fig24": (R6, (CHUNK_SIZE,), "Figure 24: RAID-6 write vs chunk size"),
    "fig25": (R6, (WIDTH,), "Figure 25: RAID-6 write vs stripe width"),
    "fig26": (R6, (READ_RATIO,), "Figure 26: RAID-6 write vs read/write ratio"),
    "fig27": (R6, LATENCY, "Figure 27: RAID-6 latency vs bandwidth"),
    "fig28": (R6, (DEGRADED_READ,), "Figure 28: RAID-6 degraded read vs I/O size"),
    "fig29": (R6, (DEGRADED_WIDTH,), "Figure 29: RAID-6 degraded read vs stripe width"),
    "fig30": (R6, (DEGRADED_WRITE,), "Figure 30: RAID-6 degraded write vs I/O size"),
}


def run_fio_figure(exp_id: str, fast: bool = True) -> Tuple[str, List[Row]]:
    """Run one row of :data:`FIO_FIGURES`."""
    level, sweeps, title = FIO_FIGURES[exp_id]
    rows: List[Row] = []
    for sweep in sweeps:
        values = _thin(sweep.values, fast) if sweep.thin else sweep.values
        part = sweep.fn(level, **{sweep.axis: values}, **sweep.kwargs, fast=fast)
        if sweep.prefix:
            for row in part:
                row.x = f"{sweep.prefix}{row.x}"
        rows += part
    return title, rows


def run_fig19(fast: bool = True):
    rows = app_figures.lsm_ycsb(degraded=False, fast=fast)
    for row in rows:
        row.x = f"{row.x}-normal"
    degraded = app_figures.lsm_ycsb(degraded=True, fast=fast)
    for row in degraded:
        row.x = f"{row.x}-degraded"
    return "Figure 19: LSM KV store (RocksDB stand-in) YCSB throughput", rows + degraded


def run_fig20(fast: bool = True):
    rows = app_figures.objectstore_ycsb(degraded=False, fast=fast)
    return "Figure 20: object store on normal-state RAID-5", rows


def run_fig21(fast: bool = True):
    rows = app_figures.objectstore_ycsb(degraded=True, fast=fast)
    return "Figure 21: object store on degraded-state RAID-5", rows


#: The figures this repository adds to the paper's: id -> (module holding
#: ``<id>_rows(fast=...)``, title).  Imported on first run — they pull in the
#: fault, QoS and rack layers the paper's figures never touch.
ADDED_FIGURES: Dict[str, Tuple[str, str]] = {
    "availability": (
        "availability",
        "Availability: Monte Carlo data-loss rate and rebuild exposure, "
        "independent vs correlated (batch-storm) fault processes",
    ),
    "reliability": (
        "reliability",
        "Reliability: fault-storm phases and fail-slow detection (§5.4)",
    ),
    "integrity": (
        "integrity",
        "Integrity: silent-corruption detection latency and foreground "
        "bandwidth vs scrub pace",
    ),
    "obs": (
        "obs_figures",
        "Observability: per-request critical path and bottleneck attribution "
        "(x label carries the sampler's verdict)",
    ),
    "overload": (
        "overload",
        "Overload: open-loop goodput collapse vs offered load, raw datapath "
        "vs admission control + deadlines + retry budget",
    ),
    "tenancy": (
        "tenancy",
        "Tenancy: noisy-neighbor isolation (rack QoS off vs on) and "
        "hot-spot recovery by live volume migration",
    ),
    "geometries": (
        "geometries",
        "Geometries: design-space grid of stripe layout x erasure code x "
        "controller — rebuild time, degraded throughput/p99, chaos verify",
    ),
}


def run_added_figure(exp_id: str, fast: bool = True) -> Tuple[str, List[Row]]:
    """Run one row of :data:`ADDED_FIGURES`."""
    module, title = ADDED_FIGURES[exp_id]
    rows_fn = getattr(import_module(f"repro.experiments.{module}"), f"{exp_id}_rows")
    return title, rows_fn(fast=fast)


def _fio_figures(first: int, last: int) -> Dict[str, Callable]:
    ids = [f"fig{n:02d}" for n in range(first, last + 1)]
    return {exp_id: partial(run_fio_figure, exp_id) for exp_id in ids}


EXPERIMENTS: Dict[str, Callable[[bool], Tuple[str, List[Row]]]] = {
    "table1": run_table1,
    **_fio_figures(9, 18),
    "fig19": run_fig19,
    "fig20": run_fig20,
    "fig21": run_fig21,
    **_fio_figures(22, 30),
    **{exp_id: partial(run_added_figure, exp_id) for exp_id in ADDED_FIGURES},
}


def run_experiment(exp_id: str, fast: bool = True) -> str:
    """Run one experiment and return its rendered table."""
    if exp_id not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}")
    title, rows = EXPERIMENTS[exp_id](fast)
    if not rows:
        return title
    x_label = "x"
    metric_order = ["bandwidth_mb_s", "avg_latency_us"] if "bandwidth_mb_s" in rows[0].metrics else []
    return format_table(title, rows, x_label=x_label, metric_order=metric_order)
