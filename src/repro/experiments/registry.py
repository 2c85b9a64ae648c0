"""Registry: paper table/figure id -> experiment runner.

Each runner takes ``fast`` (short measurement windows, slightly sparser
sweeps) and returns ``(title, rows)``.  The FIO figures (9-18 and their
RAID-6 twins 22-30) are rows of one table, :data:`FIO_FIGURES`, run by
:func:`run_fio_figure`; the rest are small functions.  :func:`run` runs
one experiment at most once per caller-owned memo, :func:`render` is the
one renderer, and ``fidelity`` scores every figure against the claims
table in :mod:`repro.experiments.paper_values`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from importlib import import_module
from itertools import count, islice
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import build_testbed
from repro.analysis.table1 import (
    architecture_table,
    degraded_read_overhead_distributed,
    degraded_read_overhead_draid,
    write_overhead_distributed_rmw,
    write_overhead_draid,
)
from repro.experiments import app_figures, fio_figures
from repro.metrics.report import Row, format_table
from repro.raid.geometry import RaidLevel

R5, R6 = RaidLevel.RAID5, RaidLevel.RAID6
KB, MiB = 1024, 1024 * 1024

#: A caller's memo of finished runs at one ``fast`` setting: id -> ``(title, rows)``.
Runs = Dict[str, Tuple[str, List[Row]]]

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


def _host_nic_write_overhead(system: str) -> float:
    """Host-NIC bytes (tx + rx) per user byte over sixteen 128 KiB RMW writes."""
    env, cluster, array = build_testbed(system)
    env.run(until=array.write(0, 128 * KB))  # warm paths
    cluster.reset_accounting()
    for i in range(16):
        env.run(until=array.write(i * 4 * MiB, 128 * KB))
    nic = cluster.host.nic
    return (nic.tx_bytes + nic.rx_bytes) / (16 * 128 * KB)


def _host_nic_dread_overhead(system: str) -> float:
    """Host-NIC bytes (tx + rx) per user byte over eight 128 KiB reads that
    each fall on a chunk of the failed member 0."""
    env, cluster, array = build_testbed(system)
    array.fail_drive(0)
    geometry = array.geometry
    cluster.reset_accounting()
    stripes = list(islice(
        (s for s in count() if 0 not in geometry.parity_drives(s)), 8
    ))
    for stripe in stripes:
        idx = geometry.data_index_of_drive(stripe, 0)
        offset = stripe * geometry.stripe_data_bytes + idx * geometry.chunk_bytes
        env.run(until=array.read(offset, 128 * KB))
    nic = cluster.host.nic
    return (nic.tx_bytes + nic.rx_bytes) / (len(stripes) * 128 * KB)


def run_table1(fast: bool = True) -> Tuple[str, List[Row]]:
    """Table 1's two overhead columns, measured on the host NIC of a
    width-8 RAID-5 array: x is the architecture, system the controller
    that stands in for it."""
    rows = [
        Row(arch, system, {
            "write_overhead_x": _host_nic_write_overhead(system),
            "dread_overhead_x": _host_nic_dread_overhead(system),
        })
        for arch, system in (("Distributed", "SPDK"), ("dRAID", "dRAID"))
    ]
    return "Table 1: remote RAID architectures", rows


def _render_table1(title: str, rows: Sequence[Row]) -> str:
    analytical = {
        ("Distributed", "write"): write_overhead_distributed_rmw(),
        ("Distributed", "d-read"): degraded_read_overhead_distributed(8),
        ("dRAID", "write"): write_overhead_draid(),
        ("dRAID", "d-read"): degraded_read_overhead_draid(),
    }
    lines = [title, "=" * len(title), architecture_table(), "",
             "Measured host-NIC overheads (bytes moved / user byte):"]
    for op, metric in (("write", "write_overhead_x"), ("d-read", "dread_overhead_x")):
        for row in rows:
            lines.append(
                f"  {row.x + ' ' + op:22s} measured {row.metrics[metric]:5.2f}x"
                f"   analytical {analytical[row.x, op]:.0f}x"
            )
    return "\n".join(lines)


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
    "ablation": (
        "studies",
        "Ablation: dRAID without its §5.3 I/O pipeline (RAID-5 128 KiB writes, "
        "QD 16) and without its §5.2 non-blocking reduce (Parity 800 us late)",
    ),
    "nvram_staging": (
        "studies",
        "What-if: NVRAM staging (log-structured, §2.3) vs dRAID in place — "
        "random 16 KiB writes, burst ack, GC churn on a small log",
    ),
    "rebuild_throttle": (
        "studies",
        "What-if: rebuild throttle vs foreground (dRAID, width 8, 70 % read "
        "64 KiB at QD 16 while member 3 rebuilds)",
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


def run_fidelity(fast: bool = True, runs: Optional[Runs] = None) -> Tuple[str, List[Row]]:
    """Score every figure of the claims table (:mod:`repro.experiments.paper_values`).

    The report is the title; there are no grid rows.  ``runs`` is
    :func:`run`'s memo: figures already in it are not run again.
    """
    from repro.experiments import paper_values

    rows_by_figure = {
        exp_id: run(exp_id, fast, runs)[1] for exp_id in paper_values.FIGURES
    }
    return paper_values.render(paper_values.score(rows_by_figure)), []


EXPERIMENTS: Dict[str, Callable[[bool], Tuple[str, List[Row]]]] = {
    "table1": run_table1,
    **_fio_figures(9, 18),
    "fig19": run_fig19,
    "fig20": run_fig20,
    "fig21": run_fig21,
    **_fio_figures(22, 30),
    **{exp_id: partial(run_added_figure, exp_id) for exp_id in ADDED_FIGURES},
    "fidelity": run_fidelity,
}

#: Metrics that lead a rendered table, in this order, when its rows carry them.
METRIC_ORDER = ("bandwidth_mb_s", "avg_latency_us", "kiops")


def run(exp_id: str, fast: bool = True, runs: Optional[Runs] = None) -> Tuple[str, List[Row]]:
    """Run one experiment and return ``(title, rows)``.

    An experiment already in ``runs`` is not run again, so ``--all`` and
    the benchmark suite run each figure once although ``fidelity`` reads
    them all.
    """
    if exp_id not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}")
    if runs is None:
        runs = {}
    if exp_id not in runs:
        if exp_id == "fidelity":
            runs[exp_id] = run_fidelity(fast, runs)
        else:
            runs[exp_id] = EXPERIMENTS[exp_id](fast)
    return runs[exp_id]


def render(exp_id: str, title: str, rows: Sequence[Row]) -> str:
    """Render one experiment's result: the text the CLI prints and the
    benchmark suite saves under ``benchmarks/results/``."""
    if exp_id == "table1":
        return _render_table1(title, rows)
    if not rows:
        return title
    metric_order = [m for m in METRIC_ORDER if m in rows[0].metrics]
    return format_table(title, rows, metric_order=metric_order)


def run_experiment(exp_id: str, fast: bool = True, runs: Optional[Runs] = None) -> str:
    """Run one experiment (through ``runs``, see :func:`run`) and return its
    rendered table."""
    return render(exp_id, *run(exp_id, fast, runs))
