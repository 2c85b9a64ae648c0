"""Registry: paper table/figure id -> experiment runner.

Each runner takes ``fast`` (short measurement windows, slightly sparser
sweeps) and returns ``(title, rows)``.  The swept figures (FIO figures 9-18,
their RAID-6 twins 22-30 and the object-store figures 20-21) are rows of
one table, :data:`SWEPT_FIGURES`: a level, a title and one or two
:class:`Sweep` rows of data, each run by :func:`run_sweep`.  Table 1,
Figure 19 and the figures this repository adds (:data:`ADDED_FIGURES`)
have runners of their own.  :func:`run` runs
one experiment at most once per caller-owned memo, :func:`render` is the
one renderer, and ``fidelity`` scores every figure against the claims
table in :mod:`repro.experiments.paper_values`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from importlib import import_module
from itertools import count, islice
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import SYSTEMS, build_testbed
from repro.analysis.table1 import (
    architecture_table,
    degraded_read_overhead_distributed,
    degraded_read_overhead_draid,
    write_overhead_distributed_rmw,
    write_overhead_draid,
)
from repro.experiments import app_figures, fio_figures
from repro.experiments.runner import SweepPoint, run_points
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


def _thin(points: Sequence, fast: bool) -> List:
    """Drop every other interior point in fast mode (keep both endpoints)."""
    if not fast or len(points) <= 4:
        return list(points)
    kept = list(points[::2])
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


#: x -> the row's label and the row function's other arguments.
Point = Callable[[Any], Dict[str, Any]]


@dataclass(frozen=True)
class Sweep:
    """One sweep of a figure: a ``row(system=..., **point(x), level=...,
    fast=...)`` per (x, system), x varying slowest."""

    values: Sequence  #: the full-mode x axis
    point: Point
    systems: Sequence[str] = tuple(SYSTEMS)
    row: Callable[..., Row] = fio_figures._fio_row
    prefix: str = ""  #: prepended to every row's x (figures made of two sweeps)
    thin: bool = True  #: fast mode drops every other interior x value


def run_sweep(
    sweep: Sweep, level: RaidLevel, fast: bool = True, jobs: Optional[int] = None
) -> List[Row]:
    """Run every point of ``sweep`` through :func:`run_points`."""
    values = _thin(sweep.values, fast) if sweep.thin else sweep.values
    points = [
        SweepPoint(sweep.row, dict(system=system, **sweep.point(x), level=level, fast=fast))
        for x in values
        for system in sweep.systems
    ]
    rows = run_points(points, jobs=jobs)
    if sweep.prefix:
        for row in rows:
            row.x = f"{sweep.prefix}{row.x}"
    return rows


def _io_size(read_fraction: float, **kwargs) -> Point:
    return lambda size_kb: dict(
        x=f"{size_kb}KB", io_size=size_kb * KB, read_fraction=read_fraction, **kwargs
    )


def _width(read_fraction: float, failed_drives: Tuple[int, ...]) -> Point:
    return lambda width: dict(
        x=width, read_fraction=read_fraction, servers=width, failed_drives=failed_drives
    )


def _latency(read_fraction: float) -> Point:
    return lambda qd: dict(x=qd, read_fraction=read_fraction, servers=18, queue_depth=qd)


def _objectstore(degraded: bool) -> Sweep:
    return Sweep(
        app_figures.PAPER_WORKLOADS, lambda workload: dict(workload=workload, degraded=degraded),
        app_figures.APP_SYSTEMS, app_figures._objectstore_row, thin=False,
    )


NORMAL_READ = Sweep(IO_SIZES_READ, _io_size(1.0, servers=6))
WRITE_R5 = Sweep(IO_SIZES_WRITE_R5, _io_size(0.0))
WRITE_R6 = Sweep(IO_SIZES_WRITE_R6, _io_size(0.0))
# 128 KiB writes: fio_point's default I/O size and read fraction
CHUNK_SIZE = Sweep(CHUNK_SIZES, lambda chunk_kb: dict(x=f"{chunk_kb}KB", chunk=chunk_kb * KB))
WIDTH = Sweep(WIDTHS, _width(0.0, ()))
READ_RATIO = Sweep(
    RATIOS, lambda ratio: dict(x=f"{int(ratio * 100)}%", read_fraction=ratio), thin=False
)
LATENCY = (
    Sweep(QUEUE_DEPTHS, _latency(0.0), ("SPDK", "dRAID", "Linux"), prefix="wo-qd"),
    Sweep(QUEUE_DEPTHS, _latency(0.5), ("SPDK", "dRAID", "Linux"), prefix="rw-qd"),
)
DEGRADED_READ = Sweep(IO_SIZES_READ, _io_size(1.0, failed_drives=(0,)))
DEGRADED_WIDTH = Sweep(WIDTHS, _width(1.0, (0,)))
#: Figure 17a reads only the failed member's chunks; 17b ramps queue depth
#: on half-25 Gbps servers under a random or a bandwidth-aware reducer.
RECONSTRUCTION = (
    Sweep(WIDTHS, lambda width: dict(x=width, width=width), ("SPDK", "dRAID"),
          fio_figures._rebuild_row, prefix="width-"),
    Sweep([4, 8, 16, 32, 64], lambda qd: dict(x=qd, qd=qd, width=8),
          ("Random", "BW-Aware"), fio_figures._bw_aware_row, prefix="qd-"),
)
DEGRADED_WRITE = Sweep(IO_SIZES_READ, _io_size(0.0, failed_drives=(0,)))

#: The swept figures, one row each: id -> (level, sweeps, title).  Figures
#: 22-30 (Appendix A) are the RAID-6 twins of 9-18; Figure 17 has none.
SWEPT_FIGURES: Dict[str, Tuple[RaidLevel, Tuple[Sweep, ...], str]] = {
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
    "fig20": (R5, (_objectstore(False),), "Figure 20: object store on normal-state RAID-5"),
    "fig21": (R5, (_objectstore(True),), "Figure 21: object store on degraded-state RAID-5"),
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


def run_swept_figure(exp_id: str, fast: bool = True) -> Tuple[str, List[Row]]:
    """Run one row of :data:`SWEPT_FIGURES`."""
    level, sweeps, title = SWEPT_FIGURES[exp_id]
    return title, [row for sweep in sweeps for row in run_sweep(sweep, level, fast)]


def run_fig19(fast: bool = True):
    rows = app_figures.lsm_ycsb(degraded=False, fast=fast)
    for row in rows:
        row.x = f"{row.x}-normal"
    degraded = app_figures.lsm_ycsb(degraded=True, fast=fast)
    for row in degraded:
        row.x = f"{row.x}-degraded"
    return "Figure 19: LSM KV store (RocksDB stand-in) YCSB throughput", rows + degraded


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
    **dict(sorted({
        "fig19": run_fig19,
        **{exp_id: partial(run_swept_figure, exp_id) for exp_id in SWEPT_FIGURES},
    }.items())),
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
