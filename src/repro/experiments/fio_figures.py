"""FIO-based figure sweeps (§9.2-§9.5 and Appendix A).

Every function returns a list of :class:`repro.metrics.report.Row` whose
x-axis and metrics match the corresponding paper figure: bandwidth in MB/s
and average latency in microseconds.

Each sweep is declared as a list of :class:`SweepPoint` and executed by
:func:`repro.experiments.runner.run_points`, which fans independent points
out over worker processes (``REPRO_JOBS`` / ``-j``) with results identical
to the serial order.  Point functions must stay module-level so they pickle
across the process boundary.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.metrics.report import Row
from repro.experiments.common import (
    DEFAULT_IO,
    DEFAULT_QD,
    KB,
    SYSTEMS,
    fio_point,
)
from repro.experiments.runner import SweepPoint, run_points
from repro.net.nic import GOODPUT_100G, GOODPUT_25G
from repro.raid.geometry import RaidLevel

ALL_SYSTEMS = tuple(SYSTEMS)


def _row(x, system, result) -> Row:
    return Row(
        x=x,
        system=system,
        metrics={
            "bandwidth_mb_s": result.bandwidth_mb_s,
            "avg_latency_us": result.latency.mean_us,
            "p99_latency_us": result.latency.p99_us,
            "iops": result.iops,
        },
    )


def _fio_row(x, system, **kwargs) -> Row:
    """One sweep point: a fresh testbed, one FIO run, one result row."""
    return _row(x, system, fio_point(system, **kwargs))


def _sweep(xs, systems, jobs, point, row=_fio_row) -> List[Row]:
    """One ``row`` per (x, system), x varying slowest; ``point(x)`` gives
    the row's label and its other arguments (:func:`fio_point`'s for the
    default row function)."""
    points = [
        SweepPoint(row, dict(system=system, **point(x)))
        for x in xs
        for system in systems
    ]
    return run_points(points, jobs=jobs)


def sweep_io_size(
    level: RaidLevel,
    read_fraction: float,
    sizes_kb: Sequence[int],
    servers: int = 8,
    failed_drives: Sequence[int] = (),
    systems: Sequence[str] = ALL_SYSTEMS,
    fast: bool = True,
    jobs: Optional[int] = None,
) -> List[Row]:
    """Figures 9/10/15/18 (RAID-5) and 22/23/28/30 (RAID-6)."""
    return _sweep(sizes_kb, systems, jobs, lambda size_kb: dict(
        x=f"{size_kb}KB",
        io_size=size_kb * KB,
        read_fraction=read_fraction,
        servers=servers,
        level=level,
        failed_drives=tuple(failed_drives),
        fast=fast,
    ))


def sweep_chunk_size(
    level: RaidLevel,
    chunks_kb: Sequence[int],
    systems: Sequence[str] = ALL_SYSTEMS,
    fast: bool = True,
    jobs: Optional[int] = None,
) -> List[Row]:
    """Figures 11 / 24: 128 KiB writes across chunk sizes."""
    return _sweep(chunks_kb, systems, jobs, lambda chunk_kb: dict(
        x=f"{chunk_kb}KB",
        io_size=DEFAULT_IO,
        read_fraction=0.0,
        chunk=chunk_kb * KB,
        level=level,
        fast=fast,
    ))


def sweep_stripe_width(
    level: RaidLevel,
    widths: Sequence[int],
    read_fraction: float = 0.0,
    failed: bool = False,
    systems: Sequence[str] = ALL_SYSTEMS,
    fast: bool = True,
    jobs: Optional[int] = None,
) -> List[Row]:
    """Figures 12/16 (RAID-5) and 25/29 (RAID-6)."""
    return _sweep(widths, systems, jobs, lambda width: dict(
        x=width,
        read_fraction=read_fraction,
        servers=width,
        level=level,
        failed_drives=(0,) if failed else (),
        fast=fast,
    ))


def sweep_read_ratio(
    level: RaidLevel,
    ratios: Sequence[float],
    systems: Sequence[str] = ALL_SYSTEMS,
    fast: bool = True,
    jobs: Optional[int] = None,
) -> List[Row]:
    """Figures 13 / 26: mixed read/write ratios."""
    return _sweep(ratios, systems, jobs, lambda ratio: dict(
        x=f"{int(ratio * 100)}%", read_fraction=ratio, level=level, fast=fast
    ))


def latency_curve(
    level: RaidLevel,
    read_fraction: float,
    queue_depths: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128),
    servers: int = 18,
    systems: Sequence[str] = ("SPDK", "dRAID", "Linux"),
    fast: bool = True,
    jobs: Optional[int] = None,
) -> List[Row]:
    """Figures 14 / 27: latency vs bandwidth under increasing load."""
    return _sweep(queue_depths, systems, jobs, lambda qd: dict(
        x=qd,
        read_fraction=read_fraction,
        servers=servers,
        level=level,
        queue_depth=qd,
        fast=fast,
    ))


def reconstruction_scalability(
    level: RaidLevel,
    widths: Sequence[int],
    systems: Sequence[str] = ("SPDK", "dRAID"),
    fast: bool = True,
    jobs: Optional[int] = None,
) -> List[Row]:
    """Figure 17a: every read hits the failed drive (rebuild read stream).

    The workload is a rebuild job's read stream: chunk-sized reads that all
    target the failed drive's chunks (remapped via RebuildView below), so
    every I/O pays the reconstruction path.
    """
    return _sweep(widths, systems, jobs, row=_rebuild_row, point=lambda width: dict(
        x=width, width=width, level=level, fast=fast
    ))


def _rebuild_row(x, system, width, level, fast) -> Row:
    return _row(x, system, _rebuild_point(system, width, level, fast))


def _rebuild_point(system: str, width: int, level: RaidLevel, fast: bool):
    """All-degraded read stream: every I/O reconstructs a lost chunk."""
    from repro.experiments.common import build_array, measure_window_ns
    from repro.workloads import FioWorkload

    array = build_array(system, servers=width, level=level, failed_drives=(0,))
    geometry = array.geometry
    view = _FailedChunkView(array)
    fio = FioWorkload(
        view,
        io_size=geometry.chunk_bytes,
        read_fraction=1.0,
        queue_depth=DEFAULT_QD,
        capacity=geometry.chunk_bytes * 4096,
    )
    return fio.run(measure_ns=measure_window_ns(fast))


def bandwidth_aware_comparison(
    load_points: Sequence[int] = (4, 8, 16, 32, 64),
    width: int = 8,
    fast: bool = True,
    jobs: Optional[int] = None,
) -> List[Row]:
    """Figure 17b: random vs bandwidth-aware reducer on heterogeneous NICs.

    Half the storage servers get 25 Gbps NICs (enough to saturate one SSD's
    read stream), half 100 Gbps, as in the paper's setup.  The workload is
    the reconstruction-heavy rebuild read stream of Figure 17a: every read
    funnels ``width - 2`` partials through the chosen reducer's NIC, so
    picking a 25 Gbps reducer bottlenecks the whole reduction — which is
    exactly the load the §6.2 algorithm avoids.  The x axis ramps load via
    queue depth (the paper plots latency vs bandwidth).
    """
    selectors = ("Random", "BW-Aware")
    return _sweep(load_points, selectors, jobs, row=_bw_aware_row, point=lambda qd: dict(
        x=qd, qd=qd, width=width, fast=fast
    ))


def _bw_aware_row(x, system, qd, width, fast) -> Row:
    from repro.draid.reconstruction import BandwidthAwareSelector, RandomReducerSelector
    from repro.experiments.common import build_array, measure_window_ns
    from repro.workloads import FioWorkload

    rates = [GOODPUT_25G if i % 2 else GOODPUT_100G for i in range(width)]
    array = build_array(
        "dRAID",
        servers=width,
        server_nic_rates=rates,
        failed_drives=(0,),
    )
    if system == "BW-Aware":
        array.selector = BandwidthAwareSelector(array.cluster, seed=3)
    else:
        array.selector = RandomReducerSelector(seed=3)
    view = _FailedChunkView(array)
    fio = FioWorkload(
        view,
        io_size=DEFAULT_IO,
        read_fraction=1.0,
        queue_depth=qd,
        capacity=array.geometry.chunk_bytes * 2048,
    )
    result = fio.run(measure_ns=measure_window_ns(fast))
    return _row(x, system, result)


class _FailedChunkView:
    """Remaps a linear offset space onto the failed drive's chunks (drive 0)."""

    def __init__(self, inner):
        self.inner = inner
        self.env = inner.env
        self.geometry = inner.geometry

    def read(self, offset, nbytes):
        geometry = self.geometry
        stripe = offset // geometry.chunk_bytes
        within = offset % geometry.chunk_bytes
        parity = geometry.parity_drives(stripe)
        if 0 in parity:
            data_index = 0
        else:
            data_index = geometry.data_index_of_drive(stripe, 0)
        user = (
            stripe * geometry.stripe_data_bytes
            + data_index * geometry.chunk_bytes
            + within
        )
        return self.inner.read(user, nbytes)

    def write(self, offset, nbytes, data=None):
        raise NotImplementedError("rebuild stream is read-only")
