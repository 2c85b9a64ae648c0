"""Row functions of the FIO-based figures (§9.2-§9.5 and Appendix A).

Every function builds one fresh testbed, runs one FIO window and returns a
:class:`repro.metrics.report.Row` whose metrics match the paper's figures:
bandwidth in MB/s and average latency in microseconds.  The sweeps over
them are rows of :data:`repro.experiments.registry.SWEPT_FIGURES`; the
functions stay module-level so a sweep point pickles across the process
boundary.
"""

from __future__ import annotations

from repro.experiments.common import (
    DEFAULT_IO,
    DEFAULT_QD,
    build_array,
    fio_point,
    measure_window_ns,
)
from repro.metrics.report import Row
from repro.net.nic import GOODPUT_100G, GOODPUT_25G
from repro.raid.geometry import RaidLevel
from repro.workloads import FioWorkload


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


def _failed_chunk_row(x, system, array, io_size, qd, chunks, fast) -> Row:
    """Reads of ``io_size`` at ``qd`` that all land on the failed member 0's
    chunks (``chunks`` of them, remapped by :class:`_FailedChunkView`), so
    every I/O pays the reconstruction path: a rebuild job's read stream."""
    fio = FioWorkload(
        _FailedChunkView(array),
        io_size=io_size,
        read_fraction=1.0,
        queue_depth=qd,
        capacity=array.geometry.chunk_bytes * chunks,
    )
    return _row(x, system, fio.run(measure_ns=measure_window_ns(fast)))


def _rebuild_row(x, system, width, level: RaidLevel, fast) -> Row:
    """Figure 17a: the rebuild read stream, chunk-sized reads at the default
    queue depth, on a width-``width`` array."""
    array = build_array(system, servers=width, level=level, failed_drives=(0,))
    return _failed_chunk_row(
        x, system, array, array.geometry.chunk_bytes, DEFAULT_QD, 4096, fast
    )


def _bw_aware_row(x, system, qd, width, level, fast) -> Row:
    """Figure 17b: random vs bandwidth-aware reducer on heterogeneous NICs.

    Half the storage servers get 25 Gbps NICs (enough to saturate one SSD's
    read stream), half 100 Gbps, as in the paper's setup.  The workload is
    the rebuild read stream of Figure 17a: every read funnels ``width - 2``
    partials through the chosen reducer's NIC, so picking a 25 Gbps reducer
    bottlenecks the whole reduction, which is exactly the load the §6.2
    algorithm avoids.  ``system`` names the reducer selector, ``qd`` ramps
    the load (the paper plots latency vs bandwidth).  The figure is RAID-5
    in the paper: ``level`` is ignored.
    """
    from repro.draid.reconstruction import BandwidthAwareSelector, RandomReducerSelector

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
    return _failed_chunk_row(x, system, array, DEFAULT_IO, qd, 2048, fast)


class _FailedChunkView:
    """Remaps a linear offset space onto the failed drive's chunks (drive 0)."""

    def __init__(self, inner):
        self.inner = inner
        self.env = inner.env
        self.geometry = inner.geometry

    def read(self, offset, nbytes, ctx=None, deadline_ns=None):
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
        return self.inner.read(user, nbytes, ctx=ctx, deadline_ns=deadline_ns)

    def write(self, offset, nbytes, data=None, ctx=None, deadline_ns=None):
        raise NotImplementedError("rebuild stream is read-only")
