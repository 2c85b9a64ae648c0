"""Shared experiment plumbing: the figures' array builder (a thin front
of :func:`repro.build_testbed`, which owns the system registry) and
single-point FIO runs (§9.1 methodology).

Defaults mirror the paper: 128 KiB I/O, 512 KiB chunk, 8 remote targets,
RAID-5, 100 Gbps NICs.  ``fast=True`` shortens measurement windows so the
full benchmark suite completes in minutes; ``fast=False`` (``--full`` on
the command line) takes the longer ones.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro import SYSTEMS, build_testbed
from repro.cluster import ClusterConfig
from repro.obs import ObservabilityConfig
from repro.net.nic import GOODPUT_100G
from repro.raid.geometry import RaidLevel
from repro.workloads import FioWorkload
from repro.workloads.fio import FioResult

KB = 1024
MB = 1_000_000

DEFAULT_SERVERS = 8
DEFAULT_CHUNK = 512 * KB
DEFAULT_IO = 128 * KB
DEFAULT_QD = 64


def measure_window_ns(fast: bool = True) -> int:
    return 15_000_000 if fast else 60_000_000


def nic_goodput_mb_s() -> float:
    """The paper's reference line: ~92 Gbps NIC goodput in MB/s."""
    return GOODPUT_100G / MB


def build_array(
    system: str,
    servers: int = DEFAULT_SERVERS,
    level: RaidLevel = RaidLevel.RAID5,
    chunk: int = DEFAULT_CHUNK,
    server_nic_rates: Optional[Sequence[float]] = None,
    failed_drives: Sequence[int] = (),
    observability: Optional[ObservabilityConfig] = None,
    **array_kwargs,
):
    """Fresh environment + cluster + controller for one experiment point.

    Pass ``observability=ObservabilityConfig()`` to arm per-I/O tracing and
    the utilization sampler on the new cluster (``array.cluster.obs``).
    """
    config = ClusterConfig(
        num_servers=servers,
        server_nic_rates=server_nic_rates,
        observability=observability,
    )
    _, _, array = build_testbed(
        system, level=level, chunk_bytes=chunk, config=config, **array_kwargs
    )
    for drive in failed_drives:
        array.fail_drive(drive)
    return array


def _measure(array, io_size, read_fraction, queue_depth, fast, seed) -> FioResult:
    fio = FioWorkload(
        array,
        io_size,
        read_fraction=read_fraction,
        queue_depth=queue_depth,
        seed=seed,
    )
    return fio.run(measure_ns=measure_window_ns(fast))


def fio_point(
    system: str,
    io_size: int = DEFAULT_IO,
    read_fraction: float = 0.0,
    servers: int = DEFAULT_SERVERS,
    level: RaidLevel = RaidLevel.RAID5,
    chunk: int = DEFAULT_CHUNK,
    queue_depth: int = DEFAULT_QD,
    failed_drives: Sequence[int] = (),
    server_nic_rates: Optional[Sequence[float]] = None,
    fast: bool = True,
    seed: int = 1234,
    **array_kwargs,
) -> FioResult:
    """Run one FIO measurement point on a fresh simulated testbed."""
    array = build_array(
        system,
        servers=servers,
        level=level,
        chunk=chunk,
        server_nic_rates=server_nic_rates,
        failed_drives=failed_drives,
        **array_kwargs,
    )
    return _measure(array, io_size, read_fraction, queue_depth, fast, seed)


def traced_fio_point(
    system: str,
    io_size: int = DEFAULT_IO,
    read_fraction: float = 0.0,
    fast: bool = True,
    seed: int = 1234,
    **build_kwargs,
):
    """Run one observability-armed FIO point; returns ``(FioResult, Observability)``.

    Identical methodology to :func:`fio_point` at its default queue depth
    (``build_kwargs`` are :func:`build_array`'s: ``servers``, ``level``,
    ``chunk``, ...) but the cluster is built with tracing armed: every
    measured I/O records a root span plus its host/NIC/fabric/target/drive
    child spans, and the utilization sampler covers exactly the measurement
    window.  Inspect ``obs.tracer`` with :func:`repro.obs.request_breakdowns`
    / :func:`repro.obs.chrome_trace_json` and ``obs.sampler.report()`` for
    the bottleneck attribution.
    """
    array = build_array(system, observability=ObservabilityConfig(), **build_kwargs)
    result = _measure(array, io_size, read_fraction, DEFAULT_QD, fast, seed)
    return result, array.cluster.obs
