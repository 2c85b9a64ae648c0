"""Application-level figure sweeps (§9.6: Figures 19, 20, 21).

Like the FIO sweeps, every (workload, system) cell is an independent
simulated testbed, declared as a :class:`SweepPoint` and executed through
:func:`repro.experiments.runner.run_points` so the cells can run on worker
processes without changing any result.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.apps import BlobFs, HashObjectStore, LsmConfig, LsmKvStore
from repro.experiments.common import build_array, measure_window_ns
from repro.experiments.runner import SweepPoint, run_forked, run_points
from repro.metrics.report import Row
from repro.raid.geometry import RaidLevel
from repro.workloads import YCSB_WORKLOADS, YcsbWorkload

KB = 1024
PAPER_WORKLOADS = ("A", "B", "C", "D", "F")
APP_SYSTEMS = ("SPDK", "dRAID")
#: Keys the fig19 store is preloaded with before each YCSB window.
LSM_KEYS = 150_000


def _row(workload, system, result) -> Row:
    return Row(
        x=f"YCSB-{workload}",
        system=system,
        metrics={
            "kiops": result.kiops,
            "avg_latency_us": result.latency.mean_us,
            "p99_latency_us": result.latency.p99_us,
        },
    )


def objectstore_ycsb(
    degraded: bool = False,
    workloads: Sequence[str] = PAPER_WORKLOADS,
    systems: Sequence[str] = APP_SYSTEMS,
    fast: bool = True,
    jobs: Optional[int] = None,
) -> List[Row]:
    """Figures 20 / 21: the hash object store under YCSB.

    Matches the paper's setup: 200 K objects of 128 KiB, uniform request
    distribution ("we set the distribution to uniform so that the maximum
    throughput of the object store can be observed"), on normal or
    degraded RAID-5.
    """
    points = [
        SweepPoint(
            _objectstore_row,
            dict(workload=workload, system=system, degraded=degraded, fast=fast),
        )
        for workload in workloads
        for system in systems
    ]
    return run_points(points, jobs=jobs)


def _objectstore_row(workload: str, system: str, degraded: bool, fast: bool) -> Row:
    array = build_array(
        system,
        level=RaidLevel.RAID5,
        failed_drives=(0,) if degraded else (),
    )
    store = HashObjectStore(array, object_size=128 * KB, num_objects=200_000)
    ycsb = YcsbWorkload(
        store,
        YCSB_WORKLOADS[workload],
        num_keys=store.num_objects,
        clients=32,
        uniform=True,
    )
    result = ycsb.run(measure_ns=measure_window_ns(fast))
    return _row(workload, system, result)


def lsm_ycsb(
    degraded: bool = False,
    workloads: Sequence[str] = PAPER_WORKLOADS,
    systems: Sequence[str] = APP_SYSTEMS,
    fast: bool = True,
    jobs: Optional[int] = None,
) -> List[Row]:
    """Figure 19: the LSM KV store (RocksDB stand-in) on BlobFS under YCSB.

    A single store instance (BlobFS supports only one), zipfian request
    distribution as in standard YCSB; small values so most reads hit
    memory structures and the gains are capped by instance-internal
    serialization, as the paper observes.

    The preload is the same for every workload of one system, so each
    system is one sweep point: it preloads once and runs each workload in
    a forked child of the preloaded process.  Rows come back in the
    (workload, system) order of the other figures.
    """
    points = [
        SweepPoint(
            _lsm_rows,
            dict(system=system, degraded=degraded, workloads=tuple(workloads), fast=fast),
        )
        for system in systems
    ]
    by_system = run_points(points, jobs=jobs)
    return [rows[i] for i in range(len(workloads)) for rows in by_system]


def _lsm_rows(
    system: str,
    degraded: bool,
    workloads: Sequence[str],
    fast: bool,
    keys: int = LSM_KEYS,
) -> List[Row]:
    """One row per workload, all from one preload of ``keys`` keys."""
    array = build_array(
        system,
        level=RaidLevel.RAID5,
        failed_drives=(0,) if degraded else (),
    )
    fs = BlobFs(array, cluster_bytes=1024 * KB)
    # cache sized below the dataset so a realistic fraction of
    # lookups reaches the array (RocksDB uses <5% of array
    # bandwidth in the paper, but not zero); the keyspace spans
    # enough stripes that block reads do not artificially convoy
    # on a handful of stripe locks
    store = LsmKvStore(
        fs,
        LsmConfig(memtable_bytes=16 * 1024 * KB,
                  block_cache_bytes=48 * 1024 * KB),
    )
    preload = store.env.process(_preload(store, keys=keys))
    store.env.run(until=preload)
    return [
        run_forked(_lsm_row, store, workload, system, fast, keys)
        for workload in workloads
    ]


def _lsm_row(store: LsmKvStore, workload: str, system: str, fast: bool, keys: int) -> Row:
    ycsb = YcsbWorkload(store, YCSB_WORKLOADS[workload], num_keys=keys, clients=16)
    result = ycsb.run(measure_ns=measure_window_ns(fast))
    return _row(workload, system, result)


def _preload(store: LsmKvStore, keys: int):
    for key in range(keys):
        yield store.put(key)
    # let background flush/compaction finish so the measurement window is
    # not polluted by preload-induced compaction I/O
    while (
        store._flush_lock
        or store._compaction_lock
        or store._immutable
        or len(store._levels[0]) >= store.config.level0_compaction_trigger
    ):
        yield store.env.timeout(5_000_000)
    yield store.env.timeout(20_000_000)
    # measurements are taken against a warm block cache (standard YCSB
    # practice; a cold cache would mostly measure warmup convoying)
    store.warm_cache()
