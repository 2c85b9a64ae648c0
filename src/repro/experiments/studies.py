"""Design studies: what dRAID's own choices, and two alternatives, cost.

Three experiments beyond the paper's figures, each a registry id of
:data:`repro.experiments.registry.ADDED_FIGURES` whose bounds are rows of
:data:`repro.experiments.paper_values.REPO_CLAIMS`:

* ``ablation`` — two of the paper's three key techniques toggled off one
  at a time.  Without the §5.3 parallel I/O pipeline a data bdev fetches,
  reads, writes and forwards strictly serially, like plain NVMe-oF
  (``pipeline``: a FIO write run).  Without the §5.2 non-blocking
  multi-stage write a bdev cannot process peer partials before the Parity
  command arrives; the cost shows exactly when that command is *late*
  (``late-parity``: six 512 KiB partials reduced, the Parity capsule
  delayed 800 us).  The third technique, §6.2 bandwidth-aware
  reconstruction, is Figure 17b.
* ``nvram_staging`` — the §2.3 alternative the paper dismisses: batch
  partial writes into full stripes behind non-volatile memory
  (:class:`~repro.baselines.LogStructuredRaid`).  It wins random small
  writes (``random-16KB``) and acknowledges a burst at NVRAM speed
  (``burst``), but pays background amplification once garbage collection
  has to relocate live blocks (``churn``).
* ``rebuild_throttle`` — an operational question the paper's hot-spare
  story (§1) raises: how hard may a rebuild run before the foreground
  suffers?  dRAID rebuilds peer to peer, so the interference is drive and
  server side only.  x is the throttle between rebuilt stripes;
  ``no-rebuild`` is the foreground alone.

Every point is an independent testbed, so each study parallelizes across
worker processes (``-j``), byte-identical to serial.
"""

from __future__ import annotations

from typing import List, Optional

from repro import build_testbed
from repro.experiments.runner import SweepPoint, run_points
from repro.metrics.report import Row

KB = 1024
MS = 1_000_000

SERVERS = 8
#: the ablation's late Parity capsule, and the partials it reduces
PARITY_DELAY_NS = 800_000
PARTIALS = 6
#: the rebuild study's stripe count and throttles (us between stripes)
REBUILD_STRIPES = 48
THROTTLES_US = (0, 100, 500, 2000)
#: every FIO window of the studies but the GC churn's, and the churn's
WINDOW_NS = 15 * MS
CHURN_NS = 60 * MS


def _fio_row(x: str, system: str, array, io_bytes: int, measure_ns: int, **kwargs) -> Row:
    from repro.workloads import FioWorkload

    result = FioWorkload(array, io_bytes, **kwargs).run(measure_ns=measure_ns)
    return Row(x, system, {
        "bandwidth_mb_s": result.bandwidth_mb_s,
        "avg_latency_us": result.latency.mean_us,
    })


# -- ablation ------------------------------------------------------------------


def pipeline_point(pipeline: bool) -> Row:
    """RAID-5 128 KiB writes at QD 16, the §5.3 pipeline on or off."""
    _, _, array = build_testbed("dRAID", servers=SERVERS, pipeline=pipeline)
    system = "dRAID" if pipeline else "dRAID-serial"
    return _fio_row("pipeline", system, array, 128 * KB, WINDOW_NS,
                    read_fraction=0.0, queue_depth=16)


def late_parity_point(blocking_reduce: bool) -> Row:
    """When the reduce completes if the Parity capsule comes late.

    Six data bdevs forward full-chunk (512 KiB) partials to the parity bdev
    of one reconstruct-write stripe; the host sends the Parity command
    :data:`PARITY_DELAY_NS` later (network or scheduling jitter).  The
    bdevs are driven directly over the host's NVMe-oF connections, with
    no host array in between.
    """
    from repro.cluster import ClusterConfig, build_cluster
    from repro.draid.bdev import DraidBdevServer
    from repro.draid.protocol import ParityCmd, PartialWriteCmd, Subtype
    from repro.nvmeof.messages import next_cid
    from repro.sim import Environment

    env = Environment()
    cluster = build_cluster(env, ClusterConfig(num_servers=SERVERS))
    for server in range(SERVERS):
        DraidBdevServer(cluster, server, blocking_reduce=blocking_reduce)
    host_ends = [
        cluster.host_connection(server).end_for(cluster.host.nic)
        for server in range(SERVERS)
    ]
    chunk = 512 * KB
    cid = next_cid()

    def driver():
        # each data bdev reads its chunk and forwards it as a partial parity
        for member in range(1, PARTIALS + 1):
            host_ends[member].send(PartialWriteCmd(
                cid, subtype=Subtype.RW_READ, chunk_drive_offset=0, length=0,
                chunk_offset=0, data_index=member - 1, fwd_offset=0,
                fwd_length=chunk, dests=((0, None),),
            ))
        yield env.timeout(PARITY_DELAY_NS)
        host_ends[0].send(ParityCmd(
            cid, subtype=Subtype.RW_READ, chunk_drive_offset=0,
            fwd_offset=0, fwd_length=chunk, wait_num=PARTIALS,
        ))
        completion = yield host_ends[0].recv()
        if completion.kind != "parity" or not completion.ok:
            raise RuntimeError(f"late-parity reduce failed: {completion}")

    env.run(until=env.process(driver()))
    system = "dRAID-barrier" if blocking_reduce else "dRAID"
    return Row("late-parity", system, {"parity_done_us": env.now / 1000})


def ablation_rows(fast: bool = True, jobs: Optional[int] = None) -> List[Row]:
    """The §5.3 pipeline on/off, then the §5.2 reduce under a late Parity.

    One set of windows: ``fast`` is accepted, as by every figure, and ignored.
    """
    points = [SweepPoint(pipeline_point, dict(pipeline=on)) for on in (True, False)]
    points += [SweepPoint(late_parity_point, dict(blocking_reduce=b)) for b in (False, True)]
    return run_points(points, jobs=jobs)


# -- NVRAM staging -------------------------------------------------------------


def random_write_point(system: str) -> Row:
    """Sustained random 16 KiB writes at QD 32 over a 1 GiB span."""
    kwargs = {"log_stripes": 2048} if system == "Log-RAID" else {}
    _, _, array = build_testbed(system, servers=SERVERS, **kwargs)
    return _fio_row("random-16KB", system, array, 16 * KB, WINDOW_NS,
                    read_fraction=0.0, queue_depth=32, capacity=1 << 30)


def burst_point() -> Row:
    """One 16 KiB write into an idle staging buffer: the NVRAM ack."""
    env, _, array = build_testbed("Log-RAID", servers=SERVERS, log_stripes=256)
    start = env.now
    env.run(until=array.write(0, 16 * KB))
    return Row("burst", "Log-RAID", {"ack_us": (env.now - start) / 1000})


def churn_point() -> Row:
    """Overwrites of a working set nearly filling a 32-stripe log, then
    the idle time GC needs to finish: it must relocate mostly live blocks."""
    from repro.workloads import FioWorkload

    env, _, array = build_testbed("Log-RAID", servers=SERVERS, log_stripes=32)
    array.gc_low_watermark = 0.3
    FioWorkload(
        array, 16 * KB, read_fraction=0.0, queue_depth=32,
        capacity=24 * array.geometry.stripe_data_bytes,
    ).run(measure_ns=CHURN_NS)
    env.run(until=env.now + 100 * MS)
    return Row("churn", "Log-RAID", {
        "write_amp_x": array.log_stats.write_amplification(),
        "gc_blocks_moved": float(array.log_stats.gc_blocks_moved),
    })


def nvram_staging_rows(fast: bool = True, jobs: Optional[int] = None) -> List[Row]:
    """Random writes on both designs, then the log's burst and churn
    (``fast`` ignored)."""
    points = [
        SweepPoint(random_write_point, dict(system=system)) for system in ("dRAID", "Log-RAID")
    ]
    points += [SweepPoint(burst_point), SweepPoint(churn_point)]
    return run_points(points, jobs=jobs)


# -- rebuild throttle ----------------------------------------------------------


def throttle_point(throttle_us: Optional[int]) -> Row:
    """A 70 % read 64 KiB foreground over a width-8 RAID-5 array while
    member 3 rebuilds with ``throttle_us`` between stripes (``None``: no
    failure, no rebuild)."""
    from repro.raid.rebuild import RebuildJob
    from repro.workloads import FioWorkload

    env, _, array = build_testbed("dRAID", servers=SERVERS, chunk_bytes=256 * KB)
    job = None
    if throttle_us is not None:
        array.fail_drive(3)
        job = RebuildJob(array, 3, num_stripes=REBUILD_STRIPES, throttle_ns=throttle_us * 1000)
        done = job.start()
    foreground = FioWorkload(array, 64 * KB, read_fraction=0.7, queue_depth=16).run(
        warmup_ns=500_000, measure_ns=WINDOW_NS
    )
    if job is not None:
        env.run(until=done)
    return Row(
        "no-rebuild" if job is None else f"{throttle_us}us", "dRAID", {
            "bandwidth_mb_s": foreground.bandwidth_mb_s,
            "p99_us": foreground.latency.p99_us,
            "rebuild_mb_s": 0.0 if job is None else job.stats.rate_mb_s(),
        },
    )


def rebuild_throttle_rows(fast: bool = True, jobs: Optional[int] = None) -> List[Row]:
    """One point per throttle, then the foreground without a rebuild
    (``fast`` ignored)."""
    points = [
        SweepPoint(throttle_point, dict(throttle_us=throttle_us))
        for throttle_us in (*THROTTLES_US, None)
    ]
    return run_points(points, jobs=jobs)
