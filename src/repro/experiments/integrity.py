"""Integrity figure: silent-corruption detection vs scrub pace.

Every system (Linux-MD model, SPDK model, dRAID) runs the same seeded
bit-rot schedule against a checksum-armed array while a closed-loop FIO
workload measures foreground bandwidth and tail latency.  The sweep
varies the online scrubber's pace — ``off`` plus three rates — to show
the tradeoff the integrity design exists to navigate:

* a *faster* scrub bounds detection latency (corruption is found and
  repaired within one pass) but taxes foreground bandwidth, since every
  scrubbed stripe reads all members through the same drives and locks;
* a *slower* (or absent) scrub is free, but corruption lingers until a
  foreground read or pre-write verification happens to trip over it —
  detection latency grows and residual corruption can outlive the run.

Arrays run in timing mode: detection keys off the drives' poisoned
extents, so the experiment measures the *mechanism's* latency and
bandwidth cost without hauling real bytes around.  Each point builds a
fresh testbed and parallelizes over worker processes like every other
figure.
"""

from __future__ import annotations

from typing import List, Optional

from repro import ClusterConfig, build_testbed
from repro.experiments.runner import SweepPoint, run_points
from repro.metrics.report import Row

KB = 1024
US = 1_000
MS = 1_000_000

INTEGRITY_SYSTEMS = ("Linux", "SPDK", "dRAID")

#: pace label -> ns of idle time per scrubbed stripe (None = scrubber off).
#: Labels are ordered from no scrub to continuous scrub for the table.
SCRUB_PACES = {
    "off": None,
    "slow": 1 * MS,
    "medium": 250 * US,
    "fast": 0,
}

NUM_SERVERS = 8
CHUNK = 64 * KB
NUM_STRIPES = 128
NUM_FAULTS = 10
ROT_LENGTH = 4 * KB


def _corruption_plan(system: str, warmup_ns: int, measure_ns: int):
    """The seeded bit-rot schedule — identical across scrub paces, so the
    pace is the only variable between points of one system."""
    import random

    from repro.faults.events import BitRot
    from repro.faults.plan import FaultPlan

    rng = random.Random(f"repro.integrity:{system}")
    events = []
    for i in range(NUM_FAULTS):
        # spread injections over the first half of the measurement window
        at_ns = warmup_ns + (i * measure_ns) // (2 * NUM_FAULTS)
        server = rng.randrange(NUM_SERVERS)
        stripe = rng.randrange(NUM_STRIPES)
        offset = stripe * CHUNK + rng.randrange(CHUNK - ROT_LENGTH)
        events.append(
            BitRot(
                at_ns,
                server=server,
                offset=offset,
                length=ROT_LENGTH,
                seed=rng.randrange(1 << 30),
            )
        )
    return FaultPlan(events)


def integrity_point(system: str, pace_label: str, fast: bool) -> Row:
    """One (system, scrub pace) cell of the integrity figure."""
    from repro.faults.injector import FaultInjector
    from repro.raid.scrubber import ScrubDaemon
    from repro.storage.integrity import IntegrityStore
    from repro.workloads import FioWorkload

    warmup_ns = 2 * MS
    measure_ns = 24 * MS if fast else 48 * MS
    #: post-measurement grace period: the workload stops but the scrubber
    #: keeps walking, so late injections get their pace-bound shot at
    #: detection before the residual count is taken
    drain_ns = 20 * MS

    config = ClusterConfig(num_servers=NUM_SERVERS, io_timeout_ns=2 * MS)
    env, cluster, array = build_testbed(system, chunk_bytes=CHUNK, config=config)
    IntegrityStore(CHUNK).attach(cluster)
    FaultInjector(array, _corruption_plan(system, warmup_ns, measure_ns))
    pace_ns = SCRUB_PACES[pace_label]
    daemon = (
        ScrubDaemon(array, NUM_STRIPES, pace_ns=pace_ns, repeat=True)
        if pace_ns is not None
        else None
    )
    # Read-only foreground: reads verify only the chunks they touch (and
    # never parity), so the scrubber is the primary detector and its pace
    # governs detection latency.  A write-heavy mix would hide the effect:
    # pre-write verification scans whole stripes and finds rot first.
    fio = FioWorkload(
        array,
        CHUNK,
        read_fraction=1.0,
        queue_depth=8,
        capacity=NUM_STRIPES * array.geometry.stripe_data_bytes,
        seed=4321,
    )
    result = fio.run(warmup_ns=warmup_ns, measure_ns=measure_ns)
    env.run(until=env.now + drain_ns)

    stats = array.integrity_stats
    store = array.integrity
    drives = array.drives
    residual = sum(
        len(store.verify_members(drives, c, range(len(drives))))
        for c in range(NUM_STRIPES)
    )
    mean_ns = stats.mean_detection_latency_ns()
    return Row(
        x=f"scrub-{pace_label}",
        system=system,
        metrics={
            "bandwidth_mb_s": result.bandwidth_mb_s,
            "avg_latency_us": result.latency.mean_us,
            "p99_latency_us": result.latency.p99_us,
            "scrub_passes": (
                daemon.stripes_scanned_total / NUM_STRIPES if daemon else 0.0
            ),
            "detected": float(stats.total_detected),
            "repaired": float(stats.total_repaired),
            "detect_mean_ms": 0.0 if mean_ns is None else mean_ns / MS,
            "residual_bad_chunks": float(residual),
        },
    )


def integrity_rows(fast: bool = True, jobs: Optional[int] = None) -> List[Row]:
    points = [
        SweepPoint(integrity_point, dict(system=system, pace_label=label, fast=fast))
        for label in SCRUB_PACES
        for system in INTEGRITY_SYSTEMS
    ]
    return run_points(points, jobs=jobs)
