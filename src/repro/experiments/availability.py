"""Availability figure: Monte Carlo durability under correlated faults.

Many-seed sweep estimating **data-loss-event rate** (the reciprocal of
MTTDL) and **rebuild-exposure time** for each system under two fault
processes with the *same* marginal failure count:

* ``independent`` — three drive failures at independent uniform times on
  independently chosen members (the classical MTTDL model's assumption);
* ``correlated`` — one :class:`~repro.faults.events.BatchFailureStorm`:
  three failures inside one shared-manufacturing-batch domain, spaced by
  a seeded Weibull hazard over a few milliseconds.

Every seed runs the identical fault timeline against Linux-MD, SPDK and
dRAID (RAID-6, 12 targets) with a foreground FIO workload and the
:class:`~repro.raid.recovery.RecoveryOrchestrator` handling detection,
hot-spare allocation and risk-ordered concurrent rebuild.  Data loss is a
stripe exceeding parity erasures before rebuild catches up, so the figure
is decided by rebuild speed under load: dRAID reconstructs peer-to-peer
and drains the exposure window fastest; the host-centric baselines funnel
every surviving chunk through one host.

Wall-clock: each point is an independent testbed, so the sweep
parallelizes across worker processes (`-j`), byte-identical to serial.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro import ClusterConfig, RaidLevel, build_testbed
from repro.experiments.runner import SweepPoint, run_points
from repro.metrics.availability import ExposureTracker, loss_rate_per_hour
from repro.metrics.report import Row

KB = 1024
MS = 1_000_000

AVAIL_SYSTEMS = ("Linux", "SPDK", "dRAID")
AVAIL_PROCESSES = ("independent", "correlated")
AVAIL_DRIVES = 12
AVAIL_STRIPES = 64
AVAIL_CHUNK = 64 * KB
AVAIL_FAILURES = 3
AVAIL_SPARES = 2
AVAIL_CONCURRENCY = 8
AVAIL_POLL_NS = 200_000


def _fault_plan(process: str, seed: int, horizon_ns: int):
    """The seeded fault timeline — identical for every system."""
    from repro.faults.events import BatchFailureStorm, DriveFail
    from repro.faults.plan import FaultPlan

    rng = random.Random(f"repro.experiments.availability:{process}:{seed}")
    if process == "correlated":
        events = [
            BatchFailureStorm(
                at_ns=3 * MS,
                batch_id=rng.randrange(2),
                count=AVAIL_FAILURES,
                spread_ns=rng.randint(2 * MS, 8 * MS),
                shape=1.0,
                seed=rng.randrange(1 << 30),
            )
        ]
    elif process == "independent":
        victims = rng.sample(range(AVAIL_DRIVES), AVAIL_FAILURES)
        window = max(MS, horizon_ns - 15 * MS)
        events = [
            DriveFail(3 * MS + rng.randint(0, window), server=victim)
            for victim in victims
        ]
    else:
        raise ValueError(f"unknown fault process {process!r}")
    return FaultPlan(sorted(events, key=lambda e: e.at_ns))


def availability_point(system: str, process: str, seed: int, fast: bool = True) -> Dict:
    """One seeded durability run; returns plain (picklable) metrics."""
    from repro.faults.domains import default_topology
    from repro.faults.injector import FaultInjector
    from repro.raid.recovery import RecoveryOrchestrator, SparePool
    from repro.workloads import FioWorkload

    horizon_ns = 60 * MS if fast else 90 * MS
    config = ClusterConfig(
        num_servers=AVAIL_DRIVES,
        io_timeout_ns=2 * MS,
        domains=default_topology(AVAIL_DRIVES),
    )
    env, _, array = build_testbed(
        system, level=RaidLevel.RAID6, chunk_bytes=AVAIL_CHUNK, config=config
    )
    plan = _fault_plan(process, seed, horizon_ns)
    injector = FaultInjector(array, plan, num_stripes=AVAIL_STRIPES)
    tracker = ExposureTracker()
    orchestrator = RecoveryOrchestrator(
        array,
        num_stripes=AVAIL_STRIPES,
        spares=SparePool(env, AVAIL_SPARES),
        concurrency=AVAIL_CONCURRENCY,
        poll_ns=AVAIL_POLL_NS,
        exposure=tracker,
    )
    orchestrator.start_watch(auto_rebuild=True)
    fio = FioWorkload(
        array, 128 * KB, read_fraction=0.7, queue_depth=16, seed=11
    )
    stop = env.event()
    for _ in range(fio.queue_depth):
        env.process(fio._worker(stop), name="fio")
    env.run(until=horizon_ns)
    orchestrator.stop_watch()
    stop.succeed()
    stats = orchestrator.stats
    completed = stats.rebuilds_completed
    return {
        "system": system,
        "process": process,
        "seed": seed,
        "loss_events": tracker.loss_events,
        "degraded_ms": tracker.degraded_ms(),
        "double_degraded_ms": tracker.double_degraded_ns / 1e6,
        "zero_redundancy_ms": tracker.zero_redundancy_ms(),
        "worst_erasures": tracker.worst_erasures,
        "rebuilds_completed": completed,
        "rebuild_ms": (stats.rebuild_ns_total / completed / 1e6) if completed else 0.0,
        "chunks_unrecoverable": stats.chunks_unrecoverable,
        "spare_waits": orchestrator.spares.waits,
        "io_errors": fio.io_errors,
        "horizon_ns": horizon_ns,
    }


def aggregate_rows(results: List[Dict]) -> List[Row]:
    """Mean per (process, system) across seeds -> one figure row each."""
    groups: Dict[tuple, List[Dict]] = {}
    for result in results:
        groups.setdefault((result["process"], result["system"]), []).append(result)
    rows = []
    for process in AVAIL_PROCESSES:
        for system in AVAIL_SYSTEMS:
            runs = groups.get((process, system))
            if not runs:
                continue
            count = len(runs)
            total_loss = sum(r["loss_events"] for r in runs)
            total_ns = sum(r["horizon_ns"] for r in runs)
            rebuilt = [r for r in runs if r["rebuilds_completed"]]
            rows.append(
                Row(
                    x=process,
                    system=system,
                    metrics={
                        "data_loss_per_hour": loss_rate_per_hour(total_loss, total_ns),
                        "loss_run_fraction": sum(
                            1 for r in runs if r["loss_events"]
                        ) / count,
                        "degraded_ms": sum(r["degraded_ms"] for r in runs) / count,
                        "zero_redundancy_ms": sum(
                            r["zero_redundancy_ms"] for r in runs
                        ) / count,
                        "rebuild_ms": (
                            sum(r["rebuild_ms"] for r in rebuilt) / len(rebuilt)
                            if rebuilt
                            else 0.0
                        ),
                    },
                )
            )
    return rows


def availability_rows(
    fast: bool = True, jobs: Optional[int] = None, seeds: Optional[range] = None
) -> List[Row]:
    if seeds is None:
        seeds = range(1, 7) if fast else range(1, 17)
    points = [
        SweepPoint(
            availability_point,
            dict(system=system, process=process, seed=seed, fast=fast),
        )
        for process in AVAIL_PROCESSES
        for system in AVAIL_SYSTEMS
        for seed in seeds
    ]
    return aggregate_rows(run_points(points, jobs=jobs))
