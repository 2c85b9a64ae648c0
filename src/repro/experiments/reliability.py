"""Reliability figure (§5.4): the datapath through a fault storm.

Two sweeps, both driven by :mod:`repro.faults`:

* **Fault storm**: every system runs the same scripted plan — a member
  dies at 10 ms and is healed (replacement + online rebuild) at 40 ms —
  and a closed-loop FIO workload measures one window per phase:
  ``healthy`` (before the fault), ``degraded`` (after fencing),
  ``rebuild`` (during reconstruction) and ``healed`` (after the rebuild
  completes).  The figure shows how throughput dips and recovers.

* **Fail-slow**: a dRAID member turns 10x slower (a fail-slow fault,
  not a fail-stop).  Without detection the array's read tail latency is
  held hostage by the slow member; with the EWMA detector the member is
  ejected into the degraded set and p99 recovers to within 2x healthy.

Each point builds a fresh simulated testbed, so the sweep parallelizes
over worker processes like every other figure.
"""

from __future__ import annotations

from typing import List, Optional

from repro import ClusterConfig, build_testbed
from repro.metrics.report import Row
from repro.experiments.runner import SweepPoint, run_points

KB = 1024
MS = 1_000_000

STORM_SYSTEMS = ("Linux", "SPDK", "dRAID")
STORM_VICTIM = 1
STORM_FAIL_AT = 10 * MS
STORM_HEAL_AT = 40 * MS
STORM_REBUILD_STRIPES = 128
#: phase -> (measurement window start, window length), sim ns
STORM_PHASES = {
    "healthy": (2 * MS, 6 * MS),
    "degraded": (14 * MS, 12 * MS),
    "rebuild": (41 * MS, 8 * MS),
    "healed": (60 * MS, 12 * MS),
}

FAILSLOW_MODES = ("baseline", "failslow", "detected")
FAILSLOW_VICTIM = 2
FAILSLOW_FACTOR = 10.0
#: the attempt timeout that lets the §5.4 resilient datapath notice a fault
#: inside one phase window (the production default is 50 ms)
ARMED_TIMEOUT_NS = 2 * MS


def storm_point(system: str, phase: str) -> Row:
    """One phase window of the scripted crash -> rebuild -> heal storm."""
    from repro.faults.events import DriveFail, DriveHeal
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.workloads import FioWorkload

    config = ClusterConfig(io_timeout_ns=ARMED_TIMEOUT_NS)
    _, _, array = build_testbed(system, chunk_bytes=64 * KB, config=config)
    plan = FaultPlan(
        [
            DriveFail(STORM_FAIL_AT, server=STORM_VICTIM),
            DriveHeal(STORM_HEAL_AT, server=STORM_VICTIM),
        ]
    )
    injector = FaultInjector(array, plan, num_stripes=STORM_REBUILD_STRIPES)
    start_ns, window_ns = STORM_PHASES[phase]
    fio = FioWorkload(
        array, 64 * KB, read_fraction=0.5, queue_depth=16, seed=4321
    )
    result = fio.run(warmup_ns=start_ns, measure_ns=window_ns)
    return Row(
        x=f"storm-{phase}",
        system=system,
        metrics={
            "bandwidth_mb_s": result.bandwidth_mb_s,
            "avg_latency_us": result.latency.mean_us,
            "p99_latency_us": result.latency.p99_us,
            "io_errors": float(fio.io_errors),
            "retries": float(array.fault_stats.retries),
            "degraded_transitions": float(array.fault_stats.degraded_transitions),
        },
    )


def failslow_point(mode: str) -> Row:
    """dRAID read tail latency with a 10x fail-slow member (§5.4)."""
    from repro.faults.detect import FailSlowDetector
    from repro.faults.events import DriveFailSlow
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.workloads import FioWorkload

    kwargs = {}
    if mode == "detected":
        kwargs["failslow_detector"] = FailSlowDetector()
    config = ClusterConfig(io_timeout_ns=ARMED_TIMEOUT_NS)
    _, _, array = build_testbed("dRAID", chunk_bytes=64 * KB, config=config, **kwargs)
    events = []
    if mode != "baseline":
        events.append(
            DriveFailSlow(
                0, server=FAILSLOW_VICTIM, multiplier=FAILSLOW_FACTOR, duration_ns=0
            )
        )
    FaultInjector(array, FaultPlan(events))
    fio = FioWorkload(array, 64 * KB, read_fraction=1.0, queue_depth=16, seed=97)
    # a long warmup gives the EWMA detector its observation window
    result = fio.run(warmup_ns=10 * MS, measure_ns=15 * MS)
    return Row(
        x=f"failslow-{mode}",
        system="dRAID",
        metrics={
            "bandwidth_mb_s": result.bandwidth_mb_s,
            "avg_latency_us": result.latency.mean_us,
            "p99_latency_us": result.latency.p99_us,
            "fail_slow_ejections": float(array.fault_stats.fail_slow_ejections),
        },
    )


def reliability_rows(fast: bool = True, jobs: Optional[int] = None) -> List[Row]:
    points = [
        SweepPoint(storm_point, dict(system=system, phase=phase))
        for phase in STORM_PHASES
        for system in STORM_SYSTEMS
    ]
    points += [SweepPoint(failslow_point, dict(mode=mode)) for mode in FAILSLOW_MODES]
    return run_points(points, jobs=jobs)
