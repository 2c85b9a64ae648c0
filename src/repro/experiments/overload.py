"""Overload figure: goodput collapse without admission control.

Open-loop offered-load sweep over every controller, protected vs raw:

* ``raw`` — the historic datapath: no admission bound, no deadlines, no
  retry budget.  Past saturation the arrival backlog grows without bound,
  every I/O completes later than its latency budget, and *goodput* (bytes
  delivered within budget) collapses toward zero even though throughput
  stays near capacity — the classic open-loop overload cliff.
* ``protected`` — the same testbed with :class:`repro.qos.OverloadConfig`
  armed: a bounded admission queue fast-rejects excess arrivals with a
  typed ``Busy``, deadlines propagate to the targets so stale work is shed
  instead of served, and admitted I/Os complete within budget.  Goodput
  flattens at capacity instead of collapsing.

The second scenario is a **metastable failure**: near-saturation load plus
a transient fail-slow member.  Timeout-driven retries amplify offered load
past capacity and keep the raw system collapsed even after the slow window
clears; the protected system's retry budget and deadline caps bound the
amplification and goodput recovers.

Wall-clock: each point is an independent testbed, so the sweep
parallelizes across worker processes (``-j``), byte-identical to serial.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import ClusterConfig, build_testbed
from repro.experiments.runner import SweepPoint, run_points
from repro.metrics.report import Row

KB = 1024
MS = 1_000_000

OVERLOAD_SYSTEMS = ("Linux", "SPDK", "dRAID")
#: offered load as multiples of the measured closed-loop saturation rate
OVERLOAD_MULTIPLIERS = (0.5, 1.0, 1.5, 2.0)
#: closed-loop saturation IOPS (64 KiB, 90% reads, qd 64, 8 targets) — the
#: sweep's 1.0x anchor; remeasure with workloads.FioWorkload when the
#: drive/NIC profiles change
SATURATION_IOPS = {"Linux": 160_000.0, "SPDK": 160_000.0, "dRAID": 195_000.0}

OVERLOAD_SERVERS = 8
OVERLOAD_CHUNK = 64 * KB
OVERLOAD_IO = 64 * KB
OVERLOAD_READ_FRACTION = 0.9
#: per-I/O latency budget: ~2x the p99 at closed-loop saturation
OVERLOAD_DEADLINE_NS = 5 * MS
OVERLOAD_ADMISSION_DEPTH = 64
OVERLOAD_TARGET_DEPTH = 96


def _testbed(system: str, protected: bool, **cluster_kwargs):
    """The figure's array; ``protected`` arms the overload-control hub."""
    from repro.qos import OverloadConfig

    overload = None
    if protected:
        overload = OverloadConfig(
            admission_depth=OVERLOAD_ADMISSION_DEPTH,
            target_queue_depth=OVERLOAD_TARGET_DEPTH,
            default_deadline_ns=OVERLOAD_DEADLINE_NS,
            retry_deposit_ratio=0.1,
        )
    config = ClusterConfig(
        num_servers=OVERLOAD_SERVERS, overload=overload, **cluster_kwargs
    )
    return build_testbed(system, chunk_bytes=OVERLOAD_CHUNK, config=config)[2]


def overload_point(
    system: str, protected: bool, multiplier: float, fast: bool = True
) -> Dict:
    """One offered-load point; returns plain (picklable) metrics."""
    from repro.workloads import OpenLoopWorkload

    array = _testbed(system, protected)
    measure_ns = 10 * MS if fast else 30 * MS
    workload = OpenLoopWorkload(
        array,
        OVERLOAD_IO,
        rate_iops=multiplier * SATURATION_IOPS[system],
        read_fraction=OVERLOAD_READ_FRACTION,
        seed=971,
        deadline_ns=OVERLOAD_DEADLINE_NS,
    )
    result = workload.run(warmup_ns=2 * MS, measure_ns=measure_ns)
    return _metrics(system, protected, f"{multiplier:g}x", result)


def metastable_point(system: str, protected: bool, fast: bool = True) -> Dict:
    """Metastable failure: a transient load spike ignites a retry storm.

    The array runs at 0.9x saturation with an aggressive 1 ms per-attempt
    timeout (resilient datapath armed).  A 5 ms spike of 2x extra traffic
    builds a backlog; once queueing delay exceeds the attempt timeout,
    every I/O times out and is re-sent, so the *effective* load stays far
    past capacity after the spike ends — the raw datapath never recovers
    (the defining signature of a metastable failure).  The protected arm
    bounds the feedback loop: admission caps the backlog so queueing delay
    stays below the timeout, deadlines cap each request's total attempt
    time, and the retry budget caps the storm's amplification factor.
    """
    from repro.faults.plan import FaultPlan
    from repro.faults.injector import FaultInjector
    from repro.workloads import OpenLoopWorkload

    array = _testbed(system, protected, io_timeout_ns=1 * MS)
    env = array.env
    # empty plan: arms the resilient (timeout/retry) datapath, injects nothing
    FaultInjector(array, FaultPlan([]), num_stripes=256)
    measure_ns = 20 * MS if fast else 60 * MS
    workload = OpenLoopWorkload(
        array,
        OVERLOAD_IO,
        rate_iops=0.9 * SATURATION_IOPS[system],
        read_fraction=OVERLOAD_READ_FRACTION,
        seed=971,
        deadline_ns=OVERLOAD_DEADLINE_NS,
    )
    spike = OpenLoopWorkload(
        array,
        OVERLOAD_IO,
        rate_iops=2.0 * SATURATION_IOPS[system],
        read_fraction=OVERLOAD_READ_FRACTION,
        seed=1337,
        deadline_ns=OVERLOAD_DEADLINE_NS,
    )

    def spike_window():
        yield env.timeout(4 * MS)
        stop = env.event()
        env.process(spike._arrivals(stop), name="spike")
        yield env.timeout(5 * MS)
        stop.succeed()

    env.process(spike_window(), name="spike.window")
    result = workload.run(warmup_ns=2 * MS, measure_ns=measure_ns)
    return _metrics(system, protected, "meta", result)


def _metrics(system: str, protected: bool, x: str, result) -> Dict:
    return {
        "system": system,
        "protected": protected,
        "x": x,
        "offered_mb_s": result.offered_mb_s,
        "throughput_mb_s": result.throughput_mb_s,
        "goodput_mb_s": result.goodput_mb_s,
        "goodput_fraction": result.goodput_fraction,
        "ops_offered": result.ops_offered,
        "ops_good": result.ops_good,
        "busy_rejections": result.busy_rejections,
        "deadline_failures": result.deadline_failures,
        "io_errors": result.io_errors,
        "late_completions": result.late_completions,
        "p99_us": result.latency.p99_ns / 1e3,
    }


def overload_rows(fast: bool = True, jobs: Optional[int] = None) -> List[Row]:
    """The full figure: load sweep plus the metastable scenario."""
    points = [
        SweepPoint(
            overload_point,
            dict(system=system, protected=protected, multiplier=m, fast=fast),
        )
        for system in OVERLOAD_SYSTEMS
        for protected in (False, True)
        for m in OVERLOAD_MULTIPLIERS
    ]
    points += [
        SweepPoint(metastable_point, dict(system=system, protected=protected, fast=fast))
        for system in OVERLOAD_SYSTEMS
        for protected in (False, True)
    ]
    rows = []
    for result in run_points(points, jobs=jobs):
        arm = "protected" if result["protected"] else "raw"
        rows.append(
            Row(
                x=result["x"],
                system=f"{result['system']}-{arm}",
                metrics={
                    "offered_mb_s": result["offered_mb_s"],
                    "throughput_mb_s": result["throughput_mb_s"],
                    "goodput_mb_s": result["goodput_mb_s"],
                    "goodput_fraction": result["goodput_fraction"],
                    "busy_rejections": float(result["busy_rejections"]),
                    "deadline_failures": float(result["deadline_failures"]),
                    "p99_us": result["p99_us"],
                },
            )
        )
    return rows
