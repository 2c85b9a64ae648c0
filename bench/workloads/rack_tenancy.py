"""``rack_tenancy``: open-loop tenants on a two-array rack at three
offered-load steps.

The only open-loop workload and the only one through ``rack``, ``qos``
and ``workloads.openloop/tenants``: token buckets, weighted fair
queueing, deadlines, ``Busy`` and one live migration.  Three fresh racks
(a0 dRAID, a1 SPDK, rack QoS armed), one per step: the tenants of a0
together offer 0.5x, 0.8x and 1.3x of a0's closed-loop saturation rate.
``victim`` (Poisson, weight 4) and ``noisy`` (bursty, rate-capped) live
on a0, ``steady`` (diurnal) on a1.  The hot-spot balancer is armed on the
1.3x step only.  (At 1.1x the backlog crosses the balancer's threshold
on some seeds and not on others, so rejections and migrations are
bimodal; at 1.3x every seed overloads a0 within a millisecond or two.)

Arrivals come from the program's own seeded clocks: the benchmark hands
it one seed per tenant, derived from ``--seed``.  An arrival is issued at
the simulated instant it is due, so the generator is never late and
latency is timed from the due time.  The fixed latency limit is the 5 ms
deadline; latency is reported at each fixed rate (all tenants pooled),
and end to end for the victim over the three steps.
"""

from __future__ import annotations

import random
from typing import Dict, List

from bench.harness import (
    HostClock, SystemRun, datapath_counters, end_to_end, resource_counters,
    system_layers,
)

KB = 1024
MS = 1_000_000
IO_BYTES = 64 * KB
CHUNK = 64 * KB
READ_SHARE = 0.9
DEADLINE_NS = 5 * MS
WARMUP_NS = 2 * MS
MEASURE_NS = 19 * MS
#: arrivals of the window get one deadline to finish; what is still in
#: flight after it has missed the limit anyway
DRAIN_NS = DEADLINE_NS
#: simulated time between two ticks of the host clock
PROBE_NS = 100_000
VOLUME_BYTES = 4 << 20
STEPS = (("r050", 0.5), ("r080", 0.8), ("r130", 1.3))
#: share of a0's offered load that is the victim's; the rest is the noisy one's
VICTIM_SHARE = 0.35
#: the noisy tenant's on-phase rate over its mean rate.  At the program's
#: default of 4 the number of arrivals in a window swings by a fifth from
#: seed to seed; at 2 every simulated metric is steadier.
NOISY_BURST_FACTOR = 2.0
#: one burst cycle per balancer scan, so the noisy volume is the hottest
#: in every scan and the balancer's pick does not depend on the seed
NOISY_BURST_PERIOD_NS = 1 * MS
#: steady tenant on a1, as a share of a1's saturation rate at every step
STEADY_LOAD = 0.2
NOISY_RATE_CAP_MB_S = 10000.0


def _tenants(step: float, seeds: Dict[str, int]):
    from repro.experiments.overload import SATURATION_IOPS
    from repro.workloads import TenantSpec

    a0 = step * SATURATION_IOPS["dRAID"]
    common = dict(volume_bytes=VOLUME_BYTES, read_fraction=READ_SHARE,
                  deadline_ns=DEADLINE_NS)
    return [
        TenantSpec("victim", IO_BYTES, VICTIM_SHARE * a0, weight=4.0, pin="a0",
                   seed=seeds["victim"], **common),
        TenantSpec("noisy", IO_BYTES, (1 - VICTIM_SHARE) * a0, arrival="bursty",
                   burst_factor=NOISY_BURST_FACTOR,
                   burst_period_ns=NOISY_BURST_PERIOD_NS,
                   rate_limit_mb_s=NOISY_RATE_CAP_MB_S, pin="a0",
                   seed=seeds["noisy"], **common),
        TenantSpec("steady", IO_BYTES, STEADY_LOAD * step * SATURATION_IOPS["SPDK"],
                   arrival="diurnal", pin="a1", seed=seeds["steady"], **common),
    ]


def _build_rack():
    from repro.rack import ArraySpec, RackConfig, RackQosConfig, build_rack

    # Rack QoS only.  Arming the arrays' own overload control as well makes
    # the balancer's migration stream (background priority, no handler for
    # a shed read) raise Busy out of the simulation at the 1.1x step.
    return build_rack(None, RackConfig(
        arrays=[
            ArraySpec(system="dRAID", chunk_bytes=CHUNK, name="a0"),
            ArraySpec(system="SPDK", chunk_bytes=CHUNK, name="a1"),
        ],
        qos=RackQosConfig(),
    ))


class RackTenancy:
    name = "rack_tenancy"
    host_layers: Dict[str, str] = {}

    def frozen_ops(self, scale: int):
        """Open loop: the arrival count follows the tenant seeds."""
        return None

    def setup(self, seed: int, scale: int, spans, reference: bool = True) -> Dict:
        with spans.span("setup.import"):
            from repro.rack import HotSpotBalancer
            from repro.workloads import MultiTenantWorkload
        with spans.span("setup.inputs"):
            rng = random.Random(seed)
            seeds = {(label, tenant): rng.randrange(1 << 31)
                     for label, _ in STEPS for tenant in ("victim", "noisy", "steady")}
        steps = []
        with spans.span("setup.build"):
            for label, step in STEPS:
                rack = _build_rack()
                workload = MultiTenantWorkload(rack, _tenants(
                    step, {t: seeds[(label, t)] for t in ("victim", "noisy", "steady")}
                ))
                if label == "r130":
                    HotSpotBalancer(rack, interval_ns=1 * MS, high_backlog=24,
                                    low_backlog=8, max_migrations=1,
                                    extent_bytes=512 * KB)
                steps.append({"label": label, "rack": rack, "workload": workload})
        return {"steps": steps, "measure_ns": MEASURE_NS // scale,
                "reference": reference}

    def measure(self, state: Dict, spans) -> List[SystemRun]:
        run = SystemRun("rack", "draid", clock=HostClock(state["reference"]))
        for step in state["steps"]:
            env = step["rack"].env
            wakeups = [0]

            def probe():
                # the program drives its own loop here, so the host clock is
                # ticked from a do-nothing process of the benchmark's own;
                # its timer events are taken back out of the event count
                while True:
                    yield env.timeout(PROBE_NS)
                    wakeups[0] += 1
                    run.clock.tick()

            with spans.span(f"run.measure.{step['label']}"):
                eid = env._eid
                run.clock.start()
                env.process(probe(), name="bench.probe")
                step["results"] = step["workload"].run(
                    warmup_ns=WARMUP_NS, measure_ns=state["measure_ns"],
                    drain_ns=DRAIN_NS,
                )
                run.clock.stop()
                # (the probe's start event and its pending timer count too)
                run.events += env._eid - eid - wakeups[0] - 2
        return [run]

    def finish(self, state: Dict, runs: List[SystemRun], spans):
        run = runs[0]
        layers: Dict[str, float] = {}
        totals = dict.fromkeys(("busy", "deadline", "late", "shed", "migrations"), 0)
        from repro.metrics.latency import LatencyRecorder

        victim_good = {}
        victim_latency = []
        # step r080's dRAID array over the whole step (warm-up and drain
        # included on both sides of every ratio): the fixed rate at which
        # latency, NIC amplification and utilisations are reported
        a0_run = SystemRun("a0.r080", "draid")
        for step in state["steps"]:
            label, rack, results = step["label"], step["rack"], step["results"]
            streams = step["workload"].streams
            # every tenant's completed I/Os of the step, pooled
            pooled = LatencyRecorder.merged(*(
                rec for stream in streams.values()
                for rec in (stream.reads, stream.writes)
            )).summarize()
            layers[f"rack.sim_p99_us.{label}"] = pooled.p99_ns / 1e3
            for result in results.values():
                run.ops += result.ops_offered
                run.good += result.ops_good
                run.failed += result.io_errors
                totals["busy"] += result.busy_rejections
                totals["deadline"] += result.deadline_failures
                totals["late"] += result.late_completions
            run.sim_ns += state["measure_ns"]
            victim_good[label] = results["victim"].goodput_fraction
            totals["migrations"] += len(rack.volumes.migrations)
            for entry in rack.arrays:
                # arrays' own overload control is unarmed here (see _build_rack)
                if entry.cluster.qos is not None:
                    totals["shed"] += entry.cluster.qos.stats.shed_background
            victim_latency += [streams["victim"].reads, streams["victim"].writes]
            if label == "r080":
                a0 = rack.array("a0")
                a0_run.ops = a0.array.stats.reads + a0.array.stats.writes
                a0_run.user_bytes = a0_run.ops * IO_BYTES
                a0_run.counters = resource_counters(a0.cluster, rack.env.now)
                a0_run.datapath = datapath_counters(a0.array)
        run.counters, run.user_bytes = a0_run.counters, a0_run.user_bytes
        # end to end: the tenant whose latency the rack is there to protect,
        # over the whole load sweep (one step alone has about 1 000 of its
        # I/Os and a p99 that moves 15 % from seed to seed)
        victim = LatencyRecorder.merged(*victim_latency).summarize()
        sim = end_to_end(
            runs, latency=(victim.p50_ns / 1e3, victim.p99_ns / 1e3, victim.count)
        )
        layers.update(system_layers([a0_run]))
        layers["sim.core.events_per_op.draid"] = sim["events_per_op"]
        layers["draid.sim_ops_per_s"] = sim["sim_ops_per_s"]
        layers["qos.busy_rejections"] = totals["busy"]
        layers["qos.deadline_exceeded"] = totals["deadline"]
        layers["qos.shed_background"] = totals["shed"]
        layers["workloads.openloop.late_completions"] = totals["late"]
        layers["rack.migrations"] = totals["migrations"]
        layers["rack.victim_retention"] = (
            victim_good["r130"] / victim_good["r050"] if victim_good["r050"] else 0.0
        )
        return sim, layers


RACK_TENANCY = RackTenancy()
