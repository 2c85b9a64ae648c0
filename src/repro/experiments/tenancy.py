"""Tenancy figure: noisy-neighbor isolation and hot-spot migration.

Two rack-scale scenarios, each run for every controller:

* **noisy neighbor** — a well-behaved *victim* (0.35x saturation, Poisson)
  shares one array with a bursty aggressor offering 1.6x saturation.  With
  rack QoS off the victim's goodput collapses and its p99 blows through
  the latency budget even though its own load never changed; with QoS on
  (fair-share weight 4 vs 1 plus a token-bucket cap on the aggressor) the
  victim retains its full solo goodput while the aggressor bounces off its
  own queue limit.  Each point also measures the victim *solo* on an
  otherwise idle rack — the denominator of the retention metric.
* **hot spot** — two hot tenants saturate array ``a0`` while ``a1`` idles
  at 20% load.  The *static* arm leaves placement alone; the *migrate*
  arm arms the :class:`~repro.rack.HotSpotBalancer`, which detects the
  backlogged front door and live-migrates the hottest volume to ``a1``
  during phase 1.  Phase 2 then shows the recovery: both hot tenants'
  goodput rises and the ``Busy`` fast-rejects drain away, while the
  static arm's phase 2 repeats phase 1.

Every point is an independent testbed, so the sweep parallelizes across
worker processes (``-j``), byte-identical to serial.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.overload import SATURATION_IOPS
from repro.experiments.runner import SweepPoint, run_points
from repro.metrics.report import Row
from repro.metrics.tenancy import fairness_index, goodput_retention

KB = 1024
MB = 1_000_000
MS = 1_000_000

TENANCY_SYSTEMS = ("Linux", "SPDK", "dRAID")
TENANCY_SERVERS = 8
TENANCY_IO = 64 * KB
#: 64 KiB chunks, matching the saturation-anchor methodology of the
#: overload figure.  Small chunks matter doubly here: tenant volumes are
#: thin slices of the array's address space, and a large chunk would fold
#: a whole volume onto one or two stripes — serializing every I/O of a
#: tenant behind the stripe lock on controllers that lock reads (SPDK).
TENANCY_CHUNK = 64 * KB
#: 90% reads, as in the overload figure the saturation anchors come from
TENANCY_READ_FRACTION = 0.9
#: per-I/O latency budget, as in the overload figure (~2x saturation p99)
TENANCY_DEADLINE_NS = 5 * MS

#: noisy-neighbor scenario: victim and aggressor load as saturation multiples
VICTIM_MULTIPLIER = 0.35
NOISY_MULTIPLIER = 1.6
#: the QoS-on arm's knobs: victim outweighs the aggressor at the fair
#: queue, and the aggressor's token bucket caps its byte rate outright
VICTIM_WEIGHT = 4.0
NOISY_RATE_CAP_MB_S = 2000.0

#: hot-spot scenario: two tenants of this multiplier each saturate a0
HOT_MULTIPLIER = 0.8
STEADY_MULTIPLIER = 0.2
#: small volumes so the live migration completes within phase 1
HOT_VOLUME_BYTES = 4 << 20
BALANCER_INTERVAL_NS = 1 * MS
BALANCER_HIGH_BACKLOG = 24
BALANCER_LOW_BACKLOG = 8
BALANCER_EXTENT_BYTES = 512 * KB


def _build_rack(system: str, num_arrays: int, qos: bool):
    from repro.rack import ArraySpec, RackConfig, RackQosConfig, build_rack

    arrays = [
        ArraySpec(
            system=system,
            servers=TENANCY_SERVERS,
            chunk_bytes=TENANCY_CHUNK,
            name=f"a{i}",
        )
        for i in range(num_arrays)
    ]
    config = RackConfig(arrays=arrays, qos=RackQosConfig() if qos else None)
    return build_rack(None, config)


def _victim_spec(system: str, qos: bool):
    from repro.workloads import TenantSpec

    return TenantSpec(
        "victim",
        TENANCY_IO,
        VICTIM_MULTIPLIER * SATURATION_IOPS[system],
        volume_bytes=64 << 20,
        read_fraction=TENANCY_READ_FRACTION,
        deadline_ns=TENANCY_DEADLINE_NS,
        weight=VICTIM_WEIGHT if qos else 1.0,
        pin="a0",
    )


def noisy_point(system: str, qos: bool, fast: bool = True) -> Dict:
    """One noisy-neighbor point; returns plain (picklable) metrics.

    Runs the victim solo first (same seeds, same windows, idle rack) to
    anchor the retention metric, then shares the array with the aggressor.
    """
    from repro.workloads import MultiTenantWorkload, TenantSpec

    measure_ns = 10 * MS if fast else 20 * MS

    solo_rack = _build_rack(system, num_arrays=1, qos=qos)
    solo = MultiTenantWorkload(solo_rack, [_victim_spec(system, qos)]).run(
        warmup_ns=2 * MS, measure_ns=measure_ns
    )["victim"]

    rack = _build_rack(system, num_arrays=1, qos=qos)
    shared = MultiTenantWorkload(
        rack,
        [
            _victim_spec(system, qos),
            TenantSpec(
                "noisy",
                TENANCY_IO,
                NOISY_MULTIPLIER * SATURATION_IOPS[system],
                volume_bytes=64 << 20,
                read_fraction=TENANCY_READ_FRACTION,
                deadline_ns=TENANCY_DEADLINE_NS,
                arrival="bursty",
                weight=1.0,
                rate_limit_mb_s=NOISY_RATE_CAP_MB_S if qos else None,
                pin="a0",
            ),
        ],
    ).run(warmup_ns=2 * MS, measure_ns=measure_ns)
    victim, noisy = shared["victim"], shared["noisy"]
    return {
        "system": system,
        "qos": qos,
        "victim_solo_mb_s": solo.goodput_mb_s,
        "victim_goodput_mb_s": victim.goodput_mb_s,
        "victim_retention": goodput_retention(victim.goodput_mb_s, solo.goodput_mb_s),
        "victim_p99_us": victim.latency.p99_ns / 1e3,
        "noisy_goodput_mb_s": noisy.goodput_mb_s,
        "noisy_busy": noisy.busy_rejections,
        "fairness": fairness_index(
            [victim.goodput_mb_s, noisy.goodput_mb_s],
            [VICTIM_WEIGHT, 1.0] if qos else (),
        ),
    }


def hotspot_point(system: str, migrate: bool, fast: bool = True) -> Dict:
    """One hot-spot point; returns plain (picklable) per-phase metrics.

    Both arms run with rack QoS armed (the balancer's pressure signal is
    the fair queue's backlog); only the ``migrate`` arm starts the
    balancer.  Phase 1 is the saturated steady state, phase 2 the world
    after the balancer had its chance to act.
    """
    from repro.rack import HotSpotBalancer
    from repro.workloads import MultiTenantWorkload, TenantSpec

    phase_ns = 10 * MS if fast else 15 * MS
    rack = _build_rack(system, num_arrays=2, qos=True)
    tenants = [
        TenantSpec(
            f"hot{i}",
            TENANCY_IO,
            HOT_MULTIPLIER * SATURATION_IOPS[system],
            volume_bytes=HOT_VOLUME_BYTES,
            read_fraction=TENANCY_READ_FRACTION,
            deadline_ns=TENANCY_DEADLINE_NS,
            pin="a0",
        )
        for i in range(2)
    ] + [
        TenantSpec(
            "steady",
            TENANCY_IO,
            STEADY_MULTIPLIER * SATURATION_IOPS[system],
            volume_bytes=HOT_VOLUME_BYTES,
            read_fraction=TENANCY_READ_FRACTION,
            deadline_ns=TENANCY_DEADLINE_NS,
            pin="a1",
        )
    ]
    workload = MultiTenantWorkload(rack, tenants)
    if migrate:
        HotSpotBalancer(
            rack,
            interval_ns=BALANCER_INTERVAL_NS,
            high_backlog=BALANCER_HIGH_BACKLOG,
            low_backlog=BALANCER_LOW_BACKLOG,
            max_migrations=1,
            extent_bytes=BALANCER_EXTENT_BYTES,
        )
    phases = workload.run_phases(
        [phase_ns, phase_ns], warmup_ns=2 * MS, settle_ns=5 * MS
    )
    result = {"system": system, "migrate": migrate,
              "migrations": len(rack.volumes.migrations)}
    for i in range(2):
        hot = [phases["hot0"][i], phases["hot1"][i]]
        result[f"p{i + 1}_hot_goodput_mb_s"] = sum(r.goodput_mb_s for r in hot)
        result[f"p{i + 1}_hot_p99_us"] = max(r.latency.p99_ns for r in hot) / 1e3
        result[f"p{i + 1}_hot_busy"] = sum(r.busy_rejections for r in hot)
        result[f"p{i + 1}_steady_goodput_mb_s"] = phases["steady"][i].goodput_mb_s
    return result


def tenancy_rows(fast: bool = True, jobs: Optional[int] = None) -> List[Row]:
    """The full figure: isolation points then migration-recovery points."""
    points = [
        SweepPoint(noisy_point, dict(system=system, qos=qos, fast=fast))
        for system in TENANCY_SYSTEMS
        for qos in (False, True)
    ]
    points += [
        SweepPoint(hotspot_point, dict(system=system, migrate=migrate, fast=fast))
        for system in TENANCY_SYSTEMS
        for migrate in (False, True)
    ]
    rows: List[Row] = []
    for result in run_points(points, jobs=jobs):
        if "qos" in result:
            arm = "qos-on" if result["qos"] else "qos-off"
            rows.append(
                Row(
                    x="noisy-neighbor",
                    system=f"{result['system']}-{arm}",
                    metrics={
                        "victim_goodput_mb_s": result["victim_goodput_mb_s"],
                        "victim_retention": result["victim_retention"],
                        "victim_p99_us": result["victim_p99_us"],
                        "noisy_goodput_mb_s": result["noisy_goodput_mb_s"],
                        "noisy_busy": float(result["noisy_busy"]),
                        "fairness": result["fairness"],
                    },
                )
            )
        else:
            arm = "migrate" if result["migrate"] else "static"
            for phase in (1, 2):
                rows.append(
                    Row(
                        x=f"hotspot-p{phase}",
                        system=f"{result['system']}-{arm}",
                        metrics={
                            "hot_goodput_mb_s": result[f"p{phase}_hot_goodput_mb_s"],
                            "hot_p99_us": result[f"p{phase}_hot_p99_us"],
                            "hot_busy": float(result[f"p{phase}_hot_busy"]),
                            "steady_goodput_mb_s": result[
                                f"p{phase}_steady_goodput_mb_s"
                            ],
                            "migrations": float(result["migrations"]),
                        },
                    )
                )
    return rows
