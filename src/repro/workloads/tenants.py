"""Multi-tenant open-loop traffic against a rack of arrays.

One :class:`TenantSpec` describes one tenant host: an open-loop arrival
stream (Poisson, bursty or diurnal — datacenter frontends compressed onto
the sim clock), a per-I/O latency budget, and the volume it rents from
the rack (size, expected demand, and QoS knobs — fair-share weight and
token-bucket rate limit).  :class:`MultiTenantWorkload` is the
orchestrator: it places every tenant's volume through the rack's
:class:`~repro.rack.volumes.VolumeManager`, runs all the arrival clocks
against the one shared simulation, and cuts every tenant's measurement
window at the same instants, so per-tenant goodput/latency numbers are
directly comparable.

``run_phases`` measures several back-to-back windows — the instrument for
before/after experiments such as hot-spot migration (phase 1: saturated,
phase 2: after the balancer moved a volume).  A short settle gap between
phases lets in-flight I/Os complete so each phase's counters are
(deterministically) self-contained.

Seeds derive from tenant names (CRC-32) unless given, so adding a tenant
never perturbs the arrival sequence of the others.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.workloads.openloop import OpenLoopResult, OpenLoopWorkload
from repro.workloads.window import run_windows

MB = 1_000_000

#: the :class:`TenantSpec` fields that are :class:`OpenLoopWorkload`
#: arguments of the same name
_STREAM_FIELDS = (
    "io_size", "rate_iops", "read_fraction", "deadline_ns", "arrival", "burst_factor",
    "burst_period_ns", "burst_duty", "diurnal_period_ns", "diurnal_amplitude",
)


@dataclass
class TenantSpec:
    """One tenant: arrival process, latency budget and rented volume.

    ``rate_iops`` is the mean offered arrival rate; ``arrival`` selects
    ``"poisson"``, ``"bursty"`` (with ``burst_factor``/``burst_period_ns``/
    ``burst_duty``) or ``"diurnal"`` (with ``diurnal_period_ns``/
    ``diurnal_amplitude``) exactly as on
    :class:`~repro.workloads.openloop.OpenLoopWorkload`.  ``deadline_ns``
    is the per-I/O latency budget (ns) goodput is judged against.
    ``volume_bytes`` sizes the rented volume; ``weight``,
    ``rate_limit_mb_s`` (MB/s) and ``burst_bytes`` are its QoS knobs,
    active only on a QoS-armed rack.  ``pin`` forces placement onto a
    named array (``None`` = policy-chosen); ``seed`` defaults to a stable
    CRC-32 of the tenant name.
    """

    name: str
    io_size: int
    rate_iops: float
    volume_bytes: int
    read_fraction: float = 1.0
    deadline_ns: Optional[int] = None
    arrival: str = "poisson"
    burst_factor: float = 4.0
    burst_period_ns: int = 2_000_000
    burst_duty: float = 0.25
    diurnal_period_ns: int = 20_000_000
    diurnal_amplitude: float = 0.5
    weight: float = 1.0
    rate_limit_mb_s: Optional[float] = None
    burst_bytes: int = 1 << 20
    pin: Optional[str] = None
    seed: Optional[int] = None

    @property
    def demand_mb_s(self) -> float:
        """Mean offered load in MB/s (what load-aware placement balances)."""
        return self.rate_iops * self.io_size / MB

    def resolved_seed(self) -> int:
        """The arrival-clock seed: explicit, or CRC-32 of the name."""
        if self.seed is not None:
            return self.seed
        return zlib.crc32(self.name.encode()) & 0x7FFFFFFF


class MultiTenantWorkload:
    """Drive N tenant streams against one rack, windows cut in lockstep.

    Construction places every tenant's volume (so placement is part of the
    deterministic record — inspect ``rack.volumes.describe()``);
    :meth:`run` measures one shared window and returns per-tenant
    :class:`~repro.workloads.openloop.OpenLoopResult` objects;
    :meth:`run_phases` measures several consecutive windows (before/after
    instrumentation for migration experiments).
    """

    def __init__(self, rack, tenants: Sequence[TenantSpec]) -> None:
        from repro.rack.volumes import VolumeSpec  # runtime import: keep layering loose

        if not tenants:
            raise ValueError("need at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        self.rack = rack
        self.env = rack.env
        self.tenants = list(tenants)
        self.volumes = {}
        self.streams: Dict[str, OpenLoopWorkload] = {}
        for spec in self.tenants:
            volume = rack.volumes.create(
                VolumeSpec(
                    name=spec.name,
                    size_bytes=spec.volume_bytes,
                    demand_mb_s=spec.demand_mb_s,
                    weight=spec.weight,
                    rate_limit_mb_s=spec.rate_limit_mb_s,
                    burst_bytes=spec.burst_bytes,
                ),
                on=spec.pin,
            )
            self.volumes[spec.name] = volume
            self.streams[spec.name] = OpenLoopWorkload(
                volume, capacity=spec.volume_bytes, seed=spec.resolved_seed(),
                **{field: getattr(spec, field) for field in _STREAM_FIELDS},
            )

    def run(
        self,
        warmup_ns: int = 2_000_000,
        measure_ns: int = 10_000_000,
        drain_ns: Optional[int] = None,
    ) -> Dict[str, OpenLoopResult]:
        """Warm up, measure one shared window, drain; results per tenant."""
        results = self.run_phases(
            [measure_ns], warmup_ns=warmup_ns, settle_ns=drain_ns
        )
        return {name: phases[0] for name, phases in results.items()}

    def run_phases(
        self,
        phase_ns: Sequence[int],
        warmup_ns: int = 2_000_000,
        settle_ns: Optional[int] = None,
    ) -> Dict[str, List[OpenLoopResult]]:
        """Measure consecutive windows; per-tenant results for each phase.

        Between phases (and after the last) the clocks keep arriving but
        counters are frozen for ``settle_ns`` (default: the longest
        :meth:`~repro.workloads.openloop.OpenLoopWorkload.settle_ns` of
        any stream), so in-flight I/Os of phase *k* settle into
        phase *k*'s numbers instead of leaking into phase *k+1*.
        """
        phases = run_windows(list(self.streams.values()), phase_ns, warmup_ns, settle_ns)
        return {
            name: [phase[i] for phase in phases]
            for i, name in enumerate(self.streams)
        }
