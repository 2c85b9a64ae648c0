"""Typed fault events (the vocabulary of a :class:`~repro.faults.FaultPlan`).

Every event is a frozen dataclass with an absolute injection time
``at_ns`` on the simulation clock.  Determinism contract: an event's
effect depends only on sim time and the event's own fields — never on
wall-clock time or global RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FaultEvent:
    """Base class: something happens at sim time ``at_ns``."""

    at_ns: int

    @property
    def kind(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class DriveFail(FaultEvent):
    """Hard-fail the member on ``server`` (binary death, §5.4 prolonged failure)."""

    server: int


@dataclass(frozen=True)
class DriveHeal(FaultEvent):
    """Heal/replace the member on ``server``.

    If the array still considers the member failed, the injector runs an
    online rebuild (:mod:`repro.raid.rebuild`) so the replacement is
    reconstructed; otherwise the physical drive is simply healed.
    """

    server: int


@dataclass(frozen=True)
class DriveErrorBurst(FaultEvent):
    """Transient media errors on ``server`` for ``duration_ns``."""

    server: int
    duration_ns: int


@dataclass(frozen=True)
class DriveFailSlow(FaultEvent):
    """Fail-slow: multiply ``server``'s latency by ``multiplier``.

    ``duration_ns = 0`` means until healed/cleared.
    """

    server: int
    multiplier: float
    duration_ns: int = 0


@dataclass(frozen=True)
class NicDegrade(FaultEvent):
    """Degrade ``server``'s primary NIC to ``factor`` × its base rate for
    ``duration_ns`` (a flap is a short, deep degradation)."""

    server: int
    factor: float
    duration_ns: int


@dataclass(frozen=True)
class LinkStall(FaultEvent):
    """Stall the host <-> ``server`` RDMA connection for ``duration_ns``
    (retransmit storm / PFC pause: completions freeze, nothing is lost)."""

    server: int
    duration_ns: int


@dataclass(frozen=True)
class NetJitter(FaultEvent):
    """Add seeded random per-transfer jitter of up to ``jitter_ns`` to the
    whole fabric for ``duration_ns``."""

    duration_ns: int
    jitter_ns: int
    seed: int = 0


@dataclass(frozen=True)
class ServerCrash(FaultEvent):
    """Crash storage server ``server`` for ``down_ns``.

    Queued commands and in-flight partial-parity / reconstruction reduce
    state are lost (§5.4); the server restarts cleanly afterwards.
    """

    server: int
    down_ns: int


@dataclass(frozen=True)
class DomainOutage(FaultEvent):
    """Take a whole failure domain down at once (shared enclosure, rack or
    power feed): every member server of ``(kind, domain_id)`` in the
    plan's :class:`~repro.faults.domains.DomainTopology` crashes for
    ``down_ns``, losing queued commands and in-flight parity state exactly
    like per-server :class:`ServerCrash` events."""

    kind_name: str  #: domain kind ("enclosure", "rack", "power", "batch")
    domain_id: int
    down_ns: int


@dataclass(frozen=True)
class BatchFailureStorm(FaultEvent):
    """Correlated drive deaths from one manufacturing batch.

    ``count`` members of batch ``batch_id`` hard-fail at staggered times
    drawn from a seeded Weibull-style hazard curve starting at ``at_ns``
    (shared latent defect: once the first drive of a cohort dies, its
    siblings follow quickly).  ``spread_ns`` scales the stagger;
    ``shape`` < 1 front-loads the hazard (infant mortality), > 1 delays
    it (wear-out).  Victims and offsets depend only on ``seed``.
    """

    batch_id: int
    count: int
    spread_ns: int
    shape: float = 1.0
    seed: int = 0


@dataclass(frozen=True)
class GrayNicFlap(FaultEvent):
    """Gray network failure: ``server``'s NICs repeatedly dip to
    ``factor`` × their base rate for ``up_ns`` out of every ``period_ns``,
    ``flaps`` times.  Each dip is short and shallow enough not to trip
    fencing, but the accumulated tail-latency damage is real — the
    canonical sub-ejection-threshold failure mode."""

    server: int
    factor: float
    period_ns: int
    up_ns: int
    flaps: int


@dataclass(frozen=True)
class GrayDriveStutter(FaultEvent):
    """Gray drive failure: ``server``'s drive stutters — latency multiplied
    by ``multiplier`` for ``up_ns`` out of every ``period_ns``, ``repeats``
    times.  Between stutters the drive looks healthy, so a naive EWMA
    detector oscillates around its threshold instead of cleanly ejecting
    (the flapping regime the detector's hysteresis band exists for)."""

    server: int
    multiplier: float
    period_ns: int
    up_ns: int
    repeats: int


@dataclass(frozen=True)
class BitRot(FaultEvent):
    """Silently flip bytes of ``server``'s drive at ``[offset, offset+length)``
    with a seeded nonzero XOR mask (media decay — the drive keeps answering
    with the rotten bytes, no error is raised)."""

    server: int
    offset: int
    length: int
    seed: int = 0


@dataclass(frozen=True)
class LostWrite(FaultEvent):
    """The next write to ``server``'s drive is acknowledged but never
    reaches media (dropped in the drive's write cache)."""

    server: int


@dataclass(frozen=True)
class TornWrite(FaultEvent):
    """The next write to ``server``'s drive lands only its first half
    (power-cut mid-program)."""

    server: int


@dataclass(frozen=True)
class MisdirectedWrite(FaultEvent):
    """The next write to ``server``'s drive lands ``shift_bytes`` away from
    its target — the target stays stale *and* an innocent extent is
    clobbered (firmware LBA-mapping bug)."""

    server: int
    shift_bytes: int
