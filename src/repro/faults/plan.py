"""Fault plans: scripted or seeded-random fault timelines.

A :class:`FaultPlan` is an ordered list of :mod:`repro.faults.events`
applied by a :class:`~repro.faults.injector.FaultInjector` at the sim
times they carry.  :func:`chaos_plan` builds a randomized plan from a
seed: same seed, same plan, same simulation — the determinism contract
the chaos harness and CI golden files rely on.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence

from repro.faults.domains import DomainTopology, batch_storm_victims, default_topology
from repro.faults.events import (
    BatchFailureStorm,
    BitRot,
    DomainOutage,
    DriveErrorBurst,
    DriveFail,
    DriveFailSlow,
    DriveHeal,
    FaultEvent,
    GrayDriveStutter,
    GrayNicFlap,
    LinkStall,
    LostWrite,
    MisdirectedWrite,
    NetJitter,
    NicDegrade,
    ServerCrash,
    TornWrite,
)

MS = 1_000_000  # nanoseconds per millisecond
#: a chaos plan draws between 4 and 9 independent loud faults
EVENTS_MIN, EVENTS_MAX = 4, 9


class FaultPlan:
    """An immutable, time-sorted fault schedule, with the failure-domain map
    its correlated events name domains of (``topology``; None: the
    injector's :func:`~repro.faults.domains.default_topology`)."""

    def __init__(
        self,
        events: Iterable[FaultEvent] = (),
        topology: Optional[DomainTopology] = None,
    ) -> None:
        staged = list(events)
        for event in staged:
            if event.at_ns < 0:
                raise ValueError(f"event before t=0: {event!r}")
        # stable sort: ties keep authoring order
        self.events: List[FaultEvent] = sorted(staged, key=lambda e: e.at_ns)
        self.topology = topology

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def horizon_ns(self) -> int:
        return max((e.at_ns for e in self.events), default=0)

    def describe(self) -> str:
        """Deterministic multi-line rendering (for logs and goldens)."""
        return "\n".join(f"{e.at_ns:>12} {e.kind} {e}" for e in self.events)


def chaos_plan(
    seed: int,
    horizon_ns: int,
    servers: int,
    num_parity: int = 1,
    corruption_events: int = 0,
    chunk_bytes: int = 0,
    num_stripes: int = 0,
    correlated_events: int = 0,
    gray_events: int = 0,
    topology: Optional[DomainTopology] = None,
) -> FaultPlan:
    """A seeded random fault storm over ``[0, horizon_ns)``.

    Hard faults (drive death, server crash) are budgeted so that no more
    than ``num_parity`` members are *scheduled* unavailable at once; the
    datapath may still exceed tolerance transiently (e.g. by fencing a
    fail-slow drive), which surfaces as ``IoError`` — an outcome the chaos
    harness accepts and repairs.

    ``corruption_events > 0`` additionally sprinkles silent-corruption
    events (drawn from an independent child RNG, so existing plans for a
    given seed are unchanged): per-stripe bit rot is budgeted to at most
    ``num_parity`` distinct members so parity can reconstruct it, and at
    most ``num_parity`` write-armed corruptions (lost/torn/misdirected)
    are scheduled per plan — armed events land on unpredictable stripes,
    so their count is capped rather than placed.  Bit rot and misdirected
    writes need the array layout (``chunk_bytes``; bit rot additionally
    ``num_stripes``).

    ``correlated_events > 0`` adds domain-shaped hard faults (enclosure
    :class:`DomainOutage`, shared-batch :class:`BatchFailureStorm`) drawn
    from their own child RNG, budgeted *domain-aware*: every member of an
    affected domain counts against the same ``num_parity`` simultaneous
    hard-fault limit as the independent faults above, so no stripe's
    surviving set is ever scheduled past parity.  ``gray_events > 0``
    likewise adds sub-ejection-threshold :class:`GrayNicFlap` /
    :class:`GrayDriveStutter` degradation (soft — exempt from the hard
    budget).  ``topology`` supplies the blast-radius map (defaults to
    :func:`~repro.faults.domains.default_topology`); a plan that drew a
    domain event carries the map it budgeted against, so the injector
    resolves domains the same way.  All three knobs default off, leaving
    existing plans for a given seed byte-identical.
    """
    if servers < 3:
        raise ValueError(f"chaos needs >= 3 servers, got {servers}")
    if horizon_ns <= 0:
        raise ValueError(f"horizon must be positive, got {horizon_ns}")
    rng = random.Random(seed)
    events: List[FaultEvent] = []
    #: members scheduled dead/crashed, with the time they come back
    unavailable_until = {}

    def live_hard_faults(at_ns: int) -> int:
        return sum(1 for t in unavailable_until.values() if t > at_ns)

    def hard_fault_budget_ok(at_ns: int) -> bool:
        return live_hard_faults(at_ns) < num_parity

    kinds: Sequence[str] = (
        "fail",
        "crash",
        "burst",
        "failslow",
        "nic",
        "stall",
        "jitter",
    )
    weights = (2, 3, 3, 3, 2, 2, 1)
    count = rng.randint(EVENTS_MIN, EVENTS_MAX)
    for _ in range(count):
        at_ns = rng.randrange(0, horizon_ns)
        kind = rng.choices(kinds, weights=weights)[0]
        server = rng.randrange(servers)
        if kind == "fail":
            if not hard_fault_budget_ok(at_ns):
                continue
            heal_at = at_ns + rng.randint(10 * MS, 40 * MS)
            events.append(DriveFail(at_ns, server=server))
            events.append(DriveHeal(heal_at, server=server))
            unavailable_until[server] = heal_at
        elif kind == "crash":
            if not hard_fault_budget_ok(at_ns):
                continue
            down_ns = rng.randint(5 * MS, 20 * MS)
            events.append(ServerCrash(at_ns, server=server, down_ns=down_ns))
            # a crashed member is usually fenced by the host's prolonged-
            # failure handling; schedule a heal so it rejoins the array
            heal_at = at_ns + down_ns + rng.randint(15 * MS, 40 * MS)
            events.append(DriveHeal(heal_at, server=server))
            unavailable_until[server] = heal_at
        elif kind == "burst":
            events.append(
                DriveErrorBurst(
                    at_ns, server=server, duration_ns=rng.randint(1 * MS, 8 * MS)
                )
            )
        elif kind == "failslow":
            events.append(
                DriveFailSlow(
                    at_ns,
                    server=server,
                    multiplier=rng.choice((2.0, 4.0, 10.0)),
                    duration_ns=rng.randint(5 * MS, 30 * MS),
                )
            )
        elif kind == "nic":
            events.append(
                NicDegrade(
                    at_ns,
                    server=server,
                    factor=rng.choice((0.05, 0.1, 0.25, 0.5)),
                    duration_ns=rng.randint(5 * MS, 20 * MS),
                )
            )
        elif kind == "stall":
            events.append(
                LinkStall(at_ns, server=server, duration_ns=rng.randint(1 * MS, 10 * MS))
            )
        else:
            events.append(
                NetJitter(
                    at_ns,
                    duration_ns=rng.randint(5 * MS, 20 * MS),
                    jitter_ns=rng.randint(10_000, 200_000),
                    seed=rng.randrange(1 << 30),
                )
            )
    if corruption_events > 0:
        # independent child RNG: adding corruption must not perturb the
        # loud-fault stream above for the same seed
        crng = random.Random(f"repro.chaos.corruption:{seed}")
        ckinds: Sequence[str] = ("bitrot", "lost", "torn", "misdirect")
        cweights = (4, 2, 2, 1)
        armed_budget = num_parity
        bitrot_hits = {}  # stripe -> set of servers already rotten there
        made = 0
        attempts = 0
        while made < corruption_events and attempts < corruption_events * 20:
            attempts += 1
            at_ns = crng.randrange(0, horizon_ns)
            ckind = crng.choices(ckinds, weights=cweights)[0]
            server = crng.randrange(servers)
            if ckind == "bitrot":
                if not chunk_bytes or not num_stripes:
                    continue
                stripe = crng.randrange(num_stripes)
                hit = bitrot_hits.setdefault(stripe, set())
                if server not in hit and len(hit) >= num_parity:
                    continue  # keep every stripe parity-recoverable
                length = crng.choice((512, 4096))
                offset = stripe * chunk_bytes + crng.randrange(
                    max(1, chunk_bytes - length)
                )
                events.append(
                    BitRot(
                        at_ns,
                        server=server,
                        offset=offset,
                        length=length,
                        seed=crng.randrange(1 << 30),
                    )
                )
                hit.add(server)
            elif ckind == "lost":
                if armed_budget <= 0:
                    continue
                armed_budget -= 1
                events.append(LostWrite(at_ns, server=server))
            elif ckind == "torn":
                if armed_budget <= 0:
                    continue
                armed_budget -= 1
                events.append(TornWrite(at_ns, server=server))
            else:
                if armed_budget <= 0 or not chunk_bytes:
                    continue
                armed_budget -= 1
                # a one-chunk shift clobbers the adjacent stripe on the same
                # drive: one bad chunk per stripe, always reconstructable
                events.append(
                    MisdirectedWrite(at_ns, server=server, shift_bytes=chunk_bytes)
                )
            made += 1
    topo = None  # the map the domain events are budgeted against
    if correlated_events > 0:
        # independent child RNG: adding correlated faults must not perturb
        # the loud-fault or corruption streams above for the same seed
        topo = topology if topology is not None else default_topology(servers)
        drng = random.Random(f"repro.chaos.domains:{seed}")
        made = 0
        attempts = 0
        while made < correlated_events and attempts < correlated_events * 20:
            attempts += 1
            at_ns = drng.randrange(0, horizon_ns)
            if drng.random() < 0.5:
                # whole-enclosure outage: every member crashes at once, so
                # the *domain size* counts against the hard-fault budget
                domain_id = drng.choice(topo.domains("enclosure"))
                members = topo.members("enclosure", domain_id)
                if live_hard_faults(at_ns) + len(members) > num_parity:
                    continue
                down_ns = drng.randint(5 * MS, 20 * MS)
                events.append(
                    DomainOutage(
                        at_ns, kind_name="enclosure", domain_id=domain_id, down_ns=down_ns
                    )
                )
                # crashed members may be fenced by prolonged-failure
                # handling; heal each so the array returns to full strength
                for member in members:
                    heal_at = at_ns + down_ns + drng.randint(15 * MS, 40 * MS)
                    events.append(DriveHeal(heal_at, server=member))
                    unavailable_until[member] = heal_at
            else:
                # shared-batch hazard storm: k correlated drive deaths
                batch_id = drng.choice(topo.domains("batch"))
                batch = topo.members("batch", batch_id)
                count = drng.randint(1, max(1, min(len(batch), num_parity)))
                if live_hard_faults(at_ns) + count > num_parity:
                    continue
                storm = BatchFailureStorm(
                    at_ns,
                    batch_id=batch_id,
                    count=count,
                    spread_ns=drng.randint(2 * MS, 10 * MS),
                    shape=drng.choice((0.7, 1.0, 1.5)),
                    seed=drng.randrange(1 << 30),
                )
                events.append(storm)
                # the storm's victim timeline is deterministic in its seed:
                # replay it here to budget and to schedule per-victim heals
                for victim, fail_at in batch_storm_victims(topo, storm):
                    heal_at = fail_at + drng.randint(10 * MS, 40 * MS)
                    events.append(DriveHeal(heal_at, server=victim))
                    unavailable_until[victim] = heal_at
            made += 1
        if not made:
            topo = None  # no domain event drawn: the plan carries no map
    if gray_events > 0:
        grng = random.Random(f"repro.chaos.gray:{seed}")
        for _ in range(gray_events):
            at_ns = grng.randrange(0, horizon_ns)
            server = grng.randrange(servers)
            period_ns = grng.randint(2 * MS, 6 * MS)
            up_ns = grng.randint(period_ns // 4, period_ns // 2)
            if grng.random() < 0.5:
                events.append(
                    GrayNicFlap(
                        at_ns,
                        server=server,
                        factor=grng.choice((0.1, 0.25)),
                        period_ns=period_ns,
                        up_ns=up_ns,
                        flaps=grng.randint(3, 8),
                    )
                )
            else:
                # multipliers below the detector's 3x ratio: the member
                # degrades without ever cleanly tripping ejection
                events.append(
                    GrayDriveStutter(
                        at_ns,
                        server=server,
                        multiplier=grng.choice((1.5, 2.0, 2.5)),
                        period_ns=period_ns,
                        up_ns=up_ns,
                        repeats=grng.randint(3, 8),
                    )
                )
    return FaultPlan(events, topo)
