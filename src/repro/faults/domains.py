"""Failure-domain topology: faults with a *shape* (correlated failures).

Real datacenter arrays rarely die to independent drive faults: members
share enclosures, servers share racks, racks share power feeds, and
drives from one manufacturing batch share latent defects.  A
:class:`DomainTopology` maps each array member onto those nested blast
radii so that correlated fault events (:class:`~repro.faults.events.DomainOutage`,
:class:`~repro.faults.events.BatchFailureStorm`) and the domain-aware
:func:`~repro.faults.plan.chaos_plan` budget can reason about *sets* of
members failing together instead of one drive at a time.

The topology is pure bookkeeping, carried by the
:class:`~repro.faults.plan.FaultPlan` whose events name its domains: it
changes nothing about the simulated datapath until a fault event
actually references a domain, so plans without correlated events stay
byte-identical to the committed goldens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: The nesting order of blast radii, smallest to largest.  ``batch`` is
#: orthogonal (a manufacturing cohort, not a physical enclosure) but is
#: treated as one more way a set of drives can fail together.
DOMAIN_KINDS: Tuple[str, ...] = ("enclosure", "rack", "power", "batch")


@dataclass(frozen=True)
class FailureDomain:
    """One named blast radius: ``kind`` (see :data:`DOMAIN_KINDS`),
    ``domain_id`` within that kind, and the member servers it contains."""

    kind: str
    domain_id: int
    members: Tuple[int, ...]

    def __str__(self) -> str:  # deterministic, golden-friendly
        return f"{self.kind}{self.domain_id}[{','.join(map(str, self.members))}]"


class DomainTopology:
    """Maps every member server onto its enclosure / rack / power / batch.

    Construction is deterministic: members are assigned to domains by
    integer division (enclosures are consecutive member runs, racks are
    consecutive enclosure runs, ...) and batches by a seeded shuffle, so
    the same parameters always produce the same topology — the property
    the chaos goldens and the availability Monte Carlo rely on.
    """

    def __init__(
        self,
        num_servers: int,
        servers_per_enclosure: int = 2,
        enclosures_per_rack: int = 2,
        racks_per_power: int = 2,
        batches: int = 2,
        batch_seed: int = 0,
    ) -> None:
        if num_servers < 1:
            raise ValueError(f"need at least one server, got {num_servers}")
        if min(servers_per_enclosure, enclosures_per_rack, racks_per_power) < 1:
            raise ValueError("domain sizes must be >= 1")
        if batches < 1:
            raise ValueError(f"need at least one batch, got {batches}")
        self.num_servers = num_servers
        self.servers_per_enclosure = servers_per_enclosure
        self.enclosures_per_rack = enclosures_per_rack
        self.racks_per_power = racks_per_power
        self._of: Dict[str, List[int]] = {}
        enclosure = [s // servers_per_enclosure for s in range(num_servers)]
        rack = [e // enclosures_per_rack for e in enclosure]
        power = [r // racks_per_power for r in rack]
        # batch membership is a seeded round-robin over a shuffled order:
        # drives from one batch end up scattered across enclosures, the
        # way a real delivery pallet does
        import random

        order = list(range(num_servers))
        random.Random(f"repro.faults.domains:batch:{batch_seed}").shuffle(order)
        batch = [0] * num_servers
        for position, server in enumerate(order):
            batch[server] = position % batches
        self._of = {
            "enclosure": enclosure,
            "rack": rack,
            "power": power,
            "batch": batch,
        }

    # -- queries -----------------------------------------------------------

    def domain_of(self, kind: str, server: int) -> int:
        """The ``kind`` domain id that ``server`` belongs to."""
        return self._assignments(kind)[server]

    def members(self, kind: str, domain_id: int) -> Tuple[int, ...]:
        """All member servers inside one domain, ascending."""
        assignments = self._assignments(kind)
        return tuple(s for s, d in enumerate(assignments) if d == domain_id)

    def domains(self, kind: str) -> Tuple[int, ...]:
        """All domain ids of ``kind`` that have at least one member."""
        return tuple(sorted(set(self._assignments(kind))))

    def all_domains(self) -> List[FailureDomain]:
        """Every non-empty domain of every kind (deterministic order)."""
        return [
            FailureDomain(kind, domain_id, self.members(kind, domain_id))
            for kind in DOMAIN_KINDS
            for domain_id in self.domains(kind)
        ]

    def describe(self) -> str:
        """Deterministic multi-line rendering (for logs and tests)."""
        return "\n".join(str(d) for d in self.all_domains())

    def _assignments(self, kind: str) -> List[int]:
        try:
            return self._of[kind]
        except KeyError:
            raise ValueError(
                f"unknown domain kind {kind!r}; known: {DOMAIN_KINDS}"
            ) from None


def batch_storm_victims(topology: DomainTopology, event) -> List[Tuple[int, int]]:
    """The ``(victim, fail_at_ns)`` timeline of one
    :class:`~repro.faults.events.BatchFailureStorm`.

    Shared by the injector (to apply the storm) and the chaos-plan
    generator (to budget it and schedule heals), so both always agree on
    who dies when.  Deterministic in ``event.seed``.
    """
    import random

    rng = random.Random(f"repro.faults.batch:{event.seed}")
    members = list(topology.members("batch", event.batch_id))
    count = min(event.count, len(members))
    victims = sorted(rng.sample(members, count))
    # one hazard draw per victim; sorted so the storm unfolds in order
    delays = sorted(
        int(event.spread_ns * rng.weibullvariate(1.0, max(event.shape, 1e-9)))
        for _ in range(count)
    )
    return [(victim, event.at_ns + delay) for victim, delay in zip(victims, delays)]


def default_topology(num_servers: int) -> DomainTopology:
    """The default blast-radius shape for an ``num_servers``-member array:
    2 drives per enclosure, 2 enclosures per rack, 2 racks per power feed,
    2 manufacturing batches."""
    return DomainTopology(num_servers)
