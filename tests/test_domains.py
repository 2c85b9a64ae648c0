"""Failure-domain topology, correlated fault events, and the domain-aware
chaos budget.

The topology is pure bookkeeping (attaching one changes nothing until an
event references a domain), so the tests here pin three things: the
deterministic blast-radius map itself, the budget invariant — a generated
plan never schedules more simultaneous hard faults than parity, even when
whole enclosures or manufacturing batches die together — and the
end-to-end property that correlated + gray chaos schedules recover to a
verified, scrub-clean array.
"""

from collections import Counter

import pytest

from repro.faults.domains import (
    DOMAIN_KINDS,
    DomainTopology,
    batch_storm_victims,
    default_topology,
)
from repro.faults.events import (
    BatchFailureStorm,
    DomainOutage,
    DriveFail,
    DriveHeal,
    GrayDriveStutter,
    GrayNicFlap,
    ServerCrash,
)
from repro.faults.plan import chaos_plan
from repro.verify.fuzz import FUZZ_SYSTEMS, chaos_point

MS = 1_000_000


class TestTopology:
    def test_every_kind_partitions_the_servers(self):
        topo = default_topology(12)
        for kind in DOMAIN_KINDS:
            seen = []
            for domain_id in topo.domains(kind):
                seen.extend(topo.members(kind, domain_id))
            assert sorted(seen) == list(range(12)), kind

    def test_domains_nest(self):
        # all members of one enclosure share a rack; all members of one
        # rack share a power feed
        topo = default_topology(12)
        for enclosure in topo.domains("enclosure"):
            racks = {topo.domain_of("rack", s) for s in topo.members("enclosure", enclosure)}
            assert len(racks) == 1
        for rack in topo.domains("rack"):
            feeds = {topo.domain_of("power", s) for s in topo.members("rack", rack)}
            assert len(feeds) == 1

    def test_default_shape_for_twelve_members(self):
        topo = default_topology(12)
        assert len(topo.domains("enclosure")) == 6
        assert len(topo.domains("rack")) == 3
        assert len(topo.domains("power")) == 2
        assert len(topo.domains("batch")) == 2
        for batch in topo.domains("batch"):
            assert len(topo.members("batch", batch)) == 6

    def test_construction_is_deterministic(self):
        a = DomainTopology(10, batch_seed=4)
        b = DomainTopology(10, batch_seed=4)
        assert a.describe() == b.describe()
        assert [str(d) for d in a.all_domains()] == [str(d) for d in b.all_domains()]

    def test_batch_seed_scatters_batches(self):
        # batches are a seeded shuffle, not consecutive runs: at least one
        # batch must straddle multiple enclosures
        topo = default_topology(12)
        for batch in topo.domains("batch"):
            enclosures = {
                topo.domain_of("enclosure", s) for s in topo.members("batch", batch)
            }
            assert len(enclosures) > 1

    def test_unknown_kind_raises(self):
        topo = default_topology(6)
        with pytest.raises(ValueError, match="unknown domain kind"):
            topo.domain_of("blast", 0)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(num_servers=0), dict(num_servers=6, batches=0),
         dict(num_servers=6, servers_per_enclosure=0)],
    )
    def test_invalid_parameters_raise(self, kwargs):
        with pytest.raises(ValueError):
            DomainTopology(**kwargs)


class TestBatchStormVictims:
    def test_victims_come_from_the_batch_in_hazard_order(self):
        topo = default_topology(12)
        storm = BatchFailureStorm(
            at_ns=5 * MS, batch_id=1, count=3, spread_ns=4 * MS, shape=1.0, seed=99
        )
        timeline = batch_storm_victims(topo, storm)
        assert len(timeline) == 3
        batch = set(topo.members("batch", 1))
        times = [t for _, t in timeline]
        assert all(victim in batch for victim, _ in timeline)
        assert times == sorted(times)
        assert all(t >= storm.at_ns for t in times)

    def test_timeline_is_deterministic_in_the_event_seed(self):
        topo = default_topology(12)
        storm = BatchFailureStorm(
            at_ns=0, batch_id=0, count=2, spread_ns=3 * MS, shape=0.7, seed=7
        )
        assert batch_storm_victims(topo, storm) == batch_storm_victims(topo, storm)

    def test_count_caps_at_batch_size(self):
        topo = DomainTopology(4, batches=2)
        storm = BatchFailureStorm(
            at_ns=0, batch_id=0, count=10, spread_ns=MS, shape=1.0, seed=1
        )
        assert len(batch_storm_victims(topo, storm)) == 2


def _hard_fault_timeline(plan, topo):
    """Expand every hard fault to ``(fail_at, server)`` and collect heals."""
    fails = []
    heals = {}
    for event in plan:
        if isinstance(event, DriveFail):
            fails.append((event.at_ns, event.server))
        elif isinstance(event, ServerCrash):
            fails.append((event.at_ns, event.server))
        elif isinstance(event, DomainOutage):
            for member in topo.members(event.kind_name, event.domain_id):
                fails.append((event.at_ns, member))
        elif isinstance(event, BatchFailureStorm):
            for victim, fail_at in batch_storm_victims(topo, event):
                fails.append((fail_at, victim))
        elif isinstance(event, DriveHeal):
            heals.setdefault(event.server, []).append(event.at_ns)
    for times in heals.values():
        times.sort()
    return sorted(fails), heals


class TestCorrelatedBudget:
    SEEDS = range(1, 13)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_never_schedules_past_parity(self, seed):
        # replay the plan's own bookkeeping: each hard-failed member is
        # unavailable until its scheduled heal, and at no fault's onset may
        # the simultaneous count exceed parity — domain members included
        num_parity = 2
        topo = default_topology(8)
        plan = chaos_plan(
            seed,
            horizon_ns=60 * MS,
            servers=8,
            num_parity=num_parity,
            correlated_events=3,
            gray_events=2,
            topology=topo,
        )
        fails, heals = _hard_fault_timeline(plan, topo)
        unavailable_until = {}
        for fail_at, server in fails:
            pending = [t for t in heals.get(server, []) if t >= fail_at]
            unavailable_until[server] = pending[0] if pending else 60 * MS
            live = sum(1 for t in unavailable_until.values() if t > fail_at)
            assert live <= num_parity, (
                f"seed {seed}: {live} members scheduled down at {fail_at}"
            )

    def test_correlated_kinds_actually_appear(self):
        outages = storms = 0
        for seed in self.SEEDS:
            plan = chaos_plan(
                seed, horizon_ns=60 * MS, servers=8, num_parity=2,
                correlated_events=3,
            )
            outages += sum(1 for e in plan if isinstance(e, DomainOutage))
            storms += sum(1 for e in plan if isinstance(e, BatchFailureStorm))
        assert outages > 0 and storms > 0

    def test_gray_events_are_soft_and_present(self):
        plan = chaos_plan(
            3, horizon_ns=60 * MS, servers=8, num_parity=2, gray_events=4
        )
        gray = [e for e in plan if isinstance(e, (GrayNicFlap, GrayDriveStutter))]
        assert len(gray) == 4

    def test_base_stream_untouched_by_new_knobs(self):
        # correlated and gray faults come from child RNGs: the loud-fault
        # stream for a seed must survive verbatim inside the extended plan
        base = chaos_plan(5, horizon_ns=60 * MS, servers=8, num_parity=2)
        extended = chaos_plan(
            5, horizon_ns=60 * MS, servers=8, num_parity=2,
            correlated_events=2, gray_events=2,
        )
        base_counts = Counter(base.events)
        extended_counts = Counter(extended.events)
        assert all(
            extended_counts[event] >= count for event, count in base_counts.items()
        )
        assert len(extended) > len(base)


class TestCorrelatedSchedulesEndClean:
    """ISSUE acceptance: correlated chaos schedules run through the full
    harness and end verified with a clean scrub on every controller."""

    @pytest.mark.parametrize("system", FUZZ_SYSTEMS)
    @pytest.mark.parametrize("seed", (3, 7))
    def test_raid6_correlated_storm_recovers(self, system, seed):
        outcome = chaos_point(
            system, seed, code="raid6", correlated_events=2, gray_events=2
        )
        assert outcome.verified, (
            f"{system} seed {seed}: data diverged\n{outcome.row()}"
        )
        assert outcome.scrub_clean, (
            f"{system} seed {seed}: dirty scrub\n{outcome.row()}"
        )

    def test_replay_is_deterministic(self):
        a = chaos_point("draid", 3, code="raid6", correlated_events=2, gray_events=2)
        b = chaos_point("draid", 3, code="raid6", correlated_events=2, gray_events=2)
        assert a == b


class TestInjectorResolvesThePlansMap:
    """A plan carries the failure-domain map its correlated events name
    domains of; the injector resolves them on it, and on the default map
    of the cluster only when the plan carries none."""

    @staticmethod
    def crashes(topology):
        from repro import build_testbed
        from repro.cluster import ClusterConfig
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan

        env, _, array = build_testbed("dRAID", config=ClusterConfig(num_servers=8))
        outage = DomainOutage(1 * MS, kind_name="enclosure", domain_id=3, down_ns=5 * MS)
        injector = FaultInjector(array, FaultPlan([outage], topology=topology))
        env.run(until=injector.drain())
        return [side.crashes for side in array.server_sides]

    def test_the_plans_own_map(self):
        topology = DomainTopology(8, servers_per_enclosure=1)
        assert self.crashes(topology) == [0, 0, 0, 1, 0, 0, 0, 0]

    def test_the_default_map_without_one(self):
        assert self.crashes(None) == [0, 0, 0, 0, 0, 0, 1, 1]
