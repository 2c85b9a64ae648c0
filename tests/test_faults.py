"""Unit tests for the repro.faults subsystem (§5.4 hardening)."""

import numpy as np
import pytest

from repro import build_testbed
from repro.baselines import MdRaid, SpdkRaid
from repro.cluster import ClusterConfig, build_cluster
from repro.draid import DraidArray
from repro.faults import (
    DriveErrorBurst,
    DriveFail,
    DriveFailSlow,
    DriveHeal,
    FailSlowDetector,
    FaultInjector,
    FaultPlan,
    NicDegrade,
    ServerCrash,
    chaos_plan,
)
from repro.faults.backoff import (
    BASE_BACKOFF_NS,
    MAX_TIMEOUT_NS,
    attempt_timeout_ns,
    backoff_ns,
)
from repro.raid.rebuild import RebuildJob
from repro.sim import Environment
from repro.storage import DriveProfile, NvmeDrive
from repro.storage.drive import DriveTransientError
from tests.raid_harness import ArrayHarness

MS = 1_000_000


class TestFaultPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan(
            [DriveFail(5 * MS, server=1), DriveErrorBurst(1 * MS, server=0, duration_ns=MS)]
        )
        assert [e.at_ns for e in plan] == [1 * MS, 5 * MS]
        assert plan.horizon_ns == 5 * MS

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan([DriveFail(-1, server=0)])

    def test_chaos_plan_deterministic(self):
        a = chaos_plan(42, 50 * MS, servers=5)
        b = chaos_plan(42, 50 * MS, servers=5)
        assert a.describe() == b.describe()
        assert len(a) > 0

    def test_chaos_plan_seed_sensitivity(self):
        a = chaos_plan(1, 50 * MS, servers=5)
        b = chaos_plan(2, 50 * MS, servers=5)
        assert a.describe() != b.describe()

    def test_chaos_plan_hard_fault_budget(self):
        # at any instant, scheduled-dead members never exceed num_parity
        for seed in range(20):
            plan = chaos_plan(seed, 80 * MS, servers=6, num_parity=2)
            down = {}
            for event in plan:
                if isinstance(event, DriveFail):
                    down[event.server] = True
                elif isinstance(event, DriveHeal):
                    down.pop(event.server, None)
                assert sum(down.values()) <= 2, f"seed {seed} exceeds budget"


class TestAttemptTiming:
    def test_timeout_escalates_and_caps(self):
        assert [attempt_timeout_ns(10 * MS, n) for n in range(4)] == [
            10 * MS, 20 * MS, 40 * MS, 80 * MS,
        ]
        assert attempt_timeout_ns(300 * MS, 1) == 600 * MS
        assert attempt_timeout_ns(300 * MS, 2) == MAX_TIMEOUT_NS  # capped

    def test_timeout_clamped_to_remaining_budget(self):
        # cumulative attempt timeouts are charged against the request
        # deadline: never more than what is left, never below zero
        assert attempt_timeout_ns(10 * MS, 1, remaining_ns=5 * MS) == 5 * MS
        assert attempt_timeout_ns(10 * MS, 1, remaining_ns=30 * MS) == 20 * MS
        assert attempt_timeout_ns(10 * MS, 0, remaining_ns=-3) == 0

    def test_backoff_jitter_deterministic(self):
        import random

        a = [backoff_ns(n, random.Random("x")) for n in range(4)]
        b = [backoff_ns(n, random.Random("x")) for n in range(4)]
        assert a == b
        assert a[0] == 0  # first attempt never sleeps
        # doubling base plus up to 50 % jitter
        for n, pause in enumerate(a[1:], start=1):
            base = BASE_BACKOFF_NS * 2 ** (n - 1)
            assert base <= pause <= 1.5 * base


class TestFailSlowDetector:
    def _feed(self, det, member, latency, n=10):
        for _ in range(n):
            det.observe(member, latency)

    def test_slow_member_suspected(self):
        det = FailSlowDetector(ratio=3.0, floor_ns=1 * MS)
        for member in (0, 1, 2, 3):
            self._feed(det, member, 2 * MS)
        self._feed(det, 4, 20 * MS)
        assert det.suspect(4)
        assert not det.suspect(0)

    def test_floor_suppresses_fast_outliers(self):
        det = FailSlowDetector(ratio=3.0, floor_ns=1 * MS)
        for member in (0, 1, 2, 3):
            self._feed(det, member, 100)
        self._feed(det, 4, 900)  # 9x peers but under the absolute floor
        assert not det.suspect(4)

    def test_min_samples_gate(self):
        det = FailSlowDetector(min_samples=8)
        for member in (0, 1, 2):
            self._feed(det, member, 2 * MS)
        det.observe(3, 50 * MS)  # single spike
        assert not det.suspect(3)

    def test_forget_resets_history(self):
        det = FailSlowDetector()
        for member in (0, 1, 2, 3):
            self._feed(det, member, 2 * MS)
        self._feed(det, 4, 30 * MS)
        assert det.suspect(4)
        det.forget(4)
        assert not det.suspect(4)
        assert det.ewma_us(4) is None


class TestDriveFaultState:
    def _drive(self, env):
        profile = DriveProfile(
            name="test",
            read_bw_bytes_per_s=1000 * MS,  # 1 B/ns
            write_bw_bytes_per_s=500 * MS,
            read_latency_ns=10_000,
            write_latency_ns=10_000,
            parallelism=1,
        )
        return NvmeDrive(env, profile, functional_capacity=4096)

    def test_error_burst_is_transient(self):
        env = Environment()
        drive = self._drive(env)
        drive.inject_error_burst(1 * MS)
        with pytest.raises(DriveTransientError):
            drive.read(0, 512)
        env.run(until=2 * MS)
        env.run(until=drive.read(0, 512))  # healthy again

    def test_fail_slow_multiplies_latency(self):
        env = Environment()
        drive = self._drive(env)
        t0 = env.now
        env.run(until=drive.read(0, 4096))
        healthy = env.now - t0
        drive.set_fail_slow(10.0)
        t0 = env.now
        env.run(until=drive.read(0, 4096))
        slow = env.now - t0
        assert slow >= 9 * healthy

    def test_heal_clears_all_residue(self):
        env = Environment()
        drive = self._drive(env)
        drive.fail()
        drive.inject_error_burst(50 * MS)
        drive.set_fail_slow(10.0)
        drive.heal()
        assert not drive.failed
        t0 = env.now
        env.run(until=drive.read(0, 4096))
        first = env.now - t0
        t0 = env.now
        env.run(until=drive.read(0, 4096))
        assert first <= (env.now - t0) * 2  # no lingering slow factor / backlog


@pytest.mark.parametrize(
    "controller_cls", [MdRaid, SpdkRaid, DraidArray], ids=lambda c: c.__name__
)
class TestFailHealRebuild:
    def test_fail_heal_rebuild_restores_data(self, controller_cls):
        """Regression: the replacement drive must not inherit fail-slow or
        GC residue from its previous life (heal(), not repair())."""
        h = ArrayHarness(controller_cls)
        rng = np.random.default_rng(11)
        h.write(0, rng.integers(0, 256, h.capacity, dtype=np.uint8))
        victim = 2
        h.cluster.servers[victim].drive.set_fail_slow(50.0)
        h.array.fail_drive(victim)
        # overwrite part of the array while degraded
        h.write(0, rng.integers(0, 256, 2 * h.geometry.stripe_data_bytes, dtype=np.uint8))
        job = RebuildJob(h.array, victim, h.stripes)
        h.env.run(until=job.start())
        assert victim not in h.array.failed
        drive = h.cluster.servers[victim].drive
        assert drive._slow_mult == 1.0  # residue cleared by heal()
        h.check_read(0, h.capacity)
        h.scrub()


class TestFaultInjector:
    def _harness(self):
        return ArrayHarness(SpdkRaid)

    def test_injector_arms_array(self):
        h = self._harness()
        assert not h.array.resilient
        FaultInjector(h.array, FaultPlan([]), num_stripes=h.stripes)
        assert h.array.resilient

    def test_applies_events_on_schedule(self):
        h = self._harness()
        plan = FaultPlan(
            [
                DriveFailSlow(1 * MS, server=0, multiplier=4.0, duration_ns=2 * MS),
                NicDegrade(2 * MS, server=1, factor=0.5, duration_ns=2 * MS),
                DriveFail(3 * MS, server=2),
            ]
        )
        injector = FaultInjector(h.array, plan, num_stripes=h.stripes)
        h.env.run(until=5 * MS)
        assert injector.applied == 3
        assert 2 in h.array.failed
        stats = h.array.fault_stats
        assert stats.injected == {
            "DriveFailSlow": 1,
            "NicDegrade": 1,
            "DriveFail": 1,
        }

    def test_heal_runs_rebuild_and_drain_waits(self):
        h = self._harness()
        rng = np.random.default_rng(7)
        h.write(0, rng.integers(0, 256, h.capacity, dtype=np.uint8))
        plan = FaultPlan(
            [DriveFail(1 * MS, server=1), DriveHeal(2 * MS, server=1)]
        )
        injector = FaultInjector(h.array, plan, num_stripes=h.stripes)
        h.env.run(until=injector.drain())
        assert injector.rebuilds == 1
        assert 1 not in h.array.failed
        h.check_read(0, h.capacity)
        h.scrub()

    def test_config_timeout_reaches_arrays(self):
        """Satellite: ClusterConfig.io_timeout_ns replaces the hard-coded
        50 ms constant and parameterizes every controller."""
        env = Environment()
        config = ClusterConfig(num_servers=5, functional_capacity=64 * 1024,
                               io_timeout_ns=7 * MS)
        from repro.raid.geometry import RaidGeometry, RaidLevel

        geometry = RaidGeometry(RaidLevel.RAID5, 5, 16 * 1024)
        for cls in (MdRaid, SpdkRaid, DraidArray):
            # one array per cluster: a connection end takes one reader
            cluster = build_cluster(env, config)
            assert cls(cluster, geometry).timeout_ns == 7 * MS
        assert ClusterConfig().io_timeout_ns == 50 * MS  # seed default

    def test_member_events_resolve_servers_on_an_offloaded_array(self):
        """A plan names servers; on an offloaded array member m lives on
        server m + 1, and the controller's own server hosts no member."""
        from repro.draid.offload import OffloadedDraidArray
        from repro.raid.geometry import RaidGeometry, RaidLevel

        env = Environment()
        cluster = build_cluster(env, ClusterConfig(num_servers=6))
        geometry = RaidGeometry(RaidLevel.RAID5, 5, 16 * 1024)
        array = OffloadedDraidArray(cluster, geometry, controller_server=0).controller
        plan = FaultPlan([
            ServerCrash(1 * MS, server=2, down_ns=MS),
            DriveFail(1 * MS, server=4),
            DriveFailSlow(1 * MS, server=3, multiplier=4.0),
            # the controller's server: no member to crash or fail
            ServerCrash(1 * MS, server=0, down_ns=MS),
            DriveFail(1 * MS, server=0),
            DriveHeal(3 * MS, server=4),
        ])
        injector = FaultInjector(array, plan, num_stripes=4)
        env.run(until=2 * MS)
        assert [side.index for side in array.server_sides if side.crashes] == [2]
        assert array.failed == {3} and array.servers[3] is cluster.servers[4]
        assert cluster.servers[3].drive._slow_factor() == 4.0
        env.run(until=injector.drain())
        assert injector.rebuilds == 1 and not array.failed

    @pytest.mark.parametrize("system", ["SPDK", "dRAID"])
    def test_drive_fail_reaches_a_member_under_rebuild(self, system):
        """A member stays failed until its rebuild ends, but its replacement
        drive is alive: a DriveFail landing mid-rebuild kills the
        replacement, drops the rebuilt stripes and fails the rebuild,
        without a second degraded transition."""
        stripes, chunk = 64, 16 * 1024
        env, _, array = build_testbed(system, chunk_bytes=chunk, config=ClusterConfig(
            num_servers=5, functional_capacity=stripes * chunk, io_timeout_ns=2 * MS,
        ))
        blob = np.random.default_rng(1).integers(
            0, 256, stripes * array.geometry.stripe_data_bytes, dtype=np.uint8
        )
        env.run(until=array.write(0, len(blob), blob))
        t = env.now
        plan = FaultPlan([
            DriveFail(t + MS, server=2),
            DriveHeal(t + 2 * MS, server=2),
            DriveFail(t + 2 * MS + 200_000, server=2),
        ])
        injector = FaultInjector(array, plan, num_stripes=stripes)
        env.run(until=t + 2 * MS + 300_000)
        assert array.drives[2].failed
        assert 2 not in array.rebuilt_stripes
        env.run(until=injector.drain())
        assert (injector.rebuilds, injector.rebuild_failures) == (0, 1)
        assert array.failed == {2}
        assert array.fault_stats.injected["DriveFail"] == 2
        assert array.fault_stats.degraded_transitions == 1

    @pytest.mark.parametrize("system", ["SPDK", "dRAID"])
    def test_second_heal_joins_the_running_rebuild(self, system):
        """A DriveHeal for a member whose rebuild is still running joins
        that rebuild: the replacement is not healed again, its rebuilt
        stripes are kept, and one rebuild is counted."""
        stripes, chunk = 64, 16 * 1024
        env, _, array = build_testbed(system, chunk_bytes=chunk, config=ClusterConfig(
            num_servers=5, functional_capacity=stripes * chunk, io_timeout_ns=2 * MS,
        ))
        blob = np.random.default_rng(2).integers(
            0, 256, stripes * array.geometry.stripe_data_bytes, dtype=np.uint8
        )
        env.run(until=array.write(0, len(blob), blob))
        t = env.now
        plan = FaultPlan([
            DriveFail(t + MS, server=2),
            DriveHeal(t + 2 * MS, server=2),
            DriveHeal(t + 2 * MS + 200_000, server=2),
        ])
        injector = FaultInjector(array, plan, num_stripes=stripes)
        env.run(until=injector.drain())
        assert (injector.rebuilds, injector.rebuild_failures) == (1, 0)
        assert not array.failed
        # the initial full-stripe writes plus one rebuild pass
        assert array.drives[2].stats.write_ops == 2 * stripes
        readback = env.run(until=array.read(0, len(blob)))
        assert np.array_equal(np.asarray(readback, dtype=np.uint8), blob)


# -- the fence rule: one table over the six decision paths -------------------

class _SuspectsEveryone:
    """A fail-slow detector for which every member is a straggler."""

    def suspect(self, member, exclude=(), now_ns=None):
        return True

    def note_eject(self, member, now_ns):
        pass


def _trip_breakers(array, members):
    for member in members:
        for _ in range(3):
            array._breaker_observe(member, False)


def _drain_stragglers(array, members):
    # commands outstanding on each member, no completion for a full timeout
    for member in members:
        array.bdevs[member]._pending[-1 - member] = array.env.event()
    array.env.run(until=array.env.now + array.timeout_ns)
    array._fence_stragglers(array.timeout_ns)


def _eject_failslow(array, members):
    array.failslow_detector = _SuspectsEveryone()
    for member in members:
        array._maybe_eject_failslow(member)


def _fence_unresponsive(array, members):
    from repro.draid.host import _OpWaiter

    array._fence_unresponsive(
        _OpWaiter(array.env, {"write": len(members)}, participants=members)
    )


def _read_silent_members(array, members):
    from repro.nvmeof.messages import IoError

    array.resilient = True
    for member in members:
        array.bdev_servers[member].crash(10_000 * MS)
    g = array.geometry
    for member in sorted(members):
        # a 4 KiB read of the first data chunk the member holds
        stripe = next(s for s in range(6) if member not in g.parity_drives(s))
        offset = (
            stripe * g.stripe_data_bytes
            + g.data_index_of_drive(stripe, member) * g.chunk_bytes
        )
        try:
            array.env.run(until=array.read(offset, 4096))
        except IoError:
            pass  # at tolerance the silent member stays in and the read fails


def _escalate_gray(array, members):
    from repro.raid.recovery import RecoveryOrchestrator

    orch = RecoveryOrchestrator(array, num_stripes=4, detector=_SuspectsEveryone())
    orch._escalate_gray()
    assert orch.stats.gray_ejections == len(array.failed)


#: path -> (controller, driver, declares the drive dead, counter bumped per fence)
FENCE_PATHS = {
    "breaker-trip": (SpdkRaid, _trip_breakers, False, "breaker_trips"),
    "straggler-drain": (SpdkRaid, _drain_stragglers, True, "prolonged_failures"),
    "fail-slow-eject": (DraidArray, _eject_failslow, False, "fail_slow_ejections"),
    "unresponsive-participant": (DraidArray, _fence_unresponsive, True, "prolonged_failures"),
    "silent-read": (DraidArray, _read_silent_members, True, "prolonged_failures"),
    "gray-escalation": (DraidArray, _escalate_gray, False, "fail_slow_ejections"),
}


class TestFenceRule:
    @pytest.mark.parametrize("level_name", ["RAID5", "RAID6"])
    @pytest.mark.parametrize("path", FENCE_PATHS)
    def test_every_decision_path_obeys_it(self, path, level_name):
        """Each path offers one member more than the array tolerates: the
        first ``fault_tolerance`` are fenced — same counters and drive
        state whichever path decided — the sanitizer sees every
        transition, and none crosses tolerance."""
        from repro.qos import OverloadConfig
        from repro.raid.geometry import RaidGeometry, RaidLevel
        from repro.verify import VerifyConfig

        controller_cls, drive_path, dead, counter = FENCE_PATHS[path]
        env = Environment()
        cluster = build_cluster(env, ClusterConfig(
            num_servers=6, io_timeout_ns=100_000, verify=VerifyConfig(),
            overload=OverloadConfig(
                breaker_threshold=0.3, breaker_min_samples=2, breaker_cooldown_ns=0
            ) if path == "breaker-trip" else None,
        ))
        array = controller_cls(
            cluster, RaidGeometry(RaidLevel[level_name], 6, 16384)
        )
        tolerance = array.fault_tolerance
        checked = []
        check_fence = cluster.verify.check_fence
        cluster.verify.check_fence = lambda a: (checked.append(len(a.failed)),
                                                check_fence(a))
        drive_path(array, set(range(tolerance + 1)))
        assert array.failed == set(range(tolerance))
        assert [drive.failed for drive in array.drives] == [
            dead and member < tolerance for member in range(6)
        ]
        stats = array.fault_stats
        counters = {
            "prolonged_failures": stats.prolonged_failures,
            "fail_slow_ejections": stats.fail_slow_ejections,
            "breaker_trips": 0 if cluster.qos is None else cluster.qos.stats.breaker_trips,
        }
        assert stats.degraded_transitions == tolerance
        assert counters == {
            name: tolerance if name == counter else 0 for name in counters
        }
        # one sanitizer check per transition, none past tolerance
        assert checked == list(range(1, tolerance + 1))
        assert not cluster.verify.violations

    def test_offloaded_repair_forgets_the_member(self):
        from repro.draid.offload import OffloadedController
        from repro.raid.geometry import RaidGeometry, RaidLevel

        cluster = build_cluster(Environment(), ClusterConfig(num_servers=6))
        detector = FailSlowDetector(min_samples=1)
        controller = OffloadedController(
            cluster, RaidGeometry(RaidLevel.RAID5, 5, 16384), 0,
            failslow_detector=detector,
        )
        detector.observe(2, 5 * MS)
        controller.fail_drive(2)
        controller.repair_drive(2)
        assert 2 not in detector.ewma_ns
        assert not controller.drives[2].failed
