"""Tests for availability-aware recovery orchestration (repro.raid.recovery).

Covers the satellite regressions that motivated the subsystem:

* fail-slow hysteresis — a gray drive oscillating around the ejection
  threshold must not flap in and out of rotation;
* rebuild-watermark restart — a member re-failing mid-rebuild (or across a
  heal -> fail -> heal cycle) restarts from scratch instead of resuming
  stale progress;
* risk-ordered scheduling — in a double-degraded RAID-6 group the
  zero-redundancy stripes drain before the single-degraded ones.
"""

import numpy as np
import pytest

from repro.baselines import SpdkRaid
from repro.cluster import ClusterConfig, build_cluster
from repro.draid import DraidArray, EcGeometry
from repro.draid.ec_array import LrcDraidArray
from repro.faults import DriveFail, DriveHeal, FailSlowDetector, FaultInjector, FaultPlan
from repro.raid.geometry import RaidGeometry, RaidLevel
from repro.raid.rebuild import RebuildJob
from repro.raid.recovery import RecoveryOrchestrator, SparePool
from repro.sim import Environment
from repro.verify import InvariantViolation, VerifyConfig
from tests.raid_harness import ArrayHarness, TEST_CHUNK

MS = 1_000_000

CONTROLLERS = [SpdkRaid, DraidArray]


@pytest.fixture(params=CONTROLLERS, ids=lambda c: c.__name__)
def controller_cls(request):
    return request.param


def _hysteresis_loop(det, schedule, tick_ns=1_000):
    """Drive the detector the way a controller would: observe, then eject
    on ``suspect`` / re-admit on ``recovered``.  Returns admission flips."""
    now = 0
    ejected = False
    flips = 0
    for sample in schedule:
        now += tick_ns
        for peer in range(4):
            det.observe(peer, 1_000)
        det.observe(4, sample)
        if not ejected and det.suspect(4, now_ns=now):
            det.note_eject(4, now)
            ejected = True
            flips += 1
        elif ejected and det.recovered(4, now):
            det.note_readmit(4, now)
            ejected = False
            flips += 1
    return flips


class TestFailSlowHysteresis:
    def _oscillation(self, cycles=40):
        # EWMA oscillates just above / just below 3x the peer median
        out = []
        for _ in range(cycles):
            out.extend([6_000] * 4)  # drags EWMA above 3 000
            out.extend([1_500] * 4)  # drags it back below
        return out

    def test_band_prevents_flapping(self):
        """Regression: without the band the oscillating member flips in
        and out on nearly every swing; with it the episode costs exactly
        one ejection (re-admission needs exit_ratio x median *and* dwell)."""
        banded = FailSlowDetector(
            min_samples=4, floor_ns=100, exit_ratio=1.5, cooldown_ns=8_000
        )
        flat = FailSlowDetector(
            min_samples=4, floor_ns=100, exit_ratio=3.0, cooldown_ns=0
        )
        schedule = self._oscillation()
        assert _hysteresis_loop(banded, schedule) == 1
        assert _hysteresis_loop(flat, schedule) > 3
        assert banded.flap_count(4) == 1

    def test_recovered_requires_dwell_and_fresh_samples(self):
        det = FailSlowDetector(min_samples=4, floor_ns=100, cooldown_ns=10_000)
        for peer in range(4):
            for _ in range(4):
                det.observe(peer, 1_000)
        for _ in range(4):
            det.observe(4, 10_000)
        assert det.suspect(4, now_ns=100)
        det.note_eject(4, 100)
        # history dropped: fast fresh samples alone are not enough within dwell
        for _ in range(4):
            det.observe(4, 1_000)
        assert not det.recovered(4, now_ns=100 + 5_000)
        assert det.recovered(4, now_ns=100 + 10_000)

    def test_readmit_dwell_blocks_instant_reeject(self):
        det = FailSlowDetector(min_samples=2, floor_ns=100, cooldown_ns=10_000)
        det.note_readmit(4, 50_000)
        for peer in range(4):
            for _ in range(2):
                det.observe(peer, 1_000)
        for _ in range(2):
            det.observe(4, 50_000)
        assert not det.suspect(4, now_ns=55_000)  # inside the re-eject dwell
        assert det.suspect(4, now_ns=60_000)
        # callers that never pass now_ns keep the pre-hysteresis behavior
        assert det.suspect(4)


class TestWatermarkRestart:
    def test_refail_clears_watermark(self, controller_cls):
        """A re-failing member must restart its rebuild from scratch."""
        h = ArrayHarness(controller_cls, stripes=12)
        h.array.fail_drive(2)
        h.array.rebuild_watermark[2] = 7  # simulate a part-way rebuild
        h.array.rebuilt_stripes[2] = {9}
        h.array.repair_drive(2)
        h.array.fail_drive(2)
        assert 2 not in h.array.rebuild_watermark
        assert 2 not in h.array.rebuilt_stripes
        assert h.array.drive_failed(2, 0) and h.array.drive_failed(2, 9)

    def test_second_failure_mid_rebuild_restarts(self, controller_cls):
        """heal -> fail -> heal: the second rebuild must not resume the
        first one's stale watermark (the replacement is empty again)."""
        h = ArrayHarness(controller_cls, stripes=12)
        rng = np.random.default_rng(5)
        blob = rng.integers(0, 256, h.capacity, dtype=np.uint8)
        h.write(0, blob)
        victim = 1
        h.array.fail_drive(victim)
        job = RebuildJob(h.array, victim, num_stripes=12)
        done = job.start()

        def refail():
            # let the sweep pass a few stripes, then kill the replacement
            yield h.env.timeout(200_000)
            assert job.stats.stripes_rebuilt > 0
            h.array.fail_drive(victim)

        h.env.process(refail(), name="refail")
        with pytest.raises(RuntimeError):
            h.env.run(until=done)
        assert victim not in h.array.rebuild_watermark
        assert victim not in h.array.rebuilt_stripes
        # every stripe is treated as failed again — no stale resume window
        assert all(h.array.drive_failed(victim, s) for s in range(12))
        h.cluster.drives()[victim]._data[:] = 0
        stats = h.env.run(until=RebuildJob(h.array, victim, num_stripes=12).start())
        assert stats.stripes_rebuilt == 12  # restarted from stripe 0
        assert victim not in h.array.failed
        h.scrub()
        h.check_read(0, h.capacity)

    def test_drive_failed_consults_rebuilt_set(self, controller_cls):
        h = ArrayHarness(controller_cls, stripes=8)
        h.array.fail_drive(3)
        h.array.rebuilt_stripes[3] = {5, 6}
        assert not h.array.drive_failed(3, 5)
        assert not h.array.drive_failed(3, 6)
        assert h.array.drive_failed(3, 0)
        h.array.repair_drive(3)
        assert 3 not in h.array.rebuilt_stripes
        assert not h.array.drive_failed(3, 0)


def _sanitized_harness(stripes=10, drives=6):
    """A RAID-6 dRAID array with the runtime sanitizer armed."""
    env = Environment()
    config = ClusterConfig(
        num_servers=drives,
        functional_capacity=stripes * TEST_CHUNK,
        verify=VerifyConfig(),
    )
    cluster = build_cluster(env, config)
    geometry = RaidGeometry(RaidLevel.RAID6, drives, TEST_CHUNK)
    array = DraidArray(cluster, geometry)
    return env, cluster, geometry, array


class TestRecoveryOrchestrator:
    def test_orchestrated_rebuild_restores_contents(self, controller_cls):
        h = ArrayHarness(controller_cls, stripes=12)
        rng = np.random.default_rng(8)
        blob = rng.integers(0, 256, h.capacity, dtype=np.uint8)
        h.write(0, blob)
        orch = RecoveryOrchestrator(h.array, num_stripes=12, spares=SparePool(h.env, 2))
        assert h.cluster.recovery is orch
        h.array.fail_drive(2)
        h.env.run(until=orch.request_rebuild(2))
        assert 2 not in h.array.failed
        assert orch.stats.rebuilds_completed == 1
        assert orch.stats.chunks_recovered == 12
        assert not orch.rebuilding
        h.scrub()
        h.check_read(0, h.capacity)

    def test_double_degraded_stripes_drain_first(self):
        """RAID-6, second failure mid-rebuild: every stripe that lost two
        chunks (zero surviving redundancy) must finish before any stripe
        that lost one — asserted on the scheduler's pick sequence under a
        sanitizer-armed array, with the shadow model checked at the end."""
        stripes = 10
        env, cluster, geometry, array = _sanitized_harness(stripes=stripes)
        rng = np.random.default_rng(13)
        blob = rng.integers(0, 256, stripes * geometry.stripe_data_bytes, dtype=np.uint8)
        env.run(until=array.write(0, len(blob), blob))
        orch = RecoveryOrchestrator(array, num_stripes=stripes, pace_ns=20_000)
        picks = []
        inner_next = orch._next_target

        def spying_next():
            stripe = inner_next()
            if stripe is not None:
                picks.append((stripe, len(orch._stripe_pending[stripe])))
            return stripe

        orch._next_target = spying_next
        array.fail_drive(1)
        first = orch.request_rebuild(1)

        second = []

        def refail():
            yield env.timeout(300_000)
            assert orch.rebuilding  # drive 1's rebuild is still in flight
            array.fail_drive(4)
            second.append(orch.request_rebuild(4))

        env.process(refail(), name="refail")
        env.run(until=first)
        env.run(until=second[0])
        joined = next(i for i, (_, risk) in enumerate(picks) if risk == 2)
        tail = [risk for _, risk in picks[joined:]]
        assert 2 in tail and 1 in tail
        assert tail == sorted(tail, reverse=True), (
            f"zero-redundancy stripes must drain before single-degraded: {picks}"
        )
        assert not array.failed
        got = env.run(until=array.read(0, len(blob)))
        assert np.array_equal(got, blob)  # shadow model
        from repro.raid.scrub import scrub_array

        assert scrub_array(cluster.drives(), geometry, stripes).clean

    def test_risk_index_tracks_redundancy(self):
        env, cluster, geometry, array = _sanitized_harness(stripes=6)
        orch = RecoveryOrchestrator(array, num_stripes=6)
        assert orch.risk_index() == {2: 6}
        array.fail_drive(0)
        assert orch.risk_index() == {1: 6}
        array.fail_drive(3)
        array.rebuilt_stripes[3] = {0, 1}
        assert orch.risk_index() == {0: 4, 1: 2}

    def test_spare_pool_serializes_rebuilds(self):
        env, cluster, geometry, array = _sanitized_harness(stripes=6)
        pool = SparePool(env, 1)
        orch = RecoveryOrchestrator(array, num_stripes=6, spares=pool)
        array.fail_drive(0)
        array.fail_drive(3)
        first = orch.request_rebuild(0)
        second = orch.request_rebuild(3)
        env.run(until=first)
        env.run(until=second)
        assert pool.waits == 1
        assert pool.allocated == 2
        assert pool.available == 1
        assert not array.failed

    def test_slo_pacing_adapts(self):
        h = ArrayHarness(DraidArray, stripes=16)
        rng = np.random.default_rng(3)
        h.write(0, rng.integers(0, 256, h.capacity, dtype=np.uint8))
        # an unreachable SLO: every probe overshoots, pacing must back off
        orch = RecoveryOrchestrator(
            h.array, num_stripes=16, slo_p99_us=0.01, probe_every=2,
            max_pace_ns=400_000,
        )
        h.array.fail_drive(2)
        h.env.run(until=orch.request_rebuild(2))
        assert orch.stats.probes > 0
        assert orch.stats.pace_increases >= 1
        assert orch.pace_ns == 400_000
        # a lenient SLO: the same orchestrator decays back toward base pace
        orch.slo_p99_us = 1e9
        h.array.fail_drive(2)
        h.env.run(until=orch.request_rebuild(2))
        assert orch.stats.pace_decreases >= 1
        assert orch.pace_ns == orch.base_pace_ns

    def test_gray_escalation_and_readmission(self):
        """End-to-end gray-failure story: a stuttering drive is ejected by
        the watch loop, kept out through the hysteresis band, and re-admitted
        (via a full rebuild) only after it genuinely recovers."""
        h = ArrayHarness(DraidArray, stripes=8)
        rng = np.random.default_rng(9)
        blob = rng.integers(0, 256, h.capacity, dtype=np.uint8)
        h.write(0, blob)
        detector = FailSlowDetector(
            min_samples=4, floor_ns=1_000, cooldown_ns=2 * MS, exit_ratio=1.5
        )
        orch = RecoveryOrchestrator(
            h.array, num_stripes=8, detector=detector, poll_ns=100_000
        )
        h.cluster.servers[2].drive.set_fail_slow(8.0, duration_ns=4 * MS)
        orch.start_watch()
        h.env.run(until=h.env.timeout(20 * MS))
        orch.stop_watch()
        h.env.run(until=h.env.timeout(1 * MS))
        assert orch.stats.gray_ejections == 1
        assert orch.stats.readmissions == 1
        assert detector.flap_count(2) == 1  # no eject/re-admit flapping
        assert 2 not in h.array.failed
        h.scrub()
        h.check_read(0, h.capacity)

    def test_gray_escalation_stops_at_the_codes_tolerance(self):
        """LRC(6,2,1) carries three parities but guarantees one failure:
        escalation (and the sanitizer) hold to the code's tolerance, not
        the parity count."""

        class SuspectsEveryone:
            def suspect(self, member, exclude=(), now_ns=None):
                return True

            def note_eject(self, member, now_ns):
                pass

        env = Environment()
        cluster = build_cluster(
            env, ClusterConfig(num_servers=9, verify=VerifyConfig())
        )
        geometry = EcGeometry(9, TEST_CHUNK, num_parity=3)
        array = LrcDraidArray(cluster, geometry, local_groups=2)
        assert array.fault_tolerance == 1 < geometry.num_parity
        orch = RecoveryOrchestrator(array, num_stripes=4, detector=SuspectsEveryone())
        orch._escalate_gray()
        assert array.failed == {0}
        assert orch.stats.gray_ejections == 1
        assert array.fault_stats.fail_slow_ejections == 1
        assert not cluster.verify.violations
        # two members out is beyond what the code guarantees
        array.failed.add(1)
        with pytest.raises(InvariantViolation, match="fencing-beyond-parity"):
            cluster.verify.check_fence(array)

    def test_injector_routes_heal_through_orchestrator(self):
        h = ArrayHarness(SpdkRaid)
        rng = np.random.default_rng(7)
        h.write(0, rng.integers(0, 256, h.capacity, dtype=np.uint8))
        orch = RecoveryOrchestrator(h.array, num_stripes=h.stripes)
        plan = FaultPlan([DriveFail(1 * MS, server=1), DriveHeal(2 * MS, server=1)])
        injector = FaultInjector(h.array, plan, num_stripes=h.stripes)
        h.env.run(until=injector.drain())
        assert injector.rebuilds == 1
        assert orch.stats.rebuilds_completed == 1
        assert 1 not in h.array.failed
        h.check_read(0, h.capacity)
        h.scrub()
