"""Chaos harness tests: randomized seeded fault schedules (§5.4).

27 schedules (9 seeds x 3 controllers) each run a paced workload through
a seeded fault storm, then recover (heal + rebuild + resync) and verify:
every surviving byte bit-exact against the shadow model, parity scrub
clean, no hangs.  A determinism gate re-runs schedules through the
parallel sweep executor and requires byte-identical outcomes.
"""

import pytest

from repro.experiments.runner import SweepPoint, run_points
from repro.faults.chaos import CHAOS_SYSTEMS, run_chaos_schedule

CHAOS_SEEDS = range(1, 10)  # 9 seeds x 3 systems = 27 schedules


@pytest.mark.parametrize("system", CHAOS_SYSTEMS)
@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_schedule_survives(system, seed):
    outcome = run_chaos_schedule(system, seed)
    assert outcome.verified, (
        f"{system} seed {seed}: data diverged from model\n{outcome.row()}"
    )
    assert outcome.scrub_clean, (
        f"{system} seed {seed}: parity scrub dirty\n{outcome.row()}"
    )
    assert outcome.applied == outcome.plan_events


def test_chaos_schedule_replay_identical():
    a = run_chaos_schedule("draid", 3)
    b = run_chaos_schedule("draid", 3)
    assert a == b


class TestDeterminismGuard:
    """Identical FaultPlan, serial vs parallel sweep: byte-identical rows."""

    POINTS = [
        SweepPoint(run_chaos_schedule, dict(system=system, seed=seed))
        for system in CHAOS_SYSTEMS
        for seed in (2, 5)
    ]

    def test_serial_matches_parallel(self):
        serial = run_points(self.POINTS, jobs=1)
        parallel = run_points(self.POINTS, jobs=2)
        assert serial == parallel
        assert [o.row() for o in serial] == [o.row() for o in parallel]
        assert [o.fault_summary for o in serial] == [
            o.fault_summary for o in parallel
        ]


class TestCorruptionStorms:
    """Chaos schedules with silent-corruption events mixed in: the full
    recovery playbook must end with zero residual corruption, a clean
    scrub and byte-exact shadow data."""

    @pytest.mark.parametrize("system", CHAOS_SYSTEMS)
    def test_corruption_storm_recovers(self, system):
        outcome = run_chaos_schedule(system, 7, corruption_events=4)
        assert outcome.corruption_events > 0
        # armed events only fire if a write hits the drive and detection
        # episodes dedupe per chunk, so detected can trail the injected
        # count — but a storm of 4 must surface at least one episode
        # episodes dedupe per chunk and a detection can end in adoption
        # rather than repair (beyond-parity loss on a torn stripe)
        assert outcome.detected > 0, outcome.integrity_row()
        assert outcome.repaired > 0, outcome.integrity_row()
        assert outcome.unrecoverable == 0, outcome.integrity_row()
        assert outcome.ok, outcome.integrity_row()

    def test_scrub_daemon_during_storm(self):
        outcome = run_chaos_schedule(
            "spdk", 8, corruption_events=3, scrub_pace_ns=500_000
        )
        assert outcome.ok, outcome.integrity_row()
        assert outcome.unrecoverable == 0

    def test_corruption_storm_replay_identical(self):
        a = run_chaos_schedule("md", 9, corruption_events=4)
        b = run_chaos_schedule("md", 9, corruption_events=4)
        assert a == b

    def test_serial_matches_parallel(self):
        points = [
            SweepPoint(
                run_chaos_schedule,
                dict(system=system, seed=6, corruption_events=4),
            )
            for system in CHAOS_SYSTEMS
        ]
        serial = run_points(points, jobs=1)
        parallel = run_points(points, jobs=2)
        assert serial == parallel
        assert [o.integrity_row() for o in serial] == [
            o.integrity_row() for o in parallel
        ]


class TestFailSlowRecovery:
    """Acceptance: a 10x fail-slow member is ejected by the EWMA detector
    and read p99 recovers to within 2x of the healthy baseline."""

    @pytest.fixture(scope="class")
    def rows(self):
        from repro.experiments.reliability import failslow_point

        return {
            mode: failslow_point(mode)
            for mode in ("baseline", "failslow", "detected")
        }

    def test_failslow_hurts_tail_latency(self, rows):
        assert (
            rows["failslow"].metrics["p99_latency_us"]
            > 3 * rows["baseline"].metrics["p99_latency_us"]
        )

    def test_detector_ejects_and_p99_recovers(self, rows):
        assert rows["detected"].metrics["fail_slow_ejections"] >= 1
        assert (
            rows["detected"].metrics["p99_latency_us"]
            <= 2 * rows["baseline"].metrics["p99_latency_us"]
        )
