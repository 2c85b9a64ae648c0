"""Overload-control subsystem tests: admission, deadlines, budgets, breakers.

Covers the synchronous primitives (:mod:`repro.qos`), the bounded NVMe-oF
target queue (including the unbounded-when-unset regression), the
controller-level admission/deadline behavior on a real cluster, and the
open-loop workload's accounting.  The committed overload smoke golden is
checked byte-for-byte at the end, same as the chaos/integrity smokes.
"""

import pytest

from repro.cluster import ClusterConfig, build_cluster
from repro.nvmeof import NvmeOfTarget, RemoteBdev
from repro.nvmeof.messages import IoError
from repro.qos import (
    AdmissionQueue,
    Busy,
    CircuitBreaker,
    DeadlineExceeded,
    OverloadConfig,
    PRIORITY_BACKGROUND,
    QosControl,
    RetryBudget,
)
from repro.raid.geometry import RaidGeometry, RaidLevel
from repro.sim import Environment

KB = 1024
MS = 1_000_000


def build_md(num_servers=4, overload=None, chunk=64 * KB, **cluster_kwargs):
    from repro.baselines import MdRaid

    env = Environment()
    config = ClusterConfig(
        num_servers=num_servers, overload=overload, **cluster_kwargs
    )
    cluster = build_cluster(env, config)
    geometry = RaidGeometry(RaidLevel.RAID5, num_servers, chunk)
    return env, MdRaid(cluster, geometry)


class TestTypedErrors:
    def test_busy_and_deadline_are_io_errors(self):
        """Pre-existing ``except IoError`` sites must keep catching the
        typed overload rejections — arming never un-handles a failure."""
        assert issubclass(Busy, IoError)
        assert issubclass(DeadlineExceeded, IoError)
        assert not issubclass(Busy, DeadlineExceeded)


class TestAdmissionQueue:
    def test_foreground_bound(self):
        q = AdmissionQueue(depth=2)
        assert q.try_admit() and q.try_admit()
        assert not q.try_admit()
        assert q.rejected == 1
        q.release()
        assert q.try_admit()

    def test_background_sheds_at_lower_watermark(self):
        q = AdmissionQueue(depth=4, background_depth=2)
        assert q.try_admit(PRIORITY_BACKGROUND)
        assert q.try_admit(PRIORITY_BACKGROUND)
        # background full at 2, foreground still has room
        assert not q.try_admit(PRIORITY_BACKGROUND)
        assert q.shed_background == 1 and q.rejected == 0
        assert q.try_admit()
        assert q.under_pressure

    def test_default_background_watermark_is_half(self):
        assert AdmissionQueue(depth=8).background_depth == 4
        assert AdmissionQueue(depth=1).background_depth == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionQueue(depth=0)
        with pytest.raises(ValueError):
            AdmissionQueue(depth=4, background_depth=5)
        with pytest.raises(ValueError):
            AdmissionQueue(depth=4, background_depth=0)
        q = AdmissionQueue(depth=1)
        with pytest.raises(RuntimeError):
            q.release()


class TestRetryBudget:
    def test_retries_are_a_tax_on_successes(self):
        budget = RetryBudget(deposit_ratio=0.5, burst=2.0)
        assert budget.try_spend() and budget.try_spend()
        # bucket dry: denials until successes deposit enough
        assert not budget.try_spend()
        assert budget.denied == 1
        budget.note_success()
        assert not budget.try_spend()  # 0.5 token is not a whole token
        budget.note_success()
        assert budget.try_spend()
        assert budget.granted == 3

    def test_deposits_saturate_at_burst(self):
        budget = RetryBudget(deposit_ratio=1.0, burst=3.0)
        for _ in range(10):
            budget.note_success()
        assert budget.tokens == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryBudget(deposit_ratio=-0.1)
        with pytest.raises(ValueError):
            RetryBudget(burst=0.5)


class TestCircuitBreaker:
    def test_trips_only_after_warmup_and_threshold(self):
        breaker = CircuitBreaker(threshold=0.5, alpha=0.5, min_samples=4)
        for _ in range(3):
            breaker.record(0, ok=False)
        assert not breaker.should_trip(0, now_ns=0)  # warming up
        breaker.record(0, ok=False)
        assert breaker.failure_rate(0) > 0.5
        assert breaker.should_trip(0, now_ns=0)

    def test_healthy_member_never_trips(self):
        breaker = CircuitBreaker(threshold=0.5, min_samples=2)
        for _ in range(100):
            breaker.record(1, ok=True)
        assert not breaker.should_trip(1, now_ns=0)
        assert breaker.failure_rate(1) == 0.0

    def test_cooldown_rate_limits_trips(self):
        breaker = CircuitBreaker(
            threshold=0.1, alpha=1.0, min_samples=1, cooldown_ns=1000
        )
        breaker.record(0, ok=False)
        assert breaker.should_trip(0, now_ns=0)
        breaker.note_trip(0, now_ns=0)
        breaker.record(1, ok=False)
        assert not breaker.should_trip(1, now_ns=500)  # inside cooldown
        assert breaker.should_trip(1, now_ns=1000)

    def test_trip_resets_member_state(self):
        breaker = CircuitBreaker(threshold=0.1, alpha=1.0, min_samples=1)
        breaker.record(0, ok=False)
        breaker.note_trip(0, now_ns=0)
        assert breaker.failure_rate(0) == 0.0
        assert breaker.trips == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker(alpha=1.5)
        with pytest.raises(ValueError):
            CircuitBreaker(min_samples=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_ns=-1)


class TestQosControl:
    def test_all_knobs_default_disarmed(self):
        control = QosControl(OverloadConfig())
        assert control.admission is None
        assert control.retry_budget is None
        assert control.breaker is None
        assert not control.under_pressure

    def test_knobs_arm_independently(self):
        control = QosControl(OverloadConfig(admission_depth=8))
        assert control.admission is not None and control.retry_budget is None
        control = QosControl(OverloadConfig(retry_deposit_ratio=0.1))
        assert control.retry_budget is not None and control.admission is None
        control = QosControl(OverloadConfig(breaker_threshold=0.5))
        assert control.breaker is not None

    def test_stats_summary_line_is_stable(self):
        control = QosControl(OverloadConfig())
        assert control.stats.summary() == (
            "busy=0 shed_bg=0 deadline=0 retries_denied=0 breaker_trips=0"
        )

    def test_cluster_slot_disarmed_by_default(self):
        env = Environment()
        cluster = build_cluster(env, ClusterConfig(num_servers=2))
        assert cluster.qos is None

    def test_cluster_slot_armed_by_config(self):
        env = Environment()
        cluster = build_cluster(
            env,
            ClusterConfig(num_servers=2, overload=OverloadConfig(admission_depth=4)),
        )
        assert cluster.qos is not None
        assert cluster.qos.admission.depth == 4


class TestTargetQueueBound:
    def _stack(self, queue_depth):
        env = Environment()
        cluster = build_cluster(env, ClusterConfig(num_servers=1))
        server = cluster.servers[0]
        conn = cluster.host_connection(0)
        target = NvmeOfTarget(
            server, conn.end_for(server.nic), queue_depth=queue_depth
        )
        bdev = RemoteBdev(cluster.host, conn.end_for(cluster.host.nic), name="bdev")
        return env, target, bdev

    def test_unset_queue_depth_stays_unbounded(self):
        """Regression: the historic target accepted arbitrarily many
        concurrent commands; leaving the knob unset must preserve that."""
        env, target, bdev = self._stack(queue_depth=None)
        outcomes = []

        def one(i):
            yield bdev.read(i * 4096, 4096)
            outcomes.append(i)

        def driver():
            for i in range(256):
                env.process(one(i), name=f"io{i}")
            yield env.timeout(0)

        env.process(driver(), name="driver")
        env.run()
        assert len(outcomes) == 256
        assert target.busy_rejections == 0
        assert target.commands_served == 256

    def test_bounded_target_fast_rejects_with_busy(self):
        env, target, bdev = self._stack(queue_depth=4)
        results = []

        def one(i):
            try:
                yield bdev.read(i * 4096, 64 * KB)
            except Busy:
                results.append("busy")
            else:
                results.append("ok")

        def driver():
            for i in range(64):
                env.process(one(i), name=f"io{i}")
            yield env.timeout(0)

        env.process(driver(), name="driver")
        env.run()
        assert results.count("busy") == target.busy_rejections > 0
        assert results.count("ok") == target.commands_served
        assert len(results) == 64
        # bound respected: nothing left in service afterwards
        assert target.inflight == 0

    def test_stale_command_fast_failed_at_dequeue(self):
        env, target, bdev = self._stack(queue_depth=8)
        caught = []

        def driver():
            # deadline already in the past when the capsule is parsed
            try:
                yield bdev.read(0, 4096, deadline_ns=1)
            except DeadlineExceeded:
                caught.append("deadline")

        def clock():
            yield env.timeout(10)

        env.process(clock(), name="clock")
        env.process(driver(), name="driver")
        env.run()
        assert caught == ["deadline"]
        assert target.deadline_rejections == 1

    def test_queue_depth_validated(self):
        env = Environment()
        cluster = build_cluster(env, ClusterConfig(num_servers=1))
        server = cluster.servers[0]
        conn = cluster.host_connection(0)
        with pytest.raises(ValueError):
            NvmeOfTarget(server, conn.end_for(server.nic), queue_depth=0)


class TestControllerAdmission:
    def test_admission_full_raises_busy(self):
        env, array = build_md(overload=OverloadConfig(admission_depth=1))
        outcomes = []

        def one(i):
            try:
                yield array.read(i * 64 * KB, 64 * KB)
            except Busy:
                outcomes.append("busy")
            else:
                outcomes.append("ok")

        def driver():
            for i in range(8):
                env.process(one(i), name=f"io{i}")
            yield env.timeout(0)

        env.process(driver(), name="driver")
        env.run()
        # depth 1: exactly one of the simultaneous arrivals is admitted
        assert outcomes.count("ok") == 1
        assert outcomes.count("busy") == 7
        assert array.qos.stats.busy_rejections == 7
        assert array.qos.admission.inflight == 0

    def test_background_priority_shed_under_pressure(self):
        env, array = build_md(
            overload=OverloadConfig(admission_depth=4, background_depth=1)
        )
        outcomes = []

        def one(i, priority):
            try:
                yield array.read(i * 64 * KB, 64 * KB, priority=priority)
            except Busy:
                outcomes.append((priority, "busy"))
            else:
                outcomes.append((priority, "ok"))

        def driver():
            env.process(one(0, "bg"), name="bg0")
            env.process(one(1, "bg"), name="bg1")
            env.process(one(2, "fg"), name="fg0")
            yield env.timeout(0)

        env.process(driver(), name="driver")
        env.run()
        # first bg admitted, second shed at the low watermark, fg still fits
        assert ("bg", "ok") in outcomes and ("bg", "busy") in outcomes
        assert ("fg", "ok") in outcomes
        assert array.qos.stats.shed_background == 1
        assert array.qos.stats.busy_rejections == 0

    def test_default_deadline_stamped_and_terminal(self):
        """An impossibly small default deadline makes every I/O fail with
        the typed terminal error and bumps the deadline counter."""
        env, array = build_md(
            overload=OverloadConfig(default_deadline_ns=1), chunk=64 * KB
        )
        caught = []

        def driver():
            try:
                yield array.read(0, 64 * KB)
            except DeadlineExceeded:
                caught.append("read")
            try:
                yield array.write(0, 64 * KB)
            except DeadlineExceeded:
                caught.append("write")

        env.process(driver(), name="driver")
        env.run()
        assert caught == ["read", "write"]
        # the stale commands were shed at the targets, not serviced
        assert sum(t.deadline_rejections for t in array.targets) >= 2

    @pytest.mark.parametrize("deadline_ns", [0, -5])
    def test_non_positive_default_deadline_is_rejected(self, deadline_ns):
        from repro import build_testbed

        config = ClusterConfig(overload=OverloadConfig(default_deadline_ns=deadline_ns))
        with pytest.raises(ValueError, match="default_deadline_ns"):
            build_testbed("dRAID", config=config)

    def test_explicit_deadline_overrides_default(self):
        env, array = build_md(
            overload=OverloadConfig(default_deadline_ns=1)
        )
        done = []

        def driver():
            # a generous explicit deadline wins over the tiny default
            yield array.read(0, 64 * KB, deadline_ns=env.now + 1_000 * MS)
            done.append("ok")

        env.process(driver(), name="driver")
        env.run()
        assert done == ["ok"]

    def test_disarmed_array_ignores_qos_kwargs(self):
        """deadline_ns/priority on an unarmed array are inert — the
        historic datapath is taken and the I/O completes normally."""
        env, array = build_md(overload=None)
        assert array.qos is None
        done = []

        def driver():
            yield array.read(0, 64 * KB, priority="bg")
            done.append("ok")

        env.process(driver(), name="driver")
        env.run()
        assert done == ["ok"]


class TestBreakerEjection:
    def test_error_storm_trips_member_within_parity_headroom(self):
        env, array = build_md(
            num_servers=4,
            overload=OverloadConfig(
                breaker_threshold=0.5,
                breaker_alpha=0.5,
                breaker_min_samples=4,
                breaker_cooldown_ns=0,
            ),
        )
        # fail a member's drive silently (no controller fencing): every
        # command to it completes with an error, feeding the breaker
        array.cluster.servers[1].drive.fail()
        stripe_bytes = array.geometry.stripe_data_bytes

        def driver():
            for i in range(12):
                try:
                    yield array.read(i * stripe_bytes, stripe_bytes)
                except IoError:
                    pass

        env.process(driver(), name="driver")
        env.run()
        assert array.qos.stats.breaker_trips == 1
        assert 1 in array.failed

    def test_breaker_never_trips_past_parity(self):
        env, array = build_md(
            num_servers=4,
            overload=OverloadConfig(
                breaker_threshold=0.3,
                breaker_alpha=1.0,
                breaker_min_samples=1,
                breaker_cooldown_ns=0,
            ),
        )
        # RAID-5 tolerates one loss; member 0 is already fenced
        array.fail_drive(0)
        array.cluster.servers[1].drive.fail()
        stripe_bytes = array.geometry.stripe_data_bytes

        def driver():
            for i in range(8):
                try:
                    yield array.read(i * stripe_bytes, stripe_bytes)
                except IoError:
                    pass

        env.process(driver(), name="driver")
        env.run()
        # the sick member keeps erroring but is never ejected: that would
        # exceed RAID-5's single-failure tolerance
        assert array.qos.stats.breaker_trips == 0
        assert array.failed == {0}


class TestOpenLoopWorkload:
    def test_validation(self):
        from repro.workloads import OpenLoopWorkload

        _, array = build_md()
        with pytest.raises(ValueError):
            OpenLoopWorkload(array, 0, rate_iops=1000)
        with pytest.raises(ValueError):
            OpenLoopWorkload(array, 4096, rate_iops=0)
        with pytest.raises(ValueError):
            OpenLoopWorkload(array, 4096, rate_iops=1000, read_fraction=1.5)
        with pytest.raises(ValueError):
            OpenLoopWorkload(array, 4096, rate_iops=1000, arrival="weird")
        with pytest.raises(ValueError):
            OpenLoopWorkload(
                array, 4096, rate_iops=1000, arrival="bursty", burst_duty=0.0
            )

    def test_accounting_consistent_on_disarmed_array(self):
        from repro.workloads import OpenLoopWorkload

        _, array = build_md()
        workload = OpenLoopWorkload(
            array, 64 * KB, rate_iops=20_000, read_fraction=0.5, seed=7
        )
        result = workload.run(warmup_ns=1 * MS, measure_ns=5 * MS)
        assert result.ops_offered > 0
        total = (
            result.ops_completed
            + result.busy_rejections
            + result.deadline_failures
            + result.io_errors
        )
        # every offered op resolves by the end of the drain window
        assert total == result.ops_offered
        # no deadline configured: nothing can be late, all completions good
        assert result.late_completions == 0
        assert result.ops_good == result.ops_completed
        assert result.busy_rejections == 0 and result.deadline_failures == 0
        assert result.goodput_mb_s <= result.throughput_mb_s <= result.offered_mb_s * 1.01

    def test_goodput_counts_only_within_budget(self):
        from repro.workloads import OpenLoopWorkload

        _, array = build_md()
        # unarmed array + explicit budget: late completions are counted
        # late by the workload even though the datapath never sheds
        workload = OpenLoopWorkload(
            array, 64 * KB, rate_iops=120_000, seed=7, deadline_ns=300_000
        )
        result = workload.run(warmup_ns=1 * MS, measure_ns=5 * MS)
        assert result.ops_good + result.late_completions == result.ops_completed
        assert result.goodput_fraction <= 1.0

    def test_bursty_clock_preserves_mean_rate(self):
        from repro.workloads import OpenLoopWorkload

        _, array = build_md()
        poisson = OpenLoopWorkload(array, 4 * KB, rate_iops=50_000, seed=11)
        rate0 = poisson._current_rate()
        assert rate0 == 50_000
        bursty = OpenLoopWorkload(
            array,
            4 * KB,
            rate_iops=50_000,
            seed=11,
            arrival="bursty",
            burst_factor=4.0,
            burst_period_ns=1_000_000,
            burst_duty=0.25,
        )
        on = 50_000 * 4.0
        off = 50_000 * (1.0 - 0.25 * 4.0) / (1.0 - 0.25)
        mean = 0.25 * on + 0.75 * max(off, 0.05 * 50_000)
        assert mean == pytest.approx(50_000, rel=0.05)


    @pytest.mark.parametrize("arrival", ["poisson", "bursty", "diurnal"])
    @pytest.mark.parametrize("system", ["dRAID", "Linux"])
    def test_arrival_clock_equals_the_fork_then_timer_form(self, system, arrival):
        """``_arrivals`` makes the next arrival's timer *before* it forks the
        I/O, so that the kernel can start the I/O in place.  The form it
        replaced — fork, then draw the gap and make the timer — is the oracle:
        same arrival instants, offsets and read/write draws, same result, and
        a stop that lands inside a gap ends both clocks at the same instant."""
        from repro import build_testbed
        from repro.workloads import OpenLoopWorkload
        from repro.workloads.openloop import NS_PER_S

        class ForkThenTimer(OpenLoopWorkload):
            def _arrivals(self, stop_event):
                rng = self._rng
                while not stop_event.triggered:
                    rate = self._current_rate()
                    gap = max(1, int(rng.expovariate(rate / NS_PER_S)))
                    yield self.env.timeout(gap)
                    if stop_event.triggered:
                        break
                    offset = rng.randrange(self._slots) * self.io_size
                    is_read = rng.random() < self.read_fraction
                    measured = self._measuring
                    if measured:
                        self.ops_offered += 1
                        self._offered_bytes += self.io_size
                    self.env.process(
                        self._issue(offset, is_read, measured), name="openloop.io"
                    )

        def drive(cls):
            env, _cluster, array = build_testbed(system)
            workload = cls(
                array, 4 * KB, rate_iops=150_000, read_fraction=0.5, seed=5,
                deadline_ns=400_000, arrival=arrival,
                burst_period_ns=MS // 2, diurnal_period_ns=MS,
            )
            issued = []
            issue = workload._issue

            def spy(offset, is_read, measured):
                issued.append((env.now, offset, is_read, measured))
                return issue(offset, is_read, measured)

            workload._issue = spy
            result = workload.run(warmup_ns=MS // 2, measure_ns=2 * MS)
            # a second clock, stopped inside a gap and run dry
            stop = workload.start()
            env.run(until=env.now + MS // 4 + 1)
            stop.succeed()
            env.run()
            return issued, result, env.now

        issued, result, end = drive(OpenLoopWorkload)
        assert (issued, result, end) == drive(ForkThenTimer)
        assert result.ops_offered > 100 and len(issued) > result.ops_offered


def _block_device(kind):
    """(env, device) for one block-device kind of the one read/write
    contract, on an overload-armed cluster."""
    from repro import build_testbed
    from repro.baselines.logstructured import LogStructuredRaid
    from repro.draid.offload import OffloadedDraidArray
    from repro.qos.tokens import RateLimitedDevice, TokenBucket
    from repro.rack import ArraySpec, RackConfig, build_rack
    from repro.rack.volumes import VolumeSpec

    config = ClusterConfig(num_servers=4, overload=OverloadConfig(admission_depth=8))
    if kind in ("Linux", "SPDK", "dRAID", "dRAID-ST"):
        env, _cluster, array = build_testbed(kind, chunk_bytes=16 * KB, config=config)
        return env, array
    if kind == "Volume":
        rack = build_rack(None, RackConfig(arrays=[ArraySpec(
            system="SPDK", servers=4, chunk_bytes=16 * KB, export_bytes=1 << 24,
            cluster=config,
        )]))
        return rack.env, rack.volumes.create(VolumeSpec("t", 1 << 20))
    env = Environment()
    cluster = build_cluster(env, config)
    if kind == "OffloadedDraidArray":
        geometry = RaidGeometry(RaidLevel.RAID5, 3, 16 * KB)
        return env, OffloadedDraidArray(cluster, geometry)
    array = LogStructuredRaid(cluster, RaidGeometry(RaidLevel.RAID5, 4, 16 * KB))
    if kind == "LogStructuredRaid":
        return env, array
    return env, RateLimitedDevice(array, TokenBucket(env, 100e6))


@pytest.mark.parametrize("kind", [
    "Linux", "SPDK", "dRAID", "dRAID-ST", "LogStructuredRaid",
    "OffloadedDraidArray", "RateLimitedDevice", "Volume",
])
def test_every_block_device_takes_ctx_and_deadline(kind):
    """One block-device contract: ``read(offset, nbytes, ctx=None,
    deadline_ns=None)`` and ``write(offset, nbytes, data=None, ctx=None,
    deadline_ns=None)`` on every device and wrapper, so a workload issues
    one call whatever it drives."""
    env, device = _block_device(kind)
    done = []

    def driver():
        yield device.write(0, 4 * KB, None, ctx=None, deadline_ns=None)
        yield device.read(0, 4 * KB, ctx=None, deadline_ns=None)
        done.append(env.now)

    env.process(driver(), name="driver")
    env.run()
    assert len(done) == 1


class TestDeadlinePins:
    def test_deadline_decision_outcomes_are_pinned(self):
        """Where a tenant's latency budget stops being a wire deadline.

        (a) An unarmed dRAID array under an open-loop stream with a 1 ms
        budget: nothing is shed, late completions are only counted late.
        (b) A 1 ms tenant on a QoS-unarmed rack whose SPDK array arms its
        own overload control: the array stamps its 3 ms default instead.
        Exact results, QoS counters, clock and calendar ids are pinned.
        """
        from repro import build_testbed
        from repro.metrics.latency import LatencySummary
        from repro.rack import ArraySpec, RackConfig, build_rack
        from repro.workloads import OpenLoopWorkload
        from repro.workloads.openloop import OpenLoopResult
        from repro.workloads.tenants import MultiTenantWorkload, TenantSpec

        env, _cluster, array = build_testbed("dRAID", servers=4, chunk_bytes=64 * KB)
        result = OpenLoopWorkload(
            array, 16 * KB, rate_iops=400_000, read_fraction=0.5, seed=3,
            deadline_ns=1 * MS,
        ).run(warmup_ns=MS // 2, measure_ns=2 * MS)
        assert array.qos is None
        assert result == OpenLoopResult(
            6610.944, 6602.752, 4759.552, 807, 806, 581, 0, 0, 0, 225,
            LatencySummary(
                806, 781040.8622828784, 636556.0, 1513938.5,
                1881162.8500000003, 3324416.0,
            ),
            2 * MS,
        )
        assert (env.now, env._eid) == (6_500_001, 30_346)

        overload = OverloadConfig(admission_depth=16, default_deadline_ns=3 * MS)
        rack = build_rack(None, RackConfig(arrays=[ArraySpec(
            system="SPDK", servers=4, chunk_bytes=64 * KB, export_bytes=1 << 26,
            cluster=ClusterConfig(overload=overload),
        )]))
        assert rack.config.qos is None
        tenants = MultiTenantWorkload(rack, [TenantSpec(
            "t", 1024 * KB, rate_iops=20_000, volume_bytes=1 << 24,
            read_fraction=0.5, deadline_ns=1 * MS, seed=9,
        )])
        result = tenants.run(warmup_ns=MS // 2, measure_ns=2 * MS)["t"]
        assert result == OpenLoopResult(
            23592.96, 6815.744, 1572.864, 45, 13, 3, 28, 4, 0, 10,
            LatencySummary(
                13, 1973641.2307692308, 1955081.0, 2771372.2,
                2878369.0399999996, 2892794.0,
            ),
            2 * MS,
        )
        assert rack.arrays[0].cluster.qos.stats.summary() == (
            "busy=82 shed_bg=0 deadline=0 retries_denied=0 breaker_trips=0"
        )
        assert (rack.env.now, rack.env._eid) == (6_500_001, 7_278)


class TestBackgroundDaemonShedding:
    def _armed_functional(self, stripes=8):
        env, array = build_md(
            overload=OverloadConfig(admission_depth=8, background_depth=2),
            chunk=16 * KB,
            functional_capacity=8 * 16 * KB,
        )
        return env, array

    def _pressurize(self, array):
        """Occupy the admission queue up to the background watermark."""
        while not array.qos.admission.under_pressure:
            assert array.qos.admission.try_admit()

    def test_scrub_daemon_sheds_under_pressure(self):
        from repro.raid.scrubber import ScrubDaemon
        from repro.storage.integrity import IntegrityStore

        env, array = self._armed_functional()
        IntegrityStore(array.geometry.chunk_bytes).attach(array.cluster)
        self._pressurize(array)
        daemon = ScrubDaemon(array, num_stripes=4)
        env.run(until=daemon.process)
        assert daemon.pressure_sheds == 4
        assert array.qos.stats.shed_background == 4
        assert daemon.reports[0].stripes_scanned == 4

    def test_scrub_daemon_unaffected_when_disarmed(self):
        from repro.raid.scrubber import ScrubDaemon
        from repro.storage.integrity import IntegrityStore

        env, array = build_md(
            chunk=16 * KB, functional_capacity=8 * 16 * KB
        )
        IntegrityStore(array.geometry.chunk_bytes).attach(array.cluster)
        daemon = ScrubDaemon(array, num_stripes=4)
        env.run(until=daemon.process)
        assert daemon.pressure_sheds == 0

    def test_recovery_pacing_sheds_under_pressure(self):
        from repro.raid.recovery import RecoveryOrchestrator

        env, array = self._armed_functional()
        self._pressurize(array)
        orch = RecoveryOrchestrator(array, num_stripes=4)
        array.fail_drive(1)
        env.run(until=orch.request_rebuild(1))
        assert orch.stats.pressure_sheds > 0
        assert array.qos.stats.shed_background >= orch.stats.pressure_sheds
        assert not array.failed


@pytest.mark.parametrize("system", ["SPDK", "dRAID"])
def test_target_busy_reaches_the_caller_typed(system):
    """A bounded target's ``busy`` fails an op on an unarmed-resilience
    array with :class:`Busy` at once, on dRAID as on the host-centric
    datapath: no retry, and every reject the targets counted is one
    ``Busy`` the callers saw (dRAID used to retry it without a pause and
    then raise a plain ``IoError``)."""
    from repro import build_testbed

    env, cluster, array = build_testbed(
        system, config=ClusterConfig(
            num_servers=4, overload=OverloadConfig(target_queue_depth=1)
        ),
    )
    geometry = array.geometry
    # one 4 KiB read per stripe, each on member 0 (SPDK locks its reads)
    offsets = [
        offset for offset in range(0, 64 * geometry.stripe_data_bytes, geometry.chunk_bytes)
        if geometry.map_extent(offset, 4 * KB)[0].segments[0].drive == 0
    ][:6]
    outcomes = []

    def one(offset):
        try:
            yield array.read(offset, 4 * KB)
        except Busy:
            outcomes.append("busy")
        except IoError as error:
            outcomes.append(type(error).__name__)
        else:
            outcomes.append("ok")

    for offset in offsets:
        env.process(one(offset))
    env.run()
    rejected = sum(side.busy_rejections for side in array.server_sides)
    assert rejected > 0 and outcomes.count("busy") == rejected
    assert outcomes.count("ok") == len(outcomes) - rejected
    assert array.stats.retries == 0
