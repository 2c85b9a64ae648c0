"""Tests for SSD garbage collection and §5.5 QoS rate limiting."""

import pytest

from repro.cluster import ClusterConfig, build_cluster
from repro.qos import RateLimitedDevice, TokenBucket
from repro.draid import DraidArray
from repro.raid.geometry import RaidGeometry, RaidLevel
from repro.sim import Environment
from repro.storage import DriveProfile, NvmeDrive
from repro.workloads import FioWorkload

MB = 1_000_000
KB = 1024


def gc_profile(after=1_000_000, pause=500_000):
    return DriveProfile(
        name="gc-test",
        read_bw_bytes_per_s=1000 * MB,
        write_bw_bytes_per_s=1000 * MB,
        read_latency_ns=0,
        write_latency_ns=0,
        gc_after_bytes_written=after,
        gc_pause_ns=pause,
    )


class TestGarbageCollection:
    def test_gc_triggers_after_write_budget(self):
        env = Environment()
        drive = NvmeDrive(env, gc_profile(after=1_000_000, pause=500_000))

        def proc():
            # 900 KB: under budget, no GC
            yield drive.write(0, 900_000)
            t1 = env.now
            assert drive.stats.gc_events == 0
            # +200 KB crosses the budget: GC stalls the channel
            yield drive.write(0, 200_000)
            return t1, env.now

        t1, t2 = env.run(until=env.process(proc()))
        assert drive.stats.gc_events == 1
        # 200 KB at 1 GB/s = 200 us, plus the 500 us GC pause
        assert t2 - t1 == pytest.approx(700_000, rel=0.01)

    def test_gc_pause_is_paid_on_an_idle_drive(self):
        """The pause starts no earlier than now: a drive idle for longer
        than the pause still stalls for all of it."""
        env = Environment()
        drive = NvmeDrive(env, gc_profile(after=1_000_000, pause=500_000))

        def proc():
            yield drive.write(0, 900_000)
            yield env.timeout(10_000_000)  # idle 10 ms, far past the pause
            start = env.now
            yield drive.write(0, 200_000)  # crosses the budget: GC
            return env.now - start

        elapsed = env.run(until=env.process(proc()))
        assert drive.stats.gc_events == 1
        # 500 us GC pause, then 200 KB at 1 GB/s = 200 us
        assert elapsed == 700_000

    def test_gc_budget_resets(self):
        env = Environment()
        drive = NvmeDrive(env, gc_profile(after=500_000, pause=100_000))

        def proc():
            for _ in range(10):
                yield drive.write(0, 250_000)

        env.run(until=env.process(proc()))
        assert drive.stats.gc_events == 5  # every second write

    def test_gc_stalls_reads_too(self):
        env = Environment()
        drive = NvmeDrive(env, gc_profile(after=100_000, pause=1_000_000))

        def proc():
            yield drive.write(0, 200_000)  # triggers GC
            start = env.now
            yield drive.read(0, 1000)
            return env.now - start

        # the read queues behind the GC stall
        elapsed = env.run(until=env.process(proc()))
        assert elapsed < 10_000  # write completion already includes stall

    def test_zero_gc_disables(self):
        env = Environment()
        drive = NvmeDrive(env, gc_profile(after=0, pause=0))

        def proc():
            for _ in range(20):
                yield drive.write(0, 1_000_000)

        env.run(until=env.process(proc()))
        assert drive.stats.gc_events == 0

    def test_with_gc_constructor(self):
        from repro.storage import DELL_AGN_MU

        gc = DELL_AGN_MU.with_gc(after_bytes=1 << 30, pause_ns=2_000_000)
        assert gc.gc_after_bytes_written == 1 << 30
        assert gc.name == DELL_AGN_MU.name
        assert DELL_AGN_MU.gc_after_bytes_written == 0  # original untouched

    def test_invalid_gc_params(self):
        with pytest.raises(ValueError):
            gc_profile(after=-1)

    def test_gc_inflates_tail_latency_under_raid(self):
        """GC pauses show up as p99 spikes — the effect SWAN/TTFLASH etc.
        attack (related work)."""

        def p99(gc: bool):
            env = Environment()
            profile = DriveProfile(
                name="d", read_bw_bytes_per_s=3200 * MB,
                write_bw_bytes_per_s=2375 * MB, read_latency_ns=80_000,
                write_latency_ns=18_000,
                gc_after_bytes_written=8 * MB if gc else 0,
                gc_pause_ns=3_000_000 if gc else 0,
            )
            cluster = build_cluster(env, ClusterConfig(num_servers=5, drive_profile=profile))
            array = DraidArray(cluster, RaidGeometry(RaidLevel.RAID5, 5, 256 * KB))
            fio = FioWorkload(array, 64 * KB, read_fraction=0.0, queue_depth=8)
            return fio.run(measure_ns=20_000_000).latency.p99_ns

        assert p99(gc=True) > 1.5 * p99(gc=False)


class TestTokenBucket:
    def test_burst_admitted_immediately(self):
        env = Environment()
        bucket = TokenBucket(env, rate_bytes_per_s=1e9, burst_bytes=1_000_000)

        def proc():
            yield bucket.acquire(1_000_000)
            return env.now

        assert env.run(until=env.process(proc())) == 0
        assert bucket.throttle_events == 0

    def test_sustained_rate_enforced(self):
        env = Environment()
        # 100 MB/s, 100 KB burst
        bucket = TokenBucket(env, rate_bytes_per_s=100 * MB, burst_bytes=100_000)

        def proc():
            for _ in range(10):
                yield bucket.acquire(100_000)
            return env.now

        elapsed = env.run(until=env.process(proc()))
        # 1 MB total at 100 MB/s = 10 ms minus the initial 1 ms burst credit
        assert elapsed == pytest.approx(9_000_000, rel=0.01)
        assert bucket.throttle_events > 0

    def test_tokens_replenish_when_idle(self):
        env = Environment()
        bucket = TokenBucket(env, rate_bytes_per_s=100 * MB, burst_bytes=100_000)

        def proc():
            yield bucket.acquire(100_000)  # drain the bucket
            yield env.timeout(2_000_000)  # idle 2 ms: bucket refills fully
            start = env.now
            yield bucket.acquire(100_000)
            return env.now - start

        assert env.run(until=env.process(proc())) == 0

    def test_invalid_params(self):
        env = Environment()
        with pytest.raises(ValueError):
            TokenBucket(env, rate_bytes_per_s=0)
        with pytest.raises(ValueError):
            TokenBucket(env, 1e9, burst_bytes=0)
        with pytest.raises(ValueError):
            TokenBucket(env, 1e9).acquire(0)


class TestRateLimitedDevice:
    def test_tenant_capped_at_budget(self):
        env = Environment()
        cluster = build_cluster(env, ClusterConfig(num_servers=5))
        array = DraidArray(cluster, RaidGeometry(RaidLevel.RAID5, 5, 256 * KB))
        budget = 500 * MB
        limited = RateLimitedDevice(array, TokenBucket(env, budget, burst_bytes=1 << 20))
        fio = FioWorkload(limited, 128 * KB, read_fraction=1.0, queue_depth=16)
        result = fio.run(measure_ns=20_000_000)
        assert result.bandwidth_mb_s <= 560  # budget + burst slack
        assert result.bandwidth_mb_s >= 400

    def test_unlimited_tenant_unaffected_by_limited_one(self):
        """§5.5 isolation: tenant A's cap must not throttle tenant B."""
        env = Environment()
        cluster = build_cluster(env, ClusterConfig(num_servers=5))
        array = DraidArray(cluster, RaidGeometry(RaidLevel.RAID5, 5, 256 * KB))
        limited = RateLimitedDevice(array, TokenBucket(env, 100 * MB))
        fio_a = FioWorkload(limited, 128 * KB, read_fraction=1.0, queue_depth=8, seed=1)
        fio_b = FioWorkload(array, 128 * KB, read_fraction=1.0, queue_depth=8, seed=2)
        stop = fio_a.start()
        result_b = fio_b.run(measure_ns=20_000_000)
        stop.succeed()
        # B gets the lion's share of the array
        assert result_b.bandwidth_mb_s > 2000

    def test_separate_read_write_budgets(self):
        env = Environment()
        cluster = build_cluster(env, ClusterConfig(num_servers=5))
        array = DraidArray(cluster, RaidGeometry(RaidLevel.RAID5, 5, 256 * KB))
        limited = RateLimitedDevice(
            array,
            TokenBucket(env, 200 * MB),
            write_bucket=TokenBucket(env, 50 * MB),
        )
        fio = FioWorkload(limited, 128 * KB, read_fraction=0.0, queue_depth=8)
        result = fio.run(measure_ns=20_000_000)
        assert result.bandwidth_mb_s <= 80  # write budget binds
