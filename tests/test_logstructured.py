"""Tests for the NVRAM-staged log-structured RAID baseline (§2.3)."""

import numpy as np
import pytest

from repro.baselines.logstructured import BLOCK, LogStructuredRaid
from repro.cluster import ClusterConfig, build_cluster
from repro.raid.geometry import RaidGeometry, RaidLevel
from repro.sim import Environment

KB = 1024
CHUNK = 16 * KB


def make_log_raid(drives=5, log_stripes=32, functional=True):
    env = Environment()
    cluster = build_cluster(
        env,
        ClusterConfig(num_servers=drives,
                      functional_capacity=log_stripes * CHUNK if functional else 0),
    )
    geometry = RaidGeometry(RaidLevel.RAID5, drives, CHUNK)
    array = LogStructuredRaid(cluster, geometry, log_stripes=log_stripes)
    return env, cluster, array


class TestStagingAndFlush:
    def test_write_read_roundtrip_via_staging(self):
        env, cluster, array = make_log_raid()
        payload = np.arange(3 * BLOCK, dtype=np.int32).astype(np.uint8)[: 3 * BLOCK]

        def proc():
            yield array.write(0, len(payload), payload)
            data = yield array.read(0, len(payload))
            return data

        data = env.run(until=env.process(proc()))
        assert np.array_equal(data, payload)
        # small write: staged only, not yet flushed
        assert array.log_stats.stripes_flushed == 0

    def test_flush_emits_full_stripe_writes_only(self):
        env, cluster, array = make_log_raid()
        rng = np.random.default_rng(1)
        stripe_bytes = array.geometry.stripe_data_bytes

        def proc():
            # enough 4 KiB random-offset writes to fill two stripes
            for i in range(2 * array.blocks_per_stripe):
                payload = rng.integers(0, 256, BLOCK, dtype=np.uint8)
                yield array.write((i * 7919 % 256) * BLOCK, BLOCK, payload)
            yield env.timeout(50_000_000)

        env.run(until=env.process(proc()))
        assert array.log_stats.stripes_flushed >= 1
        assert array.stats.full_stripe_writes == array.log_stats.stripes_flushed
        assert array.stats.rmw_writes == 0  # never read-modify-write
        assert array.stats.rcw_writes == 0

    def test_reads_follow_remap_after_flush(self):
        env, cluster, array = make_log_raid()
        rng = np.random.default_rng(2)
        writes = {}

        def proc():
            for i in range(array.blocks_per_stripe + 3):
                offset = i * BLOCK
                payload = rng.integers(0, 256, BLOCK, dtype=np.uint8)
                writes[offset] = payload
                yield array.write(offset, BLOCK, payload)
            yield env.timeout(50_000_000)
            for offset, payload in writes.items():
                data = yield array.read(offset, BLOCK)
                assert np.array_equal(data, payload), f"offset {offset}"

        env.run(until=env.process(proc()))
        assert array.log_stats.stripes_flushed >= 1

    def test_unaligned_write_merges_old_content(self):
        env, cluster, array = make_log_raid()
        rng = np.random.default_rng(3)
        base = rng.integers(0, 256, 2 * BLOCK, dtype=np.uint8)
        patch = rng.integers(0, 256, 1000, dtype=np.uint8)

        def proc():
            yield array.write(0, len(base), base)
            yield array.write(500, len(patch), patch)
            data = yield array.read(0, 2 * BLOCK)
            return data

        data = env.run(until=env.process(proc()))
        expected = base.copy()
        expected[500 : 500 + len(patch)] = patch
        assert np.array_equal(data, expected)

    def test_overwrite_invalidates_logged_copy(self):
        env, cluster, array = make_log_raid()
        rng = np.random.default_rng(4)

        def proc():
            first = rng.integers(0, 256, BLOCK, dtype=np.uint8)
            # fill a whole stripe so block 0 gets flushed to the log
            for i in range(array.blocks_per_stripe):
                payload = first if i == 0 else rng.integers(0, 256, BLOCK, dtype=np.uint8)
                yield array.write(i * BLOCK, BLOCK, payload)
            yield env.timeout(50_000_000)
            second = rng.integers(0, 256, BLOCK, dtype=np.uint8)
            yield array.write(0, BLOCK, second)
            data = yield array.read(0, BLOCK)
            return data, second

        data, second = env.run(until=env.process(proc()))
        assert np.array_equal(data, second)
        # the superseded log slot is dead
        dead = sum(
            1
            for contents in array._stripe_contents.values()
            for b in contents
            if b is None
        )
        assert dead >= 1


class TestGarbageCollection:
    def test_gc_reclaims_dead_stripes(self):
        env, cluster, array = make_log_raid(log_stripes=8)
        array.gc_low_watermark = 0.4
        rng = np.random.default_rng(5)
        blocks = array.blocks_per_stripe

        def proc():
            # overwrite the same small working set repeatedly: stripes fill
            # with dead blocks and GC must reclaim them
            for round_ in range(12):
                for i in range(blocks):
                    payload = rng.integers(0, 256, BLOCK, dtype=np.uint8)
                    yield array.write(i * BLOCK, BLOCK, payload)
                yield env.timeout(20_000_000)

        env.run(until=env.process(proc()))
        assert array.log_stats.gc_runs >= 1
        assert array.log_stats.stripes_flushed > 8  # log wrapped

    def test_write_amplification_reported(self):
        env, cluster, array = make_log_raid()
        rng = np.random.default_rng(6)

        def proc():
            for i in range(array.blocks_per_stripe):
                yield array.write(i * BLOCK, BLOCK,
                                  rng.integers(0, 256, BLOCK, dtype=np.uint8))
            yield env.timeout(50_000_000)

        env.run(until=env.process(proc()))
        # one stripe of user data -> one stripe of device writes (+ parity
        # accounted via geometry): amplification >= 1
        assert array.log_stats.write_amplification() >= 1.0

    def test_data_survives_gc(self):
        env, cluster, array = make_log_raid(log_stripes=8)
        array.gc_low_watermark = 0.4
        rng = np.random.default_rng(7)
        blocks = array.blocks_per_stripe
        model = {}

        def proc():
            for round_ in range(10):
                for i in range(blocks + 1):
                    offset = (i * 3 % (2 * blocks)) * BLOCK
                    payload = rng.integers(0, 256, BLOCK, dtype=np.uint8)
                    model[offset] = payload
                    yield array.write(offset, BLOCK, payload)
                yield env.timeout(20_000_000)
            for offset, payload in model.items():
                data = yield array.read(offset, BLOCK)
                assert np.array_equal(data, payload), f"offset {offset}"

        env.run(until=env.process(proc()))
        assert array.log_stats.gc_runs >= 1


class TestFastWrites:
    def test_staged_write_is_nvram_fast(self):
        """The whole point of the design: writes complete at NVRAM speed."""
        env, cluster, array = make_log_raid(functional=False)

        def proc():
            start = env.now
            yield array.write(0, BLOCK)
            return env.now - start

        latency = env.run(until=env.process(proc()))
        # µs-scale (NVRAM), far below any drive/network round trip
        assert latency < 30_000

    def test_never_issues_partial_stripe_device_writes(self):
        env, cluster, array = make_log_raid(functional=False)
        rng = np.random.default_rng(8)

        def proc():
            for i in range(3 * array.blocks_per_stripe):
                yield array.write((i * 13 % 512) * BLOCK, BLOCK)
            yield env.timeout(100_000_000)

        env.run(until=env.process(proc()))
        assert array.stats.rmw_writes == 0
        assert array.stats.full_stripe_writes >= 2


def test_log_raid_enters_through_the_admission_gate():
    """Log-RAID's staged writes take the frame's admission gate, as every
    other controller's writes do: with a bound of one, three of four
    concurrent 4 KiB writes are fast-rejected with ``Busy``."""
    from repro import build_testbed
    from repro.nvmeof.messages import IoError
    from repro.qos import OverloadConfig

    env, _cluster, array = build_testbed(
        "Log-RAID", servers=5, chunk_bytes=CHUNK,
        config=ClusterConfig(num_servers=5, overload=OverloadConfig(admission_depth=1)),
    )
    outcomes = []

    def writer(offset):
        try:
            yield array.write(offset, 4 * KB)
            outcomes.append("ok")
        except IoError as exc:
            outcomes.append(type(exc).__name__)

    for i in range(4):
        env.process(writer(i * CHUNK))
    env.run()
    assert sorted(outcomes) == ["Busy", "Busy", "Busy", "ok"]
