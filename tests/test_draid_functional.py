"""Whole-array functional correctness of dRAID.

Runs the same model-checked workloads as the baseline tests, plus
dRAID-specific behaviours: peer-to-peer parity reduction (byte counting),
the §5.3 pipeline ablation, §5.4 timeout/retry and degraded writes with
host-supplied partials.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.draid import DraidArray
from repro.draid.host import _OpWaiter
from repro.raid.geometry import RaidLevel
from tests.raid_harness import ArrayHarness, TEST_CHUNK

LEVELS = [RaidLevel.RAID5, RaidLevel.RAID6]


@pytest.fixture(params=LEVELS, ids=lambda l: l.name)
def level(request):
    return request.param


class TestNormalState:
    def test_roundtrip_small(self, level):
        h = ArrayHarness(DraidArray, level=level)
        payload = bytes(range(256)) * 16
        h.write(0, payload)
        h.check_read(0, len(payload))
        h.scrub()

    def test_full_stripe_write(self, level):
        h = ArrayHarness(DraidArray, level=level)
        rng = np.random.default_rng(1)
        size = h.geometry.stripe_data_bytes
        h.write(0, rng.integers(0, 256, size, dtype=np.uint8))
        h.check_read(0, size)
        h.scrub()
        assert h.array.stats.full_stripe_writes == 1

    def test_rmw_write(self, level):
        h = ArrayHarness(DraidArray, level=level)
        rng = np.random.default_rng(2)
        h.write(0, rng.integers(0, 256, 2 * h.geometry.stripe_data_bytes, dtype=np.uint8))
        h.write(TEST_CHUNK // 2, rng.integers(0, 256, 4096, dtype=np.uint8))
        h.check_read(0, 2 * h.geometry.stripe_data_bytes)
        h.scrub()
        assert h.array.stats.rmw_writes >= 1

    def test_rcw_write(self, level):
        h = ArrayHarness(DraidArray, level=level)
        rng = np.random.default_rng(3)
        h.write(0, rng.integers(0, 256, h.geometry.stripe_data_bytes, dtype=np.uint8))
        size = h.geometry.stripe_data_bytes - TEST_CHUNK
        h.write(0, rng.integers(0, 256, size, dtype=np.uint8))
        h.check_read(0, h.geometry.stripe_data_bytes)
        h.scrub()
        assert h.array.stats.rcw_writes >= 1

    def test_unaligned_cross_stripe_write(self, level):
        h = ArrayHarness(DraidArray, level=level)
        rng = np.random.default_rng(4)
        offset = h.geometry.stripe_data_bytes - 5000
        size = 2 * h.geometry.stripe_data_bytes + 7777
        h.write(offset, rng.integers(0, 256, size, dtype=np.uint8))
        h.check_read(0, 4 * h.geometry.stripe_data_bytes)
        h.scrub()

    def test_random_workload(self, level):
        h = ArrayHarness(DraidArray, level=level)
        h.random_workload(seed=42, ops=30)
        h.scrub()

    def test_pipeline_disabled_is_equally_correct(self, level):
        h = ArrayHarness(DraidArray, level=level, pipeline=False)
        h.random_workload(seed=43, ops=20)
        h.scrub()

    def test_pipeline_is_faster(self):
        """§5.3: the pipelined data path must beat the serial one."""

        def run(pipeline):
            h = ArrayHarness(DraidArray, pipeline=pipeline)
            rng = np.random.default_rng(5)
            h.write(0, rng.integers(0, 256, 3 * h.geometry.stripe_data_bytes, dtype=np.uint8))
            start = h.env.now
            for i in range(8):
                h.write(i * 4096, rng.integers(0, 256, 4096, dtype=np.uint8))
            return h.env.now - start

        assert run(pipeline=True) < run(pipeline=False)


class TestPeerToPeerDataPath:
    def test_rmw_host_tx_is_write_size_not_4x(self):
        """The headline claim: partial-stripe writes move each user byte
        through the host NIC once (vs 2x outbound + 2x inbound for the
        host-centric baselines)."""
        h = ArrayHarness(DraidArray)
        rng = np.random.default_rng(6)
        h.write(0, rng.integers(0, 256, h.geometry.stripe_data_bytes, dtype=np.uint8))
        host = h.cluster.host.nic
        h.cluster.reset_accounting()
        size = 8192
        h.write(0, rng.integers(0, 256, size, dtype=np.uint8))
        # host TX: the new data + small capsules; nothing like 2x
        assert size <= host.tx_bytes < size + 4096
        # host RX: only completion capsules
        assert host.rx_bytes < 2048

    def test_rmw_partial_parity_flows_between_servers(self):
        h = ArrayHarness(DraidArray)
        rng = np.random.default_rng(7)
        h.write(0, rng.integers(0, 256, h.geometry.stripe_data_bytes, dtype=np.uint8))
        h.cluster.reset_accounting()
        size = 8192
        h.write(0, rng.integers(0, 256, size, dtype=np.uint8))
        data_server = h.geometry.data_drive(0, 0)
        parity_server = h.geometry.parity_drives(0)[0]
        # the data bdev forwarded its delta to the parity bdev
        assert h.cluster.servers[data_server].nic.tx_bytes >= size
        assert h.cluster.servers[parity_server].nic.rx_bytes >= size

    def test_degraded_read_host_rx_only_requested_bytes(self):
        h = ArrayHarness(DraidArray)
        rng = np.random.default_rng(8)
        h.write(0, rng.integers(0, 256, 2 * h.geometry.stripe_data_bytes, dtype=np.uint8))
        h.array.fail_drive(h.geometry.data_drive(0, 0))
        h.cluster.reset_accounting()
        size = 8192
        h.check_read(0, size)  # lost chunk: triggers reconstruction
        host = h.cluster.host.nic
        # §6.1: the host receives only the reconstructed bytes (+capsules),
        # not width-1 source chunks
        assert host.rx_bytes < size + 4096


class TestDegradedState:
    def test_degraded_read_every_drive(self, level):
        rng = np.random.default_rng(9)
        for failed in range(5):
            h = ArrayHarness(DraidArray, level=level)
            blob = rng.integers(0, 256, 4 * h.geometry.stripe_data_bytes, dtype=np.uint8)
            h.write(0, blob)
            h.array.fail_drive(failed)
            h.check_read(0, len(blob))

    def test_degraded_write_full_chunk(self, level):
        h = ArrayHarness(DraidArray, level=level)
        rng = np.random.default_rng(10)
        h.write(0, rng.integers(0, 256, 2 * h.geometry.stripe_data_bytes, dtype=np.uint8))
        h.array.fail_drive(h.geometry.data_drive(0, 0))
        h.write(0, rng.integers(0, 256, TEST_CHUNK, dtype=np.uint8))
        h.check_read(0, 2 * h.geometry.stripe_data_bytes)

    def test_degraded_write_partial_chunk(self, level):
        h = ArrayHarness(DraidArray, level=level)
        rng = np.random.default_rng(11)
        h.write(0, rng.integers(0, 256, 2 * h.geometry.stripe_data_bytes, dtype=np.uint8))
        h.array.fail_drive(h.geometry.data_drive(0, 1))
        h.write(TEST_CHUNK + 1000, rng.integers(0, 256, 2000, dtype=np.uint8))
        h.check_read(0, 2 * h.geometry.stripe_data_bytes)

    def test_degraded_write_failed_parity(self, level):
        h = ArrayHarness(DraidArray, level=level)
        rng = np.random.default_rng(12)
        h.write(0, rng.integers(0, 256, h.geometry.stripe_data_bytes, dtype=np.uint8))
        h.array.fail_drive(h.geometry.parity_drives(0)[0])
        h.write(0, rng.integers(0, 256, 4096, dtype=np.uint8))
        h.check_read(0, h.geometry.stripe_data_bytes)

    def test_degraded_random_workload(self, level):
        h = ArrayHarness(DraidArray, level=level)
        h.random_workload(seed=13, ops=15)
        h.array.fail_drive(1)
        h.random_workload(seed=14, ops=15)

    def test_raid6_double_failure(self):
        h = ArrayHarness(DraidArray, level=RaidLevel.RAID6, drives=6)
        rng = np.random.default_rng(15)
        blob = rng.integers(0, 256, 4 * h.geometry.stripe_data_bytes, dtype=np.uint8)
        h.write(0, blob)
        h.array.fail_drive(0)
        h.array.fail_drive(3)
        h.check_read(0, len(blob))
        # writes fall back to the host path but must stay correct
        h.write(4096, rng.integers(0, 256, 8192, dtype=np.uint8))
        h.check_read(0, len(blob))


class TestFailureHandling:
    def test_transient_stall_still_completes(self, level):
        """§5.4 transient failure: a frozen target delays but never corrupts."""
        h = ArrayHarness(DraidArray, level=level)
        rng = np.random.default_rng(16)
        h.write(0, rng.integers(0, 256, h.geometry.stripe_data_bytes, dtype=np.uint8))
        # freeze one data server for 1 ms (shorter than the op timeout)
        victim = h.geometry.data_drive(0, 0)

        def stall():
            yield h.env.timeout(0)
            # drain-inject: push a long busy period onto the victim's core
            yield h.cluster.servers[victim].cpu.execute(1_000_000)

        h.env.process(stall())
        h.write(0, rng.integers(0, 256, 4096, dtype=np.uint8))
        h.check_read(0, h.geometry.stripe_data_bytes)
        h.scrub()
        assert h.array.stats.retries == 0

    def test_timeout_triggers_full_stripe_retry(self, level):
        """An op exceeding the deadline is retried as a full-stripe write."""
        h = ArrayHarness(DraidArray, level=level)
        h.array.timeout_ns = 500_000  # 0.5 ms deadline
        rng = np.random.default_rng(17)
        h.write(0, rng.integers(0, 256, h.geometry.stripe_data_bytes, dtype=np.uint8))
        victim = h.geometry.data_drive(0, 0)
        # 5 ms of CPU busy on the victim stalls its command handling
        h.cluster.servers[victim].cpu.execute(5_000_000)
        h.write(0, rng.integers(0, 256, 4096, dtype=np.uint8))
        assert h.array.stats.retries >= 1
        h.check_read(0, h.geometry.stripe_data_bytes)
        h.scrub()

    def test_finished_op_is_released_before_its_deadline_expires(self, monkeypatch):
        """The §5.4 deadline timer outlives the op it guarded (it is never
        cancelled) but must not keep the op's waiter and payload alive for
        the 50 ms it has left: the ``AnyOf`` it lost lets go of it."""
        h = ArrayHarness(DraidArray)
        h.write(0, bytes(range(256)) * 16)
        h.env.run()  # idle: no timer of the write is left
        refs = []
        on_completion = _OpWaiter.on_completion

        def spy(waiter, comp):
            refs.extend((weakref.ref(waiter), weakref.ref(comp.data)))
            on_completion(waiter, comp)

        monkeypatch.setattr(_OpWaiter, "on_completion", spy)
        issued = h.env.now
        h.check_read(0, 4096)
        gc.collect()  # a waiter and its event refer to each other
        assert len(refs) == 2 and all(ref() is None for ref in refs)
        ((expiry, _, deadline),) = h.env._queue
        assert deadline.callbacks == []
        assert issued < expiry - h.array.timeout_ns < h.env.now
        h.env.run()
        assert h.env.now == expiry

    def test_selector_is_used_for_reconstruction(self):
        picks = []

        class SpySelector:
            def pick(self, candidates, region_bytes):
                picks.append(tuple(candidates))
                return candidates[0]

        h = ArrayHarness(DraidArray, selector=SpySelector())
        rng = np.random.default_rng(18)
        h.write(0, rng.integers(0, 256, h.geometry.stripe_data_bytes, dtype=np.uint8))
        h.array.fail_drive(h.geometry.data_drive(0, 0))
        h.check_read(0, 4096)
        assert len(picks) == 1
        # participants: the 3 surviving data drives + P (5-drive RAID-5)
        assert len(picks[0]) == 4
