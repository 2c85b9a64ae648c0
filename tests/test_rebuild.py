"""Tests for online rebuild with the rebuild watermark."""

import numpy as np
import pytest

from repro.baselines import MdRaid, SpdkRaid
from repro.draid import DraidArray
from repro.raid.geometry import RaidLevel
from repro.raid.rebuild import RebuildJob, rebuild_member_stripe
from tests.raid_harness import ArrayHarness, TEST_CHUNK

CONTROLLERS = [SpdkRaid, DraidArray]


@pytest.fixture(params=CONTROLLERS, ids=lambda c: c.__name__)
def controller_cls(request):
    return request.param


class TestRebuild:
    def test_full_rebuild_restores_drive_contents(self, controller_cls):
        h = ArrayHarness(controller_cls, stripes=12)
        rng = np.random.default_rng(1)
        blob = rng.integers(0, 256, 12 * h.geometry.stripe_data_bytes, dtype=np.uint8)
        h.write(0, blob)
        victim = 2
        before = h.cluster.drives()[victim].peek(0, 12 * TEST_CHUNK).copy()
        h.array.fail_drive(victim)
        # wipe the replacement to prove the rebuild actually writes it
        h.cluster.drives()[victim]._data[:] = 0
        job = RebuildJob(h.array, victim, num_stripes=12)
        stats = h.env.run(until=job.start())
        assert stats.stripes_rebuilt == 12
        assert stats.data_chunks_rebuilt + stats.parity_chunks_rebuilt == 12
        after = h.cluster.drives()[victim].peek(0, 12 * TEST_CHUNK)
        assert np.array_equal(before, after)
        assert not h.array.degraded
        h.scrub()
        h.check_read(0, len(blob))

    def test_rebuild_of_raid6_q_parity(self):
        h = ArrayHarness(DraidArray, level=RaidLevel.RAID6, drives=6, stripes=8)
        rng = np.random.default_rng(2)
        blob = rng.integers(0, 256, 8 * h.geometry.stripe_data_bytes, dtype=np.uint8)
        h.write(0, blob)
        victim = 4
        before = h.cluster.drives()[victim].peek(0, 8 * TEST_CHUNK).copy()
        h.array.fail_drive(victim)
        h.cluster.drives()[victim]._data[:] = 0
        stats = h.env.run(until=RebuildJob(h.array, victim, num_stripes=8).start())
        assert np.array_equal(before, h.cluster.drives()[victim].peek(0, 8 * TEST_CHUNK))
        h.scrub()

    def test_concurrent_writes_during_rebuild_stay_consistent(self, controller_cls):
        """Writes racing the rebuild land correctly on both sides of the
        watermark: rebuilt stripes update the replacement directly, pending
        stripes go through the degraded path and are rebuilt afterwards."""
        h = ArrayHarness(controller_cls, stripes=12)
        rng = np.random.default_rng(3)
        blob = rng.integers(0, 256, 12 * h.geometry.stripe_data_bytes, dtype=np.uint8)
        h.write(0, blob)
        victim = 1
        h.array.fail_drive(victim)
        h.cluster.drives()[victim]._data[:] = 0
        job = RebuildJob(h.array, victim, num_stripes=12, throttle_ns=200_000)
        done = job.start()

        payloads = []

        def writer():
            for i in range(10):
                stripe = (i * 5) % 12
                offset = stripe * h.geometry.stripe_data_bytes + (i % 3) * 1000
                payload = rng.integers(0, 256, 3000, dtype=np.uint8)
                payloads.append((offset, payload))
                yield h.array.write(offset, len(payload), payload)
                yield h.env.timeout(150_000)

        writes_done = h.env.process(writer())
        h.env.run(until=done)
        h.env.run(until=writes_done)
        for offset, payload in payloads:
            h.model[offset : offset + len(payload)] = payload
        assert not h.array.degraded
        h.scrub()
        h.check_read(0, len(blob))

    def test_watermark_semantics(self, controller_cls):
        h = ArrayHarness(controller_cls, stripes=8)
        h.array.fail_drive(0)
        h.array.rebuild_watermark[0] = 3
        assert not h.array.drive_failed(0, 2)
        assert h.array.drive_failed(0, 3)
        assert h.array.failed_in_stripe(2) == set()
        assert h.array.failed_in_stripe(5) == {0}
        h.array.repair_drive(0)
        assert h.array.rebuild_watermark == {}

    def test_rebuild_requires_failed_drive(self, controller_cls):
        h = ArrayHarness(controller_cls)
        with pytest.raises(ValueError):
            RebuildJob(h.array, 0, num_stripes=4)

    def test_progress_and_rate(self, controller_cls):
        h = ArrayHarness(controller_cls, stripes=6)
        rng = np.random.default_rng(4)
        h.write(0, rng.integers(0, 256, 6 * h.geometry.stripe_data_bytes, dtype=np.uint8))
        h.array.fail_drive(3)
        job = RebuildJob(h.array, 3, num_stripes=6)
        assert job.progress == 0.0
        stats = h.env.run(until=job.start())
        assert job.progress == 1.0
        assert stats.rate_mb_s() > 0


class TestDegradedWriteOverRebuiltMember:
    """A degraded write must reach a failed member whose chunk of *this*
    stripe is already rebuilt: the replacement is live for that stripe, so
    skipping it leaves the old chunk behind a parity that encodes the new
    one."""

    @pytest.mark.parametrize("progress", ["watermark", "rebuilt_stripes"])
    @pytest.mark.parametrize("cls", [MdRaid, SpdkRaid], ids=lambda c: c.__name__)
    def test_write_lands_on_the_rebuilt_replacement(self, cls, progress):
        h = ArrayHarness(cls, level=RaidLevel.RAID6, drives=6, stripes=4)
        g = h.geometry
        rng = np.random.default_rng(5)
        h.write(0, rng.integers(0, 256, h.capacity, dtype=np.uint8))
        rebuilt, dead = g.data_drive(0, 0), g.data_drive(0, 1)
        h.array.fail_drive(rebuilt)
        h.array.fail_drive(dead)
        replacement = h.array.drives[rebuilt]
        replacement.heal()
        replacement._data[:] = 0

        def rebuild_stripe_0():
            yield h.array.locks.acquire(0)
            yield from rebuild_member_stripe(h.array, rebuilt, 0, replacement)
            h.array.locks.release(0)

        h.env.run(until=h.env.process(rebuild_stripe_0()))
        if progress == "watermark":
            h.array.rebuild_watermark[rebuilt] = 1
        else:
            h.array.rebuilt_stripes[rebuilt] = {0}
        assert h.array.failed_in_stripe(0) == {dead}

        payload = rng.integers(0, 256, 2 * TEST_CHUNK, dtype=np.uint8)
        h.write(0, payload)
        h.check_read(0, g.stripe_data_bytes)
        assert np.array_equal(replacement.peek(0, TEST_CHUNK), payload[:TEST_CHUNK])
