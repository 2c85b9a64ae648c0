"""Tests for online rebuild with the rebuild watermark."""

import subprocess
import sys

import numpy as np
import pytest

from repro.baselines import MdRaid, SpdkRaid
from repro.cluster import ClusterConfig, build_cluster
from repro.draid import DraidArray
from repro.draid.ec_array import EcDraidArray, EcGeometry, LrcDraidArray
from repro.raid.geometry import RaidLevel
from repro.raid.rebuild import RebuildJob, rebuild_member_stripe
from repro.raid.scrub import scrub_array
from repro.sim import Environment
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


@pytest.mark.parametrize("family", ["rs", "lrc"])
def test_rebuild_of_coded_parity_member(family):
    """RS(5,3) and LRC(5,2,1): a failed member that holds every parity row
    somewhere in the array comes back byte-exact, its parity chunks rebuilt
    one row each, and the array scrubs clean and reads back."""
    stripes = 8
    env = Environment()
    cluster = build_cluster(
        env, ClusterConfig(num_servers=8, functional_capacity=stripes * TEST_CHUNK)
    )
    geometry = EcGeometry(8, TEST_CHUNK, num_parity=3)
    if family == "rs":
        array = EcDraidArray(cluster, geometry)
    else:
        array = LrcDraidArray(cluster, geometry, local_groups=2)
    blob = np.random.default_rng(6).integers(
        0, 256, stripes * geometry.stripe_data_bytes, dtype=np.uint8
    )
    env.run(until=array.write(0, len(blob), blob))
    victim = geometry.parity_drives(0)[2]
    rows = [geometry.parity_drives(s).index(victim)
            for s in range(stripes) if victim in geometry.parity_drives(s)]
    assert sorted(rows) == [0, 1, 2]
    drive = cluster.drives()[victim]
    before = drive.peek(0, stripes * TEST_CHUNK).copy()
    array.fail_drive(victim)
    drive._data[:] = 0
    stats = env.run(until=RebuildJob(array, victim, num_stripes=stripes).start())
    assert stats.parity_chunks_rebuilt == len(rows)
    assert np.array_equal(drive.peek(0, stripes * TEST_CHUNK), before)
    assert scrub_array(cluster.drives(), geometry, stripes, code=array.code).clean
    assert np.array_equal(env.run(until=array.read(0, len(blob))), blob)


_RAID6_RECOVERY_PROBE = """
import sys
import numpy as np
from repro.cluster import ClusterConfig, build_cluster
from repro.draid import DraidArray
from repro.raid.geometry import RaidGeometry, RaidLevel
from repro.raid.rebuild import RebuildJob
from repro.raid.scrub import scrub_array
from repro.sim import Environment

env = Environment()
cluster = build_cluster(env, ClusterConfig(num_servers=6, functional_capacity=8 * 4096))
geometry = RaidGeometry(RaidLevel.RAID6, 6, 4096)
array = DraidArray(cluster, geometry)
blob = np.random.default_rng(7).integers(0, 256, 8 * geometry.stripe_data_bytes, dtype=np.uint8)
env.run(until=array.write(0, len(blob), blob))
array.fail_drive(2)
env.run(until=RebuildJob(array, 2, num_stripes=8).start())
assert scrub_array(cluster.drives(), geometry, 8).clean
print("numpy.ma" in sys.modules)
"""


def test_raid6_recovery_leaves_numpy_ma_unimported():
    """A functional RAID-6 write, failure, rebuild and scrub never import
    ``numpy.ma`` (``np.unique`` would, at ~13 ms in the scrub's first
    call).  A fresh process, because other tests import it."""
    out = subprocess.run(
        [sys.executable, "-c", _RAID6_RECOVERY_PROBE], capture_output=True,
        text=True, check=True,
    ).stdout
    assert out.strip() == "False", out


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
