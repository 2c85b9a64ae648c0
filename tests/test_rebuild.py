"""Tests for online rebuild and its per-member rebuilt-stripe record."""

import dataclasses
import hashlib
import subprocess
import sys

import numpy as np
import pytest

from repro import build_testbed
from repro.baselines import MdRaid, SpdkRaid
from repro.cluster import ClusterConfig, build_cluster
from repro.draid import DraidArray
from repro.draid.ec_array import EcDraidArray, EcGeometry, LrcDraidArray
from repro.raid.geometry import RaidLevel
from repro.raid.rebuild import RebuildJob, SpareRebuildJob, rebuild_member_stripe
from repro.raid.scrub import scrub_array
from repro.sim import Environment
from tests.raid_harness import KB, ArrayHarness, TEST_CHUNK

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
        rebuilt-stripe record: rebuilt stripes update the replacement
        directly, pending stripes go through the degraded path and are
        rebuilt afterwards."""
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

    def test_rebuilt_stripes_semantics(self, controller_cls):
        h = ArrayHarness(controller_cls, stripes=8)
        h.array.fail_drive(0)
        h.array.rebuilt_stripes[0] = {0, 1, 2}
        assert not h.array.drive_failed(0, 2)
        assert h.array.drive_failed(0, 3)
        assert h.array.failed_in_stripe(2) == set()
        assert h.array.failed_in_stripe(5) == {0}
        h.array.repair_drive(0)
        assert h.array.rebuilt_stripes == {}

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


@pytest.mark.parametrize("job_cls", [RebuildJob, SpareRebuildJob],
                         ids=lambda c: c.__name__)
@pytest.mark.parametrize(
    "bad", [{"throttle_ns": -5}, {"num_stripes": 20}, {"num_stripes": -1}],
    ids=["negative-throttle", "past-capacity", "negative-stripes"],
)
def test_rebuild_rejects_bad_input_before_installing(job_cls, bad):
    """A negative delay or count, or (functional mode) more stripes than
    the drives hold, raises at construction: the replacement is never
    installed, nothing is written and no progress is recorded."""
    spare = job_cls is SpareRebuildJob
    _, _, array = build_testbed(
        "draid", servers=6, chunk_bytes=TEST_CHUNK,
        functional_capacity=8 * TEST_CHUNK, layout="declustered" if spare else None,
    )
    array.fail_drive(0)
    with pytest.raises(ValueError):
        array.env.run(until=job_cls(array, 0, **{"num_stripes": 8, **bad}).start())
    assert array.drives[0].failed
    assert array.failed == {0}
    assert array.rebuilt_stripes == {}
    assert sum(d.stats.write_ops for d in array.drives) == 0


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

    @pytest.mark.parametrize("cls", [MdRaid, SpdkRaid], ids=lambda c: c.__name__)
    def test_write_lands_on_the_rebuilt_replacement(self, cls):
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
            yield from rebuild_member_stripe(h.array, rebuilt, 0)
            h.array.locks.release(0)

        h.env.run(until=h.env.process(rebuild_stripe_0()))
        h.array.rebuilt_stripes[rebuilt] = {0}
        assert h.array.failed_in_stripe(0) == {dead}

        payload = rng.integers(0, 256, 2 * TEST_CHUNK, dtype=np.uint8)
        h.write(0, payload)
        h.check_read(0, g.stripe_data_bytes)
        assert np.array_equal(replacement.peek(0, TEST_CHUNK), payload[:TEST_CHUNK])


def _drive_digests(drives):
    return [hashlib.sha256(d.peek(0, len(d._data)).tobytes()).hexdigest()
            for d in drives]


def _pinned_spare_rebuild():
    """SpareRebuildJob on a declustered RS dRAID array configured like the
    geometries grid's (8 servers, 32 KiB chunks, 3 parity, seed 7)."""
    stripes, chunk = 12, 32 * KB
    env, cluster, array = build_testbed(
        "draid", chunk_bytes=chunk,
        config=ClusterConfig(num_servers=8, functional_capacity=stripes * chunk),
        layout="declustered", layout_seed=7, code="rs", parity=3,
    )
    g = array.geometry
    blob = np.random.default_rng(7).integers(
        0, 256, stripes * g.stripe_data_bytes, dtype=np.uint8
    )
    env.run(until=array.write(0, len(blob), blob))
    array.fail_drive(0)
    stats = env.run(until=SpareRebuildJob(array, 0, stripes).start())
    assert not array.failed
    assert np.array_equal(env.run(until=array.read(0, len(blob))), blob)
    return env, cluster, stats


def _pinned_throttled_raid6_rebuild():
    """RebuildJob with ``throttle_ns`` on RAID-6, foreground writes racing."""
    h = ArrayHarness(DraidArray, level=RaidLevel.RAID6, drives=6, stripes=10)
    rng = np.random.default_rng(11)
    h.write(0, rng.integers(0, 256, h.capacity, dtype=np.uint8))
    h.array.fail_drive(4)
    h.cluster.drives()[4]._data[:] = 0
    done = RebuildJob(h.array, 4, num_stripes=10, throttle_ns=150_000).start()

    def writer():
        for i in range(12):
            offset = ((i * 7) % 10) * h.geometry.stripe_data_bytes + (i % 4) * 3000
            payload = rng.integers(0, 256, 5000, dtype=np.uint8)
            h.model[offset : offset + len(payload)] = payload
            yield h.array.write(offset, len(payload), payload)
            yield h.env.timeout(90_000)

    writes = h.env.process(writer())
    stats = h.env.run(until=done)
    h.env.run(until=writes)
    assert not h.array.degraded
    h.scrub()
    h.check_read(0, h.capacity)
    return h.env, h.cluster, stats


#: case -> (the run, its RebuildStats fields, env.now, env._eid and every
#: drive's SHA-256 after the read-back)
_PINNED_REBUILDS = {
    "spare-declustered-rs": (
        _pinned_spare_rebuild,
        (10, 4, 6, 327680, 327413, 1855109), 2095406, 1018,
        ["2bc50d9deb95257c35286486ac6d7581991a65828e5bd0dd5870e250eaefbfa5",
         "480534da68bbfe6c0fcd75a531a373477e7852d7e25b0287c7b7111c2d77dc49",
         "9f1ce2e379a707b4345a3bfc56bb21dc49f1cdd777c9608d0d16bf9f32c72096",
         "80c85f0e30d84969d1c10cdb8503a6ef8011b2f710ad8fa6c82154137a66a53d",
         "7dd8b85a1908d714ae9e6ad36a240abadcdf707f6352a1cb6768665b1a2c450c",
         "c9985aaa4dc6ea9f4f1739455b914b4df023edd6fbfe7fb5bda278c86d8cb426",
         "333d2716391532f3b3c1b415826309d3c48ad012b17327667851fe76a3e453fa",
         "b6ccc01de0a625059577f775cc04b8f6ecedbc87db8cc6368360b99f3c0f4219"],
    ),
    "throttled-raid6-racing-writes": (
        _pinned_throttled_raid6_rebuild,
        (10, 6, 4, 163840, 137720, 3004912), 3160249, 1272,
        ["1faa0c0ccae29e9ee277b53b5a5e74f0a771cbabb3719c6f73eb17e8c487ad09",
         "15bce74ee42a89630c4b6f0cfe65a304d23548238b318b121a4a1c29b712ddf6",
         "d2eeb41f90e1fab7cedab407fcffb02f39843b51060586f80757290bb46664c9",
         "e4756190be4b7e5f2131665c5cbaa251a2ca5e1c50cecc384bceb99a5ea1ce9c",
         "fd6d954b856cde06bb5f52d55cd0f6a531c89fdabccd1aaf585a4b885060efa4",
         "3bb541b3704c81b72162471cca4e7da4ee1e0a7acf1d1f57635046ea0c888b77"],
    ),
}


@pytest.mark.parametrize("case", sorted(_PINNED_REBUILDS))
def test_rebuild_pinned(case):
    """The restore path's exact outcome: counters, the simulated clock, the
    calendar-entry count and every drive's bytes."""
    run, *expected = _PINNED_REBUILDS[case]
    env, cluster, stats = run()
    got = [dataclasses.astuple(stats), env.now, env._eid,
           _drive_digests(cluster.drives())]
    assert got == expected
