"""Functional tests for the §7 generalization: dRAID over RS(k+m) codes."""

import numpy as np
import pytest

from repro.baselines.base import ArrayFailureError
from repro.cluster import ClusterConfig, build_cluster
from repro.draid.ec_array import EcDraidArray, EcGeometry
from repro.sim import Environment

KB = 1024
CHUNK = 16 * KB


def make_harness(drives=8, parity=3, stripes=16):
    env = Environment()
    cluster = build_cluster(
        env, ClusterConfig(num_servers=drives, functional_capacity=stripes * CHUNK)
    )
    geometry = EcGeometry(drives, CHUNK, num_parity=parity)
    array = EcDraidArray(cluster, geometry)
    capacity = stripes * geometry.stripe_data_bytes
    model = np.zeros(capacity, dtype=np.uint8)
    return env, cluster, array, model, capacity


def write(env, array, model, offset, data):
    env.run(until=array.write(offset, len(data), data))
    model[offset : offset + len(data)] = data


def check(env, array, model, offset, nbytes):
    got = env.run(until=array.read(offset, nbytes))
    assert np.array_equal(got, model[offset : offset + nbytes])


class TestEcGeometry:
    def test_parities_rotate_and_balance(self):
        g = EcGeometry(8, CHUNK, num_parity=3)
        counts = {d: 0 for d in range(8)}
        for stripe in range(80):
            parities = g.parity_drives(stripe)
            assert len(set(parities)) == 3
            for p in parities:
                counts[p] += 1
        assert set(counts.values()) == {30}

    def test_data_disjoint_from_parity(self):
        g = EcGeometry(9, CHUNK, num_parity=4)
        for stripe in range(18):
            parity = set(g.parity_drives(stripe))
            data = {g.data_drive(stripe, d) for d in range(g.data_per_stripe)}
            assert parity | data == set(range(9))
            assert not parity & data

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            EcGeometry(4, CHUNK, num_parity=0)
        with pytest.raises(ValueError):
            EcGeometry(4, CHUNK, num_parity=3)

    def test_requires_ec_geometry(self):
        env = Environment()
        cluster = build_cluster(env, ClusterConfig(num_servers=5))
        from repro.raid.geometry import RaidGeometry, RaidLevel

        with pytest.raises(TypeError):
            EcDraidArray(cluster, RaidGeometry(RaidLevel.RAID5, 5, CHUNK))


class TestEcWrites:
    def test_full_stripe_roundtrip(self):
        env, cluster, array, model, cap = make_harness()
        rng = np.random.default_rng(1)
        blob = rng.integers(0, 256, 3 * array.geometry.stripe_data_bytes, dtype=np.uint8)
        write(env, array, model, 0, blob)
        check(env, array, model, 0, len(blob))

    def test_rmw_small_write(self):
        env, cluster, array, model, cap = make_harness()
        rng = np.random.default_rng(2)
        write(env, array, model, 0,
              rng.integers(0, 256, 2 * array.geometry.stripe_data_bytes, dtype=np.uint8))
        write(env, array, model, 5000, rng.integers(0, 256, 3000, dtype=np.uint8))
        check(env, array, model, 0, 2 * array.geometry.stripe_data_bytes)
        assert array.stats.rmw_writes >= 1

    def test_rcw_write(self):
        env, cluster, array, model, cap = make_harness()
        rng = np.random.default_rng(3)
        size = array.geometry.stripe_data_bytes - CHUNK
        write(env, array, model, 0, rng.integers(0, 256, size, dtype=np.uint8))
        check(env, array, model, 0, size)
        assert array.stats.rcw_writes >= 1

    def test_random_workload(self):
        env, cluster, array, model, cap = make_harness()
        rng = np.random.default_rng(4)
        for _ in range(25):
            size = int(rng.integers(1, 2 * array.geometry.stripe_data_bytes))
            offset = int(rng.integers(0, cap - size))
            if rng.random() < 0.35:
                check(env, array, model, offset, size)
            else:
                write(env, array, model, offset,
                      rng.integers(0, 256, size, dtype=np.uint8))
        check(env, array, model, 0, cap)


class TestEcFailures:
    def test_tolerates_m_failures(self):
        env, cluster, array, model, cap = make_harness(drives=8, parity=3)
        rng = np.random.default_rng(5)
        blob = rng.integers(0, 256, cap, dtype=np.uint8)
        write(env, array, model, 0, blob)
        for drive in (0, 2, 5):  # three failures on an m=3 code
            array.fail_drive(drive)
        check(env, array, model, 0, cap)

    def test_rejects_m_plus_one_failures(self):
        env, cluster, array, model, cap = make_harness(drives=8, parity=2)
        array.fail_drive(0)
        array.fail_drive(1)
        with pytest.raises(ArrayFailureError):
            array.fail_drive(2)

    def test_degraded_write_region_path(self):
        env, cluster, array, model, cap = make_harness()
        rng = np.random.default_rng(6)
        write(env, array, model, 0, rng.integers(0, 256, cap, dtype=np.uint8))
        failed = array.geometry.data_drive(0, 0)
        array.fail_drive(failed)
        write(env, array, model, 1000, rng.integers(0, 256, 2000, dtype=np.uint8))
        check(env, array, model, 0, 2 * array.geometry.stripe_data_bytes)

    def test_degraded_writes_under_double_failure(self):
        env, cluster, array, model, cap = make_harness(drives=8, parity=3)
        rng = np.random.default_rng(7)
        write(env, array, model, 0, rng.integers(0, 256, cap, dtype=np.uint8))
        array.fail_drive(1)
        array.fail_drive(4)
        write(env, array, model, 3000, rng.integers(0, 256, 40_000, dtype=np.uint8))
        check(env, array, model, 0, cap)

    def test_parity_consistency_via_decode(self):
        """After a workload, every stripe must decode from ANY k shards."""
        env, cluster, array, model, cap = make_harness(drives=7, parity=2, stripes=8)
        rng = np.random.default_rng(8)
        write(env, array, model, 0, rng.integers(0, 256, cap, dtype=np.uint8))
        write(env, array, model, 777, rng.integers(0, 256, 9999, dtype=np.uint8))
        g = array.geometry
        for stripe in range(3):
            shards = {}
            for d in range(g.data_per_stripe):
                drive = g.data_drive(stripe, d)
                shards[d] = cluster.drives()[drive].peek(stripe * CHUNK, CHUNK)
            for j, p in enumerate(g.parity_drives(stripe)):
                shards[g.data_per_stripe + j] = cluster.drives()[p].peek(stripe * CHUNK, CHUNK)
            # drop two arbitrary shards, decode, compare with data shards
            import random

            keep = dict(shards)
            for victim in random.Random(stripe).sample(sorted(keep), 2):
                del keep[victim]
            recovered = array.code.decode(keep, length=CHUNK)
            for d in range(g.data_per_stripe):
                assert np.array_equal(recovered[d], shards[d]), f"stripe {stripe} shard {d}"


class TestEcChecksumRepair:
    """Checksum read-repair on coded arrays asks the code for exactly the
    bad shards (``decode_one``), data and parity alike."""

    @pytest.mark.parametrize("lrc", [False, True], ids=["rs", "lrc"])
    def test_scrub_restores_rotted_data_and_parity_chunks(self, lrc):
        from repro.draid.ec_array import LrcDraidArray
        from repro.raid.scrubber import ScrubDaemon
        from repro.storage.integrity import IntegrityStore

        env = Environment()
        stripes = 4
        cluster = build_cluster(
            env, ClusterConfig(num_servers=8, functional_capacity=stripes * CHUNK)
        )
        IntegrityStore(CHUNK).attach(cluster)
        geometry = EcGeometry(8, CHUNK, num_parity=3)
        array = (LrcDraidArray(cluster, geometry, local_groups=2) if lrc
                 else EcDraidArray(cluster, geometry))
        rng = np.random.default_rng(21)
        cap = stripes * geometry.stripe_data_bytes
        payload = rng.integers(0, 256, cap, dtype=np.uint8)
        env.run(until=array.write(0, cap, payload))
        drives = cluster.drives()
        pristine = [d.peek(0, stripes * CHUNK) for d in drives]
        # two erasures per stripe (within RS reach 3 and LRC reach 1 + local):
        # a data chunk everywhere, plus a parity chunk on the RS array
        for stripe in range(stripes):
            victims = [geometry.data_drive(stripe, stripe % geometry.data_per_stripe)]
            if not lrc:
                victims.append(geometry.parity_drives(stripe)[stripe % 3])
            for victim in victims:
                drives[victim].corrupt(
                    "bitrot", offset=stripe * CHUNK + 100, length=999, seed=stripe
                )
        env.run(until=ScrubDaemon(array, stripes, pace_ns=0).process)
        for drive, before in zip(drives, pristine):
            assert np.array_equal(drive.peek(0, stripes * CHUNK), before)
        assert array.integrity_stats.unrecoverable == 0
        got = env.run(until=array.read(0, cap))
        assert np.array_equal(got, payload)


def make_array(kind, chunk=CHUNK, stripes=4, **config):
    """An 8-drive dRAID array of one (level | code) cell."""
    from repro.draid import DraidArray
    from repro.draid.ec_array import LrcDraidArray
    from repro.raid.geometry import RaidGeometry, RaidLevel

    env = Environment()
    cluster = build_cluster(
        env, ClusterConfig(num_servers=8, functional_capacity=stripes * chunk, **config)
    )
    if kind == "raid5":
        array = DraidArray(cluster, RaidGeometry(RaidLevel.RAID5, 8, chunk))
    elif kind == "raid6":
        array = DraidArray(cluster, RaidGeometry(RaidLevel.RAID6, 8, chunk))
    elif kind == "rs":
        array = EcDraidArray(cluster, EcGeometry(8, chunk, num_parity=2))
    else:
        array = LrcDraidArray(cluster, EcGeometry(8, chunk, num_parity=3), local_groups=2)
    return env, array


class TestCodedArraysFailLikeRaid:
    """The failure machinery is the one controller's, whatever the code:
    regression tests for two behaviours the per-code copies had lost."""

    @staticmethod
    def _silent_member_write(kind):
        """One chunk-sized write with the bdev of its data chunk silent."""
        from repro.faults import FaultInjector, FaultPlan
        from repro.nvmeof.messages import IoError

        chunk = 4 * KB
        env, array = make_array(kind, chunk=chunk, stripes=8, io_timeout_ns=1_000_000)
        FaultInjector(array, FaultPlan([]), num_stripes=8)  # arm the resilient path
        g = array.geometry
        # Fencing walks the unresponsive members in index order and stops at
        # the tolerance, and the parity bdevs starved of the victim's partial
        # are as silent as the victim: compare the arrays on the first stripe
        # where chunk 0's member sorts before every parity member.
        stripe = next(
            s for s in range(8) if g.data_drive(s, 0) < min(g.parity_drives(s))
        )
        victim = g.data_drive(stripe, 0)
        array.bdev_servers[victim].crash(10_000_000_000)
        try:
            env.run(until=array.write(
                stripe * g.stripe_data_bytes, chunk, np.full(chunk, 7, dtype=np.uint8)
            ))
            outcome = "ok"
        except IoError:
            outcome = "io-error"
        assert victim in array.failed
        assert len(array.failed) <= array.fault_tolerance
        stats = array.fault_stats
        return outcome, array.failed, stats.prolonged_failures, stats.retries

    @pytest.mark.parametrize("coded, raid", [("rs", "raid6"), ("lrc", "raid5")])
    def test_silent_member_is_fenced_like_the_raid_array(self, coded, raid):
        """RS(k,2) ends like RAID-6 and LRC(k,2,1) like RAID-5 (same
        tolerance): the straggler is fenced and the retry completes, instead
        of nobody being fenced and the retry budget burning down."""
        outcome = self._silent_member_write(coded)
        assert outcome == self._silent_member_write(raid)
        assert outcome[0] == "ok" and outcome[2] >= 1

    @pytest.mark.parametrize("kind", ["raid6", "rs", "lrc"])
    def test_refail_mid_rebuild_forgets_progress(self, kind):
        """A member that dies again mid-rebuild is failed for every stripe:
        reads must not go to a replacement that never received them."""
        _, array = make_array(kind)
        array.fail_drive(3)
        array.rebuilt_stripes[3] = set(range(10)) | {12}
        array.fail_drive(3)
        assert 3 not in array.rebuilt_stripes
        assert array.drive_failed(3, 5) and array.drive_failed(3, 12)


@pytest.mark.parametrize("kind", ["raid5", "raid6", "rs", "lrc"])
def test_charge_sequence_independent_of_carrying_bytes(kind):
    """Timing mode and functional mode schedule the same events at the same
    instants: what the code charges must not depend on whether bytes are
    carried.  One RMW, one RCW, one full-stripe write, then one degraded
    read and one degraded write."""
    trails = []
    for functional in (True, False):
        env, array = make_array(kind, stripes=4 if functional else 0)
        g = array.geometry
        sb = g.stripe_data_bytes

        def payload(n):
            return np.full(n, 5, dtype=np.uint8) if functional else None

        trail = []
        for offset, nbytes in (
            (4 * KB, 4 * KB),                   # RMW
            (sb + CHUNK, sb - 2 * CHUNK),       # RCW
            (2 * sb, sb),                       # full stripe
        ):
            env.run(until=array.write(offset, nbytes, payload(nbytes)))
            trail.append((env.now, env._eid))
        array.fail_drive(g.data_drive(0, 0))
        env.run(until=array.read(0, 8 * KB))    # degraded read
        trail.append((env.now, env._eid))
        env.run(until=array.write(KB, 2 * KB, payload(2 * KB)))  # degraded write
        trail.append((env.now, env._eid))
        stats = array.stats
        assert (stats.rmw_writes, stats.rcw_writes, stats.full_stripe_writes,
                stats.degraded_reads, stats.degraded_writes) == (1, 1, 1, 1, 1)
        trails.append(trail)
    assert trails[0] == trails[1]
