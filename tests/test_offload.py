"""Tests for the §7 offloaded host-side controller."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, build_cluster
from repro.draid import DraidArray
from repro.draid.offload import OffloadedController, OffloadedDraidArray
from repro.raid.geometry import RaidGeometry, RaidLevel
from repro.sim import Environment
from repro.workloads import FioWorkload

KB = 1024
CHUNK = 16 * KB


def make_offloaded(servers=6, stripes=16, functional=True, controller=0):
    env = Environment()
    cluster = build_cluster(
        env,
        ClusterConfig(num_servers=servers,
                      functional_capacity=stripes * CHUNK if functional else 0),
    )
    geometry = RaidGeometry(RaidLevel.RAID5, servers - 1, CHUNK)
    array = OffloadedDraidArray(cluster, geometry, controller_server=controller)
    return env, cluster, array, geometry


class TestTopology:
    def test_geometry_must_leave_room_for_controller(self):
        env = Environment()
        cluster = build_cluster(env, ClusterConfig(num_servers=6))
        with pytest.raises(ValueError):
            OffloadedController(cluster, RaidGeometry(RaidLevel.RAID5, 6, CHUNK), 0)

    def test_drive_to_server_mapping_skips_controller(self):
        env, cluster, array, geometry = make_offloaded(controller=2)
        controller = array.controller
        assert [controller._server_of(d) for d in range(5)] == [0, 1, 3, 4, 5]
        assert controller._drive_of(4) == 3
        with pytest.raises(ValueError):
            controller._drive_of(2)


class TestFunctional:
    def test_roundtrip_through_proxy(self):
        env, cluster, array, geometry = make_offloaded()
        rng = np.random.default_rng(0)
        blob = rng.integers(0, 256, 2 * geometry.stripe_data_bytes, dtype=np.uint8)
        env.run(until=array.write(0, len(blob), blob))
        data = env.run(until=array.read(0, len(blob)))
        assert np.array_equal(data, blob)

    def test_partial_writes_and_parity(self):
        env, cluster, array, geometry = make_offloaded()
        rng = np.random.default_rng(1)
        blob = rng.integers(0, 256, 3 * geometry.stripe_data_bytes, dtype=np.uint8)
        env.run(until=array.write(0, len(blob), blob))
        patch = rng.integers(0, 256, 5000, dtype=np.uint8)
        env.run(until=array.write(777, len(patch), patch))
        blob[777 : 777 + len(patch)] = patch
        data = env.run(until=array.read(0, len(blob)))
        assert np.array_equal(data, blob)
        assert array.stats.rmw_writes >= 1

    def test_degraded_read_through_proxy(self):
        env, cluster, array, geometry = make_offloaded()
        rng = np.random.default_rng(2)
        blob = rng.integers(0, 256, 2 * geometry.stripe_data_bytes, dtype=np.uint8)
        env.run(until=array.write(0, len(blob), blob))
        array.fail_drive(0)
        data = env.run(until=array.read(0, len(blob)))
        assert np.array_equal(data, blob)
        assert array.degraded

    def test_random_workload(self):
        env, cluster, array, geometry = make_offloaded(stripes=24)
        rng = np.random.default_rng(3)
        capacity = 24 * geometry.stripe_data_bytes
        model = np.zeros(capacity, dtype=np.uint8)
        for _ in range(20):
            size = int(rng.integers(1, 2 * geometry.stripe_data_bytes))
            offset = int(rng.integers(0, capacity - size))
            if rng.random() < 0.4:
                data = env.run(until=array.read(offset, size))
                assert np.array_equal(data, model[offset : offset + size])
            else:
                payload = rng.integers(0, 256, size, dtype=np.uint8)
                env.run(until=array.write(offset, size, payload))
                model[offset : offset + size] = payload


class TestTradeoffs:
    def test_host_resources_nearly_idle(self):
        """§7: 'a full offloading further reduces resource usage on the
        host side' — host CPU does ~nothing; the controller's core works."""
        env, cluster, array, geometry = make_offloaded(functional=False)
        fio = FioWorkload(array, 32 * KB, read_fraction=0.0, queue_depth=8)
        fio.run(measure_ns=10_000_000)
        host_busy = sum(core.busy_ns for core in cluster.host.cores)
        controller_busy = cluster.servers[0].cpu.busy_ns
        assert host_busy < controller_busy / 10

    def test_extra_hop_costs_latency(self):
        """§7: offloading 'may slightly increase the latency with another
        NVMe-oF abstraction layer and additional I/O overlay'."""

        def write_latency(offloaded: bool) -> float:
            env = Environment()
            if offloaded:
                cluster = build_cluster(env, ClusterConfig(num_servers=6))
                array = OffloadedDraidArray(
                    cluster, RaidGeometry(RaidLevel.RAID5, 5, CHUNK)
                )
            else:
                cluster = build_cluster(env, ClusterConfig(num_servers=5))
                array = DraidArray(cluster, RaidGeometry(RaidLevel.RAID5, 5, CHUNK))
            fio = FioWorkload(array, 32 * KB, read_fraction=0.0, queue_depth=1)
            return fio.run(measure_ns=10_000_000).latency.mean_ns

        direct = write_latency(offloaded=False)
        offloaded = write_latency(offloaded=True)
        assert offloaded > direct * 1.05
        assert offloaded < direct * 2.0  # "slightly" — not catastrophically

    def test_write_payload_hops_through_controller(self):
        env, cluster, array, geometry = make_offloaded(functional=False)
        cluster.reset_accounting()
        size = 32 * KB
        env.run(until=array.write(0, size))
        controller_nic = cluster.servers[0].nic
        # the payload entered the controller (host->controller) and left it
        # again (controller->data bdev): the §7 "additional I/O overlay"
        assert controller_nic.rx_bytes >= size
        assert controller_nic.tx_bytes >= size


class TestMemberTable:
    """The controller sits on server 0, so member *i* lives on server
    *i + 1*: everything member-indexed must go through ``controller.drives``,
    never ``cluster.servers[i]``."""

    def test_rebuild_lands_on_the_members_own_server(self):
        from repro.raid.rebuild import RebuildJob

        env, cluster, array, geometry = make_offloaded(stripes=4, controller=0)
        controller = array.controller
        assert controller.drives[0] is cluster.servers[1].drive
        size = 4 * geometry.stripe_data_bytes
        rng = np.random.default_rng(4)
        first = rng.integers(0, 256, size, dtype=np.uint8)
        second = rng.integers(0, 256, size, dtype=np.uint8)
        env.run(until=array.write(0, size, first))
        array.fail_drive(0)
        env.run(until=array.write(0, size, second))
        env.run(until=RebuildJob(controller, 0, 4).start())
        assert not controller.failed
        data = env.run(until=array.read(0, size))
        assert np.array_equal(data, second)
        # the rebuilt chunks sit on member 0's drive (server 1) — a data
        # chunk in each of these four stripes ...
        for stripe in range(4):
            index = geometry.data_index_of_drive(stripe, 0)
            base = stripe * geometry.stripe_data_bytes + index * CHUNK
            assert np.array_equal(
                controller.drives[0].peek(stripe * CHUNK, CHUNK),
                second[base : base + CHUNK],
            )
        # ... and the controller server's own drive was never touched
        assert cluster.servers[0].drive.stats.write_ops == 0
        assert not cluster.servers[0].drive.peek(0, 4 * CHUNK).any()

    def test_read_verifies_and_repairs_the_members_own_drive(self):
        from repro.storage.integrity import IntegrityStore

        env, cluster, array, geometry = make_offloaded(stripes=4, controller=0)
        controller = array.controller
        IntegrityStore(CHUNK, eager=True).attach(cluster)
        size = 4 * geometry.stripe_data_bytes
        blob = np.random.default_rng(5).integers(0, 256, size, dtype=np.uint8)
        env.run(until=array.write(0, size, blob))
        # rot a data chunk of member 0 (stripe 1: member 0 holds data there)
        assert 0 not in geometry.parity_drives(1)
        controller.drives[0].corrupt("bitrot", offset=CHUNK + 100, length=64, seed=3)
        data = env.run(until=array.read(0, size))
        assert np.array_equal(data, blob)
        stats = controller.integrity_stats
        assert stats.total_detected == 1
        assert stats.total_repaired == 1

    @pytest.mark.parametrize("offloaded", [True, False], ids=["offloaded", "plain"])
    def test_chunk_that_rots_again_after_a_rewrite_is_counted_again(self, offloaded):
        """Detections are deduped under the store's own key — the drive's
        index, which ``record_write`` clears — not the member number: on an
        offloaded controller (member != server) the second episode of one
        chunk was repaired but never counted.  The plain array (member ==
        server) is the control."""
        from repro.storage.integrity import IntegrityStore

        if offloaded:
            env, cluster, array, geometry = make_offloaded(stripes=4, controller=0)
            controller = array.controller
        else:
            env = Environment()
            cluster = build_cluster(
                env, ClusterConfig(num_servers=5, functional_capacity=4 * CHUNK)
            )
            geometry = RaidGeometry(RaidLevel.RAID5, 5, CHUNK)
            array = controller = DraidArray(cluster, geometry)
        IntegrityStore(CHUNK, eager=True).attach(cluster)
        size = 4 * geometry.stripe_data_bytes
        rng = np.random.default_rng(6)
        assert 0 not in geometry.parity_drives(1)
        for episode in (1, 2):
            blob = rng.integers(0, 256, size, dtype=np.uint8)
            env.run(until=array.write(0, size, blob))  # (re)written ...
            controller.drives[0].corrupt(              # ... and rotted (again)
                "bitrot", offset=CHUNK + 100, length=64, seed=episode
            )
            assert np.array_equal(env.run(until=array.read(0, size)), blob)
            stats = controller.integrity_stats
            assert (stats.total_detected, stats.total_repaired) == (episode, episode)

