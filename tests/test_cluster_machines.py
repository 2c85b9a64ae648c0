"""Tests for machines, CPU cores and array scrubbing utilities."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, CpuCore, build_cluster
from repro.cluster.machines import HostMachine, Machine, StorageServer
from repro.cluster.profiles import CpuProfile
from repro.net import Nic
from repro.raid.geometry import RaidGeometry, RaidLevel
from repro.raid.scrub import scrub_array, scrub_stripe
from repro.sim import Environment
from repro.storage import DELL_AGN_MU, NvmeDrive


class TestCpuCore:
    def test_work_serializes_fifo(self):
        env = Environment()
        core = CpuCore(env)
        done = []

        def proc(tag, work):
            yield core.execute(work)
            done.append((tag, env.now))

        env.process(proc("a", 100))
        env.process(proc("b", 50))
        env.run()
        assert done == [("a", 100), ("b", 150)]

    def test_zero_work_completes_immediately(self):
        env = Environment()
        core = CpuCore(env)

        def proc():
            yield core.execute(0)
            return env.now

        assert env.run(until=env.process(proc())) == 0

    def test_negative_work_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            CpuCore(env).execute(-1)

    def test_utilization_accounting(self):
        env = Environment()
        core = CpuCore(env)

        def proc():
            yield core.execute(500)

        env.run(until=env.process(proc()))
        assert core.busy_ns == 500
        assert core.utilization(1000) == pytest.approx(0.5)
        core.reset_accounting()
        assert core.busy_ns == 0


class TestMachines:
    def test_pick_core_round_robin(self):
        env = Environment()
        machine = Machine(env, "m", [Nic(env)], num_cores=3)
        picks = [machine.pick_core() for _ in range(6)]
        assert picks[0] is picks[3]
        assert len({id(c) for c in picks}) == 3

    def test_machine_requires_nic(self):
        env = Environment()
        with pytest.raises(ValueError):
            Machine(env, "m", [])

    def test_storage_server_requires_drive(self):
        env = Environment()
        with pytest.raises(ValueError):
            StorageServer(env, "s", [Nic(env)], drives=[])

    def test_cpu_profile_costs(self):
        profile = CpuProfile(xor_bytes_per_s=1e9, gf_bytes_per_s=5e8)
        assert profile.xor_ns(1_000_000) == 1_000_000
        assert profile.gf_ns(1_000_000) == 2_000_000

    def test_cluster_reset_accounting(self):
        env = Environment()
        cluster = build_cluster(env, ClusterConfig(num_servers=2))
        cluster.servers[0].nic.tx.reserve(100)
        cluster.host.nic.rx.reserve(100)
        cluster.reset_accounting()
        assert cluster.servers[0].nic.tx_bytes == 0
        assert cluster.host.nic.rx_bytes == 0


class TestScrub:
    def make_consistent_array(self):
        from repro.draid import DraidArray

        env = Environment()
        cluster = build_cluster(env, ClusterConfig(num_servers=5, functional_capacity=8 * 16384))
        geometry = RaidGeometry(RaidLevel.RAID5, 5, 16384)
        array = DraidArray(cluster, geometry)
        rng = np.random.default_rng(0)
        blob = rng.integers(0, 256, 4 * geometry.stripe_data_bytes, dtype=np.uint8)
        env.run(until=array.write(0, len(blob), blob))
        return env, cluster, geometry

    def test_clean_array_scrubs_clean(self):
        env, cluster, geometry = self.make_consistent_array()
        report = scrub_array(cluster.drives(), geometry, 4)
        assert report.clean and report.stripes_checked == 4

    def test_corruption_detected_per_stripe(self):
        env, cluster, geometry = self.make_consistent_array()
        # flip a byte on stripe 2's chunk of drive 0
        drive = cluster.drives()[0]
        offset = 2 * geometry.chunk_bytes
        drive._data[offset] ^= 0xFF
        assert scrub_array(cluster.drives(), geometry, 4).bad_stripes == [2]
        assert not scrub_stripe(cluster.drives(), geometry, 2)
        assert scrub_stripe(cluster.drives(), geometry, 1)

    def test_raid6_scrub_checks_both_parities(self):
        from repro.draid import DraidArray

        env = Environment()
        cluster = build_cluster(env, ClusterConfig(num_servers=6, functional_capacity=8 * 16384))
        geometry = RaidGeometry(RaidLevel.RAID6, 6, 16384)
        array = DraidArray(cluster, geometry)
        rng = np.random.default_rng(1)
        blob = rng.integers(0, 256, 2 * geometry.stripe_data_bytes, dtype=np.uint8)
        env.run(until=array.write(0, len(blob), blob))
        assert scrub_array(cluster.drives(), geometry, 2).clean
        # corrupt Q of stripe 0
        q_drive = geometry.parity_drives(0)[1]
        cluster.drives()[q_drive]._data[0] ^= 1
        assert scrub_array(cluster.drives(), geometry, 2).bad_stripes == [0]


class TestMultiNic:
    def test_connections_balanced_across_nics(self):
        env = Environment()
        cluster = build_cluster(env, ClusterConfig(num_servers=6, nics_per_server=2))
        # each server: 1 host conn + 5 peer conns = 6 connections over 2 NICs
        from repro.net.fabric import RdmaConnection

        for i, server in enumerate(cluster.servers):
            counts = {id(nic): 0 for nic in server.nics}
            conns = [cluster.host_connection(i)] + [
                cluster.peer_connection(i, j) for j in range(6) if j != i
            ]
            for conn in conns:
                for end in (conn.a, conn.b):
                    if end.nic in server.nics:
                        counts[id(end.nic)] += 1
            assert sorted(counts.values()) == [3, 3]

    def test_end_helpers_resolve_ownership(self):
        env = Environment()
        cluster = build_cluster(env, ClusterConfig(num_servers=3, nics_per_server=2))
        for i in range(3):
            assert cluster.host_end(i).nic in cluster.host.nics
            assert cluster.server_end(i).nic in cluster.servers[i].nics
        assert cluster.peer_end(0, 1).nic in cluster.servers[0].nics
        assert cluster.peer_end(1, 0).nic in cluster.servers[1].nics

    def test_draid_works_over_multi_nic_servers(self):
        import numpy as np

        from repro.draid import DraidArray
        from repro.raid.geometry import RaidGeometry, RaidLevel

        env = Environment()
        cluster = build_cluster(
            env,
            ClusterConfig(num_servers=5, nics_per_server=2,
                          functional_capacity=16 * 16384),
        )
        array = DraidArray(cluster, RaidGeometry(RaidLevel.RAID5, 5, 16384))
        rng = np.random.default_rng(0)
        blob = rng.integers(0, 256, 2 * array.geometry.stripe_data_bytes, dtype=np.uint8)
        env.run(until=array.write(0, len(blob), blob))
        data = env.run(until=array.read(0, len(blob)))
        assert np.array_equal(data, blob)

    def test_invalid_nic_count(self):
        env = Environment()
        import pytest as _pytest

        with _pytest.raises(ValueError):
            build_cluster(env, ClusterConfig(num_servers=2, nics_per_server=0))


@pytest.mark.parametrize("field, value", [
    ("num_servers", 0),
    ("nics_per_server", 0),
    ("host_cores", 0),
    ("server_cores", 0),
    ("io_timeout_ns", 0),
    ("propagation_ns", -1),
    ("rdma_op_ns", -2_000),
    ("functional_capacity", -16384),
])
def test_build_cluster_rejects_out_of_range_field(field, value):
    # each would build and then fail (or run a negative delay) at the first I/O
    with pytest.raises(ValueError, match=f"^{field} must be >= "):
        build_cluster(Environment(), ClusterConfig(**{"num_servers": 4, field: value}))
