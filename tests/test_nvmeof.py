"""Tests for the NVMe-oF target/initiator pair and cluster assembly."""

import pytest

from repro.cluster import ClusterConfig, build_cluster
from repro.nvmeof import IoError, NvmeOfTarget, RemoteBdev
from repro.sim import Environment


def make_stack(num_servers=2, functional=0, **kwargs):
    env = Environment()
    config = ClusterConfig(num_servers=num_servers, functional_capacity=functional, **kwargs)
    cluster = build_cluster(env, config)
    bdevs = []
    targets = []
    for i, server in enumerate(cluster.servers):
        conn = cluster.host_connection(i)
        targets.append(NvmeOfTarget(server, conn.end_for(server.nic)))
        bdevs.append(RemoteBdev(cluster.host, conn.end_for(cluster.host.nic), name=f"bdev{i}"))
    return env, cluster, bdevs, targets


class TestCluster:
    def test_paper_default_shape(self):
        env, cluster, bdevs, _targets = make_stack(num_servers=8)
        assert cluster.num_servers == 8
        assert len(cluster.host_connections) == 8
        # full server mesh: 8 choose 2
        assert len(cluster._peer_connections) == 28

    def test_peer_connection_symmetry(self):
        env, cluster, _, _t = make_stack(num_servers=3)
        assert cluster.peer_connection(0, 2) is cluster.peer_connection(2, 0)
        with pytest.raises(ValueError):
            cluster.peer_connection(1, 1)

    def test_heterogeneous_nic_rates(self):
        env = Environment()
        config = ClusterConfig(num_servers=2, server_nic_rates=[1e9, 2e9])
        cluster = build_cluster(env, config)
        assert cluster.servers[0].nic.rate_bytes_per_s == 1e9
        assert cluster.servers[1].nic.rate_bytes_per_s == 2e9

    def test_rate_list_length_checked(self):
        env = Environment()
        with pytest.raises(ValueError):
            build_cluster(env, ClusterConfig(num_servers=3, server_nic_rates=[1e9]))


class TestRemoteIo:
    def test_functional_write_read_roundtrip(self):
        env, cluster, bdevs, _targets = make_stack(functional=1 << 20)
        payload = bytes(range(200)) * 10

        def proc():
            yield bdevs[0].write(4096, 2000, payload)
            data = yield bdevs[0].read(4096, 2000)
            return bytes(data)

        assert env.run(until=env.process(proc())) == payload

    def test_read_times_include_network_and_drive(self):
        env, cluster, bdevs, _targets = make_stack()

        def proc():
            yield bdevs[0].read(0, 128 * 1024)
            return env.now

        elapsed = env.run(until=env.process(proc()))
        # capsule + cpu + drive read (~41us transfer + 80us latency) +
        # response transfer (~11.4us at 11.5GB/s) + fabric overheads
        assert 100_000 < elapsed < 250_000

    def test_write_pulls_data_through_host_tx(self):
        env, cluster, bdevs, _targets = make_stack()
        size = 256 * 1024

        def proc():
            yield bdevs[0].write(0, size)

        env.run(until=env.process(proc()))
        host_nic = cluster.host.nic
        # host TX carries capsule + payload; RX only the completion
        assert host_nic.tx_bytes >= size
        assert host_nic.rx_bytes < 1024

    def test_read_pushes_data_through_host_rx(self):
        env, cluster, bdevs, _targets = make_stack()
        size = 256 * 1024

        def proc():
            yield bdevs[0].read(0, size)

        env.run(until=env.process(proc()))
        assert cluster.host.nic.rx_bytes >= size
        assert cluster.host.nic.tx_bytes < 1024

    def test_failed_drive_returns_error(self):
        env, cluster, bdevs, _targets = make_stack()
        cluster.servers[0].drive.fail()

        def proc():
            try:
                yield bdevs[0].read(0, 4096)
            except IoError:
                return "io-error"

        assert env.run(until=env.process(proc())) == "io-error"

    def test_concurrent_ios_to_different_servers(self):
        env, cluster, bdevs, _targets = make_stack(num_servers=4)
        done = []

        def proc(i):
            yield bdevs[i].read(0, 512 * 1024)
            done.append(env.now)

        for i in range(4):
            env.process(proc(i))
        env.run()
        # All four reads proceed in parallel on different servers; host RX
        # serializes the 4 responses but drive work overlaps.
        assert len(done) == 4
        assert max(done) < 4 * min(done)

    def test_stall_injection_delays_service(self):
        env, cluster, bdevs, _targets = make_stack()
        # the mechanism the fault layer's LinkStall uses
        cluster.host_connection(1).stall(5_000_000)

        def proc():
            yield bdevs[1].read(0, 4096)
            return env.now

        assert env.run(until=env.process(proc())) > 5_000_000

    def test_outstanding_tracking(self):
        env, cluster, bdevs, _targets = make_stack()

        def proc():
            ev = bdevs[0].read(0, 4096)
            assert bdevs[0].outstanding == 1
            yield ev
            assert bdevs[0].outstanding == 0

        env.run(until=env.process(proc()))
