"""Protocol-level tests of the dRAID bdev (driving it without a host
controller): Algorithm 2 order-independence, late-Parity handling (§5.2),
pipelines and the §7 coefficient-weighted forwarding."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, build_cluster
from repro.draid.bdev import DraidBdevServer
from repro.draid.protocol import (
    DraidCompletion,
    ParityCmd,
    PartialWriteCmd,
    PeerMsg,
    ReconstructionCmd,
    Subtype,
)
from repro.ec.gf import GF
from repro.nvmeof.messages import NvmeOfCommand, Opcode, next_cid
from repro.sim import Environment

KB = 1024
CHUNK = 16 * KB


def make_bdevs(n=4, functional=True, **kwargs):
    env = Environment()
    cluster = build_cluster(
        env,
        ClusterConfig(num_servers=n, functional_capacity=64 * CHUNK if functional else 0),
    )
    servers = [DraidBdevServer(cluster, i, **kwargs) for i in range(n)]
    host_ends = [
        cluster.host_connection(i).end_for(cluster.host.nic) for i in range(n)
    ]
    return env, cluster, servers, host_ends


def run_collect(env, end, count=1, horizon=100_000_000):
    """Run until ``count`` completions arrive on ``end``."""
    received = []

    def collector():
        while len(received) < count:
            comp = yield end.recv()
            received.append(comp)

    proc = env.process(collector())
    env.run(until=proc)
    return received


class TestPlainOps:
    def test_plain_write_then_read(self):
        env, cluster, servers, ends = make_bdevs()
        payload = np.arange(256, dtype=np.uint8)
        cid = next_cid()
        ends[0].send(NvmeOfCommand(cid, Opcode.WRITE, 0, 256, data=payload))
        (comp,) = run_collect(env, ends[0])
        assert comp.kind == "write" and comp.ok
        cid = next_cid()
        ends[0].send(NvmeOfCommand(cid, Opcode.READ, 0, 256))
        (comp,) = run_collect(env, ends[0])
        assert comp.kind == "read"
        assert np.array_equal(comp.data, payload)

    def test_failed_drive_error_completion(self):
        env, cluster, servers, ends = make_bdevs()
        cluster.servers[1].drive.fail()
        ends[1].send(NvmeOfCommand(next_cid(), Opcode.READ, 0, 256))
        (comp,) = run_collect(env, ends[1])
        assert not comp.ok
        assert "failed" in comp.error


class TestPartialWriteReduce:
    def _rmw(self, env, cluster, ends, cid, old_data, old_parity, new_data):
        """Prime drives, then drive an RMW partial write: bdev0 = data,
        bdev1 = parity."""
        env.run(until=cluster.drives()[0].write(0, len(old_data), old_data))
        env.run(until=cluster.drives()[1].write(0, len(old_parity), old_parity))
        ends[0].send(
            PartialWriteCmd(
                cid, subtype=Subtype.RMW, drive_offset=0, length=len(new_data),
                chunk_offset=0, data_index=0, fwd_offset=0, fwd_length=len(new_data),
                dests=((1, None),), chunk_drive_offset=0, parity_key=cid, data=new_data,
            )
        )

    def test_rmw_parity_math_end_to_end(self):
        env, cluster, servers, ends = make_bdevs()
        rng = np.random.default_rng(0)
        old_data = rng.integers(0, 256, 4096, dtype=np.uint8)
        old_parity = rng.integers(0, 256, 4096, dtype=np.uint8)
        new_data = rng.integers(0, 256, 4096, dtype=np.uint8)
        cid = next_cid()
        self._rmw(env, cluster, ends, cid, old_data, old_parity, new_data)
        ends[1].send(
            ParityCmd(cid, subtype=Subtype.RMW, parity_drive_offset=0,
                      fwd_offset=0, fwd_length=4096, wait_num=1, key=cid)
        )
        comps = run_collect(env, ends[0], 1) + run_collect(env, ends[1], 1)
        kinds = sorted(c.kind for c in comps)
        assert kinds == ["data", "parity"]
        expected = old_parity ^ old_data ^ new_data
        assert np.array_equal(cluster.drives()[1].peek(0, 4096), expected)
        assert np.array_equal(cluster.drives()[0].peek(0, 4096), new_data)

    def test_late_parity_command(self):
        """§5.2: the Peer partial may arrive long before Parity; the reduce
        must neither lose it nor complete early."""
        env, cluster, servers, ends = make_bdevs()
        rng = np.random.default_rng(1)
        old_data = rng.integers(0, 256, 4096, dtype=np.uint8)
        old_parity = rng.integers(0, 256, 4096, dtype=np.uint8)
        new_data = rng.integers(0, 256, 4096, dtype=np.uint8)
        cid = next_cid()
        self._rmw(env, cluster, ends, cid, old_data, old_parity, new_data)

        def late_parity():
            yield env.timeout(5_000_000)  # far after the peer partial landed
            # before Parity arrives the reduce must not have persisted
            assert np.array_equal(cluster.drives()[1].peek(0, 4096), old_parity)
            state = servers[1]._parity_states[cid]
            assert state.received == 1 and state.cmd is None
            ends[1].send(
                ParityCmd(cid, subtype=Subtype.RMW, parity_drive_offset=0,
                          fwd_offset=0, fwd_length=4096, wait_num=1, key=cid)
            )

        env.process(late_parity())
        run_collect(env, ends[1], 1)
        expected = old_parity ^ old_data ^ new_data
        assert np.array_equal(cluster.drives()[1].peek(0, 4096), expected)

    def test_partial_order_independence(self):
        """Partials reduce identically regardless of arrival order."""

        def run(order_seed):
            env, cluster, servers, ends = make_bdevs(n=5)
            rng = np.random.default_rng(7)
            blocks = [rng.integers(0, 256, 2048, dtype=np.uint8) for _ in range(3)]
            cid = next_cid()
            # deliver three peer partials with different inter-arrival gaps
            import random

            gaps = random.Random(order_seed).sample([1000, 50_000, 400_000], 3)

            def injector():
                for block, gap in zip(blocks, gaps):
                    yield env.timeout(gap)
                    servers[2].peer_ends[4].send(
                        PeerMsg(cid, key=cid, fwd_offset=0, fwd_length=2048,
                                source=("data", 0), data=block)
                    )

            env.process(injector())
            ends[4].send(
                ParityCmd(cid, subtype=Subtype.RW_READ, parity_drive_offset=0,
                          fwd_offset=0, fwd_length=2048, wait_num=3, key=cid)
            )
            run_collect(env, ends[4], 1)
            return cluster.drives()[4].peek(0, 2048)

        results = [run(seed) for seed in range(3)]
        assert all(np.array_equal(results[0], r) for r in results[1:])

    def test_rw_write_forwards_full_chunk_image(self):
        env, cluster, servers, ends = make_bdevs()
        rng = np.random.default_rng(2)
        old_chunk = rng.integers(0, 256, CHUNK, dtype=np.uint8)
        env.run(until=cluster.drives()[0].write(0, CHUNK, old_chunk))
        new_seg = rng.integers(0, 256, 4096, dtype=np.uint8)
        cid = next_cid()
        ends[0].send(
            PartialWriteCmd(
                cid, subtype=Subtype.RW_WRITE, drive_offset=1024, length=4096,
                chunk_offset=1024, data_index=0, fwd_offset=0, fwd_length=CHUNK,
                dests=((3, None),), chunk_drive_offset=0, parity_key=cid, data=new_seg,
            )
        )
        ends[3].send(
            ParityCmd(cid, subtype=Subtype.RW_READ, parity_drive_offset=0,
                      fwd_offset=0, fwd_length=CHUNK, wait_num=1, key=cid)
        )
        run_collect(env, ends[3], 1)
        expected = old_chunk.copy()
        expected[1024 : 1024 + 4096] = new_seg
        assert np.array_equal(cluster.drives()[3].peek(0, CHUNK), expected)

    def test_coefficient_weighted_forwarding(self):
        """§7 generic codes: dests carry explicit GF coefficients."""
        env, cluster, servers, ends = make_bdevs()
        rng = np.random.default_rng(3)
        chunk_data = rng.integers(0, 256, 2048, dtype=np.uint8)
        env.run(until=cluster.drives()[0].write(0, 2048, chunk_data))
        cid = next_cid()
        coefficient = 0x37
        ends[0].send(
            PartialWriteCmd(
                cid, subtype=Subtype.RW_READ, drive_offset=0, length=0,
                chunk_offset=0, data_index=0, fwd_offset=0, fwd_length=2048,
                dests=((2, coefficient),), chunk_drive_offset=0, parity_key=cid,
            )
        )
        ends[2].send(
            ParityCmd(cid, subtype=Subtype.RW_READ, parity_drive_offset=0,
                      fwd_offset=0, fwd_length=2048, wait_num=1, key=cid)
        )
        run_collect(env, ends[2], 1)
        expected = GF.mul_bytes(coefficient, chunk_data)
        assert np.array_equal(cluster.drives()[2].peek(0, 2048), expected)


class TestReconstructionProtocol:
    def test_also_read_union_single_drive_io(self):
        """ALSO_READ merges the normal read and the recon region into one
        drive I/O covering their union (§6.1)."""
        env, cluster, servers, ends = make_bdevs()
        rng = np.random.default_rng(4)
        chunk_data = rng.integers(0, 256, CHUNK, dtype=np.uint8)
        env.run(until=cluster.drives()[1].write(0, CHUNK, chunk_data))
        reads_before = cluster.drives()[1].stats.read_ops
        cid = next_cid()
        # disjoint regions: read [0,1k), reconstruct [8k,9k); reducer is a
        # different bdev, so this bdev forwards the recon region to it
        ends[1].send(
            ReconstructionCmd(
                cid, subtype=Subtype.ALSO_READ, chunk_drive_offset=0,
                region_offset=8 * KB, region_length=KB, source=("data", 1),
                reducer=0, wait_num=1, lost=("data", 0), code=("pq", 3, 1),
                read_segment=(0, KB, 0),
            )
        )
        comps = run_collect(env, ends[1], 1)
        # one drive I/O covered the union of both regions
        assert cluster.drives()[1].stats.read_ops == reads_before + 1
        assert comps[0].kind == "read"
        assert np.array_equal(comps[0].data, chunk_data[:KB])
        # the reducer received the recon region as a peer partial
        env.run(until=env.now + 1_000_000)
        state = servers[0]._recon_states[cid]
        assert np.array_equal(
            state.blocks[("data", 1)], chunk_data[8 * KB : 9 * KB]
        )

    def test_reducer_decodes_from_peer_partials(self):
        env, cluster, servers, ends = make_bdevs(n=4)
        rng = np.random.default_rng(5)
        # stripe of 3 data chunks; drive3 is parity; drive0 lost
        data = [rng.integers(0, 256, 2048, dtype=np.uint8) for _ in range(3)]
        parity = data[0] ^ data[1] ^ data[2]
        env.run(until=cluster.drives()[1].write(0, 2048, data[1]))
        env.run(until=cluster.drives()[2].write(0, 2048, data[2]))
        env.run(until=cluster.drives()[3].write(0, 2048, parity))
        cid = next_cid()
        for drive, source in ((1, ("data", 1)), (2, ("data", 2)), (3, ("parity", 0))):
            ends[drive].send(
                ReconstructionCmd(
                    cid, subtype=Subtype.NO_READ, chunk_drive_offset=0,
                    region_offset=0, region_length=2048, source=source,
                    reducer=3, wait_num=2, lost=("data", 0), code=("pq", 3, 1),
                )
            )
        comps = run_collect(env, ends[3], 1)
        assert comps[0].kind == "recon"
        assert np.array_equal(comps[0].data, data[0])

    def test_unknown_message_rejected(self):
        env, cluster, servers, ends = make_bdevs()
        ends[0].send(object())
        with pytest.raises(TypeError):
            env.run()
