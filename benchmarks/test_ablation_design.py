"""Ablations of dRAID's design choices (DESIGN.md quality gates).

Two of the paper's three key techniques are toggled off individually:

* §5.3 parallel I/O pipeline — without it a data bdev processes fetch,
  drive read, drive write and partial-parity forwarding strictly serially,
  like plain NVMe-oF (measured with a FIO write workload).
* §5.2 non-blocking multi-stage write — a barrier design cannot process
  peer partials before the Parity command arrives.  The cost appears
  exactly when Parity is *late* ("late arrival of the Parity command"),
  so it is measured with a protocol-level microbenchmark that delays the
  Parity capsule: the non-blocking reducer has every partial fetched by
  the time the command lands, the barrier version starts fetching then.

(The third technique, §6.2 bandwidth-aware reconstruction, is ablated in
Figure 17b.)
"""

import pytest

from benchmarks.conftest import save_table
from repro.cluster import ClusterConfig, build_cluster
from repro.draid import DraidArray
from repro.draid.bdev import DraidBdevServer
from repro.draid.protocol import ParityCmd, PartialWriteCmd, Subtype
from repro.nvmeof.messages import next_cid
from repro.raid.geometry import RaidGeometry, RaidLevel
from repro.sim import Environment
from repro.workloads import FioWorkload

KB = 1024


def run_pipeline_variant(pipeline: bool):
    env = Environment()
    cluster = build_cluster(env, ClusterConfig(num_servers=8))
    array = DraidArray(
        cluster, RaidGeometry(RaidLevel.RAID5, 8, 512 * KB), pipeline=pipeline
    )
    fio = FioWorkload(array, 128 * KB, read_fraction=0.0, queue_depth=16)
    return fio.run(measure_ns=15_000_000)


def late_parity_latency(blocking_reduce: bool, delay_ns: int = 800_000) -> float:
    """Reduce-completion latency when the Parity capsule arrives late.

    Six data bdevs forward full-chunk (512 KiB) partials to the parity
    bdev; the host sends the Parity command ``delay_ns`` later (modeling
    network/scheduling jitter).  Returns the parity completion time in us.
    """
    env = Environment()
    cluster = build_cluster(env, ClusterConfig(num_servers=8))
    servers = [
        DraidBdevServer(cluster, i, blocking_reduce=blocking_reduce)
        for i in range(8)
    ]
    host_nic = cluster.host.nic
    host_ends = [cluster.host_connection(i).end_for(host_nic) for i in range(8)]
    cid = next_cid()
    chunk = 512 * KB

    def driver():
        # broadcast RW_READ partial-writes (reconstruct-write style: each
        # data bdev reads its chunk and forwards it as a partial parity)
        for d in range(1, 7):
            host_ends[d].send(
                PartialWriteCmd(
                    cid, subtype=Subtype.RW_READ, drive_offset=0, length=0,
                    chunk_offset=0, data_index=d - 1, fwd_offset=0,
                    fwd_length=chunk, dests=((0, None),), chunk_drive_offset=0,
                    parity_key=cid,
                )
            )
        yield env.timeout(delay_ns)  # the Parity command arrives late
        host_ends[0].send(
            ParityCmd(cid, subtype=Subtype.RW_READ, parity_drive_offset=0,
                      fwd_offset=0, fwd_length=chunk, wait_num=6, key=cid)
        )
        completion = yield host_ends[0].recv()
        assert completion.kind == "parity" and completion.ok
        return env.now

    done = env.process(driver())
    return env.run(until=done) / 1000


def run_all():
    return {
        "fio_full": run_pipeline_variant(pipeline=True),
        "fio_no_pipeline": run_pipeline_variant(pipeline=False),
        "late_parity_nonblocking_us": late_parity_latency(blocking_reduce=False),
        "late_parity_barrier_us": late_parity_latency(blocking_reduce=True),
    }


@pytest.mark.benchmark(group="ablations")
def test_ablation_design_choices(benchmark):
    r = benchmark.pedantic(run_all, rounds=1, iterations=1)
    full, no_pipe = r["fio_full"], r["fio_no_pipeline"]
    nb, barrier = r["late_parity_nonblocking_us"], r["late_parity_barrier_us"]
    lines = [
        "Ablation: dRAID design choices",
        "",
        "(a) §5.3 I/O pipeline (RAID-5 write, 128 KiB, 8 targets, QD 16):",
        f"  pipelined   {full.bandwidth_mb_s:8.0f} MB/s   avg {full.latency.mean_us:7.1f} us",
        f"  serial      {no_pipe.bandwidth_mb_s:8.0f} MB/s   avg {no_pipe.latency.mean_us:7.1f} us",
        "",
        "(b) §5.2 non-blocking reduce, Parity capsule delayed 800 us",
        "    (6 x 512 KiB partials to reduce):",
        f"  non-blocking (dRAID)   parity completes at {nb:7.1f} us",
        f"  barrier (ablation)     parity completes at {barrier:7.1f} us",
    ]
    save_table("ablation_design", "\n".join(lines))
    # §5.3: pipelining must improve both latency and throughput
    assert full.latency.mean_ns < no_pipe.latency.mean_ns
    assert full.bandwidth_mb_s >= no_pipe.bandwidth_mb_s
    # §5.2: with a late Parity command the non-blocking design finishes
    # sooner because partials were fetched while waiting
    assert nb < barrier * 0.9
