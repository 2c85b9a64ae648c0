"""Open-loop trace replay, tenant QoS and SSD garbage collection.

Production arrays do not see closed-loop benchmark traffic: bursts arrive
whether or not earlier I/O finished, tenants share the array under byte
budgets (§5.5), and SSD garbage collection injects latency spikes (the
problem the paper's related work — SWAN, TTFLASH, FusionRAID — attacks).
This example combines the three:

1. replay a bursty trace open-loop against dRAID and measure p99 latency;
2. repeat on GC-prone drives and watch the tail inflate;
3. cap a noisy neighbour with a token-bucket budget and show the victim
   tenant's tail recovering.

Run:  python examples/trace_replay_qos.py
"""

from repro.cluster import ClusterConfig, build_cluster
from repro.qos import RateLimitedDevice, TokenBucket
from repro.draid import DraidArray
from repro.raid.geometry import RaidGeometry, RaidLevel
from repro.sim import Environment
from repro.storage import DELL_AGN_MU
from repro.workloads import FioWorkload
from repro.workloads.trace import TraceWorkload, bursty_trace

KB = 1024
MB = 1_000_000


def build(profile=DELL_AGN_MU):
    env = Environment()
    cluster = build_cluster(env, ClusterConfig(num_servers=8, drive_profile=profile))
    array = DraidArray(cluster, RaidGeometry(RaidLevel.RAID5, 8, 512 * KB))
    return env, cluster, array


def replay(profile, label):
    env, cluster, array = build(profile)
    trace = bursty_trace(
        num_bursts=6, burst_iops=60_000, burst_ns=2_000_000, gap_ns=3_000_000,
        io_bytes=64 * KB, capacity=array.geometry.stripe_data_bytes * 512,
        read_fraction=0.3, seed=11,
    )
    result = TraceWorkload(array, trace).run()
    print(f"  {label:28s} {result.completed:5d} I/Os  "
          f"p50 {result.latency.p50_ns / 1000:7.0f} us   "
          f"p99 {result.latency.p99_ns / 1000:7.0f} us   "
          f"peak inflight {result.peak_inflight}")
    return result


def qos_demo():
    env, cluster, array = build()
    # noisy neighbour: unthrottled large sequential writes
    noisy = FioWorkload(array, 512 * KB, read_fraction=0.0, queue_depth=32, seed=5)
    stop = env.event()
    for _ in range(32):
        env.process(noisy._worker(stop))
    victim = FioWorkload(array, 16 * KB, read_fraction=1.0, queue_depth=4, seed=6)
    contended = victim.run(measure_ns=10_000_000)
    stop.succeed()

    env2, cluster2, array2 = build()
    limited = RateLimitedDevice(array2, TokenBucket(env2, 500 * MB, burst_bytes=2 << 20))
    noisy2 = FioWorkload(limited, 512 * KB, read_fraction=0.0, queue_depth=32, seed=5)
    stop2 = env2.event()
    for _ in range(32):
        env2.process(noisy2._worker(stop2))
    victim2 = FioWorkload(array2, 16 * KB, read_fraction=1.0, queue_depth=4, seed=6)
    protected = victim2.run(measure_ns=10_000_000)
    stop2.succeed()

    print(f"  victim p99 with unthrottled neighbour: "
          f"{contended.latency.p99_us:7.0f} us")
    print(f"  victim p99 with 500 MB/s budget (§5.5): "
          f"{protected.latency.p99_us:7.0f} us")


def main() -> None:
    print("open-loop bursty trace on dRAID (8 targets):")
    clean = replay(DELL_AGN_MU, "pristine drives")
    gc_profile = DELL_AGN_MU.with_gc(after_bytes=2 * MB, pause_ns=4_000_000)
    gc = replay(gc_profile, "GC-prone drives")
    inflation = gc.latency.p99_ns / max(1, clean.latency.p99_ns)
    print(f"  GC inflates p99 by {inflation:.1f}x — the tail problem "
          f"SWAN/TTFLASH/FusionRAID attack")
    print()
    print("tenant isolation with a token-bucket budget:")
    qos_demo()


if __name__ == "__main__":
    main()
