"""Quick calibration harness used during development (not a deliverable)."""

import time

from repro import RaidLevel, build_testbed
from repro.workloads import FioWorkload

KB = 1024


def run_point(system, servers, io_size, read_fraction, qd=32, level=RaidLevel.RAID5,
              chunk=512 * KB, failed=0, measure_ns=30_000_000):
    _, _, array = build_testbed(system, servers, level, chunk)
    for i in range(failed):
        array.fail_drive(i)
    fio = FioWorkload(array, io_size, read_fraction=read_fraction, queue_depth=qd)
    return fio.run(measure_ns=measure_ns)


if __name__ == "__main__":
    t0 = time.time()
    for system in ["linux", "spdk", "draid"]:
        r = run_point(system, 6, 128 * KB, read_fraction=1.0)
        print(f"read  6t 128K {system:6s}: {r.bandwidth_mb_s:8.0f} MB/s  "
              f"lat {r.latency.mean_us:7.0f} us  ops {r.ops_completed}")
    for system in ["linux", "spdk", "draid"]:
        r = run_point(system, 8, 128 * KB, read_fraction=0.0)
        print(f"write 8t 128K {system:6s}: {r.bandwidth_mb_s:8.0f} MB/s  "
              f"lat {r.latency.mean_us:7.0f} us  ops {r.ops_completed}")
    print(f"[{time.time() - t0:.1f}s]")
