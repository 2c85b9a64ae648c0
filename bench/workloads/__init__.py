"""The benchmark's five workloads, in the order they are reported."""

from bench.workloads import fio, func_recovery, rack_tenancy, ycsb_lsm

WORKLOADS = {
    w.name: w
    for w in (fio.SMALL, fio.LARGE, func_recovery.FUNC_RECOVERY, ycsb_lsm.YCSB_LSM,
              rack_tenancy.RACK_TENANCY)
}
