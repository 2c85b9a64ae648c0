"""Workload generators: FIO-style block workloads, YCSB key-value mixes,
open-loop arrivals and rack tenant streams, all measured through one
window driver (:func:`run_windows`)."""

from repro.workloads.fio import FioResult, FioWorkload
from repro.workloads.generators import (
    LatestGenerator,
    UniformGenerator,
    ZipfianGenerator,
)
from repro.workloads.openloop import OpenLoopResult, OpenLoopWorkload
from repro.workloads.tenants import MultiTenantWorkload, TenantSpec
from repro.workloads.window import run_windows
from repro.workloads.ycsb import YCSB_WORKLOADS, YcsbResult, YcsbWorkload, YcsbSpec

__all__ = [
    "FioResult",
    "FioWorkload",
    "LatestGenerator",
    "MultiTenantWorkload",
    "OpenLoopResult",
    "OpenLoopWorkload",
    "TenantSpec",
    "UniformGenerator",
    "YCSB_WORKLOADS",
    "YcsbResult",
    "YcsbSpec",
    "YcsbWorkload",
    "ZipfianGenerator",
    "run_windows",
]
