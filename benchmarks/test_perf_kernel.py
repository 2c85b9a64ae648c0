"""Kernel microbenchmark: events/sec on the canonical benchkit workloads.

Runs the fixed :mod:`repro.sim.benchkit` workloads (ping-pong, timeout
churn, parallel bandwidth channel), saves the numbers under
``benchmarks/results/BENCH_kernel.json`` (git-ignored: they are this
machine's) and asserts only a generous floor
— absolute throughput is hardware-dependent.  The real-byte kernels of
functional mode (CRC-32C, the GF(2^8) block multiply, RS encode and
single-shard RS decode) get the same kind of floor, and so does the
per-stripe decision every controller makes on every op (map an extent,
plan its write).  The trajectory of both is the per-layer ledger of ``bench/run.py
--trace`` (``sim.core.*_ev_per_s`` and ``*_mb_s`` rows; ``bench/README.md``).
"""

import json
import pathlib
import time

import numpy as np
import pytest

from repro.ec.gf import GF
from repro.ec.rs import ReedSolomon
from repro.raid import RaidGeometry, RaidLevel
from repro.raid.modes import plan_write
from repro.sim.benchkit import KERNEL_WORKLOADS, run_workload
from repro.storage.integrity import crc32c

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Generous floors (events/s) — an order of magnitude below the measured
#: optimized-kernel numbers, so the assertion only catches catastrophic
#: regressions (e.g. an accidental O(n) scan in the dispatch loop).
FLOORS = {
    "pingpong": 100_000,
    "timeout_churn": 80_000,
    "bandwidth_sweep": 40_000,
}


@pytest.mark.parametrize("name", sorted(KERNEL_WORKLOADS))
def test_kernel_events_per_second(name):
    events_per_s, ops = run_workload(name, repeats=2)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_kernel.json"
    recorded = json.loads(path.read_text()) if path.exists() else {}
    recorded[name] = {"events_per_s": round(events_per_s, 1), "operations": ops}
    path.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"{name}: {events_per_s:,.0f} events/s")
    assert events_per_s > FLOORS[name], (
        f"{name} fell below the catastrophic-regression floor: "
        f"{events_per_s:,.0f} < {FLOORS[name]:,} events/s"
    )


#: MB/s floors of the byte kernels: a third to a fifth of what the numpy
#: kernels measure on a slow shared runner, and well above what a
#: byte-at-a-time Python loop (9 MB/s CRC, 60 MB/s full-stripe decode) can do.
#: The GF multiply is a byte translation (about 2 200 MB/s on 32 KiB, and
#: RS(5,3) encode about 650 MB/s of data, on a 2-CPU x86 container); the
#: floors catch a fall back to a per-element path.
BYTE_FLOORS_MB_S = {
    "crc32c_4k": 30.0,
    "rs_decode_one_5x32k": 150.0,
    "gf_mul_32k": 500.0,
    "rs_encode_5x3_32k": 150.0,
}


def _best_mb_s(fn, nbytes: int, calls: int = 20, repeats: int = 5) -> float:
    fn()
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - started) / calls)
    return nbytes / best / 1e6


def test_byte_kernel_floors():
    rng = np.random.default_rng(12)
    block = rng.integers(0, 256, 4096, dtype=np.uint8)
    rs = ReedSolomon(5, 3)
    data = [rng.integers(0, 256, 32 * 1024, dtype=np.uint8) for _ in range(5)]
    shards = dict(enumerate(data + rs.encode(data)))
    survivors = {i: s for i, s in shards.items() if i not in (0, 2, 4)}
    assert np.array_equal(rs.decode_one(2, survivors, 32 * 1024), data[2])
    assert np.array_equal(
        GF.mul_bytes(29, data[0]), GF.mul_table[29][data[0]]
    )
    measured = {
        "crc32c_4k": _best_mb_s(lambda: crc32c(block), len(block)),
        "gf_mul_32k": _best_mb_s(lambda: GF.mul_bytes(29, data[0]), 32 * 1024),
        # MB/s of the five data shards the three parities are computed from
        "rs_encode_5x3_32k": _best_mb_s(lambda: rs.encode(data), 5 * 32 * 1024),
        # MB/s of the five source shards one lost shard is rebuilt from
        "rs_decode_one_5x32k": _best_mb_s(
            lambda: rs.decode_one(2, survivors, 32 * 1024), 5 * 32 * 1024
        ),
    }
    for name, mb_s in measured.items():
        print(f"{name}: {mb_s:,.0f} MB/s")
        assert mb_s > BYTE_FLOORS_MB_S[name], (
            f"{name} fell below the catastrophic-regression floor: "
            f"{mb_s:,.1f} < {BYTE_FLOORS_MB_S[name]} MB/s"
        )


#: Extents mapped and planned per second on the paper's geometry (RAID-5,
#: 8 drives, 512 KiB chunks), healthy array: a third to a fifth of what the
#: one-pass mapper and the O(1) healthy-stripe plan measure (about 175 000/s
#: for a 4 KiB extent and 80 000/s for a 3 584 KiB full stripe, seven
#: segments, on a 2-CPU x86 container), so the gate catches a catastrophic
#: fall (a per-byte or per-stripe scan), not ordinary variance.
MAP_PLAN_FLOORS_PER_S = {
    "map_plan_4k": 50_000,
    "map_plan_full_stripe": 25_000,
}


def _best_per_s(fn, calls: int = 5_000, repeats: int = 5) -> float:
    fn(0)
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for i in range(calls):
            fn(i)
        best = min(best, time.perf_counter() - started)
    return calls / best


def test_map_and_plan_floors():
    geometry = RaidGeometry(RaidLevel.RAID5, 8, 512 * 1024)
    stripe = geometry.stripe_data_bytes
    healthy = frozenset()

    def map_and_plan(offset: int, length: int):
        return [plan_write(geometry, ext, healthy)
                for ext in geometry.map_extent(offset, length)]

    (plan,) = map_and_plan(stripe, stripe)
    assert plan.mode.value == "full" and len(plan.data_drives) == 7
    measured = {
        "map_plan_4k": _best_per_s(lambda i: map_and_plan(i * 20_480, 4096)),
        "map_plan_full_stripe": _best_per_s(
            lambda i: map_and_plan(i * stripe, stripe)
        ),
    }
    for name, per_s in measured.items():
        print(f"{name}: {per_s:,.0f} extents/s")
        assert per_s > MAP_PLAN_FLOORS_PER_S[name], (
            f"{name} fell below the catastrophic-regression floor: "
            f"{per_s:,.0f} < {MAP_PLAN_FLOORS_PER_S[name]:,} extents/s"
        )
