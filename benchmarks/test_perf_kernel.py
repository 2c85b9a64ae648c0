"""Kernel microbenchmark: events/sec on the canonical benchkit workloads.

Runs the fixed :mod:`repro.sim.benchkit` workloads (ping-pong, timeout
churn, parallel bandwidth channel), saves the numbers under
``benchmarks/results/BENCH_kernel.json`` (git-ignored: they are this
machine's) and asserts only a generous floor
— absolute throughput is hardware-dependent.  The real-byte kernels of
functional mode (CRC-32C, single-shard RS decode) get the same kind of
floor.  The trajectory of both is the per-layer ledger of ``bench/run.py
--trace`` (``sim.core.*_ev_per_s`` and ``*_mb_s`` rows; ``bench/README.md``).
"""

import json
import pathlib
import time

import numpy as np
import pytest

from repro.ec.rs import ReedSolomon
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
#: byte-at-a-time Python loop (9 MB/s CRC, 60 MB/s full-stripe decode) can do
BYTE_FLOORS_MB_S = {"crc32c_4k": 30.0, "rs_decode_one_5x32k": 150.0}


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
    measured = {
        "crc32c_4k": _best_mb_s(lambda: crc32c(block), len(block)),
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
