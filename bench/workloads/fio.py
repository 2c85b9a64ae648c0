"""The two closed-loop block workloads, timing mode.

``fio_small_mixed`` is the per-I/O overhead regime (4 KiB random,
half reads): the sim kernel and the controller RMW path do nearly all
the work and the EC kernels none.  ``fio_large_degraded`` uses the same
layers differently: one member failed, I/Os from 128 KiB to a full
stripe, so full-stripe/RCW writes, degraded reads and the peer-to-peer
reduce move many bytes per calendar event and the NICs and drives bound
the simulated throughput.

Both run Linux MD, the SPDK POC and dRAID back to back on the identical
op list, 32 simulated clients, closed loop, no warm-up (timing mode has
no caches to fill).
"""

from __future__ import annotations

import random
from typing import Dict, List

from bench.harness import (
    HostClock, Meter, Op, SystemRun, block_issuer, closed_loop, datapath_counters,
    end_to_end, io_errors, resource_counters, system_layers,
)

KB = 1024
SERVERS = 8
CHUNK = 512 * KB
CLIENTS = 32
#: (controller name as the program spells it, ledger name, family)
SYSTEMS = (("Linux", "linux", "baseline"), ("SPDK", "spdk", "baseline"),
           ("dRAID", "draid", "draid"))
STRIPE = (SERVERS - 1) * CHUNK
#: addressable bytes the offsets are drawn over (4096 stripes = 14 GiB)
CAPACITY = STRIPE * 4096

SMALL_OPS = 4000
SMALL_READ_SHARE = 0.5
LARGE_OPS = 1500
LARGE_SIZES = (128 * KB, 512 * KB, STRIPE)
LARGE_READ_SHARE = 0.3


def _ops(rng: random.Random, count: int, sizes, read_share: float) -> List[Op]:
    """Exact mix (every size gets ``count/len(sizes)`` ops, ``read_share`` of
    them reads); the seed chooses order and offsets only, so the
    write-mode mix does not wander from seed to seed."""
    kinds = []
    per_size = count // len(sizes)
    for size in sizes:
        reads = round(per_size * read_share)
        kinds += [(True, size)] * reads + [(False, size)] * (per_size - reads)
    rng.shuffle(kinds)
    return [(is_read, rng.randrange(CAPACITY // size) * size, size)
            for is_read, size in kinds]


class FioWorkload:
    #: span name -> host-timed per-layer row this workload adds
    host_layers: Dict[str, str] = {}

    def __init__(self, name: str, count: int, sizes, read_share: float,
                 failed_member=None) -> None:
        self.name = name
        self.count = count
        self.sizes = sizes
        self.read_share = read_share
        self.failed_member = failed_member

    def frozen_ops(self, scale: int) -> int:
        per_size = self.count // scale // len(self.sizes)
        return per_size * len(self.sizes) * len(SYSTEMS)

    def setup(self, seed: int, scale: int, spans, reference: bool = True) -> Dict:
        with spans.span("setup.inputs"):
            ops = _ops(random.Random(seed), self.count // scale, self.sizes,
                       self.read_share)
        with spans.span("setup.import"):
            from repro import build_testbed
        with spans.span("setup.build"):
            beds = []
            for system, label, family in SYSTEMS:
                env, cluster, array = build_testbed(
                    system, servers=SERVERS, chunk_bytes=CHUNK
                )
                if self.failed_member is not None:
                    array.fail_drive(self.failed_member)
                beds.append((SystemRun(label, family, clock=HostClock(reference)),
                             env, cluster, array))
        return {"ops": ops, "beds": beds, "errors": io_errors()}

    def measure(self, state: Dict, spans) -> List[SystemRun]:
        runs = []
        for run, env, cluster, array in state["beds"]:
            with spans.span(f"run.measure.{run.name}"):
                with Meter(env, run):
                    closed_loop(env, [iter(state["ops"])] * CLIENTS,
                                block_issuer(env, array, run, state["errors"]))
            run.counters = resource_counters(cluster, run.sim_ns)
            run.datapath = datapath_counters(array)
            runs.append(run)
        return runs

    def finish(self, state: Dict, runs: List[SystemRun], spans):
        return end_to_end(runs), system_layers(runs)


SMALL = FioWorkload("fio_small_mixed", SMALL_OPS, (4 * KB,), SMALL_READ_SHARE)
LARGE = FioWorkload("fio_large_degraded", LARGE_OPS, LARGE_SIZES, LARGE_READ_SHARE,
                    failed_member=0)
