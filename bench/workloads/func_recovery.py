"""``func_recovery``: real bytes through four arrays, a failure, an
online rebuild, a scrub and a full read-back.

Functional mode with eager CRC-32C armed, so ``ec.*``,
``storage.integrity`` and ``raid.rebuild``/``raid.scrub`` do most of the
work and the sim kernel little: the opposite split to the fio workloads.
It is also the correctness anchor.  Every read is compared with a shadow
model kept here; a byte mismatch, a dirty scrub stripe or a typed I/O
error counts as a failed op.

Each of the 8 closed-loop clients owns a disjoint run of stripes, so no
two in-flight ops overlap and the shadow model needs no ordering rule.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import numpy as np

from bench.harness import (
    HostClock, Meter, SystemRun, closed_loop, datapath_counters, end_to_end,
    io_errors, resource_counters, system_layers,
)

KB = 1024
SERVERS = 8
STRIPES = 24
CLIENTS = 8
#: op counts of a lightly loaded array: (mixed, degraded reads, foreground
#: writes racing the rebuild)
FEW_OPS = (90, 45, 15)
MANY_OPS = (360, 180, 60)
#: one op in this many is a whole stripe
FULL_STRIPE_EVERY = 6
#: pause after each rebuilt stripe, so the foreground writes race the
#: sweep instead of queueing behind it
REBUILD_THROTTLE_NS = 20_000
FOREGROUND_THINK_NS = 30_000
#: (ledger name, family, members failed, chunk bytes, eager CRC, partial
#: sizes, op counts)
#:
#: The pure-Python CRC-32C runs at about 4 MB/s, so an array that checksums
#: every write eagerly spends nearly all its host time there.  Two arrays do
#: exactly that on 4 KiB chunks (the cost a user of the armed functional mode
#: pays); the two erasure-coded arrays arm the store lazily (verification
#: hooks run, no CRC per write) on 32 KiB chunks and take more ops, so RS/LRC
#: encode, partial parity and decode are a visible share as well.
SMALL_IO = (4 * KB, 8 * KB, 12 * KB, 16 * KB)
LARGE_IO = (4 * KB, 8 * KB, 16 * KB, 32 * KB, 64 * KB)
ARRAYS = (
    ("raid6", "draid", (1,), 4 * KB, True, SMALL_IO, FEW_OPS),
    ("rs", "draid", (1, 4), 32 * KB, False, LARGE_IO, MANY_OPS),
    ("lrc", "draid", (1,), 32 * KB, False, LARGE_IO, MANY_OPS),
    ("spdk", "baseline", (1,), 4 * KB, True, SMALL_IO, FEW_OPS),
)

#: a functional op: (is_read, byte offset, byte length, payload offset)
FuncOp = Tuple[bool, int, int, int]


def _build(name: str, chunk: int, eager: bool):
    from repro.baselines import SpdkRaid
    from repro.cluster import ClusterConfig, build_cluster
    from repro.draid import DraidArray, EcDraidArray, EcGeometry
    from repro.draid.ec_array import LrcDraidArray
    from repro.raid.geometry import RaidGeometry, RaidLevel
    from repro.sim import Environment
    from repro.storage.integrity import IntegrityStore

    env = Environment()
    cluster = build_cluster(
        env, ClusterConfig(num_servers=SERVERS, functional_capacity=STRIPES * chunk)
    )
    IntegrityStore(chunk, eager=eager).attach(cluster)
    if name == "raid6":
        array = DraidArray(cluster, RaidGeometry(RaidLevel.RAID6, SERVERS, chunk))
    elif name == "rs":
        array = EcDraidArray(cluster, EcGeometry(SERVERS, chunk, num_parity=3))
    elif name == "lrc":
        array = LrcDraidArray(cluster, EcGeometry(SERVERS, chunk, num_parity=3),
                              local_groups=2)
    else:
        array = SpdkRaid(cluster, RaidGeometry(RaidLevel.RAID5, SERVERS, chunk))
    return env, cluster, array


def _client_ops(rng: random.Random, count: int, stripe_bytes: int, sizes,
                read_share: float, pool_bytes: int, clients: int = CLIENTS
                ) -> List[List[FuncOp]]:
    """``count`` ops dealt round-robin to ``clients`` clients, each confined
    to its own ``STRIPES / clients`` stripes.  Read share and size mix are
    exact; the seed chooses their order, the offsets and the payloads."""
    reads = round(count * read_share)
    flags = [True] * reads + [False] * (count - reads)
    lengths = [stripe_bytes if i % FULL_STRIPE_EVERY == 0 else sizes[i % len(sizes)]
               for i in range(count)]
    rng.shuffle(flags)
    rng.shuffle(lengths)
    region = STRIPES // clients * stripe_bytes
    feeds: List[List[FuncOp]] = [[] for _ in range(clients)]
    for i, (is_read, nbytes) in enumerate(zip(flags, lengths)):
        client = i % clients
        align = stripe_bytes if nbytes == stripe_bytes else 4 * KB
        offset = rng.randrange((region - nbytes) // align + 1) * align
        feeds[client].append((is_read, client * region + offset, nbytes,
                              rng.randrange(pool_bytes - nbytes)))
    return feeds


class FuncRecovery:
    name = "func_recovery"
    host_layers: Dict[str, str] = {}

    def frozen_ops(self, scale: int) -> int:
        # scrubbed stripes and read-back stripes count as ops at every scale
        return sum(sum(count // scale for count in array[-1]) + 2 * STRIPES
                   for array in ARRAYS)

    def setup(self, seed: int, scale: int, spans, reference: bool = True) -> Dict:
        with spans.span("setup.import"):
            import repro  # noqa: F401  (the whole package, as a user pays for it)
        beds = []
        for name, family, victims, chunk, eager, sizes, counts in ARRAYS:
            with spans.span("setup.build"):
                env, cluster, array = _build(name, chunk, eager)
            stripe_bytes = array.geometry.stripe_data_bytes
            with spans.span("setup.inputs"):
                rng = random.Random(f"{seed}:{name}")
                mixed, degraded, foreground = (count // scale for count in counts)
                pool = np.random.default_rng([seed, len(beds)]).integers(
                    0, 256, 2 * 1024 * KB, dtype=np.uint8
                )
                model = np.random.default_rng([seed, len(beds), 1]).integers(
                    0, 256, STRIPES * stripe_bytes, dtype=np.uint8
                )
                inputs = {
                    "mixed": _client_ops(rng, mixed, stripe_bytes, sizes,
                                         0.5, len(pool)),
                    "degraded": _client_ops(rng, degraded, stripe_bytes,
                                            sizes, 1.0, len(pool)),
                    "foreground": _client_ops(rng, foreground,
                                              stripe_bytes, sizes, 0.0, len(pool),
                                              clients=1),
                    "readback": [
                        [(True, s * stripe_bytes, stripe_bytes, 0)
                         for s in range(c, STRIPES, CLIENTS)]
                        for c in range(CLIENTS)
                    ],
                }
            with spans.span("setup.preload"):
                env.run(until=array.write(0, len(model), model.copy()))
                cluster.reset_accounting()
                array.stats.reset()
            beds.append({
                "run": SystemRun(name, family, clock=HostClock(reference)),
                "env": env, "cluster": cluster,
                "array": array, "victims": victims, "pool": pool, "model": model,
                "inputs": inputs, "rebuilds": [], "scrub_bad": 0,
            })
        return {"beds": beds, "errors": io_errors()}

    def _issuer(self, bed: Dict, errors: tuple):
        env, array, run = bed["env"], bed["array"], bed["run"]
        pool, model = bed["pool"], bed["model"]

        def issue(op: FuncOp):
            is_read, offset, nbytes, at = op
            start = env.now
            run.ops += 1
            run.user_bytes += nbytes
            try:
                if is_read:
                    data = yield array.read(offset, nbytes)
                    ok = np.array_equal(data, model[offset:offset + nbytes])
                else:
                    payload = pool[at:at + nbytes]
                    yield array.write(offset, nbytes, payload.copy())
                    model[offset:offset + nbytes] = payload
                    ok = True
            except errors:
                ok = False
            if ok:
                run.good += 1
                run.latencies_ns.append(env.now - start)
            else:
                run.failed += 1
            run.clock.tick()

        return issue

    def _rebuild(self, bed: Dict, issue):
        """Hot-spare rebuild of every failed member, racing foreground writes."""
        from repro.raid.rebuild import RebuildJob

        env, array = bed["env"], bed["array"]

        def sweep():
            for victim in bed["victims"]:
                stats = yield RebuildJob(
                    array, victim, num_stripes=STRIPES,
                    throttle_ns=REBUILD_THROTTLE_NS,
                ).start()
                bed["rebuilds"].append(stats)
                bed["run"].clock.tick()

        def writer():
            for op in bed["inputs"]["foreground"][0]:
                yield from issue(op)
                yield env.timeout(FOREGROUND_THINK_NS)

        env.run(until=env.all_of([env.process(sweep()), env.process(writer())]))

    def measure(self, state: Dict, spans) -> List[SystemRun]:
        from repro.raid.scrub import scrub_array

        runs = []
        for bed in state["beds"]:
            env, array, run = bed["env"], bed["array"], bed["run"]
            issue = self._issuer(bed, state["errors"])
            with spans.span(f"run.measure.{run.name}"), Meter(env, run):
                closed_loop(env, bed["inputs"]["mixed"], issue)
                for victim in bed["victims"]:
                    array.fail_drive(victim)
                closed_loop(env, bed["inputs"]["degraded"], issue)
                self._rebuild(bed, issue)
                report = scrub_array(
                    bed["cluster"].drives(), array.geometry, STRIPES,
                    code=getattr(array, "code", None),
                )
                bed["scrub_bad"] = len(report.bad_stripes)
                run.ops += STRIPES
                run.good += STRIPES - bed["scrub_bad"]
                run.failed += bed["scrub_bad"]
                run.clock.tick()
                closed_loop(env, bed["inputs"]["readback"], issue)
            run.counters = resource_counters(bed["cluster"], run.sim_ns)
            run.datapath = datapath_counters(array)
            runs.append(run)
        return runs

    def finish(self, state: Dict, runs: List[SystemRun], spans):
        layers = system_layers(runs)
        rebuilds = [stats for bed in state["beds"] for stats in bed["rebuilds"]]
        elapsed = sum(s.elapsed_ns for s in rebuilds)
        layers["raid.rebuild.sim_ms"] = elapsed / 1e6
        layers["raid.rebuild.sim_mb_s"] = (
            sum(s.bytes_written for s in rebuilds) * 1e3 / elapsed if elapsed else 0.0
        )
        layers["raid.scrub.bad_stripes"] = sum(b["scrub_bad"] for b in state["beds"])
        layers["storage.integrity.verify_fail"] = sum(
            b["array"].integrity_stats.total_detected
            + b["array"].integrity_stats.unrecoverable
            for b in state["beds"]
        )
        return end_to_end(runs), layers


FUNC_RECOVERY = FuncRecovery()
