"""``ycsb_lsm``: the LSM key-value store on BlobFS on dRAID RAID-5.

The ``apps`` layer and the cost of set-up.  fig19's store scaled down
(same ratios: dataset about 1.2x the block cache, memtable a third of
the cache); set-up preloads every key and lets flush and compaction
settle, which is most of ``setup_s`` by design, so work moved into or out
of set-up shows.  The measured phase covers both sides of the block
cache in one run: YCSB-C point reads over a Zipfian hot set that fits the
cache, then YCSB-A (half updates: WAL, flush, compaction) over the whole
key space, whose background compaction gives the latency tail a median
hides.  16 clients, closed loop.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from bench.harness import (
    HostClock, Meter, SystemRun, closed_loop, datapath_counters, end_to_end,
    io_errors, resource_counters, system_layers,
)

KB = 1024
MB = 1024 * KB
CLIENTS = 16
#: fig19 uses 150 000 keys, a 16 MiB memtable and a 48 MiB block cache
KEYS = 30_000
MEMTABLE_BYTES = 1 * MB
BLOCK_CACHE_BYTES = 9 * MB
VALUE_BYTES = 1024
#: the YCSB-C phase draws from this many keys; each sits in one 4 KiB
#: block, so the hot set (at most 6.25 MiB) fits the 7.5 MiB cache while the
#: 23.4 MiB dataset does not
HOT_KEYS = 2_000
READ_OPS = 30_000
MIXED_OPS = 20_000
UPDATE_SHARE = 0.5

#: (is_update, key)
KvOp = Tuple[bool, int]


def _inputs(seed: int, scale: int) -> Dict[str, List[KvOp]]:
    from repro.workloads.generators import ZipfianGenerator

    hot = ZipfianGenerator(HOT_KEYS, seed=seed * 2 + 1)
    everywhere = ZipfianGenerator(KEYS, seed=seed * 2 + 2)
    mixed = MIXED_OPS // scale
    updates = round(mixed * UPDATE_SHARE)
    flags = [True] * updates + [False] * (mixed - updates)
    random.Random(seed).shuffle(flags)
    return {
        "read": [(False, hot.next() % HOT_KEYS) for _ in range(READ_OPS // scale)],
        "mixed": [(flag, everywhere.next() % KEYS) for flag in flags],
    }


class YcsbLsm:
    name = "ycsb_lsm"
    host_layers = {"setup.preload": "apps.lsm.preload_s"}

    def frozen_ops(self, scale: int) -> int:
        return READ_OPS // scale + MIXED_OPS // scale

    def setup(self, seed: int, scale: int, spans, reference: bool = True) -> Dict:
        with spans.span("setup.import"):
            from repro import build_testbed
            from repro.apps import BlobFs, LsmConfig, LsmKvStore
        with spans.span("setup.inputs"):
            inputs = _inputs(seed, scale)
        with spans.span("setup.build"):
            env, cluster, array = build_testbed("dRAID", servers=8)
            store = LsmKvStore(
                BlobFs(array, cluster_bytes=1024 * KB),
                LsmConfig(value_bytes=VALUE_BYTES, memtable_bytes=MEMTABLE_BYTES,
                          block_cache_bytes=BLOCK_CACHE_BYTES),
            )
        with spans.span("setup.preload"):
            def preload():
                for key in range(KEYS):
                    yield store.put(key)

            env.run(until=env.process(preload()))
            # an empty calendar means flush and compaction have settled
            env.run()
            store.warm_cache()
            cluster.reset_accounting()
            array.stats.reset()
        return {"env": env, "cluster": cluster, "array": array, "store": store,
                "inputs": inputs, "errors": io_errors(),
                "before": dict(store.stats), "reference": reference}

    def measure(self, state: Dict, spans) -> List[SystemRun]:
        env, store = state["env"], state["store"]
        run = SystemRun("draid", "draid", clock=HostClock(state["reference"]))
        errors = state["errors"]

        def issue(op: KvOp):
            is_update, key = op
            start = env.now
            run.ops += 1
            run.user_bytes += VALUE_BYTES
            try:
                yield store.put(key) if is_update else store.get(key)
            except errors:
                run.failed += 1
            else:
                run.good += 1
                run.latencies_ns.append(env.now - start)
            run.clock.tick()

        with Meter(env, run):
            with spans.span("run.measure.read"):
                closed_loop(env, [iter(state["inputs"]["read"])] * CLIENTS, issue)
            with spans.span("run.measure.mixed"):
                closed_loop(env, [iter(state["inputs"]["mixed"])] * CLIENTS, issue)
            busy_ns = env.now
            with spans.span("run.drain"):
                # background flush/compaction the updates started
                env.run()
        # throughput over the time clients were active, not the drain
        run.sim_ns -= env.now - busy_ns
        run.counters = resource_counters(state["cluster"], run.sim_ns)
        run.datapath = datapath_counters(state["array"])
        return [run]

    def finish(self, state: Dict, runs: List[SystemRun], spans):
        store, before = state["store"], state["before"]
        delta = {k: v - before.get(k, 0) for k, v in store.stats.items()}
        layers = system_layers(runs)
        lookups = delta["cache_hits"] + delta["sst_reads"]
        layers["apps.lsm.flushes"] = delta["flushes"]
        layers["apps.lsm.compactions"] = delta["compactions"]
        layers["apps.lsm.cache_hit_share"] = (
            delta["cache_hits"] / lookups if lookups else 0.0
        )
        layers["apps.lsm.sst_reads_per_get"] = (
            delta["sst_reads"] / delta["gets"] if delta["gets"] else 0.0
        )
        # drive bytes read and written (WAL, flush, compaction, block reads)
        # per byte the clients put or got
        layers["apps.blobfs.bytes_per_user_byte"] = (
            runs[0].counters["drive_bytes"] / runs[0].user_bytes
        )
        return end_to_end(runs), layers


YCSB_LSM = YcsbLsm()
