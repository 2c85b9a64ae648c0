"""An LSM-tree key-value store on BlobFS — the RocksDB stand-in (§9.6).

Reproduces the I/O *structure* that shapes Figure 19: point reads hit the
memtable, then the block cache, then per-level SSTables (bloom-filtered
4 KiB block reads); writes append to a WAL and fill a memtable that flushes
to level-0 SSTs; a background compactor merges level 0 into level 1 with
large sequential reads and writes.  A single instance with internal
serialization (the paper runs exactly one, since BlobFS supports only one)
caps achievable speedups, which is why Figure 19's gains (~1.27x) are lower
than the raw-array gains — the same cap emerges here from the WAL/flush
serialization.

Key membership is tracked exactly (real key sets per SST), so lookups read
precisely the files a real LSM would consult.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain
from typing import List, Optional, Set

from repro.apps.blobfs import BlobFs
from repro.sim.core import AllOf, Environment, Event


@dataclass(frozen=True)
class LsmConfig:
    """Tuning knobs of the LSM tree."""

    value_bytes: int = 1024
    block_bytes: int = 4096
    memtable_bytes: int = 4 * 1024 * 1024
    level0_compaction_trigger: int = 4
    level_fanout: int = 8
    block_cache_bytes: int = 64 * 1024 * 1024
    bloom_false_positive: float = 0.01
    #: WAL group-commit batch (records per fsync-sized append)
    wal_batch: int = 8
    #: host CPU per point lookup (memtable/cache path) — RocksDB-scale
    get_cpu_ns: int = 1_500
    #: host CPU per insert/update (memtable + WAL bookkeeping)
    put_cpu_ns: int = 2_000
    #: host CPU per key returned by a range scan (iterator step)
    scan_cpu_ns_per_key: int = 200


@dataclass
class SsTable:
    """One immutable sorted run."""

    blob_id: int
    keys: Set[int]
    size_bytes: int
    level: int
    seq: int
    #: ``size_bytes`` in cache blocks (an SST is at least one block)
    blocks: int


class _BlockCache:
    """LRU cache of (sst, block) ids."""

    def __init__(self, capacity_bytes: int, block_bytes: int) -> None:
        self.capacity_blocks = max(1, capacity_bytes // block_bytes)
        self._lru: "OrderedDict[tuple, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, key: tuple) -> bool:
        """True on hit; inserts on miss (read-through)."""
        try:
            self._lru.move_to_end(key)
        except KeyError:
            pass
        else:
            self.hits += 1
            return True
        self.misses += 1
        self._lru[key] = None
        if len(self._lru) > self.capacity_blocks:
            self._lru.popitem(last=False)
        return False

    def invalidate_sst(self, blob_id: int) -> None:
        stale = [k for k in self._lru if k[0] == blob_id]
        for k in stale:
            del self._lru[k]


class LsmKvStore:
    """A single-instance LSM KV store over BlobFS."""

    def __init__(self, blobfs: BlobFs, config: Optional[LsmConfig] = None, seed: int = 5) -> None:
        self.fs = blobfs
        self.env: Environment = blobfs.env
        self.config = config or LsmConfig()
        self._memtable: Set[int] = set()
        self._immutable: List[Set[int]] = []
        self._levels: List[List[SsTable]] = [[], []]
        self._seq = 0
        self._wal_pending = 0
        self._wal_blob: Optional[int] = None
        self.cache = _BlockCache(self.config.block_cache_bytes, self.config.block_bytes)
        self._flush_lock = False
        self._compaction_lock = False
        import random

        self._rng = random.Random(seed)
        # stats
        self.stats = {
            "gets": 0, "puts": 0, "memtable_hits": 0, "cache_hits": 0,
            "sst_reads": 0, "flushes": 0, "compactions": 0, "bloom_skips": 0,
        }
        self._cpu = blobfs.array.cluster.host.pick_core()
        self._init_done = self.env.process(self._init(), name="lsm.init")

    def _init(self):
        self._wal_blob = yield self.fs.create_blob("wal")

    # -- write path -------------------------------------------------------

    def put(self, key: int) -> Event:
        """Insert/update ``key`` (WAL append + memtable; may trigger flush)."""
        self.stats["puts"] += 1
        return self.env.process(self._put(key), name="lsm.put")

    def _put(self, key: int):
        if self._wal_blob is None:
            yield self._init_done
        cfg = self.config
        yield self._cpu.execute(cfg.put_cpu_ns)
        self._wal_pending += 1
        if self._wal_pending >= cfg.wal_batch:
            # group commit: one WAL append covers the batch
            self._wal_pending = 0
            payload = None
            nbytes = cfg.wal_batch * (cfg.value_bytes + 32)
            if self.fs.array.functional:
                payload = b"\0" * nbytes
            yield self.fs.append(self._wal_blob, nbytes, data=payload)
        self._memtable.add(key)
        if len(self._memtable) * cfg.value_bytes >= cfg.memtable_bytes:
            frozen = self._memtable
            self._memtable = set()
            self._immutable.append(frozen)
            if not self._flush_lock:
                self.env.process(self._flush(), name="lsm.flush")

    def _flush(self):
        """Flush immutable memtables to level-0 SSTs (sequential writes)."""
        self._flush_lock = True
        cfg = self.config
        while self._immutable:
            frozen = self._immutable.pop(0)
            self.stats["flushes"] += 1
            self._seq += 1
            blob_id = yield self.fs.create_blob(f"sst-{self._seq}")
            size = max(cfg.block_bytes, len(frozen) * cfg.value_bytes)
            payload = b"\0" * size if self.fs.array.functional else None
            yield self.fs.append(blob_id, size, data=payload)
            self._levels[0].append(
                SsTable(blob_id, frozen, size, 0, self._seq, size // cfg.block_bytes)
            )
            if len(self._levels[0]) >= cfg.level0_compaction_trigger and not self._compaction_lock:
                self.env.process(self._compact(), name="lsm.compact")
        self._flush_lock = False

    def _compact(self):
        """Merge all level-0 SSTs plus overlapping level-1 SSTs."""
        self._compaction_lock = True
        cfg = self.config
        while len(self._levels[0]) >= cfg.level0_compaction_trigger:
            self.stats["compactions"] += 1
            inputs = self._levels[0] + self._levels[1]
            self._levels[0] = []
            self._levels[1] = []
            # read every input sequentially
            reads = [self.fs.read(sst.blob_id, 0, sst.size_bytes) for sst in inputs]
            yield AllOf(self.env, reads)
            merged: Set[int] = set()
            for sst in inputs:
                merged |= sst.keys
            self._seq += 1
            blob_id = yield self.fs.create_blob(f"sst-{self._seq}")
            size = max(cfg.block_bytes, len(merged) * cfg.value_bytes)
            payload = b"\0" * size if self.fs.array.functional else None
            yield self.fs.append(blob_id, size, data=payload)
            # a new list, not an append to the empty one: a lookup in flight
            # keeps the level 1 it started with (see _get)
            self._levels[1] = [
                SsTable(blob_id, merged, size, 1, self._seq, size // cfg.block_bytes)
            ]
            for sst in inputs:
                self.cache.invalidate_sst(sst.blob_id)
                yield self.fs.delete_blob(sst.blob_id)
        self._compaction_lock = False

    def warm_cache(self) -> int:
        """Populate the block cache with every SST block (zero simulated time).

        Models a store whose cache was warmed by prior traffic — the state
        YCSB measurements are normally taken in.  Returns blocks inserted.
        """
        inserted = 0
        for level in self._levels:
            for sst in level:
                for block in range(sst.blocks):
                    self.cache.access((sst.blob_id, block))
                    inserted += 1
        return inserted

    # -- read path -----------------------------------------------------------

    def get(self, key: int) -> Event:
        """Point lookup."""
        self.stats["gets"] += 1
        return self.env.process(self._get(key), name="lsm.get")

    def scan(self, start_key: int, count: int) -> Event:
        """Range scan: read ``count`` consecutive keys from ``start_key``.

        LSM scans merge-iterate every level: each overlapping SSTable
        contributes sequential block reads covering the key range (no
        bloom filters — they only help point lookups).  Returns the
        number of keys found.
        """
        if count < 1:
            raise ValueError(f"scan count must be >= 1, got {count}")
        self.stats["scans"] = self.stats.get("scans", 0) + 1
        return self.env.process(self._scan(start_key, count), name="lsm.scan")

    def _scan(self, start_key: int, count: int):
        cfg = self.config
        yield self._cpu.execute(cfg.get_cpu_ns + cfg.scan_cpu_ns_per_key * count)
        wanted = set(range(start_key, start_key + count))
        found = len(wanted & self._memtable)
        for immutable in self._immutable:
            found += len(wanted & immutable)
        for level in self._levels:
            for sst in level:
                overlap = wanted & sst.keys
                if not overlap:
                    continue
                found += len(overlap)
                # sequential read of the overlapping block range
                max_block = sst.blocks
                start_block = (start_key * 2654435761) % max_block
                span_blocks = max(1, (len(overlap) * cfg.value_bytes) // cfg.block_bytes + 1)
                misses = 0
                for b in range(span_blocks):
                    block = (start_block + b) % max_block
                    if self.cache.access((sst.blob_id, block)):
                        self.stats["cache_hits"] += 1
                    else:
                        misses += 1
                if misses:
                    self.stats["sst_reads"] += misses
                    offset = start_block * cfg.block_bytes
                    length = min(misses * cfg.block_bytes, sst.size_bytes - offset)
                    yield self.fs.read(sst.blob_id, offset, max(cfg.block_bytes, length))
        return min(found, count)

    def _get(self, key: int):
        yield self._cpu.execute(self.config.get_cpu_ns)
        stats = self.stats
        if key in self._memtable:
            stats["memtable_hits"] += 1
            return True
        for immutable in self._immutable:
            if key in immutable:
                stats["memtable_hits"] += 1
                return True
        cfg = self.config
        # newest level-0 SST first, then level 1; a present key returns, so
        # level 1 is reached only when no level-0 SST holds the key.  Both
        # are read as they stand now: a flush appends behind the reversed
        # iterator and a compaction swaps in new lists.
        for sst in chain(reversed(self._levels[0]), self._levels[1]):
            present = key in sst.keys
            if not present:
                # bloom filter rejects absent keys (except false positives)
                if self._rng.random() >= cfg.bloom_false_positive:
                    stats["bloom_skips"] += 1
                    continue
            block_index = (key * 2654435761) % sst.blocks
            if self.cache.access((sst.blob_id, block_index)):
                stats["cache_hits"] += 1
                if present:
                    return True
                continue
            stats["sst_reads"] += 1
            yield self.fs.read(sst.blob_id, block_index * cfg.block_bytes, cfg.block_bytes)
            if present:
                return True
        return False
