"""Log-structured RAID: the NVRAM-staging alternative (§2.3).

"A solution to this problem [partial-stripe write amplification] is to
batch partial stripe writes and only submit full stripe writes [Menon &
Cortney].  This approach requires using non-volatile memory as the cache
layer and causes I/O amplification in the background."

This controller implements that design so the trade can be measured
against dRAID:

* writes land in an NVRAM staging buffer (durable immediately — µs-scale
  completion) and are remapped into an append-only log of *full-stripe*
  writes, so the array never issues read-modify-write;
* reads consult the remap table: a logically contiguous extent may have
  been scattered across many log stripes (read amplification);
* a garbage collector rewrites the live blocks of cold stripes when free
  log space runs low (background write amplification — the cost §2.3
  names).

Layout is block-granular (4 KiB); parity is computed host-side for each
full stripe like the other host-centric baselines.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.base import HostCentricRaid
from repro.cluster.builder import Cluster
from repro.qos.admission import PRIORITY_FOREGROUND
from repro.raid.geometry import RaidGeometry
from repro.sim.core import AllOf

BLOCK = 4096


@dataclass
class LogStats:
    staged_writes: int = 0
    stripes_flushed: int = 0
    gc_runs: int = 0
    gc_blocks_moved: int = 0
    #: device bytes written / user bytes written (amplification)
    user_bytes: int = 0
    device_bytes: int = 0

    def write_amplification(self) -> float:
        if self.user_bytes == 0:
            return 0.0
        return self.device_bytes / self.user_bytes


class LogStructuredRaid(HostCentricRaid):
    """Full-stripe-only RAID over an NVRAM staging buffer."""

    #: NVRAM staging latency per write (PCIe NVDIMM/PMem-class); does not
    #: consume ingest bandwidth (DMA overlaps).
    nvram_write_ns = 3_000
    #: NVRAM ingest bandwidth.
    nvram_bw_bytes_per_s = 8e9
    #: flush once this many stripes' worth of data is staged
    flush_batch_stripes = 1
    #: staging buffer capacity: writers stall (backpressure) beyond this
    max_staged_stripes = 8
    #: run GC when free log stripes fall below this fraction
    gc_low_watermark = 0.25

    def __init__(
        self,
        cluster: Cluster,
        geometry: RaidGeometry,
        name: str = "log-raid",
        log_stripes: int = 4096,
    ) -> None:
        super().__init__(cluster, geometry, name=name)
        if geometry.stripe_data_bytes % BLOCK:
            raise ValueError("stripe size must be a multiple of 4 KiB")
        self.blocks_per_stripe = geometry.stripe_data_bytes // BLOCK
        self.log_stripes = log_stripes
        self.log_stats = LogStats()
        #: logical block -> (stripe, slot) in the log
        self._remap: Dict[int, Tuple[int, int]] = {}
        #: per log stripe: logical block per slot (None = dead/free)
        self._stripe_contents: Dict[int, List[Optional[int]]] = {}
        self._free_stripes: List[int] = list(range(log_stripes - 1, -1, -1))
        #: staged logical blocks awaiting flush (insertion ordered)
        self._staging: "OrderedDict[int, Optional[np.ndarray]]" = OrderedDict()
        self._nvram = None
        from repro.sim.resources import BandwidthChannel

        self._nvram = BandwidthChannel(
            cluster.env, self.nvram_bw_bytes_per_s,
            per_op_overhead_ns=300, name=f"{name}.nvram",
        )
        self._flusher_running = False
        self._drained = cluster.env.event()

    # -- public block interface ------------------------------------------------

    def read_body(
        self, offset: int, nbytes: int, ctx=None, deadline_ns=None,
        priority: str = PRIORITY_FOREGROUND,
    ):
        """Read through the remap table; like a write (whose body is
        :meth:`_write`), it enters through the frame's admission gate."""
        return self._admit(
            self._remapped_read(offset, nbytes, self._qos_deadline(deadline_ns)),
            priority,
        )

    # -- write path: stage into NVRAM ------------------------------------------

    def _write(self, offset: int, nbytes: int, data, ctx=None, deadline_ns=None):
        """The frame's write body: stage into NVRAM (untraced)."""
        yield self._charge_submit()
        # backpressure: sustained load runs at the flusher's (full-stripe)
        # rate; only bursts within the buffer get pure NVRAM latency
        while len(self._staging) >= self.max_staged_stripes * self.blocks_per_stripe:
            if not self._flusher_running:
                self.env.process(self._flush(), name=f"{self.name}.flush")
            if self._drained.triggered:
                self._drained = self.env.event()
            yield self._drained
        self.log_stats.staged_writes += 1
        self.log_stats.user_bytes += nbytes
        first_block = offset // BLOCK
        last_block = (offset + nbytes - 1) // BLOCK
        # partial head/tail blocks need their old content merged in
        for block in range(first_block, last_block + 1):
            block_start = block * BLOCK
            lo = max(offset, block_start)
            hi = min(offset + nbytes, block_start + BLOCK)
            if (hi - lo) < BLOCK and block not in self._staging:
                old = yield self.env.process(self._read_block(block, deadline_ns))
                self._staging[block] = old
                self._staging.move_to_end(block)
            elif block not in self._staging:
                self._staging[block] = (
                    np.zeros(BLOCK, dtype=np.uint8) if self.functional else None
                )
                self._staging.move_to_end(block)
            if self.functional:
                buf = self._staging[block]
                buf[lo - block_start : hi - block_start] = data[lo - offset : hi - offset]
            # a freshly staged block supersedes its logged copy
            located = self._remap.pop(block, None)
            if located is not None:
                stripe, slot = located
                self._stripe_contents[stripe][slot] = None
        # durable once NVRAM accepted the bytes (fixed latency overlaps
        # with other writers; the channel models ingest bandwidth)
        yield self._nvram.transfer(nbytes)
        yield self.env.timeout(self.nvram_write_ns)
        self.stats.writes += 1
        if (
            len(self._staging) >= self.flush_batch_stripes * self.blocks_per_stripe
            and not self._flusher_running
        ):
            self.env.process(self._flush(), name=f"{self.name}.flush")

    def _flush(self):
        """Drain staged blocks as append-only full-stripe writes."""
        self._flusher_running = True
        while len(self._staging) >= self.blocks_per_stripe:
            if not self._free_stripes:
                yield self.env.process(self._collect_garbage())
                if not self._free_stripes:
                    break  # log truly full of live data
            stripe = self._free_stripes.pop()
            blocks: List[Tuple[int, Optional[np.ndarray]]] = []
            for _ in range(self.blocks_per_stripe):
                block, payload = self._staging.popitem(last=False)
                blocks.append((block, payload))
            contents: List[Optional[int]] = []
            image = None
            if self.functional:
                image = np.concatenate(
                    [p if p is not None else np.zeros(BLOCK, dtype=np.uint8)
                     for _, p in blocks]
                )
            for slot, (block, _) in enumerate(blocks):
                self._remap[block] = (stripe, slot)
                contents.append(block)
            self._stripe_contents[stripe] = contents
            self.log_stats.stripes_flushed += 1
            self.log_stats.device_bytes += self.geometry.stripe_data_bytes
            yield from self._full_stripe_write(stripe, image)
            if not self._drained.triggered:
                self._drained.succeed()
            if len(self._free_stripes) < self.log_stripes * self.gc_low_watermark:
                yield self.env.process(self._collect_garbage())
        self._flusher_running = False

    def _full_stripe_write(self, stripe: int, image):
        offset = stripe * self.geometry.stripe_data_bytes
        (ext,) = self.geometry.map_extent(offset, self.geometry.stripe_data_bytes)
        self.bitmap.mark(ext.stripe)
        yield self.locks.acquire(ext.stripe)
        try:
            self.stats.full_stripe_writes += 1
            yield from self._write_full(ext, image)
        finally:
            self.locks.release(ext.stripe)
            self.bitmap.clear(ext.stripe)

    # -- garbage collection --------------------------------------------------------

    def _collect_garbage(self):
        """Rewrite the live blocks of the coldest stripes back into staging.

        The background I/O amplification §2.3 warns about: every live
        block GC moves is device traffic with no new user data.
        """
        self.log_stats.gc_runs += 1
        candidates = sorted(
            self._stripe_contents,
            key=lambda s: sum(1 for b in self._stripe_contents[s] if b is not None),
        )
        target_free = max(2, int(self.log_stripes * self.gc_low_watermark * 2))
        for stripe in candidates:
            if len(self._free_stripes) >= target_free:
                break
            contents = self._stripe_contents.pop(stripe)
            live = [(slot, block) for slot, block in enumerate(contents) if block is not None]
            for slot, block in live:
                data = None
                if self.functional:
                    data = yield self.env.process(
                        self._read_log_block(stripe, slot)
                    )
                self._remap.pop(block, None)
                self._staging[block] = data
                self._staging.move_to_end(block)
                self.log_stats.gc_blocks_moved += 1
                self.log_stats.device_bytes += BLOCK
            self._free_stripes.append(stripe)

    # -- read path --------------------------------------------------------------------

    def _remapped_read(self, offset: int, nbytes: int, deadline_ns):
        yield self._charge_submit()
        buffer = np.zeros(nbytes, dtype=np.uint8) if self.functional else None
        first_block = offset // BLOCK
        last_block = (offset + nbytes - 1) // BLOCK
        pending = [
            self.env.process(self._fill_block(block, offset, nbytes, buffer, deadline_ns))
            for block in range(first_block, last_block + 1)
        ]
        yield AllOf(self.env, pending)
        self.stats.reads += 1
        return buffer

    def _fill_block(self, block: int, offset: int, nbytes: int, buffer, deadline_ns):
        data = yield self.env.process(self._read_block(block, deadline_ns))
        if buffer is None or data is None:
            return
        block_start = block * BLOCK
        lo = max(offset, block_start)
        hi = min(offset + nbytes, block_start + BLOCK)
        buffer[lo - offset : hi - offset] = data[lo - block_start : hi - block_start]

    def _read_block(self, block: int, deadline_ns):
        """One logical 4 KiB block: staging, the log, or zeros."""
        if block in self._staging:
            staged = self._staging[block]
            yield self.env.timeout(0)
            return staged.copy() if staged is not None else None
        located = self._remap.get(block)
        if located is None:
            yield self.env.timeout(0)
            return np.zeros(BLOCK, dtype=np.uint8) if self.functional else None
        data = yield self.env.process(self._read_log_block(*located, deadline_ns))
        return data

    def _read_log_block(self, stripe: int, slot: int, deadline_ns=None):
        user_offset = stripe * self.geometry.stripe_data_bytes + slot * BLOCK
        (ext,) = self.geometry.map_extent(user_offset, BLOCK)
        buffer = np.zeros(BLOCK, dtype=np.uint8) if self.functional else None
        yield from self._read_extent(ext, buffer, deadline_ns=deadline_ns)
        return buffer
