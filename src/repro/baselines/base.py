"""Host-centric parity RAID over standard NVMe-oF.

This is the common implementation behind both baselines (SPDK POC and
Linux MD).  All parity math happens on the host; every constituent I/O of
a RAID operation is a plain NVMe-oF read or write, so all bytes traverse
the host NIC:

* read-modify-write moves ``2 x (data + parity-span)`` bytes through the
  host NIC (the paper's 4x amplification for RAID-5 single-chunk writes);
* a degraded read moves ``width - 1`` chunks to the host to rebuild one.

Subclasses tune CPU-cost hooks (stripe-cache staging, lock handling) to
differentiate the two baselines.

This module is the *datapath* only; everything an array is regardless of
how it moves bytes lives in the frame, :class:`~repro.baselines.array.RaidArray`.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.baselines.array import ArrayFailureError, RaidArray  # noqa: F401
from repro.faults.backoff import attempt_timeout_ns
from repro.nvmeof.initiator import RemoteBdev
from repro.nvmeof.messages import IoError
from repro.nvmeof.target import NvmeOfTarget
from repro.raid.geometry import ChunkSegment, StripeExtent
from repro.raid.modes import WriteMode, WritePlan, split_segments
from repro.sim.core import AllOf, Interrupt, _defuse_on_failure


class HostCentricRaid(RaidArray):
    """A parity RAID array whose controller lives entirely on the host."""

    #: Whether normal reads take the stripe lock (the SPDK POC does, §8).
    lock_reads = True

    def _attach_transport(self) -> None:
        """One NVMe-oF target per member server, one host-side bdev to it."""
        self._attempt_name = f"{self.name}.attempt"
        self.targets: List[NvmeOfTarget] = []
        self.server_sides = self.targets
        self.bdevs: List[RemoteBdev] = []
        for i, server in enumerate(self.servers):
            index = self._server_of(i)
            target = NvmeOfTarget(
                server, self.cluster.server_end(index), queue_depth=self._target_depth
            )
            self.targets.append(target)
            bdev = RemoteBdev(
                self.cluster.host,
                self.cluster.host_end(index),
                name=f"{self.name}.bdev{i}",
            )
            bdev.tracer = self._tracer
            bdev.verifier = self._protocol_verifier
            if self._breaker is not None:
                bdev.on_result = (
                    lambda ok, member=i: self._breaker_observe(member, ok)
                )
            self.bdevs.append(bdev)

    @property
    def _guarded(self) -> bool:
        """Whether member completions may fail and need a subscriber.

        True on the resilient path (injected faults produce error
        completions) and whenever overload control is armed (bounded
        targets produce typed busy/deadline error completions even with no
        fault injector attached).
        """
        return self.resilient or self.qos is not None

    # -- §5.4 resilience machinery ---------------------------------------------

    def _gather(self, events):
        """Collect the values of ``events`` in order.

        On the healthy path this yields them one by one (the seed's exact
        event sequence).  On the guarded path (resilient or overload
        control armed) it subscribes all of them at once through
        :class:`AllOf`, so an error completion on any member surfaces as
        :class:`IoError` here instead of crashing the simulation as an
        unhandled failed event.
        """
        if not self._guarded:
            results = []
            for event in events:
                results.append((yield event))
            return results
        if not events:
            return []
        outcome = yield AllOf(self.env, events)
        return [outcome[event] for event in events]

    def _subscribe_early(self, events) -> Optional[AllOf]:
        """An :class:`AllOf` over ``events``, safe to yield *later*.

        Built before an intervening CPU charge so error completions find a
        subscriber; the failure sink keeps a late error from crashing the
        simulation if the surrounding attempt is interrupted before the
        condition is ever yielded.
        """
        if not (self._guarded and events):
            return None
        gathered = AllOf(self.env, events)
        gathered.callbacks.append(_defuse_on_failure)
        return gathered

    def _fence_stragglers(self, timeout_ns: int) -> None:
        """Fail members still holding commands after a drain window.

        Liveness is judged by completion recency, not queue depth: a busy
        member under concurrent load always has commands outstanding, but
        only a dead one stops completing them.
        """
        now = self.env.now
        for i, bdev in enumerate(self.bdevs):
            if i in self.failed or not bdev.outstanding:
                continue
            if now - bdev.last_completion_ns < timeout_ns:
                continue
            if self._breaker is not None:
                # timeouts count against the member's EWMA error rate too
                self._breaker.record(i, False)
            if not self._fence(i, prolonged=True):
                # at tolerance: leave the member in (see :meth:`_fence`)
                break

    def _retry_loop(
        self, make_body, stripe: int, kind: str, drain: bool, ctx=None,
        deadline_ns=None, prepare=None,
    ):
        """Run ``make_body()`` through the frame's attempt loop
        (:meth:`_attempts`) — resilient reads, pre-reads and writes.

        Each attempt first re-checks the stripe's tolerance and the
        request deadline: a spent budget is a terminal
        :class:`DeadlineExceeded`, and each attempt's timeout is clamped to
        what is left of it (cumulative attempt timeouts charge against the
        request deadline).  ``prepare(n)``, when given, is a generator run
        before attempt ``n``'s body is made (the write path pins its stripe
        image there); its time is not taken off that attempt's timeout.
        Returns the value of the body that succeeded.

        The body runs as its own process, raced against the timeout
        (:meth:`_race`).  A timed-out *write* (``drain``) gets the drain
        window for its straggling mutations to land, after which
        unresponsive members are fenced as prolonged failures; a body still
        running is then abandoned.
        """
        value = None

        def attempt(n: int):
            nonlocal value
            self._check_tolerance(stripe)
            remaining = self._deadline_left(kind, stripe, deadline_ns)
            if prepare is not None:
                yield from prepare(n)
            timeout_ns = attempt_timeout_ns(self.timeout_ns, n, remaining)
            body = self.env.process(make_body(), name=self._attempt_name)
            try:
                yield from self._race(body, timeout_ns, drain)
            except IoError:
                return False
            if body.triggered:
                value = body._value
                return bool(body._ok)
            if drain:
                self._fence_stragglers(timeout_ns)
            if body.is_alive:
                body.interrupt("attempt timed out")
                try:
                    yield body
                except (Interrupt, IoError):
                    pass
            return False

        yield from self._attempts(attempt, kind, stripe, deadline_ns, ctx)
        return value

    # -- integrity member I/O (read-repair / scrub path) -----------------------

    def _await_repair_io(self, gathered):
        """Race a repair-I/O condition against the array's deadline.

        Repair member I/O runs outside the §5.4 retry loop, so it needs
        its own deadline: a member going silent mid-repair would otherwise
        park the repair — and the stripe lock it holds — forever.  Returns
        the outcome dict, or None on member error or expiry (fencing
        stragglers exactly like the resilient datapath does).
        """
        try:
            in_time = yield from self._race(gathered, self.timeout_ns)
        except IoError:
            return None
        if not in_time:
            self._fence_stragglers(self.timeout_ns)
            return None
        return gathered._value

    def _member_read(self, drive: int, offset: int, nbytes: int):
        """Raw read of one member chunk region (integrity/scrub path)."""
        data = yield self.bdevs[drive].read(offset, nbytes)
        return data

    def _member_write(self, drive: int, offset: int, nbytes: int, data):
        """Raw write of one member chunk region (integrity/scrub path)."""
        yield self.bdevs[drive].write(offset, nbytes, data)

    # -- CPU cost hook (overridden by MdRaid) ----------------------------------

    def _charge_staging(self, nbytes: int, ext: StripeExtent, ctx=None,
                        reconstruct: bool = False):
        """Extra CPU beyond parity math for ``nbytes`` paged through a
        stripe cache: a write's staged bytes, a degraded array's normal
        read, or (``reconstruct``) a reconstruction's sources.  Free for
        user-space systems."""
        return self.env.timeout(0)

    # -- member I/O: one reader, one write list -----------------------------------

    def _read_members(self, reads, ctx=None, deadline_ns=None):
        """Read every ``(member, drive offset, length)`` of ``reads`` at
        once; a generator returning their blocks in order (:meth:`_gather`)."""
        return self._gather([
            self.bdevs[member].read(offset, length, ctx=ctx, deadline_ns=deadline_ns)
            for member, offset, length in reads
        ])

    def _send_writes(self, writes, ctx=None, deadline_ns=None):
        """Send every ``(member, drive offset, length, block)`` of
        ``writes`` (:meth:`_stripe_writes`); their completion events."""
        return [
            self.bdevs[member].write(offset, length, block, ctx=ctx,
                                     deadline_ns=deadline_ns)
            for member, offset, length, block in writes
        ]

    def _write_members(self, ext: StripeExtent, writes, staged: int, ctx=None,
                       deadline_ns=None):
        """The tail of every write mode: the staging charge for ``staged``
        bytes, then ``writes``, awaited together."""
        yield self._charge_staging(staged, ext, ctx)
        events = self._send_writes(writes, ctx, deadline_ns)
        if events:
            yield AllOf(self.env, events)

    def _write_image(self, ext: StripeExtent, io_data, plan: WritePlan, image,
                     staged: int, ctx=None, deadline_ns=None):
        """Encode the stripe's full data ``image`` on the host, then write
        every surviving touched segment and whole parity chunk."""
        parity_blocks = yield from self._encode_parities(image, ctx)
        yield from self._write_members(
            ext,
            self._stripe_writes(
                ext, io_data, plan, parity_blocks, (0, self.geometry.chunk_bytes)
            ),
            staged, ctx, deadline_ns,
        )

    # -- read paths ---------------------------------------------------------------

    def _read_extent(
        self, ext: StripeExtent, buffer, take_locks: bool = True, ctx=None,
        deadline_ns=None,
    ):
        lock = self.lock_reads and take_locks
        if lock:
            yield self.locks.acquire(ext.stripe, ctx)
        try:
            if self.resilient:
                # reads are idempotent: on timeout or member error, retry
                # with an escalated deadline (reconstructing around any
                # member that has been fenced in the meantime)
                yield from self._retry_loop(
                    lambda: self._read_extent_once(
                        ext, buffer, ctx, deadline_ns=deadline_ns
                    ),
                    ext.stripe,
                    "read",
                    drain=False,
                    ctx=ctx,
                    deadline_ns=deadline_ns,
                )
            else:
                yield from self._read_extent_once(
                    ext, buffer, ctx, deadline_ns=deadline_ns
                )
        finally:
            if lock:
                self.locks.release(ext.stripe)

    def _read_extent_once(self, ext: StripeExtent, buffer, ctx=None,
                          deadline_ns=None):
        healthy, lost = split_segments(ext, self.failed_in_stripe(ext.stripe))
        events = [
            self.bdevs[s.drive].read(s.drive_offset, s.length, ctx=ctx,
                                     deadline_ns=deadline_ns)
            for s in healthy
        ]
        if lost:
            events += [
                self.env.process(
                    self._reconstruct_segment(ext, s, ctx, deadline_ns=deadline_ns)
                )
                for s in lost
            ]
        # subscribe before the staging charge so an error completion
        # arriving mid-charge is handled, not an unhandled failed event
        gathered = self._subscribe_early(events)
        if self.degraded and healthy:
            # MD's read bypass is off on a degraded array: reads page
            # through the stripe cache even when their chunk is intact
            yield self._charge_staging(sum(s.length for s in healthy), ext, ctx)
        if gathered is not None:
            outcome = yield gathered
            results = [outcome[event] for event in events]
        else:
            results = yield from self._gather(events)
        if buffer is not None:
            for seg, data in zip(healthy + lost, results):
                buffer[seg.io_offset : seg.io_offset + seg.length] = data

    def _reconstruct_segment(self, ext: StripeExtent, seg: ChunkSegment, ctx=None,
                             deadline_ns=None):
        """Rebuild one lost data segment on the host from the survivors the
        code asks for."""
        self.stats.degraded_reads += 1
        sources = self._repair_members(ext.stripe, seg.data_index)
        offset = ext.stripe * self.geometry.chunk_bytes + seg.chunk_offset
        blocks = yield from self._read_members(
            [(drive, offset, seg.length) for drive, _ in sources], ctx, deadline_ns
        )
        yield self._charge_staging(
            seg.length * len(sources), ext, ctx, reconstruct=True
        )
        yield self._charge_xor(len(sources), seg.length, ctx)
        if not self.functional:
            return None
        shards = {shard: block for (_, shard), block in zip(sources, blocks)}
        return self.code.decode_one(seg.data_index, shards, seg.length)

    # -- write paths -----------------------------------------------------------

    def _write_stripe(self, ext: StripeExtent, io_data, ctx=None, deadline_ns=None):
        if self.resilient:
            yield from self._write_resilient(
                ext, io_data, ctx, deadline_ns=deadline_ns
            )
        else:
            yield from self._write_stripe_once(
                ext, io_data, self._plan_write(ext), ctx, deadline_ns=deadline_ns
            )

    def _write_stripe_once(self, ext: StripeExtent, io_data, plan=None, ctx=None,
                           deadline_ns=None):
        """One pass of the write dispatch on ``plan`` (caller holds the
        lock).  A resilient attempt passes none: it plans again, uncounted,
        when its process starts."""
        if plan is None:
            plan = self._plan(ext)
        mode = plan.mode
        if mode is WriteMode.READ_MODIFY_WRITE:
            executor = self._write_rmw
        elif mode is WriteMode.RECONSTRUCT_WRITE:
            executor = self._write_rcw
        elif mode is WriteMode.FULL_STRIPE:
            executor = self._write_full
        elif mode is WriteMode.DEGRADED_REGION:
            executor = self._write_degraded_region
        else:
            executor = self._write_degraded_data
        yield from executor(ext, io_data, plan, ctx, deadline_ns=deadline_ns)

    # resilient write path (§5.4) --------------------------------------------

    def _write_resilient(self, ext: StripeExtent, io_data, ctx=None,
                         deadline_ns=None):
        """Timeout/retry write with the §5.4 idempotent-retry invariant.

        The first attempt on a stripe with no failed data member uses the
        normal dispatch.  Every retry — and every attempt on a degraded
        stripe — writes from a *pinned* full-stripe image whose gap
        regions were read exactly once, before any mutation, so replays
        are idempotent no matter which of a previous attempt's writes
        landed.
        """
        self._check_tolerance(ext.stripe)
        pinned = None
        if self._plan_write(ext).degraded:
            pinned = yield from self._pin_with_retries(
                ext, ctx, deadline_ns=deadline_ns
            )

        def pin_for_retry(attempts: int):
            nonlocal pinned
            if pinned is None and attempts > 0:
                self._check_write_hole(ext)
                pinned = yield from self._pin_with_retries(
                    ext, ctx, deadline_ns=deadline_ns
                )

        def body():
            if pinned is None:
                return self._write_stripe_once(
                    ext, io_data, ctx=ctx, deadline_ns=deadline_ns
                )
            return self._write_full(
                ext, io_data, ctx=ctx, deadline_ns=deadline_ns, pinned=pinned
            )

        yield from self._retry_loop(
            body, ext.stripe, "write", drain=True, ctx=ctx,
            deadline_ns=deadline_ns, prepare=pin_for_retry,
        )

    def _pin_with_retries(self, ext: StripeExtent, ctx=None, deadline_ns=None):
        """Degraded-aware read of every stripe region the write will not
        cover, retried like any read; returns ``(gaps, blocks)``."""
        return (yield from self._retry_loop(
            lambda: self._read_gaps(
                ext,
                lambda gap_ext, buffer: self._read_extent_once(
                    gap_ext, buffer, ctx, deadline_ns=deadline_ns
                ),
            ),
            ext.stripe,
            "stripe pre-read",
            drain=False,
            ctx=ctx,
            deadline_ns=deadline_ns,
        ))

    # write modes: read members, compute on the host, write members ----------

    def _write_full(self, ext: StripeExtent, io_data, plan=None, ctx=None,
                    deadline_ns=None, pinned=None):
        """Write the stripe from its full data image: host computes parity,
        writes every touched segment and every parity.

        A full-stripe write is its own image; a §5.4 retry passes
        ``pinned`` — the ``(gaps, blocks)`` read once before any mutation —
        and the image is assembled from it plus the user data.  With no
        ``plan`` (the retry's, or a log-structured flush) it plans when it
        starts.
        """
        if plan is None:
            plan = self._plan(ext)
        if pinned is None:
            image = [self._seg_data(io_data, s) for s in ext.segments]
        else:
            image = self._assemble_stripe(ext, io_data, *pinned)
        staged = ext.touched_bytes + len(ext.parity_drives) * self.geometry.chunk_bytes
        yield from self._write_image(ext, io_data, plan, image, staged, ctx, deadline_ns)

    def _write_rmw(self, ext: StripeExtent, io_data, plan: WritePlan, ctx=None,
                   deadline_ns=None):
        """Read-modify-write: 2 reads + 2 writes of the touched extent
        through the host NIC (3 + 3 for RAID-6)."""
        span = span_off, span_len = ext.span
        parities = plan.parities
        segments = ext.segments
        # read old data segments and old parity spans
        old_blocks = yield from self._read_members(
            [(s.drive, s.drive_offset, s.length) for s in segments]
            + [(p, ext.parity_offset + span_off, span_len) for _, p in parities],
            ctx, deadline_ns,
        )
        # compute deltas and new parities
        yield self._charge_xor(2 * len(segments), span_len, ctx)
        new_parities: List[Optional[np.ndarray]] = [None] * self.code.m
        if self.functional:
            # each segment's delta, weighted for every parity row
            partials = [
                self.code.partial_parity(
                    seg.data_index, old ^ self._seg_data(io_data, seg)
                )
                for seg, old in zip(segments, old_blocks)
            ]
            for order, (row, _) in enumerate(parities):
                block = old_blocks[len(segments) + order].copy()
                for seg, partial in zip(segments, partials):
                    rel = seg.chunk_offset - span_off
                    block[rel : rel + seg.length] ^= partial[row]
                new_parities[row] = block
        if self.code.gf_pass and len(parities) > 1:
            yield self._charge_gf(len(segments), span_len, ctx)
        staged = 2 * ext.touched_bytes + 2 * len(parities) * span_len
        yield from self._write_members(
            ext, self._stripe_writes(ext, io_data, plan, new_parities, span),
            staged, ctx, deadline_ns,
        )

    def _write_rcw(self, ext: StripeExtent, io_data, plan: WritePlan, ctx=None,
                   deadline_ns=None):
        """Reconstruct-write: read untouched data, recompute parity fully."""
        chunk = self.geometry.chunk_bytes
        data_drives = plan.data_drives
        # Build the full new stripe image: read whatever the write does not
        # cover (untouched chunks and partial-chunk complements).
        gaps = self._stripe_gaps(ext)
        gap_blocks = yield from self._read_members(
            [(data_drives[d], ext.stripe * chunk + off, length) for d, off, length in gaps],
            ctx, deadline_ns,
        )
        gap_bytes = sum(length for _, _, length in gaps)
        staged = ext.touched_bytes + gap_bytes + len(plan.parities) * chunk
        yield from self._write_image(
            ext, io_data, plan, self._assemble_stripe(ext, io_data, gaps, gap_blocks),
            staged, ctx, deadline_ns,
        )

    def _write_degraded_region(self, ext: StripeExtent, io_data, plan: WritePlan,
                               ctx=None, deadline_ns=None):
        """Write covering only a failed data chunk: region-scoped parity rebuild.

        Since parity is the (weighted) sum of all data chunks, the new
        parity over the written region is simply the sum of the *other*
        chunks' same region with the new data — no reconstruction of the
        failed chunk's old content and no old-parity read are needed, and
        the cost is proportional to the I/O size, keeping the degraded
        write penalty small (Fig. 18/30: ~5-11% drop).
        """
        g = self.geometry
        seg = plan.lost[0]
        failed_index = seg.data_index
        span = region_offset, region_len = seg.chunk_offset, seg.length
        data_drives = plan.data_drives
        survivors = [
            d for d, drive in enumerate(data_drives)
            if d != failed_index and drive not in plan.failed
        ]
        blocks = yield from self._read_members(
            [
                (data_drives[d], ext.stripe * g.chunk_bytes + region_offset, region_len)
                for d in survivors
            ],
            ctx, deadline_ns,
        )
        yield self._charge_staging(region_len * len(blocks), ext, ctx, reconstruct=True)
        yield self._charge_xor(len(blocks) + 1, region_len, ctx)
        parity_blocks = [None] * self.code.m
        if self.functional:
            # the region's full data image: survivors plus the new data
            image = dict(zip(survivors, blocks))
            image[failed_index] = self._seg_data(io_data, seg)
            parity_blocks = self.code.encode(
                [image[d] for d in range(g.data_per_stripe)]
            )
        # the one segment is lost: the writes are the surviving parities'
        write_events = self._send_writes(
            self._stripe_writes(ext, io_data, plan, parity_blocks, span),
            ctx, deadline_ns,
        )
        finish = self._subscribe_early(write_events)
        if self.code.gf_pass and len(write_events) > 1:
            yield self._charge_gf(len(survivors) + 1, region_len, ctx)
        yield finish if finish is not None else AllOf(self.env, write_events)

    def _write_degraded_data(self, ext: StripeExtent, io_data, plan: WritePlan,
                             ctx=None, deadline_ns=None):
        """Write when touched data chunks (the plan's ``lost`` segments)
        live on failed drives.

        Reads every surviving data chunk in full.  When the new image needs
        the old bytes of a failed data chunk — one the write does not wholly
        cover, touched or not — it also reads as many surviving parities as
        the stripe has failed data chunks and decodes those chunks.  Parity
        is recomputed from the full stripe image and every survivor written.
        """
        chunk = self.geometry.chunk_bytes
        k = self.code.k
        failed = plan.failed
        # the member of every shard: data chunks, then parity rows
        drives = plan.data_drives + ext.parity_drives
        covered = {s.data_index for s in ext.segments if s.length == chunk}
        erased = [i for i in range(k) if drives[i] in failed]
        decoded = [i for i in erased if i not in covered]
        survivors = [i for i, drive in enumerate(drives) if drive not in failed]
        # the surviving data chunks lead; a decode adds one parity per
        # erased data chunk
        sources = survivors[: k if decoded else k - len(erased)]
        blocks = yield from self._read_members(
            [(drives[i], ext.stripe * chunk, chunk) for i in sources], ctx, deadline_ns
        )
        yield self._charge_staging(chunk * len(blocks), ext, ctx, reconstruct=True)
        yield self._charge_xor(len(blocks), chunk, ctx)
        gaps = self._stripe_gaps(ext)
        gap_blocks = [None] * len(gaps)
        if self.functional:
            shards = dict(zip(sources, blocks))
            chunks = {i: self.code.decode_one(i, shards, chunk) for i in decoded}
            chunks.update(shards)
            gap_blocks = [chunks[i][off : off + length] for i, off, length in gaps]
        staged = chunk * (k - len(erased) + len(plan.parities))
        yield from self._write_image(
            ext, io_data, plan, self._assemble_stripe(ext, io_data, gaps, gap_blocks),
            staged, ctx, deadline_ns,
        )
