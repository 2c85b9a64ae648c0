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

from typing import Dict, List, Optional

import numpy as np

from repro.baselines.array import ArrayFailureError, RaidArray  # noqa: F401
from repro.nvmeof.initiator import RemoteBdev
from repro.nvmeof.messages import IoError
from repro.nvmeof.target import NvmeOfTarget
from repro.raid.geometry import ChunkSegment, StripeExtent
from repro.raid.modes import WriteMode, classify_write
from repro.sim.core import AllOf, AnyOf, Interrupt, _defuse_on_failure


class HostCentricRaid(RaidArray):
    """A parity RAID array whose controller lives entirely on the host."""

    #: Whether normal reads take the stripe lock (the SPDK POC does, §8).
    lock_reads = True

    def _attach_transport(self) -> None:
        """One NVMe-oF target per member server, one host-side bdev to it."""
        qos = self.qos
        target_depth = None if qos is None else qos.config.target_queue_depth
        breaker_on = qos is not None and qos.breaker is not None
        self._attempt_name = f"{self.name}.attempt"
        self.targets: List[NvmeOfTarget] = []
        self.server_sides = self.targets
        self.bdevs: List[RemoteBdev] = []
        for i, server in enumerate(self.servers):
            index = self._server_of(i)
            target = NvmeOfTarget(
                server, self.cluster.server_end(index), queue_depth=target_depth
            )
            target.tracer = self._tracer
            self.targets.append(target)
            bdev = RemoteBdev(
                self.cluster.host,
                self.cluster.host_end(index),
                name=f"{self.name}.bdev{i}",
            )
            bdev.tracer = self._tracer
            bdev.verifier = self._protocol_verifier
            if breaker_on:
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

    def _run_attempt(self, body, timeout_ns: int, drain: bool):
        """Run one attempt generator under a deadline.

        Returns True if the attempt succeeded.  A timed-out *write*
        attempt is given a drain window (``drain_factor x timeout``) for
        its straggling mutations to land — §5.4: a retry must never race
        the attempt it replaces — after which unresponsive members are
        fenced as prolonged failures and the attempt is abandoned.
        """
        attempt = self.env.process(body, name=self._attempt_name)
        deadline = self.env.timeout(timeout_ns)
        try:
            yield AnyOf(self.env, [attempt, deadline])
        except IoError:
            return False
        if attempt.triggered:
            return bool(attempt._ok)
        self.fault_stats.timeouts += 1
        if drain:
            drain_deadline = self.env.timeout(self.drain_factor * timeout_ns)
            try:
                yield AnyOf(self.env, [attempt, drain_deadline])
            except IoError:
                return False
            if attempt.triggered:
                return bool(attempt._ok)
            self._fence_stragglers(timeout_ns)
        if attempt.is_alive:
            attempt.interrupt("attempt timed out")
            try:
                yield attempt
            except (Interrupt, IoError):
                pass
        return False

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
            if self.qos is not None and self.qos.breaker is not None:
                # timeouts count against the member's EWMA error rate too
                self.qos.breaker.record(i, False)
            if not self._fence(i, prolonged=True):
                # at tolerance: leave the member in (see :meth:`_fence`)
                break

    def _retry_loop(
        self, make_body, stripe: int, kind: str, drain: bool, ctx=None,
        deadline_ns=None, prepare=None,
    ):
        """Attempt/backoff loop shared by resilient reads, pre-reads and
        writes.

        With a deadline, each attempt's timeout is clamped to the
        remaining budget (cumulative attempt timeouts charge against the
        request deadline), and a spent budget is a terminal
        :class:`DeadlineExceeded` — no retry ever starts past the
        deadline.  Each retry also spends a retry-budget token when one is
        armed.  ``prepare(attempts)``, when given, is a generator run
        before each attempt's body is made (the write path pins its stripe
        image there); its time is not taken off that attempt's timeout.
        """
        attempts = 0
        while True:
            self._check_tolerance(stripe)
            remaining = self._deadline_remaining(deadline_ns)
            if remaining is not None and remaining <= 0:
                self._deadline_spent(kind, stripe)
            if prepare is not None:
                yield from prepare(attempts)
            timeout_ns = self.backoff.timeout_for(
                attempts, self.timeout_ns, remaining_ns=remaining
            )
            ok = yield from self._run_attempt(make_body(), timeout_ns, drain)
            if ok:
                self._note_success()
                return
            attempts += 1
            if attempts > self.max_retries:
                self.fault_stats.io_errors += 1
                raise IoError(
                    f"{self.name}: {kind} on stripe {stripe} failed after "
                    f"{attempts} attempts"
                )
            remaining = self._admit_retry(kind, stripe, deadline_ns)
            self.stats.retries += 1
            self.fault_stats.retries += 1
            yield from self._backoff_pause(attempts, remaining, ctx)

    # -- integrity member I/O (read-repair / scrub path) -----------------------

    def _await_repair_io(self, gathered):
        """Race a repair-I/O condition against the array's deadline.

        Repair member I/O runs outside the §5.4 retry loop, so it needs
        its own deadline: a member going silent mid-repair would otherwise
        park the repair — and the stripe lock it holds — forever.  Returns
        the outcome dict, or None on member error or expiry (fencing
        stragglers exactly like the resilient datapath does).
        """
        deadline = self.env.timeout(self.timeout_ns)
        try:
            yield AnyOf(self.env, [gathered, deadline])
        except IoError:
            return None
        if not gathered.triggered:
            self.fault_stats.timeouts += 1
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

    # -- CPU cost hooks (overridden by MdRaid) ---------------------------------

    def _charge_write_staging(self, staged_bytes: int, ext: StripeExtent):
        """Extra per-write CPU beyond parity math (MD stripe cache)."""
        return self.env.timeout(0)

    def _charge_reconstruct_staging(self, source_bytes: int, ext: StripeExtent):
        """Extra per-reconstruction CPU (MD stripe cache)."""
        return self.env.timeout(0)

    def _charge_degraded_read_staging(self, nbytes: int, ext: StripeExtent):
        """Extra CPU for *normal* reads while the array is degraded.

        Linux MD disables its read fast path on a degraded array: every
        read goes through the stripe cache.  No-op for user-space systems.
        """
        return self.env.timeout(0)

    # -- read paths ---------------------------------------------------------------

    def _read_extent(
        self, ext: StripeExtent, buffer, io_base: int, take_locks: bool = True,
        ctx=None, deadline_ns=None,
    ):
        lock = self.lock_reads and take_locks
        if lock:
            yield from self._lock_wait(ext.stripe, ctx)
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
        failed = self.failed_in_stripe(ext.stripe)
        healthy = [s for s in ext.segments if s.drive not in failed]
        lost = [s for s in ext.segments if s.drive in failed]
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
            yield from self._span_wait(
                self._charge_degraded_read_staging(
                    sum(s.length for s in healthy), ext
                ),
                ctx,
                "staging",
            )
        if gathered is not None:
            outcome = yield gathered
            results = [outcome[event] for event in events]
        else:
            results = yield from self._gather(events)
        if buffer is not None:
            for seg, data in zip(list(healthy) + list(lost), results):
                buffer[seg.io_offset : seg.io_offset + seg.length] = data

    def _reconstruct_segment(self, ext: StripeExtent, seg: ChunkSegment, ctx=None,
                             deadline_ns=None):
        """Rebuild one lost data segment on the host from the survivors the
        code asks for."""
        self.stats.degraded_reads += 1
        sources = self._repair_members(ext.stripe, seg.data_index)
        offset = ext.stripe * self.geometry.chunk_bytes + seg.chunk_offset
        events = [
            self.bdevs[drive].read(offset, seg.length, ctx=ctx,
                                   deadline_ns=deadline_ns)
            for drive, _ in sources
        ]
        blocks = yield from self._gather(events)
        yield from self._span_wait(
            self._charge_reconstruct_staging(seg.length * len(events), ext),
            ctx, "staging",
        )
        yield from self._span_wait(
            self._charge_xor(len(events), seg.length), ctx, "xor"
        )
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
                ext, io_data, ctx, deadline_ns=deadline_ns
            )

    def _write_stripe_once(self, ext: StripeExtent, io_data, ctx=None,
                           deadline_ns=None):
        """One pass of the normal write dispatch (caller holds the lock)."""
        failed = self.failed_in_stripe(ext.stripe)
        failed_parities = [p for p in ext.parity_drives if p in failed]
        failed_touched = [s for s in ext.segments if s.drive in failed]
        failed_untouched_data = [
            d for d in failed
            if d not in ext.parity_drives
            and d not in {s.drive for s in ext.segments}
        ]
        mode = classify_write(self.geometry, ext)
        if failed_touched:
            self.stats.degraded_writes += 1
            only_failed_chunk = (
                len(failed_touched) == len(ext.segments) == 1
                and len(failed - set(ext.parity_drives)) == 1
            )
            if only_failed_chunk:
                yield from self._write_degraded_region(
                    ext, io_data, failed_touched[0], ctx, deadline_ns=deadline_ns
                )
            else:
                yield from self._write_degraded_data(
                    ext, io_data, failed_touched, ctx, deadline_ns=deadline_ns
                )
        elif mode is WriteMode.FULL_STRIPE:
            self.stats.full_stripe_writes += 1
            yield from self._write_full(ext, io_data, ctx, deadline_ns=deadline_ns)
        elif mode is WriteMode.RECONSTRUCT_WRITE and not failed_untouched_data:
            self.stats.rcw_writes += 1
            yield from self._write_rcw(ext, io_data, ctx, deadline_ns=deadline_ns)
        else:
            # RMW; also the fallback when an untouched data drive is
            # failed (its chunk cannot be read for RCW).
            self.stats.rmw_writes += 1
            if failed_untouched_data or failed_parities:
                self.stats.degraded_writes += 1
            yield from self._write_rmw(ext, io_data, ctx, deadline_ns=deadline_ns)

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
        pinned = None
        if self.failed_in_stripe(ext.stripe) - set(ext.parity_drives):
            self._check_tolerance(ext.stripe)
            self.stats.degraded_writes += 1
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
                    ext, io_data, ctx, deadline_ns=deadline_ns
                )
            return self._write_full(
                ext, io_data, ctx, deadline_ns=deadline_ns, pinned=pinned
            )

        yield from self._retry_loop(
            body, ext.stripe, "write", drain=True, ctx=ctx,
            deadline_ns=deadline_ns, prepare=pin_for_retry,
        )

    def _pin_with_retries(self, ext: StripeExtent, ctx=None, deadline_ns=None):
        """Degraded-aware read of every stripe region the write will not
        cover, retried like any read; returns ``(gaps, blocks)``."""
        out = {}
        yield from self._retry_loop(
            lambda: self._pin_stripe_image(ext, out, ctx, deadline_ns=deadline_ns),
            ext.stripe,
            "stripe pre-read",
            drain=False,
            ctx=ctx,
            deadline_ns=deadline_ns,
        )
        return out["gaps"], out["blocks"]

    def _pin_stripe_image(self, ext: StripeExtent, out: dict, ctx=None,
                          deadline_ns=None):
        g = self.geometry
        gaps = self._stripe_gaps(ext)
        stripe_base = ext.stripe * g.stripe_data_bytes
        blocks = []
        for d, off, length in gaps:
            buffer = np.zeros(length, dtype=np.uint8) if self.functional else None
            gap_ext, = g.map_extent(stripe_base + d * g.chunk_bytes + off, length)
            yield from self._read_extent_once(
                gap_ext, buffer, ctx, deadline_ns=deadline_ns
            )
            blocks.append(buffer)
        out["gaps"] = gaps
        out["blocks"] = blocks

    # data helpers -----------------------------------------------------------

    def _alive_parities(self, ext: StripeExtent) -> List[int]:
        failed = self.failed_in_stripe(ext.stripe)
        return [p for p in ext.parity_drives if p not in failed]

    def _parity_index(self, ext: StripeExtent, drive: int) -> int:
        """The code's parity row ``drive`` holds (0 for P, 1 for Q)."""
        return ext.parity_drives.index(drive)

    def _segment_writes(self, ext: StripeExtent, io_data, ctx, deadline_ns, skip=()):
        """Writes of the user data to every touched segment whose member
        is not in ``skip``."""
        return [
            self.bdevs[s.drive].write(
                s.drive_offset, s.length, self._seg_data(io_data, s),
                ctx=ctx, deadline_ns=deadline_ns,
            )
            for s in ext.segments
            if s.drive not in skip
        ]

    def _parity_writes(self, ext: StripeExtent, parity_blocks, ctx, deadline_ns):
        """Whole-chunk writes of ``parity_blocks`` to the surviving parities."""
        return [
            self.bdevs[p].write(
                ext.parity_offset, self.geometry.chunk_bytes,
                parity_blocks[self._parity_index(ext, p)],
                ctx=ctx, deadline_ns=deadline_ns,
            )
            for p in self._alive_parities(ext)
        ]

    def _write_full(self, ext: StripeExtent, io_data, ctx=None, deadline_ns=None,
                    pinned=None):
        """Write the stripe from its full data image: host computes parity,
        writes every touched segment and every parity.

        A full-stripe write is its own image; a §5.4 retry passes
        ``pinned`` — the ``(gaps, blocks)`` read once before any mutation —
        and the image is assembled from it plus the user data.
        """
        if pinned is None:
            image = [self._seg_data(io_data, s) for s in ext.segments]
        else:
            image = self._assemble_stripe(ext, io_data, *pinned)
        parity_blocks = yield from self._encode_parities(image, ctx)
        staged = ext.touched_bytes + len(ext.parity_drives) * self.geometry.chunk_bytes
        yield from self._span_wait(
            self._charge_write_staging(staged, ext), ctx, "staging"
        )
        events = self._segment_writes(
            ext, io_data, ctx, deadline_ns, skip=self.failed_in_stripe(ext.stripe)
        )
        events += self._parity_writes(ext, parity_blocks, ctx, deadline_ns)
        if events:
            yield AllOf(self.env, events)

    def _write_rmw(self, ext: StripeExtent, io_data, ctx=None, deadline_ns=None):
        """Read-modify-write: 2 reads + 2 writes of the touched extent
        through the host NIC (3 + 3 for RAID-6)."""
        span_off, span_len = ext.parity_span()
        parities = self._alive_parities(ext)
        # phase 1: read old data segments and old parity spans
        read_events = [
            self.bdevs[s.drive].read(s.drive_offset, s.length, ctx=ctx,
                                     deadline_ns=deadline_ns)
            for s in ext.segments
        ]
        for p in parities:
            read_events.append(
                self.bdevs[p].read(ext.parity_offset + span_off, span_len,
                                   ctx=ctx, deadline_ns=deadline_ns)
            )
        old_blocks = yield from self._gather(read_events)
        old_data = old_blocks[: len(ext.segments)]
        old_parity = old_blocks[len(ext.segments):]
        # phase 2: compute deltas and new parities
        yield from self._span_wait(
            self._charge_xor(2 * len(ext.segments), span_len), ctx, "xor"
        )
        new_parities: Dict[int, Optional[np.ndarray]] = {p: None for p in parities}
        if self.functional:
            # each segment's delta, weighted for every parity row
            partials = [
                self.code.partial_parity(
                    seg.data_index, old ^ self._seg_data(io_data, seg)
                )
                for seg, old in zip(ext.segments, old_data)
            ]
            for order, p in enumerate(parities):
                row = self._parity_index(ext, p)
                block = old_parity[order].copy()
                for seg, partial in zip(ext.segments, partials):
                    rel = seg.chunk_offset - span_off
                    block[rel : rel + seg.length] ^= partial[row]
                new_parities[p] = block
        if self.code.gf_pass and len(parities) > 1:
            yield from self._span_wait(
                self._charge_gf(len(ext.segments), span_len), ctx, "gf"
            )
        staged = 2 * ext.touched_bytes + 2 * len(parities) * span_len
        yield from self._span_wait(
            self._charge_write_staging(staged, ext), ctx, "staging"
        )
        # phase 3: write new data and new parities
        write_events = self._segment_writes(ext, io_data, ctx, deadline_ns)
        for p in parities:
            write_events.append(
                self.bdevs[p].write(
                    ext.parity_offset + span_off, span_len, new_parities[p],
                    ctx=ctx, deadline_ns=deadline_ns,
                )
            )
        yield AllOf(self.env, write_events)

    def _write_rcw(self, ext: StripeExtent, io_data, ctx=None, deadline_ns=None):
        """Reconstruct-write: read untouched data, recompute parity fully."""
        g = self.geometry
        chunk = g.chunk_bytes
        # Build the full new stripe image: read whatever the write does not
        # cover (untouched chunks and partial-chunk complements).
        gaps = self._stripe_gaps(ext)
        read_events = [
            self.bdevs[g.data_drive(ext.stripe, d)].read(
                ext.stripe * chunk + off, length,
                ctx=ctx, deadline_ns=deadline_ns,
            )
            for d, off, length in gaps
        ]
        gap_blocks = yield from self._gather(read_events)
        parity_blocks = yield from self._encode_parities(
            self._assemble_stripe(ext, io_data, gaps, gap_blocks), ctx
        )
        gap_bytes = sum(length for _, _, length in gaps)
        staged = ext.touched_bytes + gap_bytes + len(self._alive_parities(ext)) * chunk
        yield from self._span_wait(
            self._charge_write_staging(staged, ext), ctx, "staging"
        )
        write_events = self._segment_writes(ext, io_data, ctx, deadline_ns)
        write_events += self._parity_writes(ext, parity_blocks, ctx, deadline_ns)
        yield AllOf(self.env, write_events)

    def _write_degraded_region(
        self, ext: StripeExtent, io_data, seg: ChunkSegment, ctx=None,
        deadline_ns=None,
    ):
        """Write covering only a failed data chunk: region-scoped parity rebuild.

        Since parity is the (weighted) sum of all data chunks, the new
        parity over the written region is simply the sum of the *other*
        chunks' same region with the new data — no reconstruction of the
        failed chunk's old content and no old-parity read are needed, and
        the cost is proportional to the I/O size, keeping the degraded
        write penalty small (Fig. 18/30: ~5-11% drop).
        """
        g = self.geometry
        failed_index = g.data_index_of_drive(ext.stripe, seg.drive)
        region_offset, region_len = seg.chunk_offset, seg.length
        failed = self.failed_in_stripe(ext.stripe)
        survivors = [
            d for d in range(g.data_per_stripe)
            if d != failed_index and g.data_drive(ext.stripe, d) not in failed
        ]
        read_events = [
            self.bdevs[g.data_drive(ext.stripe, d)].read(
                ext.stripe * g.chunk_bytes + region_offset, region_len,
                ctx=ctx, deadline_ns=deadline_ns,
            )
            for d in survivors
        ]
        blocks = yield from self._gather(read_events)
        yield from self._span_wait(
            self._charge_reconstruct_staging(region_len * len(blocks), ext),
            ctx,
            "staging",
        )
        yield from self._span_wait(
            self._charge_xor(len(blocks) + 1, region_len), ctx, "xor"
        )
        parity_blocks = [None] * self.code.m
        if self.functional:
            # the region's full data image: survivors plus the new data
            image = dict(zip(survivors, blocks))
            image[failed_index] = self._seg_data(io_data, seg)
            parity_blocks = self.code.encode(
                [image[d] for d in range(g.data_per_stripe)]
            )
        write_events = [
            self.bdevs[p].write(
                ext.parity_offset + region_offset, region_len,
                parity_blocks[self._parity_index(ext, p)],
                ctx=ctx, deadline_ns=deadline_ns,
            )
            for p in self._alive_parities(ext)
        ]
        finish = self._subscribe_early(write_events)
        if self.code.gf_pass and len(write_events) > 1:
            yield from self._span_wait(
                self._charge_gf(len(survivors) + 1, region_len), ctx, "gf"
            )
        yield finish if finish is not None else AllOf(self.env, write_events)

    def _write_degraded_data(self, ext: StripeExtent, io_data, failed_touched,
                             ctx=None, deadline_ns=None):
        """Write when a touched data chunk lives on a failed drive.

        Reconstructs the failed chunk's old content when the write only
        partially covers it, merges the new data, recomputes parity from
        the full stripe image and writes all survivors.
        """
        g = self.geometry
        chunk = g.chunk_bytes
        touched_by_index = {s.data_index: s for s in ext.segments}
        failed_indices = {
            g.data_index_of_drive(ext.stripe, s.drive) for s in failed_touched
        }
        partial_failed = [
            i for i in failed_indices if touched_by_index[i].length < chunk
        ]
        # read every surviving data chunk in full
        failed = self.failed_in_stripe(ext.stripe)
        survivors = [
            d for d in range(g.data_per_stripe)
            if g.data_drive(ext.stripe, d) not in failed
        ]
        read_events = [
            self.bdevs[g.data_drive(ext.stripe, d)].read(
                ext.stripe * chunk, chunk,
                ctx=ctx, deadline_ns=deadline_ns,
            )
            for d in survivors
        ]
        # if the failed chunk is partially covered we need its old content:
        # read parity too so it can be reconstructed
        parity_blocks: Dict[int, Optional[np.ndarray]] = {}
        parities_to_read = self._alive_parities(ext)[: len(failed_indices)] if partial_failed else []
        for p in parities_to_read:
            read_events.append(
                self.bdevs[p].read(ext.parity_offset, chunk, ctx=ctx,
                                   deadline_ns=deadline_ns)
            )
        blocks = yield from self._gather(read_events)
        survivor_blocks = blocks[: len(survivors)]
        for p, blk in zip(parities_to_read, blocks[len(survivors):]):
            parity_blocks[p] = blk
        source_bytes = chunk * len(blocks)
        yield from self._span_wait(
            self._charge_reconstruct_staging(source_bytes, ext), ctx, "staging"
        )
        yield from self._span_wait(
            self._charge_xor(len(blocks), chunk), ctx, "xor"
        )
        stripe_img: Optional[List[np.ndarray]] = None
        if self.functional:
            present = dict(zip(survivors, survivor_blocks))
            if partial_failed:
                shards = dict(present)
                for p, blk in parity_blocks.items():
                    shards[g.data_per_stripe + self._parity_index(ext, p)] = blk
                for i in failed_indices:
                    present[i] = self.code.decode_one(i, shards, chunk)
            else:
                for i in failed_indices:
                    present[i] = np.zeros(chunk, dtype=np.uint8)
            # merge new data over the old image
            stripe_img = []
            for d in range(g.data_per_stripe):
                base = present.get(d)
                if base is None:
                    base = np.zeros(chunk, dtype=np.uint8)
                base = base.copy()
                seg = touched_by_index.get(d)
                if seg is not None:
                    base[seg.chunk_offset : seg.chunk_end] = self._seg_data(io_data, seg)
                stripe_img.append(base)
        new_parity = yield from self._encode_parities(stripe_img, ctx)
        staged = chunk * (len(survivors) + len(self._alive_parities(ext)))
        yield from self._span_wait(
            self._charge_write_staging(staged, ext), ctx, "staging"
        )
        write_events = self._segment_writes(
            ext, io_data, ctx, deadline_ns, skip=failed
        )
        write_events += self._parity_writes(ext, new_parity, ctx, deadline_ns)
        yield AllOf(self.env, write_events)

