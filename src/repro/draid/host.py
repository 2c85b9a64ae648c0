"""The dRAID host-side controller (§3, §5, §6.1).

The host is a thin coordinator: it admits one write per stripe (stripe
queue), decides the write mode, broadcasts PartialWrite/Parity commands,
and collects callbacks.  Data bytes leave the host exactly once per write;
partial parities flow peer-to-peer between the storage servers.  Normal
reads are lock-free (§8).

Where dRAID gains nothing from disaggregation the host handles data
itself (§3): full-stripe writes compute parity locally, and degraded
writes that touch a failed chunk contribute the failed chunk's image as a
host-supplied partial parity.

Failure handling follows §5.4: completions are collected until every
sub-operation reaches a final state; on error or timeout the host marks
prolonged-failed drives faulty and retries the whole stripe as a
(degraded-aware) full-stripe write.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.array import RaidArray
from repro.cluster.builder import Cluster
from repro.draid.bdev import DraidBdevServer
from repro.draid.protocol import (
    DraidCompletion,
    ParityCmd,
    PartialWriteCmd,
    PeerMsg,
    ReconstructionCmd,
    Subtype,
)
from repro.draid.reconstruction import RandomReducerSelector
from repro.ec import LinearCode
from repro.nvmeof.messages import IoError, NvmeOfCommand, Opcode, next_cid
from repro.raid.geometry import RaidGeometry, StripeExtent
from repro.raid.modes import WriteMode, classify_write
from repro.sim.core import AnyOf, Event


class _OpWaiter:
    """Collects the multiple completions of one dRAID operation.

    Releases when every expected completion bucket is drained, or
    immediately on the first error (all constituent mutations are
    idempotent re-executions of the same logical write, so an abort
    followed by a full-stripe retry is safe — §5.4).
    """

    def __init__(self, env, expected: Dict[str, int], participants=()) -> None:
        self.event: Event = env.event()
        self.remaining = {k: v for k, v in expected.items() if v > 0}
        self.completions: List[DraidCompletion] = []
        self.errors: List[DraidCompletion] = []
        #: members expected to answer directly / seen answering (§5.4
        #: prolonged-failure fencing keys off the difference)
        self.participants = set(participants)
        self.responded: set = set()
        self.start_ns = env.now
        if not self.remaining:
            self.event.succeed(self)

    def on_completion(self, comp: DraidCompletion) -> None:
        """Count ``comp`` in; the last one releases the waiter."""
        if self.event.triggered:
            return
        if not comp.ok:
            self.errors.append(comp)
            self.event.succeed(self)
            return
        self.completions.append(comp)
        if comp.kind in self.remaining:
            self.remaining[comp.kind] -= 1
            if self.remaining[comp.kind] <= 0:
                del self.remaining[comp.kind]
        if not self.remaining:
            self.event.succeed(self)


class DraidArray(RaidArray):
    """The dRAID virtual block device.

    ``code`` selects the erasure code (§7: the broadcast/reduce protocol is
    code-agnostic); the default is the geometry's own — P+Q parity for a
    RAID-5/6 :class:`~repro.raid.geometry.RaidGeometry`.
    """

    def __init__(
        self,
        cluster: Cluster,
        geometry: RaidGeometry,
        name: str = "draid",
        selector=None,
        pipeline: bool = True,
        blocking_reduce: bool = False,
        timeout_ns: Optional[int] = None,
        failslow_detector=None,
        code: Optional[LinearCode] = None,
    ) -> None:
        self.pipeline = pipeline
        self.blocking_reduce = blocking_reduce
        self.selector = selector or RandomReducerSelector(seed=17)
        super().__init__(cluster, geometry, name=name, timeout_ns=timeout_ns)
        self.failslow_detector = failslow_detector
        if code is not None:
            if (code.k, code.m) != (geometry.data_per_stripe, geometry.num_parity):
                raise ValueError(
                    f"{name}: a ({code.k} data + {code.m} parity) code does not "
                    f"fit {geometry!r}"
                )
            self.code = code

    # -- transport --------------------------------------------------------

    def _attach_transport(self) -> None:
        target_depth = (
            None if self.qos is None else self.qos.config.target_queue_depth
        )
        members = range(self.geometry.num_drives)
        self.bdev_servers = self.server_sides = [
            DraidBdevServer(
                self.cluster, self._server_of(member),
                pipeline=self.pipeline,
                blocking_reduce=self.blocking_reduce,
                queue_depth=target_depth,
            )
            for member in members
        ]
        for bdev_server in self.bdev_servers:
            bdev_server.tracer = self._tracer
            bdev_server.verifier = self._protocol_verifier
        #: the controller's command channel to each member's bdev server;
        #: completions come back on the same end
        self.host_ends = [self._command_end(member) for member in members]
        self._waiters: Dict[int, _OpWaiter] = {}
        for member, end in enumerate(self.host_ends):
            end.inbox.consume(partial(self._receive, member))

    def _command_end(self, member: int):
        """The controller's end of its queue pair to ``member``'s server."""
        return self.cluster.host_end(self._server_of(member))

    def _receive(self, member: int, comp: DraidCompletion) -> None:
        if self._protocol_verifier is not None:
            self._protocol_verifier.on_host_completion(member, comp)
        waiter = self._waiters.get(comp.cid)
        if waiter is None:
            return
        waiter.responded.add(member)
        if comp.ok and self.failslow_detector is not None:
            self.failslow_detector.observe(
                member, self.env.now - waiter.start_ns
            )
            self._maybe_eject_failslow(member)
        if self.qos is not None and self.qos.breaker is not None:
            self._breaker_observe(member, comp.ok)
        waiter.on_completion(comp)

    def _maybe_eject_failslow(self, member: int) -> None:
        """EWMA fail-slow detection (§5.4): a member whose completion
        latency dwarfs its peers' is proactively transitioned to degraded
        so reads reconstruct around it instead of waiting on it."""
        if self.failslow_detector.suspect(
            member, exclude=self.failed, now_ns=self.env.now
        ) and self._fence(member):
            self.failslow_detector.note_eject(member, self.env.now)
            self.fault_stats.fail_slow_ejections += 1

    def _register(
        self, cid: int, expected: Dict[str, int], participants=()
    ) -> _OpWaiter:
        if self._protocol_verifier is not None:
            self._protocol_verifier.on_register(cid, expected, participants)
        waiter = _OpWaiter(self.env, expected, participants)
        self._waiters[cid] = waiter
        return waiter

    def _await_op(
        self, cid: int, waiter: _OpWaiter, attempt: int = 0, drain: bool = True,
        deadline_ns=None,
    ):
        """Wait for all final states; flag expiry past the §5.4 deadline.

        On the resilient datapath the deadline escalates with the attempt
        number and a timed-out mutation gets a bounded drain window
        (``drain_factor x timeout``) before unresponsive participants are
        fenced.  Without fault injection nothing happens at expiry but the
        flag — §5.4 forbids a retry before every sub-operation reached a
        final state (concurrent writes on a stripe are forbidden) — so no
        guard timer is armed: the wait is on the op itself and the flag is
        read off the clock afterwards, an op that lands on the very
        nanosecond of its deadline counting as expired (DESIGN.md §9).  A
        request deadline (overload control) clamps the per-attempt timeout
        to the remaining budget either way.
        """
        if not self.resilient:
            timeout_ns = self.timeout_ns
            remaining = self._deadline_remaining(deadline_ns)
            if remaining is not None:
                timeout_ns = min(timeout_ns, max(1, remaining))
            issued = self.env.now
            pending = not waiter.event.triggered
            yield waiter.event
            expired = pending and self.env.now - issued >= timeout_ns
        else:
            timeout_ns = self.backoff.timeout_for(
                attempt, self.timeout_ns,
                remaining_ns=self._deadline_remaining(deadline_ns),
            )
            deadline = self.env.timeout(timeout_ns)
            yield AnyOf(self.env, [waiter.event, deadline])
            expired = not waiter.event.triggered
            if expired:
                self.fault_stats.timeouts += 1
                if drain:
                    # bounded §5.4 drain: one window for stragglers to
                    # land, then fence whoever never answered so their
                    # queued mutations can never race the retry
                    drain_deadline = self.env.timeout(self.drain_factor * timeout_ns)
                    yield AnyOf(self.env, [waiter.event, drain_deadline])
                    if not waiter.event.triggered:
                        self._fence_unresponsive(waiter)
        del self._waiters[cid]
        if self._protocol_verifier is not None:
            self._protocol_verifier.on_deregister(cid)
        return expired

    def _fence_unresponsive(self, waiter: _OpWaiter) -> None:
        for member in sorted(waiter.participants - waiter.responded):
            if member in self.failed:
                continue
            if not self._fence(member, prolonged=True):
                # at tolerance: leave the member in (see :meth:`_fence`)
                break

    def _mark_prolonged_failures(self, waiter: _OpWaiter) -> None:
        """§5.4 prolonged failure: faulty drives detected via error status."""
        if not waiter.errors:
            return
        for member, drive in enumerate(self.drives):
            if drive.failed and member not in self.failed:
                self.failed.add(member)
                self.fault_stats.degraded_transitions += 1

    # -- integrity member I/O (read-repair / scrub path) -----------------------

    def _await_repair_io(self, gathered):
        """dRAID member ops carry their own expiry (:meth:`_await_op`
        escalates deadlines and fences internally), so repair I/O cannot
        stall; unlike the base class no extra deadline race is needed."""
        try:
            outcome = yield gathered
        except IoError:
            return None
        return outcome

    def _submit_plain(self, member: int, opcode: Opcode, offset: int, length: int,
                      data=None, ctx=None, deadline_ns=None):
        """Submit one plain NVMe-oF command to ``member`` under its own
        command id (so its payload maps back unambiguously).

        Returns ``(cid, waiter, envelope context)``; the context is None
        when untraced.
        """
        cid = next_cid()
        kind = "read" if opcode is Opcode.READ else "write"
        waiter = self._register(cid, {kind: 1}, participants={member})
        ectx = self._derive(ctx)
        self.host_ends[member].send(
            NvmeOfCommand(cid, opcode, offset, length, data=data, trace=ectx,
                          deadline_ns=deadline_ns)
        )
        return cid, waiter, ectx

    def _member_read(self, drive: int, offset: int, nbytes: int):
        """Raw chunk-region read over the dRAID transport."""
        cid, waiter, _ = self._submit_plain(drive, Opcode.READ, offset, nbytes)
        expired = yield from self._await_op(cid, waiter, drain=False)
        if waiter.errors or expired:
            raise IoError(f"{self.name}: integrity read on member {drive} failed")
        comp = next(c for c in waiter.completions if c.kind == "read")
        return comp.data

    def _member_write(self, drive: int, offset: int, nbytes: int, data):
        """Raw chunk-region write over the dRAID transport."""
        cid, waiter, _ = self._submit_plain(
            drive, Opcode.WRITE, offset, nbytes, data=data
        )
        expired = yield from self._await_op(cid, waiter)
        if waiter.errors or expired:
            raise IoError(f"{self.name}: integrity write on member {drive} failed")

    # -- reads -----------------------------------------------------------------

    def _read_extent(
        self, ext: StripeExtent, buffer, io_base: int, take_locks: bool = True,
        ctx=None, deadline_ns=None,
    ):
        # dRAID reads are lock-free (§8); take_locks is part of the shared
        # controller interface and has nothing to suppress here.
        if self.resilient:
            self._check_tolerance(ext.stripe)
        failed = self.failed_in_stripe(ext.stripe)
        healthy = [s for s in ext.segments if s.drive not in failed]
        lost = [s for s in ext.segments if s.drive in failed]
        if not lost:
            yield from self._plain_reads(
                ext, healthy, buffer, ctx, deadline_ns=deadline_ns
            )
            return
        yield from self._degraded_read(
            ext, healthy, lost, buffer, ctx, deadline_ns=deadline_ns
        )

    def _plain_reads(self, ext: StripeExtent, segments, buffer, ctx=None,
                     deadline_ns=None):
        pending = list(segments)
        attempts = 0
        while pending:
            submitted = []
            for seg in pending:
                cid, waiter, ectx = self._submit_plain(
                    seg.drive, Opcode.READ, seg.drive_offset, seg.length,
                    ctx=ctx, deadline_ns=deadline_ns,
                )
                submitted.append((cid, seg, waiter, ectx, self.env.now))
            retry = []
            for cid, seg, waiter, ectx, sent_ns in submitted:
                expired = yield from self._await_op(
                    cid, waiter, attempt=attempts, drain=False,
                    deadline_ns=deadline_ns,
                )
                self._record_envelope(ectx, "draid.read", sent_ns)
                if waiter.errors or expired:
                    # NVMe-oF reads are idempotent: resend expired ones
                    # (§5.4); errors mean a prolonged failure, handled by
                    # the degraded path on the retry round.
                    self._mark_prolonged_failures(waiter)
                    if (
                        self.resilient
                        and expired
                        and not waiter.errors
                        and attempts >= 2
                    ):
                        # silent across escalating deadlines: prolonged
                        # failure — fence the member so the degraded path
                        # serves the read instead of burning the budget
                        self._fence(seg.drive, prolonged=True)
                    retry.append(seg)
                    continue
                if buffer is not None:
                    comp = next(c for c in waiter.completions if c.kind == "read")
                    buffer[seg.io_offset : seg.io_offset + seg.length] = comp.data
            if retry:
                attempts += 1
                if attempts > self.max_retries:
                    if self.resilient:
                        self.fault_stats.io_errors += 1
                    raise IoError(f"{self.name}: read failed on stripe {ext.stripe}")
                remaining = self._admit_retry("read", ext.stripe, deadline_ns)
                if self.resilient:
                    self.fault_stats.retries += 1
                    yield from self._backoff_pause(attempts, remaining, ctx)
                failed = self.failed_in_stripe(ext.stripe)
                still_healthy = [s for s in retry if s.drive not in failed]
                lost = [s for s in retry if s.drive in failed]
                if lost:
                    yield from self._degraded_read(
                        ext, [], lost, buffer, ctx, deadline_ns=deadline_ns
                    )
                pending = still_healthy
            else:
                pending = []
        self._note_success()

    def _degraded_read(self, ext: StripeExtent, healthy, lost, buffer, ctx=None,
                       deadline_ns=None):
        """§6.1: merge normal reads into the reconstruction broadcast."""
        remaining_healthy = {s.drive: s for s in healthy}
        for order, seg in enumerate(lost):
            self.stats.degraded_reads += 1
            self.stats.remote_reconstructions += 1
            # healthy segments ride along with the first broadcast only
            waiter, expired, folded = yield from self._recon_broadcast(
                ext, seg, remaining_healthy if order == 0 else {}, ctx, deadline_ns
            )
            if waiter.errors or expired:
                # reconstruction reads are idempotent too: retry once with
                # a fresh broadcast before giving up
                self._mark_prolonged_failures(waiter)
                # keep whatever normal-read payloads already arrived and
                # re-read the folded segments that were lost with the op
                received = set()
                for comp in waiter.completions:
                    if comp.kind == "read":
                        received.add(comp.io_offset)
                        if buffer is not None and comp.data is not None:
                            buffer[comp.io_offset : comp.io_offset + len(comp.data)] = comp.data
                missing = [h for h in folded if h.io_offset not in received]
                if missing:
                    yield from self._plain_reads(
                        ext, missing, buffer, ctx, deadline_ns=deadline_ns
                    )
                self._admit_retry("read", ext.stripe, deadline_ns)
                if self.resilient:
                    self.fault_stats.retries += 1
                waiter, expired, _ = yield from self._recon_broadcast(
                    ext, seg, {}, ctx, deadline_ns, attempt=1
                )
                if waiter.errors or expired:
                    if self.resilient:
                        self.fault_stats.io_errors += 1
                    raise IoError(
                        f"{self.name}: degraded read failed on stripe {ext.stripe}"
                    )
            if buffer is not None:
                for comp in waiter.completions:
                    if comp.data is not None:
                        buffer[comp.io_offset : comp.io_offset + len(comp.data)] = comp.data
        # healthy segments not folded into any reconstruction broadcast
        leftovers = list(remaining_healthy.values())
        if leftovers:
            yield from self._plain_reads(
                ext, leftovers, buffer, ctx, deadline_ns=deadline_ns
            )

    def _recon_broadcast(self, ext: StripeExtent, seg, foldable, ctx, deadline_ns,
                         attempt: int = 0):
        """One reconstruction broadcast for the lost segment ``seg``.

        Participants holding a segment in ``foldable`` (drive -> healthy
        segment) serve it in the same command (ALSO_READ) and are popped
        from the map.  Returns ``(waiter, expired, folded segments)``.
        """
        g = self.geometry
        participants = self._recon_participants(ext, seg.data_index)
        reducer_member = self.selector.pick(
            [d for d, _ in participants], seg.length
        )
        cid = next_cid()
        folded = []
        responders = {reducer_member}
        ectx = self._derive(ctx)
        sent_ns = self.env.now
        for drive, source in participants:
            read_segment = None
            h = foldable.pop(drive, None)
            if h is not None:
                read_segment = (h.chunk_offset, h.length, h.io_offset)
                folded.append(h)
                responders.add(drive)
            self.host_ends[drive].send(
                ReconstructionCmd(
                    cid,
                    subtype=Subtype.ALSO_READ if read_segment else Subtype.NO_READ,
                    chunk_drive_offset=ext.stripe * g.chunk_bytes,
                    region_offset=seg.chunk_offset,
                    region_length=seg.length,
                    source=source,
                    reducer=self._server_of(reducer_member),
                    wait_num=len(participants) - 1,
                    lost=("data", seg.data_index),
                    code=self.code.spec,
                    read_segment=read_segment,
                    lost_io_offset=seg.io_offset,
                    trace=ectx,
                    deadline_ns=deadline_ns,
                )
            )
        waiter = self._register(
            cid, {"recon": 1, "read": len(folded)}, participants=responders
        )
        expired = yield from self._await_op(
            cid, waiter, attempt=attempt, drain=False, deadline_ns=deadline_ns
        )
        self._record_envelope(ectx, "draid.recon", sent_ns)
        return waiter, expired, folded

    def _recon_participants(
        self, ext: StripeExtent, lost_index: int
    ) -> List[Tuple[int, Tuple[str, int]]]:
        """(member, source-role) pairs contributing to the reconstruction of
        data chunk ``lost_index``: the shards the code asks for."""
        k = self.code.k
        return [
            (drive, ("data", s) if s < k else ("parity", s - k))
            for drive, s in self._repair_members(ext.stripe, lost_index)
        ]

    # -- observability (repro.obs) ---------------------------------------------

    def _derive(self, ctx):
        """Reserve the envelope span of one dRAID command batch.

        Returns a derived context to stamp on every command of the batch
        (they are one logical remote operation), or None when untraced.
        """
        if self._tracer is None or ctx is None:
            return None
        return self._tracer.derive(ctx)

    def _record_envelope(self, ectx, name: str, start_ns: int) -> None:
        """Close a reserved envelope span over [start_ns, now] (ns)."""
        if ectx is not None:
            self._tracer.record_at(
                ectx, name, "rpc", f"host.{self.name}", start_ns, self.env.now
            )

    # -- writes ----------------------------------------------------------------

    def _write_stripe(self, ext: StripeExtent, io_data, ctx=None, deadline_ns=None):
        if self.resilient:
            self._check_tolerance(ext.stripe)
        ok = yield from self._write_extent_once(
            ext, io_data, ctx, deadline_ns=deadline_ns
        )
        attempts = 0
        while not ok:
            # §5.4: explicit full-stripe retry after timeout/failure.
            attempts += 1
            if attempts > self.max_retries:
                if self.resilient:
                    self.fault_stats.io_errors += 1
                raise IoError(f"{self.name}: write failed on stripe {ext.stripe}")
            remaining = self._admit_retry("write", ext.stripe, deadline_ns)
            self.stats.retries += 1
            if self.resilient:
                self.fault_stats.retries += 1
                self._check_tolerance(ext.stripe)
                yield from self._backoff_pause(attempts, remaining, ctx)
            self._check_write_hole(ext)
            ok = yield from self._write_host_fallback(
                ext, io_data, attempt=attempts, ctx=ctx, deadline_ns=deadline_ns
            )
        self._note_success()

    def _write_extent_once(self, ext: StripeExtent, io_data, ctx=None,
                           deadline_ns=None):
        """One attempt at the optimal disaggregated write path.

        Returns True on clean completion, False if a retry is needed.
        """
        failed = self.failed_in_stripe(ext.stripe)
        failed_touched = [s for s in ext.segments if s.drive in failed]
        failed_untouched_data = [
            d for d in failed
            if d not in ext.parity_drives and d not in {s.drive for s in ext.segments}
        ]
        mode = classify_write(self.geometry, ext)
        if failed_touched:
            self.stats.degraded_writes += 1
            return (yield from self._write_degraded(
                ext, io_data, failed_touched, ctx, deadline_ns=deadline_ns
            ))
        if mode is WriteMode.FULL_STRIPE:
            # §3: disaggregation gains nothing on a full stripe — the host
            # computes the parity itself
            self.stats.full_stripe_writes += 1
            return (yield from self._write_stripe_image(
                ext, [self._seg_data(io_data, s) for s in ext.segments], ctx,
                "draid.write-full", deadline_ns=deadline_ns,
            ))
        if mode is WriteMode.RECONSTRUCT_WRITE and not failed_untouched_data:
            self.stats.rcw_writes += 1
            return (yield from self._write_distributed(
                ext, io_data, rcw=True, ctx=ctx, deadline_ns=deadline_ns
            ))
        self.stats.rmw_writes += 1
        if failed_untouched_data:
            self.stats.degraded_writes += 1
        return (yield from self._write_distributed(
            ext, io_data, rcw=False, ctx=ctx, deadline_ns=deadline_ns
        ))

    # .. host-side parity: full-stripe writes (§3), §5.4 retries ................

    def _write_host_fallback(self, ext: StripeExtent, io_data, attempt: int = 0,
                             ctx=None, deadline_ns=None):
        """Degraded-aware full-stripe write executed by the host.

        Reads every stripe region the write does not cover (through the
        normal degraded-aware read path), computes parity locally, and
        rewrites the whole stripe.  Used for §5.4 retries and for writes
        spanning several failed chunks.
        """
        g = self.geometry
        gaps = self._stripe_gaps(ext)
        stripe_base = ext.stripe * g.stripe_data_bytes
        gap_buffers: List[Optional[np.ndarray]] = []
        for d, off, length in gaps:
            user_offset = stripe_base + d * g.chunk_bytes + off
            gap_ext, = g.map_extent(user_offset, length)
            buffer = np.zeros(length, dtype=np.uint8) if self.functional else None
            yield from self._read_extent(
                gap_ext, buffer, user_offset, ctx=ctx, deadline_ns=deadline_ns
            )
            gap_buffers.append(buffer)
        return (yield from self._write_stripe_image(
            ext, self._assemble_stripe(ext, io_data, gaps, gap_buffers), ctx,
            "draid.write-fallback", attempt=attempt, deadline_ns=deadline_ns,
        ))

    def _write_stripe_image(self, ext: StripeExtent, image, ctx, span: str,
                            attempt: int = 0, deadline_ns=None):
        """Encode the stripe's full data ``image`` on the host and write
        every surviving member's chunk with a plain NVMe-oF WRITE."""
        chunk = self.geometry.chunk_bytes
        parity_blocks = yield from self._encode_parities(image, ctx)
        return (yield from self._plain_writes(
            ext,
            [
                (drive, ext.stripe * chunk, chunk, block)
                for drive, block in zip(
                    self._shard_drives(ext.stripe), image + parity_blocks
                )
            ],
            ctx, span, attempt=attempt, deadline_ns=deadline_ns,
        ))

    def _plain_writes(self, ext: StripeExtent, writes, ctx, span: str,
                      attempt: int = 0, deadline_ns=None):
        """One batch of plain NVMe-oF WRITEs under one command id: a
        ``(member, drive offset, length, block)`` per write, skipping the
        stripe's failed members.  True on clean success."""
        failed = self.failed_in_stripe(ext.stripe)
        cid = next_cid()
        writers = set()
        ectx = self._derive(ctx)
        sent_ns = self.env.now
        for drive, offset, length, block in writes:
            if drive in failed:
                continue
            self.host_ends[drive].send(
                NvmeOfCommand(cid, Opcode.WRITE, offset, length, data=block,
                              trace=ectx, deadline_ns=deadline_ns)
            )
            writers.add(drive)
        return (yield from self._finish_write(
            cid, {"write": len(writers)}, writers, ectx, span, sent_ns,
            attempt=attempt, deadline_ns=deadline_ns,
        ))

    def _finish_write(self, cid: int, expected: Dict[str, int], participants,
                      ectx, span: str, sent_ns: int, attempt: int = 0,
                      deadline_ns=None):
        """The tail every write broadcast shares: register the expected
        completions, await them (§5.4 deadline, drain, fencing), close the
        trace envelope and note prolonged failures.  True on clean success."""
        waiter = self._register(cid, expected, participants=participants)
        expired = yield from self._await_op(
            cid, waiter, attempt=attempt, deadline_ns=deadline_ns
        )
        self._record_envelope(ectx, span, sent_ns)
        if waiter.errors:
            self._mark_prolonged_failures(waiter)
        return not (waiter.errors or expired)

    def _plain_segment_writes(self, ext: StripeExtent, io_data, ctx=None,
                              deadline_ns=None):
        """No parity left to maintain (e.g. RAID-5 with P failed)."""
        return (yield from self._plain_writes(
            ext,
            [
                (s.drive, s.drive_offset, s.length, self._seg_data(io_data, s))
                for s in ext.segments
            ],
            ctx, "draid.write", deadline_ns=deadline_ns,
        ))

    # .. the disaggregated partial-stripe write (§5) ...........................

    def _dests(self, alive_parities, data_index: int):
        """Where the data bdev of chunk ``data_index`` forwards its partial:
        one ``(server, coefficient)`` per surviving ``(row, member)`` parity,
        the coefficient (and so the bdev's GF charge) being the code's call."""
        return tuple(
            (self._server_of(p), self.code.forward_coefficient(row, data_index))
            for row, p in alive_parities
        )

    def _write_distributed(self, ext: StripeExtent, io_data, rcw: bool, ctx=None,
                           deadline_ns=None):
        g = self.geometry
        chunk = g.chunk_bytes
        failed = self.failed_in_stripe(ext.stripe)
        alive_parities = [
            (row, p) for row, p in enumerate(ext.parity_drives) if p not in failed
        ]
        if not alive_parities:
            return (yield from self._plain_segment_writes(
                ext, io_data, ctx, deadline_ns=deadline_ns
            ))
        if rcw:
            fwd_off, fwd_len = 0, chunk
            subtype_parity = Subtype.RW_READ  # no parity preread
        else:
            fwd_off, fwd_len = ext.parity_span()
            subtype_parity = Subtype.RMW
        cid = next_cid()
        touched = {s.data_index: s for s in ext.segments}
        # every data bdev participates in RCW; only touched ones in RMW
        contributors = range(g.data_per_stripe) if rcw else sorted(touched)
        responders = set()
        ectx = self._derive(ctx)
        sent_ns = self.env.now
        for d in contributors:
            seg = touched.get(d)
            drive = g.data_drive(ext.stripe, d)
            if rcw:
                subtype = Subtype.RW_WRITE if seg is not None else Subtype.RW_READ
                cmd_fwd_off, cmd_fwd_len = 0, chunk
            else:
                subtype = Subtype.RMW
                cmd_fwd_off, cmd_fwd_len = seg.chunk_offset, seg.length
            self.host_ends[drive].send(
                PartialWriteCmd(
                    cid,
                    subtype=subtype,
                    drive_offset=seg.drive_offset if seg else 0,
                    length=seg.length if seg else 0,
                    chunk_offset=seg.chunk_offset if seg else 0,
                    data_index=d,
                    fwd_offset=cmd_fwd_off,
                    fwd_length=cmd_fwd_len,
                    dests=self._dests(alive_parities, d),
                    chunk_drive_offset=ext.stripe * chunk,
                    parity_key=cid,
                    data=self._seg_data(io_data, seg) if seg is not None else None,
                    trace=ectx,
                    deadline_ns=deadline_ns,
                )
            )
            if seg is not None:
                responders.add(drive)
        writers = len(responders)
        for row, p in alive_parities:
            self.host_ends[p].send(
                ParityCmd(cid, subtype=subtype_parity,
                          parity_drive_offset=ext.parity_offset,
                          fwd_offset=fwd_off, fwd_length=fwd_len,
                          wait_num=len(contributors), parity_index=row, key=cid,
                          trace=ectx, deadline_ns=deadline_ns)
            )
            responders.add(p)
        return (yield from self._finish_write(
            cid, {"data": writers, "parity": len(alive_parities)}, responders,
            ectx, "draid.partial-write", sent_ns, deadline_ns=deadline_ns,
        ))

    # .. degraded write touching failed chunks (§3 host participation) .........

    def _write_degraded(self, ext: StripeExtent, io_data, failed_touched, ctx=None,
                        deadline_ns=None):
        """Write that touches a failed data chunk.

        Common case (the write covers *only* the failed chunk, one data
        failure): region-scoped distributed reconstruct-write.  Parity over
        the written region is the (weighted) sum of the other chunks' same
        region plus the new data, so every surviving data bdev forwards its
        region (RW_READ) and the host contributes the new data as one extra
        partial (wait-num + 1) — no old-parity read, no reconstruction of
        the failed chunk, cost proportional to the I/O size (Fig. 18/30's
        small degraded-write penalty).

        Mixed or multi-failure cases are rare (multi-chunk writes) and go
        through the §5.4 host-side full-stripe path.
        """
        g = self.geometry
        failed = self.failed_in_stripe(ext.stripe)
        alive_parities = [
            (row, p) for row, p in enumerate(ext.parity_drives) if p not in failed
        ]
        if not alive_parities:
            return (yield from self._plain_segment_writes(
                ext, io_data, ctx, deadline_ns=deadline_ns
            ))
        only_failed_chunk = (
            len(failed_touched) == len(ext.segments) == 1
            and len(failed - set(ext.parity_drives)) == 1
        )
        if not only_failed_chunk:
            return (yield from self._write_host_fallback(
                ext, io_data, ctx=ctx, deadline_ns=deadline_ns
            ))
        seg = failed_touched[0]
        region_offset, region_len = seg.chunk_offset, seg.length
        cid = next_cid()
        contributors = 0
        ectx = self._derive(ctx)
        sent_ns = self.env.now
        for d in range(g.data_per_stripe):
            drive = g.data_drive(ext.stripe, d)
            if drive in failed:
                continue
            self.host_ends[drive].send(
                PartialWriteCmd(
                    cid,
                    subtype=Subtype.RW_READ,
                    drive_offset=0,
                    length=0,
                    chunk_offset=0,
                    data_index=d,
                    fwd_offset=region_offset,
                    fwd_length=region_len,
                    dests=self._dests(alive_parities, d),
                    chunk_drive_offset=ext.stripe * g.chunk_bytes,
                    parity_key=cid,
                    trace=ectx,
                    deadline_ns=deadline_ns,
                )
            )
            contributors += 1
        # the host's own partial: the failed chunk's new data for the region
        partials = [None] * self.code.m
        if self.functional:
            partials = self.code.partial_parity(
                seg.data_index, self._seg_data(io_data, seg)
            )
        for row, p in alive_parities:
            if self.code.partial_charged(row):
                yield from self._span_wait(
                    self._charge_gf(1, region_len), ctx, "gf"
                )
            self.host_ends[p].send(
                PeerMsg(cid, key=cid, fwd_offset=region_offset, fwd_length=region_len,
                        source=("data", seg.data_index), data=partials[row],
                        trace=ectx)
            )
            self.host_ends[p].send(
                ParityCmd(cid, subtype=Subtype.RW_READ,
                          parity_drive_offset=ext.parity_offset,
                          fwd_offset=region_offset, fwd_length=region_len,
                          wait_num=contributors + 1, parity_index=row, key=cid,
                          trace=ectx, deadline_ns=deadline_ns)
            )
        return (yield from self._finish_write(
            cid, {"parity": len(alive_parities)}, {p for _, p in alive_parities},
            ectx, "draid.degraded-write", sent_ns, deadline_ns=deadline_ns,
        ))
