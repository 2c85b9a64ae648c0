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
from repro.draid.reconstruction import BandwidthAwareSelector, RandomReducerSelector
from repro.ec import LinearCode
from repro.faults.backoff import attempt_timeout_ns
from repro.nvmeof.messages import IoError, NvmeOfCommand, Opcode, next_cid
from repro.raid.geometry import RaidGeometry, StripeExtent
from repro.raid.modes import WriteMode, WritePlan, split_segments
from repro.sim.core import Event


class _OpWaiter:
    """Collects the multiple completions of one dRAID operation.

    Releases when every expected completion bucket is drained, or
    immediately on the first error (all constituent mutations are
    idempotent re-executions of the same logical write, so an abort
    followed by a full-stripe retry is safe — §5.4).

    A traced operation's waiter carries its envelope: ``trace``, the
    context every command of the batch is stamped with, and ``span``, the
    name :meth:`DraidArray._await_op` records it under over
    ``[start_ns, end of the wait]``.  ``sent_ns``, when the batch's last
    command went out, is what a member's fail-slow latency counts from.
    """

    def __init__(self, env, expected: Dict[str, int], participants=(),
                 trace=None, span: str = "") -> None:
        self.event: Event = env.event()
        self.remaining = {k: v for k, v in expected.items() if v > 0}
        self.completions: List[DraidCompletion] = []
        self.errors: List[DraidCompletion] = []
        #: members expected to answer directly / seen answering (§5.4
        #: prolonged-failure fencing keys off the difference)
        self.participants = set(participants)
        self.responded: set = set()
        self.start_ns = self.sent_ns = env.now
        self.trace = trace
        self.span = span
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
        failslow_detector=None,
        code: Optional[LinearCode] = None,
    ) -> None:
        self.pipeline = pipeline
        self.blocking_reduce = blocking_reduce
        super().__init__(cluster, geometry, name=name)
        self.selector = selector or RandomReducerSelector(seed=17)
        self.failslow_detector = failslow_detector
        if code is not None:
            if (code.k, code.m) != (geometry.data_per_stripe, geometry.num_parity):
                raise ValueError(
                    f"{name}: a ({code.k} data + {code.m} parity) code does not "
                    f"fit {geometry!r}"
                )
            self.code = code

    @property
    def selector(self):
        """The §6 reducer policy; a bandwidth-aware one reads each member's
        NIC through this array's member table."""
        return self._selector

    @selector.setter
    def selector(self, selector) -> None:
        if isinstance(selector, BandwidthAwareSelector):
            selector.servers = self.servers
        self._selector = selector

    # -- transport --------------------------------------------------------

    def _attach_transport(self) -> None:
        members = range(self.geometry.num_drives)
        self.bdev_servers = self.server_sides = [
            DraidBdevServer(
                self.cluster, self._server_of(member),
                pipeline=self.pipeline,
                blocking_reduce=self.blocking_reduce,
                queue_depth=self._target_depth,
            )
            for member in members
        ]
        for bdev_server in self.bdev_servers:
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
                member, self.env.now - waiter.sent_ns
            )
            self._maybe_eject_failslow(member)
        if self._breaker is not None:
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
        self, cid: int, expected: Dict[str, int], participants=(), ctx=None,
        span: str = "",
    ) -> _OpWaiter:
        """Open the waiter of one command batch, before any command of it
        is sent.  Under a traced ``ctx`` it reserves the batch's envelope
        span ``span``: the waiter's ``trace`` is what the batch's commands
        carry."""
        if self._protocol_verifier is not None:
            self._protocol_verifier.on_register(cid, expected, participants)
        trace = None
        if ctx is not None and self._tracer is not None:
            trace = self._tracer.derive(ctx)
        waiter = _OpWaiter(self.env, expected, participants, trace, span)
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
        to the remaining budget either way.  A traced batch's envelope is
        recorded when the wait ends.
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
            timeout_ns = attempt_timeout_ns(
                self.timeout_ns, attempt, self._deadline_remaining(deadline_ns)
            )
            expired = not (yield from self._race(waiter.event, timeout_ns, drain))
            if drain and not waiter.event.triggered:
                self._fence_unresponsive(waiter)
        del self._waiters[cid]
        if self._protocol_verifier is not None:
            self._protocol_verifier.on_deregister(cid)
        if waiter.trace is not None:
            self._tracer.record_at(
                waiter.trace, waiter.span, "rpc", f"host.{self.name}",
                waiter.start_ns, self.env.now,
            )
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
        command id (so its payload maps back unambiguously); returns
        ``(cid, waiter)``."""
        cid = next_cid()
        kind = "read" if opcode is Opcode.READ else "write"
        waiter = self._register(
            cid, {kind: 1}, participants={member}, ctx=ctx, span=f"draid.{kind}"
        )
        self.host_ends[member].send(
            NvmeOfCommand(cid, opcode, offset, length, data=data,
                          trace=waiter.trace, deadline_ns=deadline_ns)
        )
        return cid, waiter

    def _member_read(self, drive: int, offset: int, nbytes: int):
        """Raw chunk-region read over the dRAID transport."""
        cid, waiter = self._submit_plain(drive, Opcode.READ, offset, nbytes)
        expired = yield from self._await_op(cid, waiter, drain=False)
        if waiter.errors or expired:
            raise IoError(f"{self.name}: integrity read on member {drive} failed")
        comp = next(c for c in waiter.completions if c.kind == "read")
        return comp.data

    def _member_write(self, drive: int, offset: int, nbytes: int, data):
        """Raw chunk-region write over the dRAID transport."""
        cid, waiter = self._submit_plain(
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
        healthy, lost = split_segments(ext, self.failed_in_stripe(ext.stripe))
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

        def attempt(n: int):
            if n:
                # a member that failed meanwhile is read around (§6.1)
                failed = self.failed_in_stripe(ext.stripe)
                lost = [s for s in pending if s.drive in failed]
                if lost:
                    yield from self._degraded_read(
                        ext, [], lost, buffer, ctx, deadline_ns=deadline_ns
                    )
                pending[:] = [s for s in pending if s.drive not in failed]
            submitted = [
                (seg, *self._submit_plain(
                    seg.drive, Opcode.READ, seg.drive_offset, seg.length,
                    ctx=ctx, deadline_ns=deadline_ns,
                ))
                for seg in pending
            ]
            retry = []
            for seg, cid, waiter in submitted:
                expired = yield from self._await_op(
                    cid, waiter, attempt=n, drain=False, deadline_ns=deadline_ns,
                )
                if waiter.errors or expired:
                    # NVMe-oF reads are idempotent: resend expired ones
                    # (§5.4); errors mean a prolonged failure, handled by
                    # the degraded path on the retry round.
                    self._mark_prolonged_failures(waiter)
                    if self.resilient and expired and not waiter.errors and n >= 2:
                        # silent across escalating deadlines: prolonged
                        # failure — fence the member so the degraded path
                        # serves the read instead of burning the budget
                        self._fence(seg.drive, prolonged=True)
                    retry.append(seg)
                    continue
                if buffer is not None:
                    comp = next(c for c in waiter.completions if c.kind == "read")
                    buffer[seg.io_offset : seg.io_offset + seg.length] = comp.data
            pending[:] = retry
            return not retry

        yield from self._attempts(attempt, "read", ext.stripe, deadline_ns, ctx)

    def _degraded_read(self, ext: StripeExtent, healthy, lost, buffer, ctx=None,
                       deadline_ns=None):
        """§6.1: merge normal reads into the reconstruction broadcast."""
        remaining_healthy = {s.drive: s for s in healthy}
        for order, seg in enumerate(lost):
            self.stats.degraded_reads += 1
            self.stats.remote_reconstructions += 1
            # healthy segments ride along with the first broadcast only
            foldable = remaining_healthy if order == 0 else {}

            def attempt(n: int):
                waiter, expired, folded = yield from self._recon_broadcast(
                    ext, seg, foldable if n == 0 else {}, ctx, deadline_ns,
                    attempt=n,
                )
                if not (waiter.errors or expired):
                    if buffer is not None:
                        for comp in waiter.completions:
                            if comp.data is not None:
                                buffer[comp.io_offset : comp.io_offset + len(comp.data)] = comp.data
                    return True
                # reconstruction reads are idempotent too: a fresh
                # broadcast retries it.  Keep whatever normal-read payloads
                # already arrived and re-read the folded segments that were
                # lost with the op.
                self._mark_prolonged_failures(waiter)
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
                return False

            yield from self._attempts(
                attempt, "read", ext.stripe, deadline_ns, ctx, retries=1, pause=False
            )
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
        reducer_member = self._selector.pick(
            [d for d, _ in participants], seg.length
        )
        folded = {}
        for drive, _ in participants:
            h = foldable.pop(drive, None)
            if h is not None:
                folded[drive] = h
        cid = next_cid()
        waiter = self._register(
            cid, {"recon": 1, "read": len(folded)},
            participants={reducer_member, *folded}, ctx=ctx, span="draid.recon",
        )
        for drive, source in participants:
            h = folded.get(drive)
            read_segment = None if h is None else (h.chunk_offset, h.length, h.io_offset)
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
                    trace=waiter.trace,
                    deadline_ns=deadline_ns,
                )
            )
        expired = yield from self._await_op(
            cid, waiter, attempt=attempt, drain=False, deadline_ns=deadline_ns
        )
        return waiter, expired, list(folded.values())

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

    # -- writes ----------------------------------------------------------------

    def _write_stripe(self, ext: StripeExtent, io_data, ctx=None, deadline_ns=None):
        if self.resilient:
            self._check_tolerance(ext.stripe)
        plan = self._plan_write(ext)

        def attempt(n: int):
            if not n:
                return (yield from self._write_stripe_once(
                    ext, io_data, plan, ctx, deadline_ns=deadline_ns
                ))
            # §5.4: explicit full-stripe retry after timeout/failure
            if self.resilient:
                self._check_tolerance(ext.stripe)
            self._check_write_hole(ext)
            return (yield from self._write_host_fallback(
                ext, io_data, attempt=n, ctx=ctx, deadline_ns=deadline_ns
            ))

        yield from self._attempts(attempt, "write", ext.stripe, deadline_ns, ctx)

    def _write_stripe_once(self, ext: StripeExtent, io_data, plan: WritePlan,
                           ctx=None, deadline_ns=None):
        """One attempt at the optimal disaggregated write path on ``plan``.

        Returns True on clean completion, False if a retry is needed.
        """
        mode = plan.mode
        if mode is WriteMode.FULL_STRIPE:
            # §3: disaggregation gains nothing on a full stripe — the host
            # computes the parity itself
            return (yield from self._write_stripe_image(
                ext, [self._seg_data(io_data, s) for s in ext.segments], ctx,
                "draid.write-full", deadline_ns=deadline_ns,
            ))
        if mode is WriteMode.DEGRADED_STRIPE and plan.parities:
            # several failed chunks or a mixed write: rare, so it takes the
            # §5.4 host-side full-stripe path
            return (yield from self._write_host_fallback(
                ext, io_data, ctx=ctx, deadline_ns=deadline_ns
            ))
        return (yield from self._write_distributed(
            ext, io_data, plan, ctx=ctx, deadline_ns=deadline_ns
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
        writes = [w for w in writes if w[0] not in failed]
        cid = next_cid()
        waiter = self._register(
            cid, {"write": len(writes)}, participants={w[0] for w in writes},
            ctx=ctx, span=span,
        )
        for drive, offset, length, block in writes:
            self.host_ends[drive].send(
                NvmeOfCommand(cid, Opcode.WRITE, offset, length, data=block,
                              trace=waiter.trace, deadline_ns=deadline_ns)
            )
        return (yield from self._finish_write(
            cid, waiter, attempt=attempt, deadline_ns=deadline_ns
        ))

    def _finish_write(self, cid: int, waiter: _OpWaiter, attempt: int = 0,
                      deadline_ns=None):
        """The tail every write broadcast shares: await its completions
        (§5.4 deadline, drain, fencing) and note prolonged failures.  True
        on clean success."""
        expired = yield from self._await_op(
            cid, waiter, attempt=attempt, deadline_ns=deadline_ns
        )
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

    def _write_distributed(self, ext: StripeExtent, io_data, plan: WritePlan,
                           ctx=None, deadline_ns=None):
        """The disaggregated partial-stripe write (§5), one broadcast.

        RMW: every touched data bdev forwards its delta over the parity
        span.  RCW: every data bdev forwards its whole chunk.  A degraded
        region write is an RCW over the lost segment's region alone: every
        surviving data bdev forwards that region (RW_READ) and the host
        adds the lost chunk's new data as one more partial (wait-num + 1) —
        no old-parity read, no reconstruction of the failed chunk, cost
        proportional to the I/O size (Fig. 18/30's small degraded-write
        penalty).
        """
        alive_parities = plan.parities
        if not alive_parities:
            # no parity left to maintain (e.g. RAID-5 with P failed)
            return (yield from self._plain_segment_writes(
                ext, io_data, ctx, deadline_ns=deadline_ns
            ))
        g = self.geometry
        chunk = g.chunk_bytes
        rcw = plan.mode is not WriteMode.READ_MODIFY_WRITE
        # the degraded region's one lost segment, which no bdev can write
        lost = plan.lost[0] if plan.lost else None
        touched = {s.data_index: s for s in ext.segments}
        data_drives = plan.data_drives
        # every surviving data bdev participates in RCW; only touched ones in RMW
        if not rcw:
            fwd_off, fwd_len = ext.span
            contributors = sorted(touched)
        elif lost is None:
            fwd_off, fwd_len = 0, chunk
            contributors = range(g.data_per_stripe)
        else:
            fwd_off, fwd_len = lost.chunk_offset, lost.length
            contributors = [d for d in range(g.data_per_stripe) if d != lost.data_index]
        subtype_parity = Subtype.RW_READ if rcw else Subtype.RMW  # RCW: no preread
        writers = {data_drives[d] for d in contributors if d in touched}
        cid = next_cid()
        waiter = self._register(
            cid, {"data": len(writers), "parity": len(alive_parities)},
            participants=writers | {p for _, p in alive_parities}, ctx=ctx,
            span="draid.partial-write" if lost is None else "draid.degraded-write",
        )
        for d in contributors:
            seg = touched.get(d)
            drive = data_drives[d]
            if rcw:
                subtype = Subtype.RW_WRITE if seg is not None else Subtype.RW_READ
                cmd_fwd_off, cmd_fwd_len = fwd_off, fwd_len
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
                    trace=waiter.trace,
                    deadline_ns=deadline_ns,
                )
            )
        wait_num = len(contributors)
        if lost is not None:
            # the host's own partial: the lost chunk's new data for the region
            wait_num += 1
            partials = [None] * self.code.m
            if self.functional:
                partials = self.code.partial_parity(
                    lost.data_index, self._seg_data(io_data, lost)
                )
        for row, p in alive_parities:
            if lost is not None:
                if self.code.partial_charged(row):
                    yield self._charge_gf(1, fwd_len, ctx)
                self.host_ends[p].send(
                    PeerMsg(cid, key=cid, fwd_offset=fwd_off, fwd_length=fwd_len,
                            source=("data", lost.data_index), data=partials[row],
                            trace=waiter.trace)
                )
            self.host_ends[p].send(
                ParityCmd(cid, subtype=subtype_parity,
                          parity_drive_offset=ext.parity_offset,
                          fwd_offset=fwd_off, fwd_length=fwd_len,
                          wait_num=wait_num, parity_index=row, key=cid,
                          trace=waiter.trace, deadline_ns=deadline_ns)
            )
        # the host's partial charges ran between the sends
        waiter.sent_ns = self.env.now
        return (yield from self._finish_write(cid, waiter, deadline_ns=deadline_ns))
