"""The dRAID server-side controller (one per storage server).

A dRAID bdev services standard NVMe-oF reads/writes *plus* the extended
opcodes of §4.  It holds an RDMA RC connection end to the host and one to
every peer server, runs Algorithm 1 (partial-write handling) with the §5.3
I/O pipeline, Algorithm 2 (reduce-phase handling with late-Parity
tolerance), and the §6.1 reconstruction participant/reducer roles.

A bdev is unaware of RAID configuration: every command carries all the
information needed (parity destinations and their coefficients, wait-num,
fwd-offset/length, the code a reducer decodes with, ...).  Both
reductions — the parity reduce and the reconstruction reducer — are one
:class:`_Reduction` record in one table keyed by command id, finished by
one gate: the command is in and ``wait_num`` peer partials have arrived.

Overload control is the NVMe-oF target's (armed via ``queue_depth``,
:mod:`repro.nvmeof.target`) on the *host* connection only: peer messages
are never bounded or expired, since a partial parity in flight must always
be allowed to land, or an admitted write could never reach a final state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.cluster.builder import Cluster
from repro.draid.protocol import (
    ParityCmd,
    PartialWriteCmd,
    PeerMsg,
    ReconstructionCmd,
    Subtype,
)
from repro.ec import code_for
from repro.ec.gf import GF
from repro.nvmeof.messages import RESPONSE_BYTES, NvmeOfCommand, NvmeOfCompletion, Opcode
from repro.nvmeof.target import NvmeOfTarget
from repro.storage.drive import DriveFailedError

def _fold(span_offset: int, span_length: int, pieces) -> np.ndarray:
    """XOR of the ``(offset, block)`` pieces laid over one parity span,
    starting from a copy of the first piece that covers the whole span."""
    data = None
    rest = []
    for piece in pieces:
        offset, block = piece
        if data is None and offset == span_offset and len(block) == span_length:
            data = block.copy()
        else:
            rest.append(piece)
    if data is None:
        data = np.zeros(span_length, dtype=np.uint8)
    for offset, block in rest:
        rel = offset - span_offset
        data[rel : rel + len(block)] ^= block
    return data


@dataclass
class _Reduction:
    """One in-flight reduction, keyed by its command id: Algorithm 2's
    parity reduce (§5.2) or the §6.1 reconstruction reducer.

    Peer partials are *collected* in arrival order and combined at the
    finish — neither the XOR fold nor the decode depends on order (§5), and
    deferring the arithmetic keeps a late command trivial: nothing about
    the result needs to be known until the command has arrived.
    """

    #: peer partials in arrival order: ``(shard, fwd_offset, block)``
    partials: List[Tuple[int, int, Optional[np.ndarray]]] = field(default_factory=list)
    #: None until the command is in — set only once this bdev's own piece
    #: (old parity, or the reducer's own region) is in too
    cmd: Optional[Union[ParityCmd, ReconstructionCmd]] = None
    #: this bdev's own piece: the old parity of an RMW, the reducer's region
    own: Optional[np.ndarray] = None
    #: the end the command came from (completion destination), set with it
    origin: Optional[object] = None
    #: fires when the command arrives (used by the §5.2 barrier ablation,
    #: where partials may not be processed before the command)
    cmd_arrived: Optional[object] = None

    @property
    def received(self) -> int:
        """Peer partials arrived so far."""
        return len(self.partials)

    @property
    def blocks(self) -> Dict[int, Optional[np.ndarray]]:
        """The peer partials by shard index (a reducer's decode input)."""
        return {shard: block for shard, _, block in self.partials}


class DraidBdevServer(NvmeOfTarget):
    """Server-side dRAID controller for one storage server: an NVMe-oF
    target that serves four more opcodes.

    :meth:`_serve` is the consumer callback of the host end's inbox and of
    each of the n-1 peer ends'; it starts one :meth:`_run` process per
    admitted message of the extended opcodes (the :data:`_OPCODES` table),
    and the inherited :meth:`serve_plain` chain per plain READ/WRITE.  Its
    intake order is its own: a host command's deadline is checked before
    its queue slot, both at arrival, and every message counts as served at
    intake.
    """

    _spans = ("draid.parse", "draid.complete")

    def __init__(
        self,
        cluster: Cluster,
        index: int,
        pipeline: bool = True,
        blocking_reduce: bool = False,
        queue_depth: Optional[int] = None,
    ) -> None:
        self.cluster = cluster
        self.index = index
        #: §5.3 pipeline on/off (ablation knob)
        self.pipeline = pipeline
        #: §5.2 ablation: process peer partials only after their
        #: reduction's command has arrived (the "barrier" design dRAID
        #: rejects)
        self.blocking_reduce = blocking_reduce
        self.functional = cluster.config.functional_capacity > 0
        self.peer_ends = {
            j: cluster.peer_end(index, j)
            for j in range(cluster.num_servers) if j != index
        }
        #: in-flight reductions by command id
        self._reductions: Dict[int, _Reduction] = {}
        #: Verification: armed by the host controller when ``cluster.verify``
        #: is set; a :class:`repro.verify.protocol.ProtocolChecker` that
        #: audits every completion/fold this bdev produces.
        self.verifier = None
        self._op_name = f"{cluster.servers[index].name}.op"
        super().__init__(cluster.servers[index], cluster.server_end(index), queue_depth)

    def _listen(self) -> None:
        for end in (self.host_end, *self.peer_ends.values()):
            end.inbox.consume(partial(self._serve, end))

    # -- fault injection -----------------------------------------------------

    def crash(self, down_ns: int) -> None:
        """Crash/restart this storage server.

        Everything volatile is lost: besides the target's host-end capsules,
        the peer inboxes and — crucially for §5.4 — the in-flight
        partial-parity and reconstruction reduce state.  The host recovers
        via timeout + idempotent full-stripe retry.
        """
        super().crash(down_ns)
        if self.verifier is not None:
            self.verifier.on_server_crash(self.index)
        self._reductions.clear()
        for end in self.peer_ends.values():
            end.inbox.clear()

    # -- dispatch ---------------------------------------------------------

    def _serve(self, end, message) -> None:
        if self.env.now < self.down_until:
            return  # crashed: message lost, no completion ever sent
        self.commands_served += 1
        if isinstance(message, NvmeOfCommand):
            kind, handler = "read" if message.opcode is Opcode.READ else "write", None
        else:
            try:
                kind, handler = _OPCODES[type(message)]
            except KeyError:
                raise TypeError(f"unknown dRAID message {message!r}") from None
        # host commands are bounded; peer partials (kind None) never are
        host = end is self.host_end and kind is not None
        if host and self._fast_reject(message, end, kind):
            return
        slot = host and self.queue_depth is not None
        if slot:
            self.inflight += 1
        if handler is None:
            # one held zero-delay start, as in NvmeOfTarget._serve
            begin = self.env.event()
            begin.callbacks.append(lambda _event: self.serve_plain(message, end))
            begin.succeed()
            return
        self.env.process(self._run(handler, message, end, slot), name=self._op_name)

    def _run(self, handler, message, origin, slot: bool):
        """One extended message: parse it, run its opcode's handler, then
        give back the in-service slot of a bounded host command."""
        try:
            yield self.server.cpu.execute(
                self.server.cpu_profile.cmd_handle_ns, ctx=message.trace,
                span="draid.parse",
            )
            yield from handler(self, message, origin)
        finally:
            if slot:
                self.inflight -= 1

    def _fast_reject(self, message, origin, kind: str) -> bool:
        """Typed busy/deadline fast-reject for host commands (armed only).

        Rejecting *before* dispatch means no reduction state is ever
        created for the command, so nothing dangles; the host sees the
        error completion (of the command's own ``kind``), aborts the op and
        retries idempotently (§5.4).
        """
        deadline = message.deadline_ns
        if deadline is not None and self.env.now >= deadline:
            self.deadline_rejections += 1
            status, why = "deadline", "deadline exceeded at target"
        elif self.queue_depth is not None and self.inflight >= self.queue_depth:
            self.busy_rejections += 1
            status, why = "busy", "submission queue full"
        else:
            return False
        self._complete(origin, message.cid, kind, ok=False,
                       error=f"{self.server.name}: {why}", ctx=message.trace,
                       status=status)
        return True

    def _complete(self, origin, cid, kind, ok=True, data=None, io_offset=0,
                  error=None, payload=0, ctx=None, status=None):
        """Send a completion back to the end the command came from —
        normally the host, or the controller server when the host-side
        controller is offloaded (§7)."""
        if self.verifier is not None:
            self.verifier.on_server_completion(
                self.index, cid, kind, ok, io_offset=io_offset, trace=ctx
            )
        origin.send(
            NvmeOfCompletion(cid, ok=ok, data=data, error=error, trace=ctx,
                             status=status, kind=kind, io_offset=io_offset),
            payload_bytes=payload,
            header_bytes=RESPONSE_BYTES,
        )

    # -- plain NVMe-oF ------------------------------------------------------

    def _reply(self, origin, cmd: NvmeOfCommand, ctx, data, error) -> None:
        """The :meth:`~repro.nvmeof.target.NvmeOfTarget.serve_plain` chain's
        last call."""
        read = cmd.opcode is Opcode.READ
        self._complete(origin, cmd.cid, "read" if read else "write",
                       ok=error is None, data=data, error=error,
                       payload=cmd.length if read and error is None else 0, ctx=ctx)
        if origin is self.host_end and self.queue_depth is not None:
            self.inflight -= 1

    # -- PartialWrite: Algorithm 1 + §5.3 pipeline ---------------------------

    def _handle_partial_write(self, cmd: PartialWriteCmd, origin):
        ctx = cmd.trace
        try:
            if self.pipeline:
                yield from self._partial_write_pipelined(cmd, origin, ctx)
            else:
                yield from self._partial_write_serial(cmd, origin, ctx)
        except (DriveFailedError, ValueError) as exc:
            self._complete(origin, cmd.cid, "data", ok=False, error=str(exc), ctx=ctx)

    def _fetch_and_read(self, cmd: PartialWriteCmd, origin, ctx=None):
        """Start the remote-data fetch and the drive read(s).

        Returns ``(fetch_event_or_None, [((chunk_offset, length), event)])``.
        Both are started eagerly so they overlap (§5.3).
        """
        fetch = origin.rdma_read(cmd.length, ctx=ctx) if cmd.length else None
        reads: List[Tuple[Tuple[int, int], Any]] = []
        chunk_base = cmd.chunk_drive_offset
        if cmd.subtype is Subtype.RMW:
            reads.append(
                ((cmd.chunk_offset, cmd.length),
                 self.server.drive.read(chunk_base + cmd.chunk_offset, cmd.length,
                                        ctx=ctx))
            )
        elif cmd.subtype is Subtype.RW_WRITE:
            # read the chunk complement so the full new image can be forwarded
            seg_start, seg_end = cmd.chunk_offset, cmd.chunk_offset + cmd.length
            fwd_end = cmd.fwd_offset + cmd.fwd_length
            if seg_start > cmd.fwd_offset:
                length = seg_start - cmd.fwd_offset
                reads.append(
                    ((cmd.fwd_offset, length),
                     self.server.drive.read(chunk_base + cmd.fwd_offset, length, ctx=ctx))
                )
            if seg_end < fwd_end:
                length = fwd_end - seg_end
                reads.append(
                    ((seg_end, length),
                     self.server.drive.read(chunk_base + seg_end, length, ctx=ctx))
                )
        elif cmd.subtype is Subtype.RW_READ:
            reads.append(
                ((cmd.fwd_offset, cmd.fwd_length),
                 self.server.drive.read(
                     chunk_base + cmd.fwd_offset, cmd.fwd_length, ctx=ctx
                 ))
            )
        else:
            raise ValueError(f"bad PartialWrite subtype {cmd.subtype}")
        return fetch, reads

    def _build_partial(self, cmd: PartialWriteCmd, old_blocks):
        """The partial parity this bdev contributes (functional mode only)."""
        if not self.functional:
            return None
        if cmd.subtype is Subtype.RMW:
            old = old_blocks[0][1]
            if cmd.length == cmd.fwd_length:  # the segment is the whole span
                return old ^ cmd.data
            partial = np.zeros(cmd.fwd_length, dtype=np.uint8)
            rel = cmd.chunk_offset - cmd.fwd_offset
            partial[rel : rel + cmd.length] = old ^ cmd.data
        else:
            partial = np.zeros(cmd.fwd_length, dtype=np.uint8)
            # full new chunk image: complement reads + the new segment
            for (offset, length), block in old_blocks:
                rel = offset - cmd.fwd_offset
                partial[rel : rel + length] = block
            if cmd.length:
                rel = cmd.chunk_offset - cmd.fwd_offset
                partial[rel : rel + cmd.length] = cmd.data
        return partial

    def _partial_write_pipelined(self, cmd: PartialWriteCmd, origin, ctx=None):
        fetch, reads = self._fetch_and_read(cmd, origin, ctx)
        # remote-data fetch and drive reads overlap (§5.3)
        old_blocks = []
        for region, event in reads:
            block = yield event
            old_blocks.append((region, block))
        if fetch is not None:
            yield fetch
        # drive write proceeds concurrently with parity generation/forwarding
        write_event = None
        if cmd.length:
            write_event = self.server.drive.write(
                cmd.chunk_drive_offset + cmd.chunk_offset, cmd.length, cmd.data,
                ctx=ctx,
            )
        forward_done = self.env.process(self._forward_partials(cmd, old_blocks, ctx))
        if write_event is not None:
            yield write_event
            yield self.server.cpu.execute(
                self.server.cpu_profile.completion_ns, ctx=ctx, span="draid.complete"
            )
            # §5.3: the data bdev reports its own drive-write completion,
            # overlapping with partial-parity forwarding.
            self._complete(origin, cmd.cid, "data", ctx=ctx)
        yield forward_done

    def _partial_write_serial(self, cmd: PartialWriteCmd, origin, ctx=None):
        """Ablation: NVMe-oF-style strictly serial processing (no §5.3)."""
        fetch, reads = self._fetch_and_read(cmd, origin, ctx)
        if fetch is not None:
            yield fetch
        old_blocks = []
        for region, event in reads:
            block = yield event
            old_blocks.append((region, block))
        if cmd.length:
            yield self.server.drive.write(
                cmd.chunk_drive_offset + cmd.chunk_offset, cmd.length, cmd.data,
                ctx=ctx,
            )
        yield self.env.process(self._forward_partials(cmd, old_blocks, ctx))
        if cmd.length:
            yield self.server.cpu.execute(
                self.server.cpu_profile.completion_ns, ctx=ctx, span="draid.complete"
            )
            self._complete(origin, cmd.cid, "data", ctx=ctx)

    def _forward_partials(self, cmd: PartialWriteCmd, old_blocks, ctx=None):
        cpu = self.server.cpu
        profile = self.server.cpu_profile
        yield cpu.execute(
            profile.xor_ns(cmd.fwd_length), ctx=ctx, span="draid.partial-xor"
        )
        partial = self._build_partial(cmd, old_blocks)
        for dest, coefficient in cmd.dests:
            block = partial
            if coefficient is not None:
                yield cpu.execute(
                    profile.gf_ns(cmd.fwd_length), ctx=ctx, span="draid.partial-gf"
                )
                if partial is not None and coefficient != 1:
                    block = GF.mul_bytes(coefficient, partial)
            self._signal_peer(
                dest,
                PeerMsg(cmd.cid, fwd_offset=cmd.fwd_offset,
                        fwd_length=cmd.fwd_length, source=cmd.data_index,
                        data=block, trace=ctx),
            )

    def _signal_peer(self, dest: int, msg: PeerMsg) -> None:
        if dest == self.index:
            raise ValueError("a bdev never forwards a partial to itself")
        self.peer_ends[dest].send(msg)

    # -- reductions: Algorithm 2 and the §6.1 reducer ------------------------

    def _reduction(self, cid: int) -> _Reduction:
        state = self._reductions.get(cid)
        if state is None:
            state = _Reduction()
            self._reductions[cid] = state
        return state

    def _command_in(self, state: _Reduction, cmd, origin, own):
        """The reduction's command and this bdev's own piece are in:
        release the §5.2 barrier and try the gate."""
        state.cmd = cmd
        state.origin = origin
        state.own = own
        if self.verifier is not None:
            self.verifier.on_reduction(self.index, cmd.cid, cmd.wait_num)
        if state.cmd_arrived is not None and not state.cmd_arrived.triggered:
            # wake peers held at the §5.2 barrier (ablation mode only)
            state.cmd_arrived.succeed()
        yield from self._maybe_finish(cmd.cid)

    def _maybe_finish(self, cid: int):
        """The one gate: finish once the command is in and every promised
        peer partial has arrived."""
        state = self._reductions.get(cid)
        if state is None or state.cmd is None or state.received < state.cmd.wait_num:
            return
        del self._reductions[cid]
        if isinstance(state.cmd, ParityCmd):
            yield from self._persist_parity(state)
        else:
            yield from self._decode_and_reply(state)

    def _handle_parity(self, cmd: ParityCmd, origin):
        ctx = cmd.trace
        # taken before the old-parity read: a crash during it clears the
        # table, and the command dies with the record it holds
        state = self._reduction(cmd.cid)
        old = None
        if cmd.subtype is Subtype.RMW:
            try:
                old = yield self.server.drive.read(
                    cmd.chunk_drive_offset + cmd.fwd_offset, cmd.fwd_length, ctx=ctx
                )
            except (DriveFailedError, ValueError) as exc:
                self._reductions.pop(cmd.cid, None)
                self._complete(origin, cmd.cid, "parity", ok=False, error=str(exc),
                               ctx=ctx)
                return
            yield self.server.cpu.execute(
                self.server.cpu_profile.xor_ns(cmd.fwd_length), ctx=ctx,
                span="draid.parity-xor",
            )
        yield from self._command_in(state, cmd, origin, old)

    def _persist_parity(self, state: _Reduction):
        """Algorithm 2's finish: fold the old parity and the partials,
        persist, acknowledge."""
        cmd = state.cmd
        data = None
        if self.functional:
            pieces = [(offset, block) for _, offset, block in state.partials]
            if state.own is not None:
                pieces.insert(0, (cmd.fwd_offset, state.own))
            data = _fold(cmd.fwd_offset, cmd.fwd_length, pieces)
        ctx = cmd.trace
        try:
            yield self.server.drive.write(
                cmd.chunk_drive_offset + cmd.fwd_offset, cmd.fwd_length, data, ctx=ctx
            )
        except (DriveFailedError, ValueError) as exc:
            self._complete(state.origin, cmd.cid, "parity", ok=False, error=str(exc),
                           ctx=ctx)
            return
        yield self.server.cpu.execute(
            self.server.cpu_profile.completion_ns, ctx=ctx, span="draid.complete"
        )
        self._complete(state.origin, cmd.cid, "parity", ctx=ctx)

    # -- Peer messages ----------------------------------------------------------

    def _handle_peer(self, msg: PeerMsg, end):
        cpu = self.server.cpu
        profile = self.server.cpu_profile
        ctx = msg.trace
        if self.blocking_reduce:
            # §5.2 ablation: a barrier design cannot even fetch the partial
            # before the command has set up the reduction, so the one-sided
            # READ and everything after it wait for the command.  dRAID
            # proper proceeds immediately (non-blocking multi-stage).
            state = self._reduction(msg.cid)
            if state.cmd is None:
                if state.cmd_arrived is None:
                    state.cmd_arrived = self.env.event()
                yield state.cmd_arrived
        # fetch the partial from the signalling peer (one-sided READ)
        yield end.rdma_read(msg.fwd_length, ctx=ctx)
        yield cpu.execute(
            profile.xor_ns(msg.fwd_length), ctx=ctx, span="draid.reduce-xor"
        )
        self._reduction(msg.cid).partials.append((msg.source, msg.fwd_offset, msg.data))
        if self.verifier is not None:
            self.verifier.on_fold(self.index, msg.cid)
        yield from self._maybe_finish(msg.cid)

    # -- Reconstruction (§6.1) ---------------------------------------------------

    def _handle_reconstruction(self, cmd: ReconstructionCmd, origin):
        cpu = self.server.cpu
        profile = self.server.cpu_profile
        ctx = cmd.trace
        # read the union of the normal-read segment and the recon region
        # (a single drive I/O even when they are disjoint, §6.1)
        spans = [(cmd.region_offset, cmd.region_offset + cmd.region_length)]
        if cmd.read_segment is not None:
            offset, length, _io = cmd.read_segment
            spans.append((offset, offset + length))
        union_start = min(s for s, _ in spans)
        union_end = max(e for _, e in spans)
        try:
            block = yield self.server.drive.read(
                cmd.chunk_drive_offset + union_start, union_end - union_start, ctx=ctx
            )
        except (DriveFailedError, ValueError) as exc:
            self._complete(origin, cmd.cid, "recon", ok=False, error=str(exc), ctx=ctx)
            return
        region = None
        if self.functional:
            rel = cmd.region_offset - union_start
            region = block[rel : rel + cmd.region_length]
        if cmd.reducer == self.index:
            yield from self._command_in(self._reduction(cmd.cid), cmd, origin, region)
        else:
            # prioritize forwarding the partial to the reducer (§6.1)
            self._signal_peer(
                cmd.reducer,
                PeerMsg(cmd.cid, fwd_offset=cmd.region_offset,
                        fwd_length=cmd.region_length, source=cmd.source, data=region,
                        trace=ctx),
            )
        if cmd.read_segment is not None:
            offset, length, io_offset = cmd.read_segment
            seg = None
            if self.functional:
                rel = offset - union_start
                seg = block[rel : rel + length]
            yield cpu.execute(profile.completion_ns, ctx=ctx, span="draid.complete")
            # normal-read bytes return directly to the host (§6.1 key idea)
            self._complete(origin, cmd.cid, "read", data=seg, io_offset=io_offset,
                           payload=length, ctx=ctx)

    def _decode_and_reply(self, state: _Reduction):
        """The reducer's finish: decode the lost region from its own region
        and the peer partials, reply with it."""
        cmd = state.cmd
        blocks = state.blocks
        blocks[cmd.source] = state.own
        profile = self.server.cpu_profile
        ctx = cmd.trace
        yield self.server.cpu.execute(
            profile.xor_ns(cmd.region_length) * max(1, len(blocks) - 1),
            ctx=ctx, span="draid.decode",
        )
        result = None
        if self.functional:
            result = code_for(cmd.code).decode_one(cmd.lost, blocks, cmd.region_length)
        yield self.server.cpu.execute(profile.completion_ns, ctx=ctx, span="draid.complete")
        self._complete(state.origin, cmd.cid, "recon", data=result,
                       io_offset=cmd.lost_io_offset, payload=cmd.region_length,
                       ctx=ctx)


#: extended opcode -> (the completion kind a rejection of it carries, its
#: handler); a peer partial is never rejected
_OPCODES = {
    PartialWriteCmd: ("data", DraidBdevServer._handle_partial_write),
    ParityCmd: ("parity", DraidBdevServer._handle_parity),
    ReconstructionCmd: ("recon", DraidBdevServer._handle_reconstruction),
    PeerMsg: (None, DraidBdevServer._handle_peer),
}
