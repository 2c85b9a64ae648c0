"""The dRAID server-side controller (one per storage server).

A dRAID bdev services standard NVMe-oF reads/writes *plus* the extended
opcodes of §4.  It holds an RDMA RC connection end to the host and one to
every peer server, runs Algorithm 1 (partial-write handling) with the §5.3
I/O pipeline, Algorithm 2 (reduce-phase handling with late-Parity
tolerance), and the §6.1 reconstruction participant/reducer roles.

A bdev is unaware of RAID configuration: every command carries all the
information needed (parity destinations and their coefficients, wait-num,
fwd-offset/length, the code a reducer decodes with, ...).

Overload control (armed via ``queue_depth``): intake on the *host*
connection is bounded — a host command arriving while ``queue_depth``
host commands are in service is fast-rejected with a typed ``"busy"``
completion, and a host command dequeued past its ``deadline_ns`` is
fast-failed with ``"deadline"``.  Peer messages are never bounded or
expired: a partial parity in flight must always be allowed to land, or an
admitted write could never reach a final state.  With the knob unset the
historic unbounded behavior is preserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.builder import Cluster
from repro.draid.protocol import (
    DraidCompletion,
    ParityCmd,
    PartialWriteCmd,
    PeerMsg,
    ReconstructionCmd,
    Subtype,
)
from repro.ec import LinearCode, code_for
from repro.ec.gf import GF
from repro.nvmeof.messages import RESPONSE_BYTES, NvmeOfCommand, Opcode
from repro.nvmeof.target import serve_plain
from repro.sim.core import Environment
from repro.storage.drive import DriveFailedError

#: PeerMsg.key value marking a reconstruction partial (keyed by cid instead).
RECON_KEY = -1


def decode_lost(code: LinearCode, lost: Tuple[str, int], blocks, length: int):
    """Rebuild the ``lost`` region from survivor regions labeled with their
    ``('data', index)`` / ``('parity', row)`` role in the stripe."""

    def shard(source: Tuple[str, int]) -> int:
        kind, index = source
        return index if kind == "data" else code.k + index

    shards = {shard(source): block for source, block in blocks.items()}
    return code.decode_one(shard(lost), shards, length)


@dataclass
class _ParityReduceState:
    """Algorithm 2 state for one in-flight parity reduction.

    Partials are *collected* in arrival order and folded at completion —
    XOR's commutativity makes the fold order irrelevant (§5), and deferring
    the arithmetic keeps late-Parity handling trivial: nothing about the
    final region needs to be known until the Parity command has arrived.
    """

    partials: List[Tuple[int, Optional[np.ndarray]]] = field(default_factory=list)
    old_parity: Optional[Tuple[int, Optional[np.ndarray]]] = None
    received: int = 0
    #: None until the Parity command arrives (late-arrival handling, §5.2)
    wait_num: Optional[int] = None
    cmd: Optional[ParityCmd] = None
    #: fires when the Parity command arrives (used by the §5.2 barrier
    #: ablation, where partials may not be processed before the command)
    cmd_arrived: Optional[object] = None
    #: the end the Parity command came from (completion destination)
    origin: Optional[object] = None


@dataclass
class _ReconReduceState:
    """Reducer-side state for one reconstruction (§6.1)."""

    received: int = 0
    blocks: Dict[Tuple[str, int], Optional[np.ndarray]] = field(default_factory=dict)
    #: None until the reducer's own Reconstruction command arrives
    cmd: Optional[ReconstructionCmd] = None
    own_done: bool = False
    #: the end the command came from (completion destination)
    origin: Optional[object] = None


class DraidBdevServer:
    """Server-side dRAID controller for one storage server.

    :meth:`_serve` is the consumer callback of the host end's inbox and of
    each of the n-1 peer ends'; it starts one handler process per admitted
    message of the extended opcodes, and the callback chain it shares with
    :class:`~repro.nvmeof.target.NvmeOfTarget`
    (:func:`~repro.nvmeof.target.serve_plain`) per plain READ/WRITE.
    """

    def __init__(
        self,
        cluster: Cluster,
        index: int,
        pipeline: bool = True,
        blocking_reduce: bool = False,
        queue_depth: Optional[int] = None,
    ) -> None:
        if queue_depth is not None and queue_depth <= 0:
            raise ValueError(f"queue_depth must be positive, got {queue_depth}")
        self.env: Environment = cluster.env
        self.cluster = cluster
        self.index = index
        self.server = cluster.servers[index]
        #: §5.3 pipeline on/off (ablation knob)
        self.pipeline = pipeline
        #: §5.2 ablation: process peer partials only after the Parity
        #: command has arrived (the "barrier" design dRAID rejects)
        self.blocking_reduce = blocking_reduce
        self.functional = cluster.config.functional_capacity > 0
        self.host_end = cluster.server_end(index)
        self.peer_ends = {}
        for j in range(cluster.num_servers):
            if j == index:
                continue
            self.peer_ends[j] = cluster.peer_end(index, j)
        self._parity_states: Dict[int, _ParityReduceState] = {}
        self._recon_states: Dict[int, _ReconReduceState] = {}
        self.commands_served = 0
        self.down_until = 0
        self.crashes = 0
        #: Overload control: max in-service host commands (None = unbounded).
        self.queue_depth = queue_depth
        self.inflight = 0
        self.busy_rejections = 0
        self.deadline_rejections = 0
        #: Observability: armed by the host controller when ``cluster.obs``
        #: is set; server-side spans parent to each command's ``trace``.
        self.tracer = None
        #: Verification: armed by the host controller when ``cluster.verify``
        #: is set; a :class:`repro.verify.protocol.ProtocolChecker` that
        #: audits every completion/fold this bdev produces.
        self.verifier = None
        self._op_name = f"{self.server.name}.op"
        for end in (self.host_end, *self.peer_ends.values()):
            end.inbox.consume(partial(self._serve, end))

    # -- fault injection -----------------------------------------------------

    def crash(self, down_ns: int) -> None:
        """Crash/restart this storage server.

        Everything volatile is lost: queued command capsules and — crucially
        for §5.4 — the in-flight partial-parity and reconstruction reduce
        state.  Commands arriving while down are dropped without completion;
        the host recovers via timeout + idempotent full-stripe retry.
        """
        if down_ns <= 0:
            raise ValueError(f"crash duration must be positive, got {down_ns}")
        self.down_until = max(self.down_until, self.env.now + down_ns)
        self.crashes += 1
        if self.verifier is not None:
            self.verifier.on_server_crash(self.index)
        self._parity_states.clear()
        self._recon_states.clear()
        self.host_end.inbox.clear()
        for end in self.peer_ends.values():
            end.inbox.clear()

    # -- dispatch ---------------------------------------------------------

    def _serve(self, end, message) -> None:
        if self.env.now < self.down_until:
            return  # crashed: message lost, no completion ever sent
        self.commands_served += 1
        bounded = end is self.host_end and not isinstance(message, PeerMsg)
        if bounded and self._fast_reject(message, end):
            return
        if isinstance(message, NvmeOfCommand):
            if bounded and self.queue_depth is not None:
                self.inflight += 1
            # one held zero-delay start, as in NvmeOfTarget._serve
            begin = self.env.event()
            begin.callbacks.append(lambda _event: serve_plain(
                self, message, end, ("draid.parse", "draid.complete"),
                self._reply_plain,
            ))
            begin.succeed()
            return
        if isinstance(message, PartialWriteCmd):
            handler = self._handle_partial_write(message, end)
        elif isinstance(message, ParityCmd):
            handler = self._handle_parity(message, end)
        elif isinstance(message, ReconstructionCmd):
            handler = self._handle_reconstruction(message, end)
        elif isinstance(message, PeerMsg):
            handler = self._handle_peer(message, end)
        else:
            raise TypeError(f"unknown dRAID message {message!r}")
        if bounded and self.queue_depth is not None:
            self.inflight += 1
            handler = self._run_bounded(handler)
        self.env.process(handler, name=self._op_name)

    def _run_bounded(self, handler):
        """Wrap a host-command handler with in-service accounting."""
        try:
            yield from handler
        finally:
            self.inflight -= 1

    def _completion_kind(self, message) -> str:
        """The DraidCompletion kind a rejection of ``message`` must carry."""
        if isinstance(message, NvmeOfCommand):
            return "read" if message.opcode is Opcode.READ else "write"
        if isinstance(message, PartialWriteCmd):
            return "data"
        if isinstance(message, ParityCmd):
            return "parity"
        return "recon"

    def _fast_reject(self, message, origin) -> bool:
        """Typed busy/deadline fast-reject for host commands (armed only).

        Rejecting *before* dispatch means no parity/reconstruction reduce
        state is ever created for the command, so nothing dangles; the
        host sees the error completion, aborts the op and retries
        idempotently (§5.4).
        """
        # unknown message types carry no deadline and fall through to the
        # dispatch table's own rejection path
        deadline = getattr(message, "deadline_ns", None)
        if deadline is not None and self.env.now >= deadline:
            self.deadline_rejections += 1
            self._complete(
                origin, message.cid, self._completion_kind(message), ok=False,
                error=f"{self.server.name}: deadline exceeded at target",
                ctx=self._ctx(message), status="deadline",
            )
            return True
        if self.queue_depth is not None and self.inflight >= self.queue_depth:
            self.busy_rejections += 1
            self._complete(
                origin, message.cid, self._completion_kind(message), ok=False,
                error=f"{self.server.name}: submission queue full",
                ctx=self._ctx(message), status="busy",
            )
            return True
        return False

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
            DraidCompletion(cid, kind, ok=ok, data=data, io_offset=io_offset,
                            error=error, trace=ctx, status=status),
            payload_bytes=payload,
            header_bytes=RESPONSE_BYTES,
        )

    def _ctx(self, message):
        """The trace context of ``message`` (None when tracing is off)."""
        return message.trace if self.tracer is not None else None

    def _span(self, work_event, ctx, name):
        """Yield a CPU charge, recording a compute span (ns) when traced."""
        if ctx is None:
            yield work_event
            return
        t0 = self.env.now
        yield work_event
        self.tracer.record(
            ctx, name, "compute", f"{self.server.name}.cpu", t0, self.env.now
        )

    # -- plain NVMe-oF ------------------------------------------------------

    def _reply_plain(self, origin, cmd: NvmeOfCommand, ctx, data, error) -> None:
        """The :func:`~repro.nvmeof.target.serve_plain` chain's last call."""
        read = cmd.opcode is Opcode.READ
        self._complete(origin, cmd.cid, "read" if read else "write",
                       ok=error is None, data=data, error=error,
                       payload=cmd.length if read and error is None else 0, ctx=ctx)
        if origin is self.host_end and self.queue_depth is not None:
            self.inflight -= 1

    # -- PartialWrite: Algorithm 1 + §5.3 pipeline ---------------------------

    def _handle_partial_write(self, cmd: PartialWriteCmd, origin):
        cpu = self.server.cpu
        profile = self.server.cpu_profile
        ctx = self._ctx(cmd)
        yield from self._span(cpu.execute(profile.cmd_handle_ns), ctx, "draid.parse")
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
                 self.server.drive.read(cmd.drive_offset, cmd.length, ctx=ctx))
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
        partial = np.zeros(cmd.fwd_length, dtype=np.uint8)
        if cmd.subtype is Subtype.RMW:
            old = old_blocks[0][1]
            rel = cmd.chunk_offset - cmd.fwd_offset
            partial[rel : rel + cmd.length] = old ^ cmd.data
        else:
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
                cmd.drive_offset, cmd.length, cmd.data, ctx=ctx
            )
        forward_done = self.env.process(self._forward_partials(cmd, old_blocks, ctx))
        if write_event is not None:
            yield write_event
            yield from self._span(
                self.server.cpu.execute(self.server.cpu_profile.completion_ns),
                ctx, "draid.complete",
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
            yield self.server.drive.write(cmd.drive_offset, cmd.length, cmd.data, ctx=ctx)
        yield self.env.process(self._forward_partials(cmd, old_blocks, ctx))
        if cmd.length:
            yield from self._span(
                self.server.cpu.execute(self.server.cpu_profile.completion_ns),
                ctx, "draid.complete",
            )
            self._complete(origin, cmd.cid, "data", ctx=ctx)

    def _forward_partials(self, cmd: PartialWriteCmd, old_blocks, ctx=None):
        cpu = self.server.cpu
        profile = self.server.cpu_profile
        yield from self._span(
            cpu.execute(profile.xor_ns(cmd.fwd_length)), ctx, "draid.partial-xor"
        )
        partial = self._build_partial(cmd, old_blocks)
        for dest, coefficient in cmd.dests:
            block = partial
            if coefficient is not None:
                yield from self._span(
                    cpu.execute(profile.gf_ns(cmd.fwd_length)), ctx, "draid.partial-gf"
                )
                if partial is not None:
                    block = GF.mul_bytes(coefficient, partial)
            self._signal_peer(
                dest,
                PeerMsg(cmd.cid, key=cmd.parity_key, fwd_offset=cmd.fwd_offset,
                        fwd_length=cmd.fwd_length, source=("data", cmd.data_index),
                        data=block, trace=ctx),
            )

    def _signal_peer(self, dest: int, msg: PeerMsg) -> None:
        if dest == self.index:
            raise ValueError("a bdev never forwards a partial to itself")
        self.peer_ends[dest].send(msg)

    # -- Parity: Algorithm 2 -------------------------------------------------

    def _parity_state(self, key: int) -> _ParityReduceState:
        state = self._parity_states.get(key)
        if state is None:
            state = _ParityReduceState()
            self._parity_states[key] = state
        return state

    def _handle_parity(self, cmd: ParityCmd, origin):
        cpu = self.server.cpu
        profile = self.server.cpu_profile
        ctx = self._ctx(cmd)
        yield from self._span(cpu.execute(profile.cmd_handle_ns), ctx, "draid.parse")
        key = cmd.key
        state = self._parity_state(key)
        state.origin = origin
        if cmd.subtype is Subtype.RMW:
            try:
                old = yield self.server.drive.read(
                    cmd.parity_drive_offset + cmd.fwd_offset, cmd.fwd_length, ctx=ctx
                )
            except (DriveFailedError, ValueError) as exc:
                del self._parity_states[key]
                self._complete(origin, cmd.cid, "parity", ok=False, error=str(exc),
                               ctx=ctx)
                return
            yield from self._span(
                cpu.execute(profile.xor_ns(cmd.fwd_length)), ctx, "draid.parity-xor"
            )
            state.old_parity = (cmd.fwd_offset, old)
        state.wait_num = (state.wait_num or 0) + cmd.wait_num
        state.cmd = cmd
        if self.verifier is not None:
            self.verifier.on_parity_cmd(self.index, cmd.cid, key, cmd.wait_num)
        if state.cmd_arrived is not None and not state.cmd_arrived.triggered:
            # wake peers held at the §5.2 barrier (ablation mode only)
            state.cmd_arrived.succeed()
        yield from self._maybe_finish_parity(key)

    def _maybe_finish_parity(self, key: int):
        """Persist and acknowledge once Parity arrived and all partials are in."""
        state = self._parity_states.get(key)
        if state is None or state.cmd is None:
            return
        if state.wait_num is None or state.received < state.wait_num:
            return
        cmd = state.cmd
        del self._parity_states[key]
        data = None
        if self.functional:
            data = np.zeros(cmd.fwd_length, dtype=np.uint8)
            if state.old_parity is not None:
                offset, block = state.old_parity
                rel = offset - cmd.fwd_offset
                data[rel : rel + len(block)] ^= block
            for offset, block in state.partials:
                rel = offset - cmd.fwd_offset
                data[rel : rel + len(block)] ^= block
        origin = state.origin if state.origin is not None else self.host_end
        ctx = self._ctx(cmd)
        try:
            yield self.server.drive.write(
                cmd.parity_drive_offset + cmd.fwd_offset, cmd.fwd_length, data, ctx=ctx
            )
        except (DriveFailedError, ValueError) as exc:
            self._complete(origin, cmd.cid, "parity", ok=False, error=str(exc), ctx=ctx)
            return
        yield from self._span(
            self.server.cpu.execute(self.server.cpu_profile.completion_ns),
            ctx, "draid.complete",
        )
        self._complete(origin, cmd.cid, "parity", ctx=ctx)

    # -- Peer messages ----------------------------------------------------------

    def _handle_peer(self, msg: PeerMsg, end):
        cpu = self.server.cpu
        profile = self.server.cpu_profile
        ctx = self._ctx(msg)
        yield from self._span(cpu.execute(profile.cmd_handle_ns), ctx, "draid.parse")
        if msg.key != RECON_KEY and self.blocking_reduce:
            # §5.2 ablation: a barrier design cannot even fetch the partial
            # before the Parity command has set up the reduction, so the
            # one-sided READ and everything after it wait for the command.
            # dRAID proper proceeds immediately (non-blocking multi-stage).
            state = self._parity_state(msg.key)
            if state.cmd is None:
                if state.cmd_arrived is None:
                    state.cmd_arrived = self.env.event()
                yield state.cmd_arrived
        # fetch the partial from the signalling peer (one-sided READ)
        yield end.rdma_read(msg.fwd_length, ctx=ctx)
        yield from self._span(
            cpu.execute(profile.xor_ns(msg.fwd_length)), ctx, "draid.reduce-xor"
        )
        if msg.key == RECON_KEY:
            yield from self._reduce_recon_partial(msg)
        else:
            state = self._parity_state(msg.key)
            state.partials.append((msg.fwd_offset, msg.data))
            state.received += 1
            if self.verifier is not None:
                self.verifier.on_parity_fold(self.index, msg.key)
            yield from self._maybe_finish_parity(msg.key)

    # -- Reconstruction (§6.1) ---------------------------------------------------

    def _recon_state(self, cid: int) -> _ReconReduceState:
        state = self._recon_states.get(cid)
        if state is None:
            state = _ReconReduceState()
            self._recon_states[cid] = state
        return state

    def _handle_reconstruction(self, cmd: ReconstructionCmd, origin):
        cpu = self.server.cpu
        profile = self.server.cpu_profile
        ctx = self._ctx(cmd)
        yield from self._span(cpu.execute(profile.cmd_handle_ns), ctx, "draid.parse")
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
            state = self._recon_state(cmd.cid)
            state.cmd = cmd
            state.origin = origin
            state.own_done = True
            state.blocks[cmd.source] = region
            yield from self._maybe_finish_recon(cmd.cid)
        else:
            # prioritize forwarding the partial to the reducer (§6.1)
            self._signal_peer(
                cmd.reducer,
                PeerMsg(cmd.cid, key=RECON_KEY, fwd_offset=cmd.region_offset,
                        fwd_length=cmd.region_length, source=cmd.source, data=region,
                        trace=ctx),
            )
        if cmd.read_segment is not None:
            offset, length, io_offset = cmd.read_segment
            seg = None
            if self.functional:
                rel = offset - union_start
                seg = block[rel : rel + length]
            yield from self._span(
                cpu.execute(profile.completion_ns), ctx, "draid.complete"
            )
            # normal-read bytes return directly to the host (§6.1 key idea)
            self._complete(origin, cmd.cid, "read", data=seg, io_offset=io_offset,
                           payload=length, ctx=ctx)

    def _reduce_recon_partial(self, msg: PeerMsg):
        state = self._recon_state(msg.cid)
        state.blocks[msg.source] = msg.data
        state.received += 1
        yield from self._maybe_finish_recon(msg.cid)

    def _maybe_finish_recon(self, cid: int):
        state = self._recon_states.get(cid)
        if state is None or state.cmd is None or not state.own_done:
            return
        if state.received < state.cmd.wait_num:
            return
        cmd = state.cmd
        del self._recon_states[cid]
        profile = self.server.cpu_profile
        ctx = self._ctx(cmd)
        yield from self._span(
            self.server.cpu.execute(
                profile.xor_ns(cmd.region_length) * max(1, len(state.blocks) - 1)
            ),
            ctx, "draid.decode",
        )
        result = None
        if self.functional:
            result = decode_lost(
                code_for(cmd.code), cmd.lost, state.blocks, cmd.region_length
            )
        yield from self._span(
            self.server.cpu.execute(profile.completion_ns), ctx, "draid.complete"
        )
        origin = state.origin if state.origin is not None else self.host_end
        self._complete(origin, cmd.cid, "recon", data=result,
                       io_offset=cmd.lost_io_offset, payload=cmd.region_length,
                       ctx=ctx)
