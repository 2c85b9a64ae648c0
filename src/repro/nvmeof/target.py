"""The NVMe-oF target: server-side command service.

One target runs per storage server.  It consumes command capsules from
the host-facing connection end and services each in its own process so
that drive-internal parallelism is exploitable.  Per the paper's
constraint (§7), all command parsing and completion work serializes on
the server's single poll-mode core.

Fault injection (used by the failure-handling tests): :meth:`crash`
loses queued and arriving capsules; failed drives produce error
completions rather than silent hangs; a transient network outage is the
connection's :meth:`~repro.net.fabric.RdmaConnection.stall`.

Overload control (armed via ``queue_depth``): the per-connection
submission queue is bounded — a command arriving while ``queue_depth``
commands are in service is fast-rejected with a typed ``"busy"``
completion instead of growing the queue without bound, and a command
dequeued past its ``deadline_ns`` is fast-failed with ``"deadline"``
rather than serviced for an initiator that already gave up.  With the
knob unset the historic unbounded behavior is preserved exactly.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.machines import StorageServer
from repro.net.fabric import ConnectionEnd
from repro.nvmeof.messages import (
    RESPONSE_BYTES,
    NvmeOfCommand,
    NvmeOfCompletion,
    Opcode,
)
from repro.sim.core import Environment
from repro.storage.drive import DriveFailedError


class NvmeOfTarget:
    """Serves standard NVMe-oF reads/writes for one storage server.

    :meth:`_serve` is the consumer callback of ``host_end.inbox``; it starts
    one handler process per admitted command.
    """

    def __init__(
        self,
        server: StorageServer,
        host_end: ConnectionEnd,
        queue_depth: Optional[int] = None,
    ) -> None:
        if queue_depth is not None and queue_depth <= 0:
            raise ValueError(f"queue_depth must be positive, got {queue_depth}")
        self.env: Environment = server.env
        self.server = server
        self.host_end = host_end
        self.down_until = 0
        self.crashes = 0
        self.commands_served = 0
        #: Overload control: max in-service commands (None = unbounded).
        self.queue_depth = queue_depth
        self.inflight = 0
        self.busy_rejections = 0
        self.deadline_rejections = 0
        #: Observability: armed by the controller when ``cluster.obs`` is set.
        self.tracer = None
        host_end.inbox.consume(self._serve)

    def crash(self, down_ns: int) -> None:
        """Fault injection: crash the server process for ``down_ns``.

        Every queued command capsule is lost, and capsules arriving while
        the target is down are dropped without a completion — the host only
        finds out via its own timeout (§5.4).
        """
        if down_ns <= 0:
            raise ValueError(f"crash duration must be positive, got {down_ns}")
        self.down_until = max(self.down_until, self.env.now + down_ns)
        self.crashes += 1
        self.host_end.inbox.clear()

    def _serve(self, command: NvmeOfCommand) -> None:
        if self.env.now < self.down_until:
            return  # crashed: capsule lost, no completion ever sent
        if self.queue_depth is None:
            self.env.process(
                self._handle(command), name=f"{self.server.name}.cmd", tail=True
            )
            return
        if self.inflight >= self.queue_depth:
            # bounded submission queue: typed fast-reject, no datapath
            # work and no CPU charge (the reject path must stay cheap)
            self.busy_rejections += 1
            self.host_end.send(
                NvmeOfCompletion(
                    command.cid, ok=False,
                    error=f"{self.server.name}: submission queue full",
                    trace=command.trace, status="busy",
                ),
                payload_bytes=0,
                header_bytes=RESPONSE_BYTES,
            )
            return
        self.inflight += 1
        self.env.process(
            self._handle_bounded(command), name=f"{self.server.name}.cmd", tail=True
        )

    def _handle_bounded(self, command: NvmeOfCommand):
        """Wrap :meth:`_handle` with in-service accounting (armed only)."""
        try:
            yield from self._handle(command)
        finally:
            self.inflight -= 1

    def _handle(self, command: NvmeOfCommand):
        if command.deadline_ns is not None and self.env.now >= command.deadline_ns:
            # stale command: the initiator's budget is already spent, so
            # answer immediately instead of burning drive/CPU time on it
            self.deadline_rejections += 1
            self.host_end.send(
                NvmeOfCompletion(
                    command.cid, ok=False,
                    error=f"{self.server.name}: deadline exceeded at target",
                    trace=command.trace, status="deadline",
                ),
                payload_bytes=0,
                header_bytes=RESPONSE_BYTES,
            )
            return
        cpu = self.server.cpu
        profile = self.server.cpu_profile
        tracer = self.tracer
        ctx = command.trace if tracer is not None else None
        track = f"{self.server.name}.cpu"
        t0 = self.env.now
        yield cpu.execute(profile.cmd_handle_ns)
        if ctx is not None:
            tracer.record(ctx, "nvmf.parse", "compute", track, t0, self.env.now)
        try:
            if command.opcode is Opcode.READ:
                data = yield self.server.drive.read(
                    command.offset, command.length, ctx=ctx
                )
                t0 = self.env.now
                yield cpu.execute(profile.completion_ns)
                if ctx is not None:
                    tracer.record(ctx, "nvmf.complete", "compute", track, t0, self.env.now)
                # read payload rides back with the response
                self.host_end.send(
                    NvmeOfCompletion(command.cid, ok=True, data=data, trace=ctx),
                    payload_bytes=command.length,
                    header_bytes=RESPONSE_BYTES,
                )
            else:
                # target pulls the payload from host memory (one-sided READ)
                yield self.host_end.rdma_read(command.length, ctx=ctx)
                yield self.server.drive.write(
                    command.offset, command.length, command.data, ctx=ctx
                )
                t0 = self.env.now
                yield cpu.execute(profile.completion_ns)
                if ctx is not None:
                    tracer.record(ctx, "nvmf.complete", "compute", track, t0, self.env.now)
                self.host_end.send(
                    NvmeOfCompletion(command.cid, ok=True, trace=ctx),
                    payload_bytes=0,
                    header_bytes=RESPONSE_BYTES,
                )
        except (DriveFailedError, ValueError) as exc:
            self.host_end.send(
                NvmeOfCompletion(command.cid, ok=False, error=str(exc), trace=ctx),
                payload_bytes=0,
                header_bytes=RESPONSE_BYTES,
            )
        self.commands_served += 1
