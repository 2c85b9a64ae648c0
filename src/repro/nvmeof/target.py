"""The NVMe-oF target: server-side command service.

One target runs per storage server.  It consumes command capsules from
the host-facing connection end and services each as its own callback chain
(:func:`serve_plain`, which the dRAID bdev shares for its plain
READ/WRITE) so that drive-internal parallelism is exploitable.  Per the
paper's constraint (§7), all command parsing and completion work
serializes on the server's single poll-mode core.

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

from typing import Any, Callable, Optional, Tuple

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


def serve_plain(
    owner: Any, command: NvmeOfCommand, end: ConnectionEnd,
    spans: Tuple[str, str], reply: Callable[..., None],
) -> None:
    """Serve one plain READ/WRITE on ``owner.server`` as a callback chain:
    CPU parse → [one-sided pull of a write's payload] → drive I/O → CPU
    complete → reply.  A drive error is answered with an error completion.

    ``owner`` is the server-side controller (``env``, ``server``, the
    ``tracer`` it is armed with), ``spans`` names its parse and completion
    charges, ``reply(end, command, ctx, data, error)`` sends its kind of
    completion, always last.  Each step is made with its timer, as the
    timer's only callback (``then=``): nothing here is a process, so no
    ``Initialize`` and no process end.
    """
    server = owner.server
    tracer = owner.tracer
    ctx = command.trace if tracer is not None else None

    def charge(work_ns: int, span: str, then: Callable[[Any], None]) -> None:
        """A CPU charge, recorded as a compute span when traced."""
        if ctx is None:
            server.cpu.execute(work_ns, then)
            return
        env = owner.env
        t0 = env.now

        def charged(event) -> None:
            tracer.record(ctx, span, "compute", f"{server.name}.cpu", t0, env.now)
            then(event)

        server.cpu.execute(work_ns, charged)

    def parsed(_event) -> None:
        try:
            if command.opcode is Opcode.READ:
                server.drive.read(command.offset, command.length, ctx, io_done)
            else:
                # target pulls the payload from host memory (one-sided READ)
                end.rdma_read(command.length, ctx, pulled)
        except (DriveFailedError, ValueError) as exc:
            reply(end, command, ctx, None, str(exc))

    def pulled(_event) -> None:
        try:
            server.drive.write(command.offset, command.length, command.data, ctx, io_done)
        except (DriveFailedError, ValueError) as exc:
            reply(end, command, ctx, None, str(exc))

    def io_done(io) -> None:
        data = io._value  # a read's payload (functional mode), else None
        charge(server.cpu_profile.completion_ns, spans[1],
               lambda _event: reply(end, command, ctx, data, None))

    charge(server.cpu_profile.cmd_handle_ns, spans[0], parsed)


class NvmeOfTarget:
    """Serves standard NVMe-oF reads/writes for one storage server.

    :meth:`_serve` is the consumer callback of ``host_end.inbox``; it starts
    one :func:`serve_plain` chain per admitted command.
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
        if self.queue_depth is not None:
            if self.inflight >= self.queue_depth:
                # bounded submission queue: typed fast-reject, no datapath
                # work and no CPU charge (the reject path must stay cheap)
                self.busy_rejections += 1
                self._reject(command, "submission queue full", "busy")
                return
            self.inflight += 1
        # one held zero-delay event in the slot a handler process's start
        # would take: the run loop takes it in place if nothing else is due
        begin = self.env.event()
        begin.callbacks.append(lambda _event: self._begin(command))
        begin.succeed()

    def _reject(self, command: NvmeOfCommand, why: str, status: str) -> None:
        self.host_end.send(
            NvmeOfCompletion(
                command.cid, ok=False, error=f"{self.server.name}: {why}",
                trace=command.trace, status=status,
            ),
            payload_bytes=0,
            header_bytes=RESPONSE_BYTES,
        )

    def _begin(self, command: NvmeOfCommand) -> None:
        if command.deadline_ns is None or self.env.now < command.deadline_ns:
            serve_plain(
                self, command, self.host_end, ("nvmf.parse", "nvmf.complete"),
                self._reply,
            )
            return
        # stale command: the initiator's budget is already spent, so
        # answer immediately instead of burning drive/CPU time on it
        self.deadline_rejections += 1
        self._reject(command, "deadline exceeded at target", "deadline")
        if self.queue_depth is not None:
            self.inflight -= 1

    def _reply(self, end, command: NvmeOfCommand, ctx, data, error) -> None:
        ok = error is None
        end.send(
            NvmeOfCompletion(command.cid, ok=ok, data=data, error=error, trace=ctx),
            payload_bytes=command.length if ok and command.opcode is Opcode.READ else 0,
            header_bytes=RESPONSE_BYTES,
        )
        self.commands_served += 1
        if self.queue_depth is not None:
            self.inflight -= 1
