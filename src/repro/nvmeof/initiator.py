"""The NVMe-oF initiator: a host-side handle to one remote drive.

A :class:`RemoteBdev` turns the message exchange with a target into plain
``read``/``write`` calls returning completion events, which is the
interface the baseline RAID controllers program against.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.cluster.machines import HostMachine
from repro.net.fabric import ConnectionEnd
from repro.nvmeof.messages import (
    IoError,
    NvmeOfCommand,
    NvmeOfCompletion,
    Opcode,
    next_cid,
)
from repro.qos.errors import Busy, DeadlineExceeded
from repro.sim.core import Environment, Event


def completion_error(name: str, completion: NvmeOfCompletion) -> IoError:
    """Map a failed completion to its typed exception.

    ``status == "busy"`` (queue-full fast-reject) and ``"deadline"``
    (expired at the target) get their :mod:`repro.qos.errors` subclasses so
    overload-aware callers can tell shed work from real faults; everything
    else stays a plain :class:`IoError`.
    """
    message = f"{name}: {completion.error}"
    if completion.status == "busy":
        return Busy(message)
    if completion.status == "deadline":
        return DeadlineExceeded(message)
    return IoError(message)


class RemoteBdev:
    """Host-side view of one remote NVMe namespace over NVMe-oF."""

    def __init__(self, host: HostMachine, end: ConnectionEnd, name: str = "bdev") -> None:
        self.env: Environment = host.env
        self.host = host
        self.end = end
        self.name = name
        self._pending: Dict[int, Event] = {}
        #: sim time of the last completion seen from this member — the
        #: liveness signal prolonged-failure fencing keys off (§5.4)
        self.last_completion_ns = 0
        #: Observability: armed by the controller when ``cluster.obs`` is set.
        self.tracer = None
        #: Verification: armed by the controller when ``cluster.verify`` is
        #: set — a :class:`repro.verify.ProtocolChecker` watching the
        #: completion stream for duplicate acks.
        self.verifier = None
        #: Overload control: armed by the controller when the circuit
        #: breaker is on — called with each completion's ``ok`` so the
        #: per-member EWMA error rate sees this member's result stream.
        self.on_result = None
        #: cid -> (reserved envelope context, submit time ns, op name)
        self._inflight_spans: Dict[int, Any] = {}
        end.inbox.consume(self._receive)

    @property
    def outstanding(self) -> int:
        return len(self._pending)

    def _receive(self, completion: NvmeOfCompletion) -> None:
        self.last_completion_ns = self.env.now
        if self.verifier is not None:
            self.verifier.on_nvmeof_completion(
                self.name, completion.cid, completion.ok
            )
        if self._inflight_spans:
            entry = self._inflight_spans.pop(completion.cid, None)
            if entry is not None:
                ectx, start_ns, op = entry
                self.tracer.record_at(
                    ectx, f"{self.name}.{op}", "rpc",
                    f"host.{self.name}", start_ns, self.env.now,
                )
        if self.on_result is not None:
            self.on_result(completion.ok)
        event = self._pending.pop(completion.cid, None)
        if event is None or event.triggered:
            return  # late completion for a timed-out command
        if completion.ok:
            event.succeed(completion.data)
        else:
            event.fail(completion_error(self.name, completion))

    def _submit(
        self, opcode: Opcode, offset: int, length: int, data: Any = None,
        ctx: Any = None, deadline_ns: Any = None,
    ) -> Event:
        command = NvmeOfCommand(
            next_cid(), opcode, offset, length, data=data, deadline_ns=deadline_ns
        )
        if self.tracer is not None and ctx is not None:
            # Reserve the remote-op envelope span now so the capsule, target
            # and drive spans nest under it; its end is recorded on completion.
            ectx = self.tracer.derive(ctx)
            command.trace = ectx
            self._inflight_spans[command.cid] = (ectx, self.env.now, opcode.value)
        completion = self.env.event()
        self._pending[command.cid] = completion
        # Write payloads are pulled by the target via one-sided READ after
        # the capsule arrives, so the capsule itself is header-only.
        self.end.send(command)
        return completion

    def read(
        self, offset: int, length: int, ctx: Any = None, deadline_ns: Any = None
    ) -> Event:
        """Completion event whose value is the data (functional mode)."""
        return self._submit(Opcode.READ, offset, length, ctx=ctx,
                            deadline_ns=deadline_ns)

    def write(
        self, offset: int, length: int, data: Any = None, ctx: Any = None,
        deadline_ns: Any = None,
    ) -> Event:
        return self._submit(Opcode.WRITE, offset, length, data=data, ctx=ctx,
                            deadline_ns=deadline_ns)
