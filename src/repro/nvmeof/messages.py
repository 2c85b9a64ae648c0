"""NVMe-oF wire messages.

These objects ride inside simulated command capsules; the network layer
charges their on-wire size separately, so they may carry real payload
arrays in functional mode without affecting timing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional

#: On-wire size of a completion queue entry (+ transport framing).
RESPONSE_BYTES = 64

_cid_counter = itertools.count(1)


def next_cid() -> int:
    """Globally unique command identifier."""
    return next(_cid_counter)


class Opcode(Enum):
    """Standard NVMe-oF I/O opcodes (dRAID's extensions live in
    :mod:`repro.draid.protocol`)."""

    READ = "read"
    WRITE = "write"


class IoError(RuntimeError):
    """A remote I/O failed (drive fault, injected error, timeout)."""

    #: the completion ``status`` this failure crosses the wire as
    #: (:func:`~repro.nvmeof.initiator.completion_error` maps it back)
    status: Optional[str] = None


@dataclass
class NvmeOfCommand:
    """A read or write submitted to a remote target."""

    cid: int
    opcode: Opcode
    offset: int
    length: int
    #: Payload for functional-mode writes (timing mode: None).
    data: Optional[Any] = None
    #: Observability: :class:`repro.obs.TraceContext` of the traced request
    #: this command belongs to (None when tracing is unarmed).
    trace: Optional[Any] = None
    #: Overload control: absolute sim-time deadline in ns — a target that
    #: dequeues the command after this instant fast-fails it instead of
    #: doing work the initiator has already abandoned (None = no deadline).
    deadline_ns: Optional[int] = None

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError(f"command length must be positive, got {self.length}")
        if self.offset < 0:
            raise ValueError(f"negative offset {self.offset}")


@dataclass
class NvmeOfCompletion:
    """Response to a command (a dRAID bdev's callbacks too, told apart by
    ``kind``: one dRAID operation may produce several under one ``cid``)."""

    cid: int
    ok: bool = True
    #: Read payload in functional mode.
    data: Optional[Any] = None
    error: Optional[str] = None
    #: Observability: trace context of the originating command, so the
    #: response capsule's wire time is attributed to the same request.
    trace: Optional[Any] = None
    #: Overload control: typed failure class — "busy" (queue-full
    #: fast-reject) or "deadline" (command expired at the target); None for
    #: success and ordinary errors.
    status: Optional[str] = None
    #: dRAID only: 'read' | 'write' | 'data' (§5.3 per-data-bdev write
    #: callback) | 'parity' (reduce completion) | 'recon' (rebuilt region)
    kind: str = ""
    #: dRAID only: where a read payload lands in the user I/O buffer
    io_offset: int = 0
