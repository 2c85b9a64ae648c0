"""Typed overload-control errors.

Both are subclasses of :class:`~repro.nvmeof.messages.IoError`, so every
pre-existing ``except IoError`` site (workloads, retry loops, apps) keeps
catching them — arming overload control never turns a handled failure into
an unhandled one.  Code that cares about the *kind* of failure (the
open-loop workload's goodput accounting, the overload experiment) catches
the subclasses first.
"""

from __future__ import annotations

from repro.nvmeof.messages import IoError


class Busy(IoError):
    """Queue-full fast-reject: the I/O was shed at an admission gate.

    Raised (as an async process failure) when a bounded host admission
    queue or a bounded target submission queue is at capacity.  The I/O
    performed no datapath work; the caller may retry later or count the
    rejection against offered load.
    """

    status = "busy"


class DeadlineExceeded(IoError):
    """Terminal deadline failure: the I/O's time budget (ns) is spent.

    Raised when an I/O's absolute deadline passes before it completes —
    at admission, at a target that dequeues a stale command, or in a retry
    loop whose remaining budget reaches zero.  Never retried: retrying work
    the client has already given up on is what turns overload metastable.
    """

    status = "deadline"
