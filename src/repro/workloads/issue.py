"""One way to issue an I/O: what every generator does with an outcome.

:class:`Outcome` is the one place an issued operation's outcome is read:
:data:`OK`, :data:`BUSY` (a :class:`~repro.qos.errors.Busy`
fast-reject), :data:`DEADLINE` (a
:class:`~repro.qos.errors.DeadlineExceeded`) or :data:`ERROR` (another
:class:`~repro.nvmeof.messages.IoError` or a
:class:`~repro.storage.integrity.ChecksumError`).  Two issue paths act
on it: :class:`ClosedLoop` (FIO's workers, YCSB's clients) backs off on
``Busy``, :class:`FireAndForget` (open-loop arrivals, trace-replay
records) counts a reject and drops the I/O.  :class:`BlockStream` is
what FIO and the open loop share besides: the constructor checks and
the uniform ``(offset, is_read)`` draw.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.faults.backoff import backoff_ns
from repro.nvmeof.messages import IoError
from repro.qos.errors import Busy, DeadlineExceeded
from repro.sim.core import Environment, Event
from repro.storage.integrity import ChecksumError
from repro.workloads.window import run_windows

OK = "ok"
BUSY = "busy"
DEADLINE = "deadline"
ERROR = "error"


class Outcome:
    """How one issued operation ended, in ``kind``.

    ``with Outcome() as outcome:`` around the operation absorbs its I/O
    failure and names it.  The ``with`` sits in the process's own
    generator, not in one it delegates to: CPython 3.11's profiler loses
    the time of a delegated generator that catches an exception thrown
    into the process.
    """

    __slots__ = ("kind",)

    def __enter__(self) -> "Outcome":
        self.kind = OK
        return self

    def __exit__(self, error_type, _error, _traceback) -> bool:
        if error_type is None or not issubclass(error_type, (IoError, ChecksumError)):
            return False  # success, or not an I/O failure: let it propagate
        if issubclass(error_type, Busy):
            self.kind = BUSY
        elif issubclass(error_type, DeadlineExceeded):
            self.kind = DEADLINE
        else:
            self.kind = ERROR
        return True


def submit(device, is_read: bool, offset: int, nbytes: int, ctx=None,
           deadline_ns=None) -> Event:
    """Issue one block read or write on ``device``."""
    if is_read:
        return device.read(offset, nbytes, ctx=ctx, deadline_ns=deadline_ns)
    return device.write(offset, nbytes, ctx=ctx, deadline_ns=deadline_ns)


class BlockStream:
    """Uniform random ``io_size`` block I/O over ``capacity`` bytes of
    ``array`` (default: 4096 stripes), aligned to the I/O size, reads with
    probability ``read_fraction``."""

    def __init__(self, array, io_size: int, read_fraction: float,
                 capacity: Optional[int], seed: int) -> None:
        if io_size <= 0:
            raise ValueError(f"io_size must be positive, got {io_size}")
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError(f"read_fraction out of range: {read_fraction}")
        if capacity is None:
            capacity = array.geometry.stripe_data_bytes * 4096
        if capacity < io_size:
            raise ValueError("capacity smaller than one I/O")
        self.array = array
        self.env: Environment = array.env
        self.io_size = io_size
        self.read_fraction = read_fraction
        self.capacity = capacity
        self._rng = random.Random(seed)
        self._slots = max(1, capacity // io_size)

    def _draw(self):
        """The next I/O's ``(offset, is_read)``."""
        rng = self._rng
        return rng.randrange(self._slots) * self.io_size, rng.random() < self.read_fraction


class ClosedLoop:
    """``loops`` processes that each issue their next operation,
    ``self._op()``, when the last one ends.

    A ``Busy`` takes no simulated time, so a loop that re-issued at once
    against a full admission gate or an over-limit volume would never
    advance the clock: it counts the reject and sleeps the §5.4 retry
    backoff of its consecutive-``Busy`` count, drawn from a child stream
    of the workload seed, so a run that never meets ``Busy`` keeps its
    draw order.  Any other failure is counted and the loop carries on, as
    the real FIO logs an error and goes on.
    """

    def __init__(self, seed, loops: int, name: str) -> None:
        self._loops = (loops, name)
        self._busy_rng = random.Random(f"{seed}/busy")
        #: typed queue-full fast-rejects (admission gate, volume rate limit)
        self.busy_rejections = 0
        #: operations that failed otherwise (retry budget or deadline
        #: spent, unrecoverable checksum mismatch)
        self.io_errors = 0

    def _loop(self, stop_event):
        busy = 0  # this loop's consecutive Busy rejects
        while not stop_event.triggered:
            with Outcome() as outcome:
                yield from self._op()
            if outcome.kind is BUSY:
                self.busy_rejections += 1
                busy += 1
                yield self.env.timeout(backoff_ns(busy, self._busy_rng))
                continue
            busy = 0
            if outcome.kind is not OK:
                self.io_errors += 1

    def start(self) -> Event:
        """Spawn the loops; returns the stop event ending them."""
        count, name = self._loops
        stop = self.env.event()
        for _ in range(count):
            self.env.process(self._loop(stop), name=name)
        return stop

    def settle_ns(self, measure_ns: int) -> int:
        """A closed loop's window is final at its close: no settle."""
        return 0

    def run(self, warmup_ns: int = 2_000_000, measure_ns: int = 30_000_000):
        """Warm up, measure for ``measure_ns``, return windowed results."""
        return run_windows([self], [measure_ns], warmup_ns)[0][0]


class FireAndForget:
    """One process per I/O on ``self.array``, never retried: a success is
    recorded by ``self._completed(is_read, nbytes, latency_ns)``, a reject
    counted by kind and the I/O dropped."""

    #: highest number of this generator's I/Os in flight at once
    peak_inflight = 0
    _inflight = 0

    def _zero_rejects(self) -> None:
        #: typed queue-full fast-rejects (admission gate or target queue)
        self.busy_rejections = 0
        #: typed deadline failures (budget spent before completion)
        self.deadline_failures = 0
        #: ordinary terminal I/O errors (retry budget / §5.4 exhaustion)
        self.io_errors = 0

    def _fire(self, offset: int, nbytes: int, is_read: bool, measured: bool,
              budget_ns=None):
        """Issue one I/O, due ``budget_ns`` from now (None: no deadline);
        ``measured`` says whether it counts."""
        self._inflight += 1
        if self._inflight > self.peak_inflight:
            self.peak_inflight = self._inflight
        start = self.env.now
        deadline = None if budget_ns is None else start + budget_ns
        with Outcome() as outcome:
            yield submit(self.array, is_read, offset, nbytes, deadline_ns=deadline)
        self._inflight -= 1
        if not measured:
            return
        kind = outcome.kind
        if kind is OK:
            self._completed(is_read, nbytes, self.env.now - start)
        elif kind is BUSY:
            self.busy_rejections += 1
        elif kind is DEADLINE:
            self.deadline_failures += 1
        else:
            self.io_errors += 1
