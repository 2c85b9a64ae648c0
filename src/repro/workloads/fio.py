"""A FIO-style closed-loop block workload (§9.1).

``queue_depth`` worker loops each keep one I/O outstanding against the
array (aggregate inflight = queue depth, like FIO's ``iodepth`` with
``numjobs=1``).  Offsets are uniformly random, aligned to the I/O size, over
the array capacity; the read fraction selects the op mix.

``run`` executes warmup then a measurement window
(:func:`~repro.workloads.window.run_windows`) and reports bandwidth, IOPS
and the latency distribution — the quantities the paper's figures plot.
An I/O counts in the window when it *completes* there.

A :class:`~repro.qos.errors.Busy` fast-reject takes no simulated time, so
a worker that re-issued at once against a full admission gate or an
over-limit volume would never advance the clock.  It instead sleeps the
§5.4 retry backoff of its consecutive-``Busy`` count, drawn from its own
seeded stream so a run that never sees ``Busy`` keeps its draw order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.faults.backoff import backoff_ns
from repro.metrics.latency import LatencyRecorder, LatencySummary
from repro.nvmeof.messages import IoError
from repro.qos.errors import Busy
from repro.sim.core import Environment, Event
from repro.storage.integrity import ChecksumError
from repro.workloads.window import run_windows

MB = 1_000_000


@dataclass(frozen=True)
class FioResult:
    """Outcome of one measurement window."""

    bandwidth_mb_s: float
    iops: float
    latency: LatencySummary
    ops_completed: int
    measured_ns: int

    @property
    def bandwidth_gbps(self) -> float:
        return self.bandwidth_mb_s * 8 / 1000


class FioWorkload:
    """Closed-loop random read/write generator against a RAID array."""

    def __init__(
        self,
        array,
        io_size: int,
        read_fraction: float = 0.0,
        queue_depth: int = 32,
        capacity: Optional[int] = None,
        seed: int = 1234,
    ) -> None:
        if io_size <= 0:
            raise ValueError(f"io_size must be positive, got {io_size}")
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError(f"read_fraction out of range: {read_fraction}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.array = array
        self.env: Environment = array.env
        self.io_size = io_size
        self.read_fraction = read_fraction
        self.queue_depth = queue_depth
        geometry = array.geometry
        default_cap = geometry.stripe_data_bytes * 4096
        self.capacity = capacity if capacity is not None else default_cap
        if self.capacity < io_size:
            raise ValueError("capacity smaller than one I/O")
        self._rng = random.Random(seed)
        #: jitter of the Busy backoff, apart from the offset/op draws
        self._busy_rng = random.Random(f"{seed}/busy")
        self._slots = max(1, self.capacity // io_size)
        self.reads = LatencyRecorder()
        self.writes = LatencyRecorder()
        self._bytes_done = 0
        self._measuring = False
        #: I/Os that exhausted the array's retry budget (fault injection)
        self.io_errors = 0
        #: typed queue-full fast-rejects (admission gate, volume rate limit)
        self.busy_rejections = 0
        obs = getattr(array.cluster, "obs", None) if hasattr(array, "cluster") else None
        self._obs = obs
        #: armed tracer (or None): every *measured* I/O opens a root span
        self._tracer = None if obs is None else obs.tracer

    def _worker(self, stop_event):
        tracer = self._tracer
        busy = 0  # this worker's consecutive Busy rejects
        while not stop_event.triggered:
            offset = self._rng.randrange(self._slots) * self.io_size
            is_read = self._rng.random() < self.read_fraction
            ctx = None
            if tracer is not None and self._measuring:
                ctx = tracer.new_request()
            start = self.env.now
            try:
                if is_read:
                    yield self.array.read(offset, self.io_size, ctx=ctx)
                else:
                    yield self.array.write(offset, self.io_size, ctx=ctx)
            except Busy:
                self.busy_rejections += 1
                busy += 1
                yield self.env.timeout(backoff_ns(busy, self._busy_rng))
                continue
            except (IoError, ChecksumError):
                # terminal failure after the §5.4 retry budget (or an
                # unrecoverable checksum mismatch on an armed array): the
                # real FIO would log an error and carry on
                self.io_errors += 1
                busy = 0
                continue
            busy = 0
            if ctx is not None:
                tracer.record_root(
                    ctx,
                    "read" if is_read else "write",
                    "host.io",
                    start,
                    self.env.now,
                    args={"offset": offset, "nbytes": self.io_size},
                )
            if self._measuring:
                latency = self.env.now - start
                (self.reads if is_read else self.writes).record(latency)
                self._bytes_done += self.io_size

    # -- measurement window (repro.workloads.window) ----------------------

    def start(self) -> Event:
        """Spawn ``queue_depth`` workers; returns the stop event ending them."""
        stop = self.env.event()
        for _ in range(self.queue_depth):
            self.env.process(self._worker(stop), name="fio")
        return stop

    def open_window(self) -> None:
        """Zero the window's bytes and latencies and start counting
        completions; on an observability-armed cluster the utilization
        sampler runs exactly over the window, so its
        :class:`~repro.obs.sampler.BottleneckReport` excludes warmup."""
        self._measuring = True
        self._bytes_done = 0
        self.reads = LatencyRecorder()
        self.writes = LatencyRecorder()
        sampler = None if self._obs is None else self._obs.sampler
        if sampler is not None:
            sampler.attach_array(self.array)
            sampler.start()

    def close_window(self) -> None:
        """Stop counting completions (and stop the sampler)."""
        self._measuring = False
        sampler = None if self._obs is None else self._obs.sampler
        if sampler is not None:
            sampler.stop()

    def settle_ns(self, measure_ns: int) -> int:
        """A closed loop's window is final at its close: no settle."""
        return 0

    def snapshot(self, measure_ns: int) -> FioResult:
        """The window's bandwidth, IOPS and latency over ``measure_ns``."""
        summary = LatencyRecorder.merged(self.reads, self.writes).summarize()
        return FioResult(
            bandwidth_mb_s=self._bytes_done * 1e9 / measure_ns / MB,
            iops=summary.count * 1e9 / measure_ns,
            latency=summary,
            ops_completed=summary.count,
            measured_ns=measure_ns,
        )

    def run(self, warmup_ns: int = 2_000_000, measure_ns: int = 30_000_000) -> FioResult:
        """Warm up, measure for ``measure_ns``, return windowed results."""
        return run_windows([self], [measure_ns], warmup_ns)[0][0]
