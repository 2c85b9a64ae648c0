"""A FIO-style closed-loop block workload (§9.1).

``queue_depth`` worker loops each keep one I/O outstanding against the
array (aggregate inflight = queue depth, like FIO's ``iodepth`` with
``numjobs=1``).  Offsets are uniformly random, aligned to the I/O size, over
the array capacity; the read fraction selects the op mix.

``run`` executes warmup then a measurement window
(:func:`~repro.workloads.window.run_windows`) and reports bandwidth, IOPS
and the latency distribution — the quantities the paper's figures plot.
An I/O counts in the window when it *completes* there.

Each worker is a :class:`~repro.workloads.issue.ClosedLoop`: it backs off
on ``Busy`` and counts any other failed I/O in ``io_errors``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.metrics.latency import LatencyRecorder, LatencySummary
from repro.workloads.issue import BlockStream, ClosedLoop, submit

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


class FioWorkload(BlockStream, ClosedLoop):
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
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        BlockStream.__init__(self, array, io_size, read_fraction, capacity, seed)
        ClosedLoop.__init__(self, seed, queue_depth, "fio")
        self.queue_depth = queue_depth
        self.reads = LatencyRecorder()
        self.writes = LatencyRecorder()
        self._bytes_done = 0
        self._measuring = False
        obs = getattr(array.cluster, "obs", None) if hasattr(array, "cluster") else None
        self._obs = obs
        #: armed tracer (or None): every *measured* I/O opens a root span
        self._tracer = None if obs is None else obs.tracer

    def _op(self):
        offset, is_read = self._draw()
        tracer = self._tracer
        ctx = None
        if tracer is not None and self._measuring:
            ctx = tracer.new_request()
        start = self.env.now
        yield submit(self.array, is_read, offset, self.io_size, ctx)
        if ctx is not None:
            tracer.record_at(ctx, "read" if is_read else "write", "request", "host.io",
                             start, self.env.now, {"offset": offset, "nbytes": self.io_size})
        if self._measuring:
            (self.reads if is_read else self.writes).record(self.env.now - start)
            self._bytes_done += self.io_size

    # -- measurement window (repro.workloads.window) ----------------------

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
