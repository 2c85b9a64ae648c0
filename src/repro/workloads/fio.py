"""A FIO-style closed-loop block workload (§9.1).

``queue_depth`` worker loops each keep one I/O outstanding against the
array (aggregate inflight = queue depth, like FIO's ``iodepth`` with
``numjobs=1``).  Offsets are uniformly random, aligned to the I/O size, over
the array capacity; the read fraction selects the op mix.

``run`` executes warmup then a measurement window and reports bandwidth,
IOPS and the latency distribution — the quantities the paper's figures
plot.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.metrics.latency import LatencyRecorder, LatencySummary
from repro.nvmeof.messages import IoError
from repro.sim.core import Environment
from repro.storage.integrity import ChecksumError

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
        self._slots = max(1, self.capacity // io_size)
        self.reads = LatencyRecorder()
        self.writes = LatencyRecorder()
        self._bytes_done = 0
        self._measuring = False
        #: I/Os that exhausted the array's retry budget (fault injection)
        self.io_errors = 0
        obs = getattr(array.cluster, "obs", None) if hasattr(array, "cluster") else None
        self._obs = obs
        #: armed tracer (or None): every *measured* I/O opens a root span
        self._tracer = None if obs is None else obs.tracer

    def _worker(self, stop_event):
        tracer = self._tracer
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
            except (IoError, ChecksumError):
                # terminal failure after the §5.4 retry budget (or an
                # unrecoverable checksum mismatch on an armed array): the
                # real FIO would log an error and carry on
                self.io_errors += 1
                continue
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

    def combined_latency(self) -> LatencySummary:
        return LatencyRecorder.merged(self.reads, self.writes).summarize()

    def run(self, warmup_ns: int = 2_000_000, measure_ns: int = 30_000_000) -> FioResult:
        """Warm up, measure for ``measure_ns``, return windowed results.

        On an observability-armed cluster the utilization sampler runs
        exactly over the measurement window, so its
        :class:`~repro.obs.sampler.BottleneckReport` excludes warmup.
        """
        stop = self.env.event()
        for _ in range(self.queue_depth):
            self.env.process(self._worker(stop), name="fio")
        self.env.run(until=self.env.now + warmup_ns)
        self._measuring = True
        self._bytes_done = 0
        start = self.env.now
        sampler = None if self._obs is None else self._obs.sampler
        if sampler is not None:
            sampler.attach_array(self.array)
            sampler.start()
        self.env.run(until=start + measure_ns)
        self._measuring = False
        if sampler is not None:
            sampler.stop()
        elapsed = self.env.now - start
        stop.succeed()
        # let inflight I/Os drain so worker processes terminate cleanly
        self.env.run(until=self.env.now + 1)
        summary = self.combined_latency()
        return FioResult(
            bandwidth_mb_s=self._bytes_done * 1e9 / elapsed / MB,
            iops=summary.count * 1e9 / elapsed,
            latency=summary,
            ops_completed=summary.count,
            measured_ns=elapsed,
        )
