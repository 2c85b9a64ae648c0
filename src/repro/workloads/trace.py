"""Block-trace replay.

FIO-style closed loops (``repro.workloads.fio``) measure steady-state
capacity; production storage sees *open-loop* arrivals — bursts land
whether or not earlier I/O finished.  :class:`TraceWorkload` replays a
block trace with its original timing, which is how latency under burst
(and GC interference, and degraded-state brownouts) is evaluated.

Each record is issued at its own size through the open loop's path,
:class:`~repro.workloads.issue.FireAndForget`: a typed reject is counted
and the record dropped, never retried.

Traces are lists of :class:`TraceRecord`; helpers build synthetic traces
(Poisson-ish steady load, on/off bursts, sequential scans) and parse/emit
a simple CSV format (``timestamp_ns,op,offset,nbytes``) compatible with
externally converted traces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, TextIO

from repro.metrics.latency import LatencyRecorder, LatencySummary
from repro.sim.core import AllOf, Environment, Event
from repro.workloads.issue import FireAndForget


@dataclass(frozen=True)
class TraceRecord:
    """One I/O of a block trace."""

    timestamp_ns: int
    op: str  #: 'read' | 'write'
    offset: int
    nbytes: int

    def __post_init__(self) -> None:
        if self.op not in ("read", "write"):
            raise ValueError(f"bad op {self.op!r}")
        if self.timestamp_ns < 0 or self.offset < 0 or self.nbytes <= 0:
            raise ValueError(f"invalid record {self}")


@dataclass(frozen=True)
class TraceResult:
    #: I/Os that succeeded
    completed: int
    latency: LatencySummary
    makespan_ns: int
    #: highest number of I/Os simultaneously in flight during the replay
    peak_inflight: int


class TraceWorkload(FireAndForget):
    """Open-loop trace replay against a block device/array."""

    def __init__(self, array, records: Iterable[TraceRecord]) -> None:
        self.array = array
        self.env: Environment = array.env
        self.records = sorted(records, key=lambda r: r.timestamp_ns)
        self.latencies = LatencyRecorder()
        self._zero_rejects()

    def run(self) -> TraceResult:
        """Replay the whole trace; returns once every I/O has ended."""
        done = self.env.process(self._replay(), name="trace")
        self.env.run(until=done)
        return TraceResult(
            completed=len(self.latencies),
            latency=self.latencies.summarize(),
            makespan_ns=self.env.now,
            peak_inflight=self.peak_inflight,
        )

    def _replay(self):
        base = self.env.now
        completions: List[Event] = []
        for record in self.records:
            submit_at = base + record.timestamp_ns
            if submit_at > self.env.now:
                yield self.env.timeout(submit_at - self.env.now)
            completions.append(self.env.process(self._fire(
                record.offset, record.nbytes, record.op == "read", True
            )))
        yield AllOf(self.env, completions)

    def _completed(self, is_read: bool, nbytes: int, latency_ns: int) -> None:
        self.latencies.record(latency_ns)


# -- synthetic trace builders ---------------------------------------------------


def steady_trace(
    duration_ns: int,
    iops: float,
    io_bytes: int,
    capacity: int,
    read_fraction: float = 1.0,
    seed: int = 0,
) -> List[TraceRecord]:
    """Poisson arrivals at a target IOPS over ``duration_ns``."""
    rng = random.Random(seed)
    records = []
    t = 0.0
    mean_gap = 1e9 / iops
    slots = max(1, capacity // io_bytes)
    while t < duration_ns:
        t += rng.expovariate(1.0) * mean_gap
        if t >= duration_ns:
            break
        op = "read" if rng.random() < read_fraction else "write"
        offset = rng.randrange(slots) * io_bytes
        records.append(TraceRecord(int(t), op, offset, io_bytes))
    return records


def bursty_trace(
    num_bursts: int,
    burst_iops: float,
    burst_ns: int,
    gap_ns: int,
    io_bytes: int,
    capacity: int,
    read_fraction: float = 0.5,
    seed: int = 0,
) -> List[TraceRecord]:
    """On/off bursts: ``burst_ns`` at ``burst_iops``, then idle ``gap_ns``."""
    records: List[TraceRecord] = []
    start = 0
    for burst in range(num_bursts):
        chunk = steady_trace(
            burst_ns, burst_iops, io_bytes, capacity, read_fraction,
            seed=seed + burst,
        )
        records.extend(
            TraceRecord(start + r.timestamp_ns, r.op, r.offset, r.nbytes)
            for r in chunk
        )
        start += burst_ns + gap_ns
    return records


def scan_trace(capacity: int, io_bytes: int, interarrival_ns: int) -> List[TraceRecord]:
    """A sequential full-device read scan (e.g. a backup or scrub pass)."""
    records = []
    t = 0
    for offset in range(0, capacity - io_bytes + 1, io_bytes):
        records.append(TraceRecord(t, "read", offset, io_bytes))
        t += interarrival_ns
    return records


# -- CSV round-trip ------------------------------------------------------------


def write_csv(records: Iterable[TraceRecord], fh: TextIO) -> None:
    """Emit ``timestamp_ns,op,offset,nbytes`` lines."""
    fh.write("timestamp_ns,op,offset,nbytes\n")
    for record in records:
        fh.write(f"{record.timestamp_ns},{record.op},{record.offset},{record.nbytes}\n")


def read_csv(fh: TextIO) -> List[TraceRecord]:
    """Parse the format written by :func:`write_csv` (header optional)."""
    records = []
    for line_number, line in enumerate(fh, start=1):
        line = line.strip()
        if not line or line.startswith("timestamp_ns"):
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"line {line_number}: expected 4 fields, got {len(parts)}")
        timestamp, op, offset, nbytes = parts
        records.append(TraceRecord(int(timestamp), op.strip(), int(offset), int(nbytes)))
    return records
