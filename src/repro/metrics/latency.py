"""Latency recording and summarization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class LatencySummary:
    """Summary statistics of a latency sample, in nanoseconds."""

    count: int
    mean_ns: float
    p50_ns: float
    p90_ns: float
    p99_ns: float
    max_ns: float

    @property
    def mean_us(self) -> float:
        return self.mean_ns / 1_000

    @property
    def p99_us(self) -> float:
        return self.p99_ns / 1_000

    @staticmethod
    def empty() -> "LatencySummary":
        return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)


class LatencyRecorder:
    """Collects per-operation latencies (exact, not sketched).

    Simulated experiments complete at most a few tens of thousands of
    operations, so keeping every sample is cheap and exact.
    """

    def __init__(self) -> None:
        self._samples: List[int] = []
        self._cached: Optional[Tuple[int, LatencySummary]] = None

    def record(self, latency_ns: int) -> None:
        if latency_ns < 0:
            raise ValueError(f"negative latency {latency_ns}")
        self._samples.append(latency_ns)
        self._cached = None

    @staticmethod
    def merged(*recorders: "LatencyRecorder") -> "LatencyRecorder":
        """A new recorder holding every sample of ``recorders`` (in order)."""
        out = LatencyRecorder()
        for rec in recorders:
            out._samples.extend(rec._samples)
        return out

    def __len__(self) -> int:
        return len(self._samples)

    def reset(self) -> None:
        self._samples.clear()
        self._cached = None

    def _percentile(self, sorted_samples, q: float) -> float:
        if len(sorted_samples) == 0:
            return 0.0
        idx = q * (len(sorted_samples) - 1)
        lo = int(idx)
        hi = min(lo + 1, len(sorted_samples) - 1)
        frac = idx - lo
        # int -> float64 promotion and the interpolation arithmetic are
        # IEEE-identical whether the operands come from a Python list or a
        # numpy int64 array, so this matches the pre-numpy implementation
        # bit for bit.
        return float(sorted_samples[lo] * (1 - frac) + sorted_samples[hi] * frac)

    def summarize(self) -> LatencySummary:
        samples = self._samples
        if not samples:
            return LatencySummary.empty()
        if self._cached is not None and self._cached[0] == len(samples):
            return self._cached[1]
        ordered = np.sort(np.asarray(samples, dtype=np.int64))
        summary = LatencySummary(
            count=len(ordered),
            mean_ns=int(ordered.sum(dtype=np.int64)) / len(ordered),
            p50_ns=self._percentile(ordered, 0.50),
            p90_ns=self._percentile(ordered, 0.90),
            p99_ns=self._percentile(ordered, 0.99),
            max_ns=float(ordered[-1]),
        )
        self._cached = (len(ordered), summary)
        return summary
