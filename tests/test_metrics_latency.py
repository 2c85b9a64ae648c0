"""The numpy LatencyRecorder must match the pre-numpy implementation
bit for bit, and its summary cache must invalidate on new samples."""

import random

import pytest

from repro.metrics.latency import LatencyRecorder, LatencySummary


def _reference_summary(samples):
    """The original pure-Python implementation, kept as the oracle."""

    def percentile(ordered, q):
        if not ordered:
            return 0.0
        idx = q * (len(ordered) - 1)
        lo = int(idx)
        hi = min(lo + 1, len(ordered) - 1)
        frac = idx - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac

    if not samples:
        return LatencySummary.empty()
    ordered = sorted(samples)
    return LatencySummary(
        count=len(ordered),
        mean_ns=sum(ordered) / len(ordered),
        p50_ns=percentile(ordered, 0.50),
        p90_ns=percentile(ordered, 0.90),
        p99_ns=percentile(ordered, 0.99),
        max_ns=float(ordered[-1]),
    )


@pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 9999])
def test_summarize_matches_reference_bitwise(n):
    rng = random.Random(n)
    recorder = LatencyRecorder()
    samples = [rng.randrange(0, 10**9) for _ in range(n)]
    for s in samples:
        recorder.record(s)
    got = recorder.summarize()
    want = _reference_summary(samples)
    assert got.count == want.count
    assert got.mean_ns == want.mean_ns
    assert got.p50_ns == want.p50_ns
    assert got.p90_ns == want.p90_ns
    assert got.p99_ns == want.p99_ns
    assert got.max_ns == want.max_ns
    # plain Python floats, not numpy scalars (Rows get pickled/compared)
    assert type(got.p99_ns) is float
    assert type(got.max_ns) is float


def test_summarize_duplicates_and_constants():
    recorder = LatencyRecorder()
    for _ in range(50):
        recorder.record(1234)
    summary = recorder.summarize()
    assert summary.mean_ns == 1234.0
    assert summary.p50_ns == summary.p99_ns == summary.max_ns == 1234.0


def test_empty_summary():
    assert LatencyRecorder().summarize() == LatencySummary.empty()


def test_cache_invalidated_by_record_and_reset():
    recorder = LatencyRecorder()
    recorder.record(10)
    first = recorder.summarize()
    assert recorder.summarize() is first  # cached: no new samples
    recorder.record(30)
    second = recorder.summarize()
    assert second.count == 2
    assert second.mean_ns == 20.0
    recorder.reset()
    assert recorder.summarize() == LatencySummary.empty()
    recorder.record(5)
    assert recorder.summarize().count == 1


def test_negative_latency_rejected():
    recorder = LatencyRecorder()
    with pytest.raises(ValueError):
        recorder.record(-1)


def test_merged_combines_in_order():
    a, b = LatencyRecorder(), LatencyRecorder()
    for v in (1, 2, 3):
        a.record(v)
    for v in (4, 5):
        b.record(v)
    merged = LatencyRecorder.merged(a, b)
    assert merged._samples == [1, 2, 3, 4, 5]
    assert merged.summarize().count == 5
    # merging never aliases the source recorders' sample lists
    merged.record(6)
    assert len(a) == 3 and len(b) == 2
