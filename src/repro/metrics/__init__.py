"""Measurement utilities: latency distributions and throughput windows."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".faults": ("FaultStats",),
    ".integrity": ("IntegrityStats",),
    ".latency": ("LatencyRecorder", "LatencySummary"),
    ".report": ("Row", "format_table"),
    ".tenancy": ("fairness_index", "goodput_retention"),
    ".timeline": ("ThroughputTimeline", "TimelineSample"),
})

__all__ = [
    "FaultStats",
    "IntegrityStats",
    "LatencyRecorder",
    "LatencySummary",
    "Row",
    "ThroughputTimeline",
    "TimelineSample",
    "fairness_index",
    "format_table",
    "goodput_retention",
]
