"""Measurement utilities: latency distributions, result tables and
tenancy/fault/integrity counters."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".faults": ("FaultStats",),
    ".integrity": ("IntegrityStats",),
    ".latency": ("LatencyRecorder", "LatencySummary"),
    ".report": ("Row", "format_table"),
    ".tenancy": ("fairness_index", "goodput_retention"),
})

__all__ = [
    "FaultStats",
    "IntegrityStats",
    "LatencyRecorder",
    "LatencySummary",
    "Row",
    "fairness_index",
    "format_table",
    "goodput_retention",
]
