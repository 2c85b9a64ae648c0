"""Measurement utilities: latency distributions, result tables and
tenancy/fault/integrity counters."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".faults": ("FaultStats",),
    ".integrity": ("IntegrityStats",),
    ".latency": ("LatencyRecorder", "LatencySummary"),
    ".report": ("Row", "format_table"),
    ".tenancy": ("fairness_index", "goodput_retention"),
})
