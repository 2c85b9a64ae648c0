"""Overload control: admission bounds, deadlines, retry budgets, breakers.

Grown out of the paper's §5.5 QoS discussion (the token bucket used for
tenant rate limiting) into the full overload-control layer the ROADMAP's
rack-scale item needs: bounded admission queues with typed
:class:`Busy` fast-rejects, deadline propagation with terminal
:class:`DeadlineExceeded`, SRE-style :class:`RetryBudget` capping retry
amplification during fault storms, priority-aware shedding of background
I/O, and a per-member :class:`CircuitBreaker` that routes degraded reads
through reconstruction instead of a sick member.  Armed per cluster via
``ClusterConfig(overload=OverloadConfig(...))``; with no knobs set the
datapath is byte-identical to an unarmed build.
"""

from repro._lazy import lazy_exports

# The datapath imports ``admission`` and ``errors`` itself; the control hub,
# fair queueing and token buckets load when an overload config or a rack
# reads them.
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".admission": ("AdmissionQueue", "PRIORITY_BACKGROUND", "PRIORITY_FOREGROUND"),
    ".breaker": ("CircuitBreaker",),
    ".budget": ("RetryBudget",),
    ".control": ("OverloadConfig", "QosControl", "QosStats"),
    ".errors": ("Busy", "DeadlineExceeded"),
    ".fair": ("FairFlow", "WeightedFairQueue"),
    ".tokens": ("NS_PER_S", "RateLimitedDevice", "TokenBucket"),
})

__all__ = [
    "AdmissionQueue",
    "Busy",
    "CircuitBreaker",
    "DeadlineExceeded",
    "FairFlow",
    "NS_PER_S",
    "OverloadConfig",
    "PRIORITY_BACKGROUND",
    "PRIORITY_FOREGROUND",
    "QosControl",
    "QosStats",
    "RateLimitedDevice",
    "RetryBudget",
    "TokenBucket",
    "WeightedFairQueue",
]
