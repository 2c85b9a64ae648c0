"""Per-array fault-handling counters (§5.4 observability).

Every RAID controller owns a :class:`FaultStats`; the datapath increments
it as faults are detected and handled, and the fault injector adds the
counts of events it actually applied.  ``summary()`` is a stable
single-line rendering used by the chaos determinism gate (two runs of the
same seeded schedule must produce byte-identical summaries).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class FaultStats:
    """Counters for one array's fault handling."""

    #: operations re-driven after an error or timeout
    retries: int = 0
    #: per-attempt deadlines that expired
    timeouts: int = 0
    #: drives transitioned to degraded mode (any cause)
    degraded_transitions: int = 0
    #: degraded transitions caused by the EWMA fail-slow detector
    fail_slow_ejections: int = 0
    #: drives declared prolonged-failed after a timeout drain (§5.4)
    prolonged_failures: int = 0
    #: I/Os that exhausted their retry budget and surfaced IoError
    io_errors: int = 0
    #: fault events actually applied by the injector, keyed by event type
    injected: Dict[str, int] = field(default_factory=dict)

    def record_injected(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1

    def summary(self) -> str:
        """Deterministic one-line rendering (chaos golden files diff this)."""
        fields = [
            f"retries={self.retries}",
            f"timeouts={self.timeouts}",
            f"degraded={self.degraded_transitions}",
            f"failslow={self.fail_slow_ejections}",
            f"prolonged={self.prolonged_failures}",
            f"io_errors={self.io_errors}",
        ]
        injected = ",".join(
            f"{kind}:{count}" for kind, count in sorted(self.injected.items())
        )
        fields.append(f"injected=[{injected}]")
        return " ".join(fields)
