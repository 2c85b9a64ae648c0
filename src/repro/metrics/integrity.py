"""Per-array integrity counters (silent-corruption observability).

Every RAID controller owns an :class:`IntegrityStats`; the checksummed
datapath and the scrub daemon increment it as corruption is detected and
repaired.  ``summary()`` is a stable single-line rendering used by the
integrity smoke golden (two runs of the same seeded schedule must produce
byte-identical summaries).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


def _bump(counters: Dict[str, int], kinds) -> None:
    for kind in kinds:
        counters[kind] = counters.get(kind, 0) + 1


def _render(counters: Dict[str, int]) -> str:
    return ",".join(f"{kind}:{count}" for kind, count in sorted(counters.items()))


@dataclass
class IntegrityStats:
    """Counters for one array's corruption detection and repair."""

    #: chunk verifications performed (read path + write pre-verify + scrub)
    chunks_verified: int = 0
    #: read-repair invocations triggered from the foreground read path
    read_repairs: int = 0
    #: read-repair invocations triggered by the pre-write stripe verify
    write_repairs: int = 0
    #: read-repair invocations triggered by the scrub daemon
    scrub_repairs: int = 0
    #: parity chunks rewritten by the scrub daemon's parity audit
    parity_rewrites: int = 0
    #: bad chunks detected, keyed by the fault kind that poisoned them
    detected: Dict[str, int] = field(default_factory=dict)
    #: bad chunks successfully repaired from parity, keyed by fault kind
    repaired: Dict[str, int] = field(default_factory=dict)
    #: bad chunks that could not be repaired (erasures beyond parity)
    unrecoverable_kinds: Dict[str, int] = field(default_factory=dict)
    #: corruption-to-detection latency of each detected chunk, sim ns
    detection_latencies_ns: List[int] = field(default_factory=list)

    @property
    def unrecoverable(self) -> int:
        """Total unrecoverable chunks (the chaos acceptance gate)."""
        return sum(self.unrecoverable_kinds.values())

    @property
    def total_detected(self) -> int:
        return sum(self.detected.values())

    @property
    def total_repaired(self) -> int:
        return sum(self.repaired.values())

    def record_detected(self, kinds, latency_ns=None) -> None:
        _bump(self.detected, kinds)
        if latency_ns is not None:
            self.detection_latencies_ns.append(int(latency_ns))

    def record_repaired(self, kinds) -> None:
        _bump(self.repaired, kinds)

    def record_unrecoverable(self, kinds) -> None:
        _bump(self.unrecoverable_kinds, kinds)

    def mean_detection_latency_ns(self) -> int:
        if not self.detection_latencies_ns:
            return 0
        return sum(self.detection_latencies_ns) // len(self.detection_latencies_ns)

    def summary(self) -> str:
        """Deterministic one-line rendering (integrity goldens diff this)."""
        return " ".join(
            [
                f"verified={self.chunks_verified}",
                f"detected=[{_render(self.detected)}]",
                f"repaired=[{_render(self.repaired)}]",
                f"unrecoverable=[{_render(self.unrecoverable_kinds)}]",
                f"read_repairs={self.read_repairs}",
                f"write_repairs={self.write_repairs}",
                f"scrub_repairs={self.scrub_repairs}",
                f"parity_rewrites={self.parity_rewrites}",
                f"detect_mean_ns={self.mean_detection_latency_ns()}",
            ]
        )
