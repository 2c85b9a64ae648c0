"""EWMA-based fail-slow detection (§5.4 proactive degraded transitions).

A fail-slow drive does not error — it answers, slowly, and drags every
stripe operation it participates in down to its speed.  The detector keeps
an exponentially-weighted moving average of per-member completion latency
sampled at the host; a member whose EWMA exceeds ``ratio`` × the median of
its peers (and an absolute floor) is *ejected*: transitioned to degraded
mode so reads reconstruct around it instead of waiting on it.

Ejection and re-admission are separated by a **hysteresis band**: a member
is ejected when its EWMA crosses ``ratio`` × median but only re-admitted
once it has stayed below the lower ``exit_ratio`` × median bound *and* a
``cooldown_ns`` dwell has elapsed since the ejection (and, symmetrically,
a freshly re-admitted member cannot be re-ejected until the same dwell has
passed).  Without the band, a gray drive oscillating around the threshold
flaps in and out of rotation, paying the degraded-transition cost on every
swing; with it, each episode costs at most one eject/re-admit cycle.

Opt-in (``DraidArray(..., failslow_detector=...)``): detection changes
the datapath, so arrays built for the paper's healthy-path figures never
construct one.
"""

from __future__ import annotations

from typing import Dict, Optional

#: EWMA weight of each new completion latency
ALPHA = 0.2


class FailSlowDetector:
    """Per-array EWMA latency comparator with eject/re-admit hysteresis."""

    def __init__(
        self,
        ratio: float = 3.0,
        floor_ns: int = 1_000_000,
        min_samples: int = 8,
        exit_ratio: float = 1.5,
        cooldown_ns: int = 10_000_000,
    ) -> None:
        if ratio <= 1.0:
            raise ValueError(f"ratio must exceed 1, got {ratio}")
        if not 1.0 <= exit_ratio <= ratio:
            raise ValueError(
                f"exit_ratio must sit inside [1, ratio={ratio}], got {exit_ratio}"
            )
        if cooldown_ns < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown_ns}")
        self.ratio = ratio
        self.floor_ns = int(floor_ns)
        self.min_samples = int(min_samples)
        self.exit_ratio = exit_ratio
        self.cooldown_ns = int(cooldown_ns)
        self.ewma_ns: Dict[int, float] = {}
        self.samples: Dict[int, int] = {}
        #: member -> sim time of its last ejection (dwell gate for re-admit)
        self.ejected_at: Dict[int, int] = {}
        #: member -> sim time of its last re-admission (dwell gate for re-eject)
        self.readmitted_at: Dict[int, int] = {}
        #: member -> cumulative ejection episodes (flapping telemetry)
        self.ejections: Dict[int, int] = {}

    def observe(self, member: int, latency_ns: int) -> None:
        """Fold one completion latency into ``member``'s EWMA."""
        previous = self.ewma_ns.get(member)
        if previous is None:
            self.ewma_ns[member] = float(latency_ns)
        else:
            self.ewma_ns[member] = ALPHA * latency_ns + (1.0 - ALPHA) * previous
        self.samples[member] = self.samples.get(member, 0) + 1

    def suspect(self, member: int, exclude=(), now_ns: Optional[int] = None) -> bool:
        """Whether ``member`` is fail-slow relative to its peers.

        When the caller supplies ``now_ns``, a member re-admitted less
        than ``cooldown_ns`` ago is never suspected — the upper half of
        the hysteresis band.  (Callers that never re-admit see the exact
        pre-hysteresis behavior.)
        """
        if now_ns is not None:
            readmitted = self.readmitted_at.get(member)
            if readmitted is not None and now_ns - readmitted < self.cooldown_ns:
                return False
        if self.samples.get(member, 0) < self.min_samples:
            return False
        own = self.ewma_ns[member]
        if own < self.floor_ns:
            return False
        median = self._peer_median(member, exclude)
        return median is not None and own > self.ratio * median

    def recovered(self, member: int, now_ns: int, exclude=()) -> bool:
        """Whether an ejected ``member`` may re-enter rotation.

        The lower half of the hysteresis band: requires the ejection
        dwell (``cooldown_ns``) to have elapsed, ``min_samples`` fresh
        (post-ejection) probe observations, and an EWMA at or below
        ``exit_ratio`` × the peer median — strictly tighter than the
        ``ratio`` × median ejection bound, so a member oscillating
        between the two stays out instead of flapping.
        """
        ejected = self.ejected_at.get(member)
        if ejected is not None and now_ns - ejected < self.cooldown_ns:
            return False
        if self.samples.get(member, 0) < self.min_samples:
            return False
        own = self.ewma_ns[member]
        if own < self.floor_ns:
            return True
        median = self._peer_median(member, exclude)
        return median is not None and own <= self.exit_ratio * median

    def _peer_median(self, member: int, exclude) -> Optional[float]:
        """The (upper) median of the other members' EWMAs, floored at 1 ns;
        None with fewer than two peers to compare against."""
        peers = sorted(
            value
            for index, value in self.ewma_ns.items()
            if index != member and index not in exclude
        )
        if len(peers) < 2:
            return None
        return max(peers[len(peers) // 2], 1.0)

    def note_eject(self, member: int, now_ns: int) -> None:
        """Record an ejection: starts the re-admit dwell, bumps the
        flapping counter and drops the member's (pre-ejection) history so
        re-admission requires fresh probe samples."""
        self.ejected_at[member] = now_ns
        self.ejections[member] = self.ejections.get(member, 0) + 1
        self.ewma_ns.pop(member, None)
        self.samples.pop(member, None)

    def note_readmit(self, member: int, now_ns: int) -> None:
        """Record a re-admission: starts the re-eject dwell."""
        self.readmitted_at[member] = now_ns
        self.ejected_at.pop(member, None)

    def flap_count(self, member: int) -> int:
        """How many ejection episodes ``member`` has been through."""
        return self.ejections.get(member, 0)

    def forget(self, member: int) -> None:
        """Drop ``member``'s latency history (after heal/rebuild).

        Eject/re-admit dwell bookkeeping survives: a member that was just
        ejected does not dodge its cooldown by being rebuilt.
        """
        self.ewma_ns.pop(member, None)
        self.samples.pop(member, None)

    def ewma_us(self, member: int) -> Optional[float]:
        value = self.ewma_ns.get(member)
        return None if value is None else value / 1_000.0
