"""Durability accounting for the availability experiment (MTTDL-style).

The Monte Carlo availability sweep replays seeded fault processes against
each system and needs two things measured on the same clock:

* **exposure** — how long the array spends at reduced redundancy.  A
  stripe's risk is set by its *surviving* redundancy (parity minus live
  erasures), so the tracker integrates the worst stripe's erasure count
  over time: ``degraded_ns`` (any erasure), ``double_degraded_ns`` (two or
  more) and ``zero_redundancy_ns`` (erasures == parity: one more fault is
  data loss).
* **data-loss events** — transitions of the worst stripe past parity.
  Each entry into the lost state counts once, however long it lasts;
  dividing total simulated time by total events across seeds gives the
  Monte Carlo MTTDL estimate.

Sampling is piecewise-constant: the caller (the recovery orchestrator's
watch loop) reports the worst erasure count at every poll, and each
interval is attributed the level of its *preceding* sample.
"""

from __future__ import annotations

from typing import Optional


class ExposureTracker:
    """Integrate redundancy exposure from periodic worst-stripe samples."""

    def __init__(self) -> None:
        #: sim ns with at least one live erasure somewhere
        self.degraded_ns = 0
        #: sim ns with two or more erasures in some stripe
        self.double_degraded_ns = 0
        #: sim ns with some stripe at zero surviving redundancy
        self.zero_redundancy_ns = 0
        #: entries into the lost state (worst erasures > parity)
        self.loss_events = 0
        #: high-water mark of simultaneous erasures in one stripe
        self.worst_erasures = 0
        self.samples = 0
        self._last_ns: Optional[int] = None
        self._level = 0
        self._parity = 0
        self._in_loss = False

    def sample(
        self,
        now_ns: int,
        worst_erasures: int,
        degraded_members: int,
        num_parity: int,
    ) -> None:
        """Fold one poll into the integrals.

        ``worst_erasures`` is the largest live erasure count of any stripe
        (out-of-order rebuilt stripes excluded); ``degraded_members`` is
        unused for the integrals but validates monotone sampling in debug
        use.  Time between this and the previous sample is attributed to
        the *previous* level.
        """
        if self._last_ns is not None:
            dt = now_ns - self._last_ns
            if dt > 0:
                if self._level >= 1:
                    self.degraded_ns += dt
                if self._level >= 2:
                    self.double_degraded_ns += dt
                if self._parity and self._level >= self._parity:
                    self.zero_redundancy_ns += dt
        self._last_ns = now_ns
        self._level = worst_erasures
        self._parity = num_parity
        self.samples += 1
        if worst_erasures > self.worst_erasures:
            self.worst_erasures = worst_erasures
        if worst_erasures > num_parity:
            if not self._in_loss:
                self.loss_events += 1
                self._in_loss = True
        else:
            self._in_loss = False

    def degraded_ms(self) -> float:
        return self.degraded_ns / 1e6

    def zero_redundancy_ms(self) -> float:
        return self.zero_redundancy_ns / 1e6


def loss_rate_per_hour(total_loss_events: int, total_sim_ns: int) -> float:
    """Monte Carlo data-loss-event rate (events per simulated hour).

    The reciprocal is the MTTDL estimate; the rate form stays finite when
    no run lost data, which is the common case for the healthy systems.
    """
    if total_sim_ns <= 0:
        return 0.0
    return total_loss_events * 3.6e12 / total_sim_ns
