"""QoS rate limiting for shared storage (§5.5).

"In order to build RAID on shared storage, the key challenge is to
partition a physical drive into smaller ones with guaranteed performance
... A QoS controller needs to implement rate limiting at run-time to
ensure that a tenant does not exceed its I/O budget."

:class:`TokenBucket` implements the Generic Cell Rate Algorithm (a token
bucket in virtual-time form, O(1) per request); :class:`RateLimitedDevice`
wraps any block device (a drive, a RAID array) and applies a per-tenant
byte budget to its reads and writes.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.core import Environment, Event

#: Nanoseconds per second (the sim clock is integer nanoseconds).
NS_PER_S = 1_000_000_000


class TokenBucket:
    """A byte-rate token bucket (GCRA formulation).

    ``rate_bytes_per_s`` is the sustained budget; ``burst_bytes`` the depth
    of the bucket (how far a tenant may run ahead of the sustained rate).
    ``acquire`` returns an event that fires when the requested bytes
    conform; requests are admitted in FIFO order.
    """

    def __init__(
        self,
        env: Environment,
        rate_bytes_per_s: float,
        burst_bytes: int = 1 << 20,
    ) -> None:
        if rate_bytes_per_s <= 0:
            raise ValueError(f"rate must be positive, got {rate_bytes_per_s}")
        if burst_bytes <= 0:
            raise ValueError(f"burst must be positive, got {burst_bytes}")
        self.env = env
        self.rate = float(rate_bytes_per_s)
        self.burst_bytes = burst_bytes
        self._tat = 0  # theoretical arrival time (GCRA state), ns
        self.admitted_bytes = 0
        self.throttle_events = 0

    def _cost_ns(self, nbytes: int) -> int:
        return int(round(nbytes * NS_PER_S / self.rate))

    @property
    def _limit_ns(self) -> int:
        return int(round(self.burst_bytes * NS_PER_S / self.rate))

    def acquire(self, nbytes: int) -> Event:
        """Event firing when ``nbytes`` conform to the budget."""
        return self.acquire_within(nbytes)

    def acquire_within(
        self, nbytes: int, max_delay_ns: Optional[int] = None
    ) -> Optional[Event]:
        """Shape-or-police: admit ``nbytes`` only if conformance is near.

        Like :meth:`acquire`, but when the bucket would delay the request
        by more than ``max_delay_ns`` (e.g. the request's remaining latency
        budget) it returns ``None`` *without consuming any budget* — the
        caller should fast-reject instead of queueing work that cannot
        possibly complete in time.  This is the per-tenant rate *limit* of
        the rack layer: short overshoots are shaped, sustained overshoots
        are policed.  ``max_delay_ns=None`` never polices (:meth:`acquire`).
        """
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        if max_delay_ns is not None and max_delay_ns < 0:
            raise ValueError(f"max_delay_ns must be >= 0, got {max_delay_ns}")
        now = self.env.now
        tat = max(now, self._tat) + self._cost_ns(nbytes)
        delay = tat - self._limit_ns - now
        if max_delay_ns is not None and delay > max_delay_ns:
            self.throttle_events += 1
            return None
        self._tat = tat
        self.admitted_bytes += nbytes
        if delay <= 0:
            return self.env.timeout(0)
        self.throttle_events += 1
        return self.env.timeout(delay)

    def refund(self, nbytes: int) -> None:
        """Return ``nbytes`` of budget after a canceled ``acquire``.

        A caller that gives up on a *pending* ``acquire`` (one whose event
        has not fired yet) calls this to hand the bytes back.  The refund
        is *conservative*: the theoretical arrival time is rolled back by
        the request's cost but never behind ``now``, so a cancel can
        under-refund (the bucket stays slightly pessimistic) but can never
        mint extra burst credit — the long-run admitted rate stays bounded
        by ``rate_bytes_per_s`` even under cancel storms.
        """
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        self._tat = max(self.env.now, self._tat - self._cost_ns(nbytes))
        self.admitted_bytes -= nbytes


class RateLimitedDevice:
    """A block device view with a per-tenant byte budget.

    Wraps any block device (``read(offset, nbytes, ctx=None,
    deadline_ns=None)`` and ``write(offset, nbytes, data=None, ctx=None,
    deadline_ns=None)`` returning events) and passes ``ctx`` and
    ``deadline_ns`` through to it.  Separate
    buckets may be supplied for reads and writes; passing one bucket for
    both models a combined budget.
    """

    def __init__(
        self,
        inner,
        bucket: TokenBucket,
        write_bucket: Optional[TokenBucket] = None,
    ) -> None:
        self.inner = inner
        self.env: Environment = inner.env
        self.read_bucket = bucket
        self.write_bucket = write_bucket or bucket
        # pass through attributes controllers/workloads expect
        self.geometry = getattr(inner, "geometry", None)
        self.functional = getattr(inner, "functional", False)

    def read(self, offset: int, nbytes: int, ctx=None, deadline_ns=None) -> Event:
        return self.env.process(self._read(offset, nbytes, ctx, deadline_ns), name="qos.read")

    def _read(self, offset: int, nbytes: int, ctx, deadline_ns):
        yield self.read_bucket.acquire(nbytes)
        result = yield self.inner.read(offset, nbytes, ctx=ctx, deadline_ns=deadline_ns)
        return result

    def write(self, offset: int, nbytes: int, data=None, ctx=None, deadline_ns=None) -> Event:
        return self.env.process(
            self._write(offset, nbytes, data, ctx, deadline_ns), name="qos.write"
        )

    def _write(self, offset: int, nbytes: int, data, ctx, deadline_ns):
        yield self.write_bucket.acquire(nbytes)
        result = yield self.inner.write(offset, nbytes, data, ctx=ctx, deadline_ns=deadline_ns)
        return result
