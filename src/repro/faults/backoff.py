"""Attempt timeouts and retry backoff (§5.4 hardening): the one timing rule.

Timeouts escalate exponentially per attempt so a retry is given more slack
than the attempt it replaces; retry delays use exponential backoff with
deterministic, seeded jitter (full-jitter style, but driven by a
``random.Random`` stream owned by the array so replays are bit-identical).
"""

from __future__ import annotations

import random
from typing import Optional

#: sleep before the first retry, ns
BASE_BACKOFF_NS = 2_000_000
#: growth factor of both the attempt timeout and the backoff, per attempt
MULTIPLIER = 2.0
#: no attempt timeout exceeds this, ns
MAX_TIMEOUT_NS = 1_000_000_000


def attempt_timeout_ns(
    base_ns: int, attempt: int, remaining_ns: Optional[int] = None
) -> int:
    """Timeout for attempt ``attempt`` (0-based): ``base_ns`` doubled per
    attempt, capped at :data:`MAX_TIMEOUT_NS`.  When the request carries a
    deadline, ``remaining_ns`` is its remaining budget: the timeout is
    clamped to it, so cumulative attempt timeouts are charged against the
    request deadline instead of every retry getting a fresh full timeout.
    """
    timeout = int(min(base_ns * MULTIPLIER ** attempt, MAX_TIMEOUT_NS))
    if remaining_ns is not None:
        timeout = min(timeout, max(0, remaining_ns))
    return timeout


def backoff_ns(attempt: int, rng: random.Random) -> int:
    """Sleep before launching attempt ``attempt`` >= 1:
    ``BASE_BACKOFF_NS * 2**(attempt-1)`` plus up to 50% seeded jitter
    (none before attempt 0)."""
    if attempt <= 0:
        return 0
    base = BASE_BACKOFF_NS * MULTIPLIER ** (attempt - 1)
    return int(base + rng.random() * 0.5 * base)
