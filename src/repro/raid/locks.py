"""Per-stripe write serialization.

"RAID does not allow concurrent writes to the same stripe.  The host-side
controller only admits one write I/O on a stripe at a time and keeps the
others in a queue." (§3)

:class:`StripeLockManager` provides exactly that: an exclusive FIFO lock
per stripe index, created lazily and discarded when uncontended.  Which
operations take the lock differs per system — the SPDK POC locks normal
reads too, while dRAID reads are lock-free (§8) — so the choice is left to
the controllers.

When a :class:`repro.verify.kernel.KernelSanitizer` is armed (via
``ClusterConfig.verify``) the manager reports every acquire/grant/release
so the sanitizer can detect lock-order inversions, double releases, leaked
holds and deadlocks.  Unarmed managers keep the exact pre-sanitizer
behavior: every hook sits behind an ``is None`` check on a class attribute.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional

from repro.sim.core import Environment, Event


class _LockAcquire(Event):
    """A stripe-lock acquire that survives ``Process.interrupt``.

    A waiter interrupted while queued withdraws from the stripe's wait
    queue; a waiter interrupted *between* grant and resume passes the lock
    on (or releases it) so the stripe is never held by a process that will
    never run again.
    """

    __slots__ = ("manager", "stripe", "proc")

    def __init__(self, manager: "StripeLockManager", stripe: int) -> None:
        super().__init__(manager.env)
        self.manager = manager
        self.stripe = stripe
        #: acquiring process (for the sanitizer's ownership tracking)
        self.proc = manager.env._active_process

    def _abandoned(self) -> None:
        manager, self.manager = self.manager, None
        if manager is None:  # pragma: no cover - double interrupt, defensive
            return
        if self._ok is None:
            queue = manager._waiting.get(self.stripe)
            if queue is not None:
                try:
                    queue.remove(self)
                except ValueError:  # pragma: no cover - already granted
                    pass
                if not queue:
                    del manager._waiting[self.stripe]
        elif self._ok:
            # Granted but never consumed: behave as if the dead holder
            # released cleanly, waking the next live waiter.
            if manager.sanitizer is not None:
                manager.sanitizer.on_lock_release(manager, self.stripe)
            manager._pass_on(self.stripe)


class StripeLockManager:
    """Exclusive FIFO locks keyed by stripe index."""

    #: Armed by :class:`repro.verify.kernel.KernelSanitizer.watch_locks`;
    #: None keeps acquire/release on their zero-cost paths.
    sanitizer = None

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._waiting: Dict[int, Deque[_LockAcquire]] = {}
        self._held: Dict[int, bool] = {}
        self.contended_acquires = 0  #: how often a lock request had to wait

    def held(self, stripe: int) -> bool:
        return self._held.get(stripe, False)

    def queue_length(self, stripe: int) -> int:
        return len(self._waiting.get(stripe, ()))

    def acquire(self, stripe: int, ctx: Optional[Any] = None) -> Event:
        """Event that succeeds once the stripe lock is held by the caller.

        ``ctx`` is an optional :class:`repro.obs.TraceContext`: it is only
        consulted by an armed sanitizer, which attaches it to any
        :class:`~repro.verify.InvariantViolation` blaming this acquire.
        """
        event = _LockAcquire(self, stripe)
        if not self._held.get(stripe, False):
            self._held[stripe] = True
            if self.sanitizer is not None:
                self.sanitizer.on_lock_acquire(self, stripe, event, ctx, granted=True)
            event.succeed(stripe)
        else:
            self.contended_acquires += 1
            if self.sanitizer is not None:
                self.sanitizer.on_lock_acquire(self, stripe, event, ctx, granted=False)
            self._waiting.setdefault(stripe, deque()).append(event)
        return event

    def _pass_on(self, stripe: int) -> None:
        """Wake the oldest live waiter on ``stripe``, else free the lock."""
        queue = self._waiting.get(stripe)
        while queue:
            waiter = queue.popleft()
            if not queue:
                del self._waiting[stripe]
            if waiter.triggered:
                queue = self._waiting.get(stripe)
                continue
            if self.sanitizer is not None:
                self.sanitizer.on_lock_grant(self, stripe, waiter)
            waiter.succeed(stripe)
            return
        if stripe in self._waiting:  # pragma: no cover - defensive
            del self._waiting[stripe]
        del self._held[stripe]

    def release(self, stripe: int) -> None:
        """Release the lock, waking the oldest queued waiter if any."""
        if not self._held.get(stripe, False):
            if self.sanitizer is not None:
                self.sanitizer.on_double_release(self, stripe)
            raise RuntimeError(f"stripe {stripe} released but not held")
        if self.sanitizer is not None:
            self.sanitizer.on_lock_release(self, stripe)
        self._pass_on(stripe)
