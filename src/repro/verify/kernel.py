"""Kernel sanitizer: event-loop and locking invariants.

:class:`KernelSanitizer` attaches to one :class:`repro.sim.core.Environment`
and rebinds ``env.run`` / ``env._schedule`` as *instance* attributes, so
unarmed environments keep the exact inlined hot loops of PR 1 while armed
environments pay for per-event checks.  The rebound loop dispatches events
in precisely the same order as the stock loop — an armed run produces the
same simulated outcome (``FioResult`` equality is acceptance-tested), it
just watches the kernel while doing so.

Checked invariants:

* **time-travel / past-event** — no event is scheduled with a negative
  delay or dispatched at a timestamp before ``env.now``.
* **deadlock** — when the calendar drains (or ``run(until=event)`` starves)
  while some process still waits on a *held* stripe lock or a saturated
  capacity resource, the sanitizer raises with the full wait graph.
  Processes parked on idle mailboxes (a consumer loop on ``Store.get``) are
  not deadlocked — nothing holds what they wait for — and are ignored.
* **lock-order inversion** — a global stripe-acquisition order graph per
  lock manager; requesting stripe B while holding stripe A when B→…→A is
  already established raises before the schedule can actually deadlock.
* **double-release** — releasing a stripe that is not held.
* **leaked holds** — a stripe lock or resource slot still held by a
  process that has terminated (the cancel-path bug class fixed in this
  PR: waiters interrupted between grant and resume).
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.sim.core import Environment, Event, SimulationError


class KernelSanitizer:
    """Arms one environment; see the module docstring for the invariants."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.violations: List["InvariantViolation"] = []
        self._locks: List[Any] = []  # watched StripeLockManagers
        self._resources: List[Any] = []  # watched CapacityResources
        #: per manager id: stripe -> owning Process (None = non-process)
        self._owners: Dict[int, Dict[int, Any]] = {}
        #: per manager id: (proc id -> set of held stripes, proc kept alive
        #: via the owners map above)
        self._held_by: Dict[Tuple[int, int], Set[int]] = {}
        #: per manager id: stripe -> stripes acquired *after* it (order graph)
        self._order: Dict[int, Dict[int, Set[int]]] = {}
        #: per resource id: list of holder Processes (None for non-process)
        self._res_holders: Dict[int, List[Any]] = {}
        self.events_checked = 0
        # Degrade the kernel to the pure-heap path: nothing is held or
        # handed off, every event flows through the heap and our _dispatch
        # sees it.  A held event goes in under the id it already took.
        env._fast = False
        env._flush()
        # Rebind the hot entry points on the *instance* — unarmed
        # environments never see these attributes and keep the class-level
        # inlined loops.
        self._orig_schedule = env._schedule
        env._schedule = self._schedule
        env.run = self._run
        env.sanitizer = self

    # -- violation plumbing -------------------------------------------------

    def _violate(
        self,
        invariant: str,
        detail: str,
        cid: Optional[int] = None,
        trace: Optional[Any] = None,
    ) -> None:
        from repro.verify import InvariantViolation

        violation = InvariantViolation(
            invariant, detail, time_ns=self.env.now, cid=cid, trace=trace
        )
        self.violations.append(violation)
        raise violation

    # -- event-loop hooks ---------------------------------------------------

    def _schedule(self, event: Event, delay: int = 0) -> None:
        if delay < 0:
            self._violate(
                "past-event",
                f"{event!r} scheduled {-delay} ns in the past (t={self.env.now})",
            )
        self._orig_schedule(event, delay)

    def _dispatch(self, item) -> None:
        env = self.env
        time, _, event = item
        if time < env.now:
            self._violate(
                "time-travel",
                f"{event!r} stamped t={time} dispatched after the clock "
                f"already reached t={env.now}",
            )
        self.events_checked += 1
        env.now = time
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if event._ok is False and not event._defused:
            raise event._value

    def _run(self, until: Any = None) -> Any:
        """Sanitized replica of :meth:`Environment.run` (same semantics,
        same dispatch order, plus per-event checks and starvation probes)."""
        env = self.env
        queue = env._queue
        pop = heapq.heappop
        if isinstance(until, Event):
            stop_event = until
            while queue and stop_event._ok is None:
                self._dispatch(pop(queue))
            if stop_event._ok is None:
                self._deadlock_check(f"ran out of events before {stop_event!r}")
                raise SimulationError(
                    f"simulation ran out of events before {stop_event!r} triggered"
                )
            if not stop_event._ok:
                stop_event._defused = True
                raise stop_event._value
            return stop_event._value
        if until is not None:
            horizon = int(until)
            if horizon < env.now:
                raise ValueError(f"until={horizon} is in the past (now={env.now})")
            while queue and queue[0][0] <= horizon:
                self._dispatch(pop(queue))
            env.now = horizon
            return None
        while queue:
            self._dispatch(pop(queue))
        self._deadlock_check("event calendar drained")
        self.check_leaks()
        return None

    # -- lock hooks (called by StripeLockManager when armed) ---------------

    def watch_locks(self, manager) -> None:
        """Track ``manager`` for ordering/deadlock/leak checks."""
        if manager not in self._locks:
            self._locks.append(manager)
            manager.sanitizer = self

    def on_lock_acquire(self, manager, stripe, event, ctx, granted) -> None:
        proc = event.proc
        if proc is not None:
            held = self._held_by.get((id(manager), id(proc)))
            if held:
                for other in held:
                    if other != stripe:
                        self._order_edge(manager, other, stripe, ctx, proc)
        if granted:
            self._grant(manager, stripe, proc)

    def on_lock_grant(self, manager, stripe, waiter) -> None:
        self._grant(manager, stripe, waiter.proc)

    def on_lock_release(self, manager, stripe) -> None:
        owner = self._owners.get(id(manager), {}).pop(stripe, None)
        if owner is not None:
            held = self._held_by.get((id(manager), id(owner)))
            if held is not None:
                held.discard(stripe)

    def on_double_release(self, manager, stripe) -> None:
        self._violate(
            "double-release", f"stripe {stripe} released but not held"
        )

    def _grant(self, manager, stripe, proc) -> None:
        self._owners.setdefault(id(manager), {})[stripe] = proc
        if proc is not None:
            self._held_by.setdefault((id(manager), id(proc)), set()).add(stripe)

    def _order_edge(self, manager, held_stripe, wanted_stripe, ctx, proc) -> None:
        order = self._order.setdefault(id(manager), {})
        successors = order.setdefault(held_stripe, set())
        if wanted_stripe in successors:
            return
        if self._reaches(order, wanted_stripe, held_stripe):
            self._violate(
                "lock-order-inversion",
                f"process {proc.name!r} holding stripe {held_stripe} requested "
                f"stripe {wanted_stripe}, but the established acquisition "
                f"order is {wanted_stripe} before {held_stripe}",
                trace=ctx,
            )
        successors.add(wanted_stripe)

    @staticmethod
    def _reaches(order: Dict[int, Set[int]], src: int, dst: int) -> bool:
        stack, seen = [src], {src}
        while stack:
            node = stack.pop()
            if node == dst:
                return True
            for nxt in order.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    # -- resource hooks (called by CapacityResource when armed) ------------

    def watch_resource(self, resource) -> None:
        """Track a :class:`~repro.sim.resources.CapacityResource`."""
        if resource not in self._resources:
            self._resources.append(resource)
            resource.sanitizer = self

    def on_resource_grant(self, resource, waiter=None) -> None:
        proc = waiter.proc if waiter is not None else self.env._active_process
        self._res_holders.setdefault(id(resource), []).append(proc)

    def on_resource_abandon(self, resource, waiter) -> None:
        """A granted-but-never-consumed slot was handed back on cancel."""
        holders = self._res_holders.get(id(resource))
        if holders:
            try:
                holders.remove(waiter.proc)
            except ValueError:  # pragma: no cover - defensive
                pass

    def on_resource_release(self, resource) -> None:
        holders = self._res_holders.get(id(resource))
        if not holders:
            return
        proc = self.env._active_process
        try:
            holders.remove(proc)
        except ValueError:
            holders.pop(0)

    # -- terminal checks ----------------------------------------------------

    def _wait_graph(self) -> List[str]:
        """Human-readable edges of everything waiting on something held."""
        edges: List[str] = []
        for manager in self._locks:
            owners = self._owners.get(id(manager), {})
            for stripe, queue in manager._waiting.items():
                for waiter in queue:
                    if waiter.triggered:
                        continue
                    owner = owners.get(stripe)
                    owner_name = getattr(owner, "name", None) or "<unknown>"
                    waiter_name = getattr(waiter.proc, "name", None) or "<unknown>"
                    edges.append(
                        f"{waiter_name} waits for stripe {stripe} "
                        f"held by {owner_name}"
                    )
        for resource in self._resources:
            for waiter in resource._waiters:
                if waiter.triggered:
                    continue
                waiter_name = getattr(waiter.proc, "name", None) or "<unknown>"
                edges.append(
                    f"{waiter_name} waits for {resource.name} "
                    f"({resource.in_use}/{resource.capacity} slots in use)"
                )
        return edges

    def _deadlock_check(self, reason: str) -> None:
        edges = self._wait_graph()
        if edges:
            self._violate("deadlock", f"{reason}; wait graph: " + "; ".join(edges))

    def check_leaks(self) -> None:
        """A held lock/slot whose owner terminated can never be released."""
        for manager in self._locks:
            owners = self._owners.get(id(manager), {})
            for stripe, held in manager._held.items():
                if not held:
                    continue
                owner = owners.get(stripe)
                if owner is not None and owner._ok is not None:
                    self._violate(
                        "leaked-hold",
                        f"stripe {stripe} still held by terminated process "
                        f"{owner.name!r}",
                    )
        for resource in self._resources:
            dead = [
                proc
                for proc in self._res_holders.get(id(resource), ())
                if proc is not None and proc._ok is not None
            ]
            if dead:
                names = ", ".join(repr(p.name) for p in dead)
                self._violate(
                    "leaked-hold",
                    f"{resource.name}: {len(dead)} slot(s) held by "
                    f"terminated process(es) {names}",
                )

    def check_quiescent(self) -> None:
        """Stronger post-run check: everything watched is fully released."""
        self.check_leaks()
        for manager in self._locks:
            held = [s for s, h in manager._held.items() if h]
            waiting = [
                s
                for s, q in manager._waiting.items()
                if any(not w.triggered for w in q)
            ]
            if held or waiting:
                self._violate(
                    "leaked-hold",
                    f"lock manager not quiescent: held={held} waiting={waiting}",
                )
        for resource in self._resources:
            live = sum(1 for w in resource._waiters if not w.triggered)
            if resource.in_use or live:
                self._violate(
                    "leaked-hold",
                    f"{resource.name} not quiescent: in_use={resource.in_use}, "
                    f"queued={live}",
                )
