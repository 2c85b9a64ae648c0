"""Weighted fair sharing at a shared service point (§5.5 tenant QoS).

A rack-scale array is a *shared* resource: every tenant volume placed on
it funnels through the same NVMe-oF submission queues, the same NICs and
the same drives.  With plain FIFO sharing one open-loop aggressor fills
every queue and the well-behaved tenant's latency rides the aggressor's
backlog — the classic noisy-neighbor failure.  :class:`WeightedFairQueue`
is the front-door scheduler that prevents it: per-flow FIFO queues, a
bounded number of in-service slots (modeling the shared submission queue
depth), and start-time fair queuing (SFQ) across the flow heads, so each
backlogged flow's share of the service slots converges to its weight no
matter how much the others offer.

Two properties make it an isolation mechanism rather than just a
scheduler:

* **per-flow backlog bounds** — a flow whose queue is full gets a typed
  :class:`~repro.qos.errors.Busy` fast-reject, so an aggressor's excess
  arrivals bounce off its *own* queue instead of growing a shared one;
* **work conservation** — an idle flow's share is lent to backlogged
  flows, so isolation costs nothing while nobody misbehaves.

Everything is synchronous bookkeeping plus ordinary simulation events;
two runs with the same arrival sequence dispatch identically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.qos.errors import Busy
from repro.sim.core import Environment, Event


class FairFlow:
    """One flow (tenant) registered with a :class:`WeightedFairQueue`.

    ``weight`` sets the flow's relative share of the service slots while
    backlogged; ``queue_limit`` bounds its private backlog (arrivals past
    it are ``Busy``-rejected).  Counters (``admitted``, ``rejected``,
    ``dispatched``) are plain ints for smoke scripts and tests.
    """

    def __init__(self, name: str, weight: float, queue_limit: int, index: int) -> None:
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        if queue_limit <= 0:
            raise ValueError(f"queue_limit must be positive, got {queue_limit}")
        self.name = name
        self.weight = float(weight)
        self.queue_limit = queue_limit
        self.index = index
        #: pending (finish_tag, seq, nbytes, event) entries, FIFO
        self.queue: List[Tuple[float, int, int, Event]] = []
        self.finish_tag = 0.0
        self.admitted = 0
        self.rejected = 0
        self.dispatched = 0


class WeightedFairQueue:
    """Start-time fair queuing over named flows with bounded service slots.

    ``slots`` is the number of concurrently in-service requests (the
    shared queue depth being arbitrated); ``acquire`` returns an event
    that fires when the request reaches service, and every fired acquire
    must be paired with a :meth:`release` when the request completes.
    Dispatch order is by virtual finish tag (cost ``nbytes / weight``),
    tie-broken by flow registration order — fully deterministic.
    """

    def __init__(self, env: Environment, slots: int) -> None:
        if slots <= 0:
            raise ValueError(f"slots must be positive, got {slots}")
        self.env = env
        self.slots = slots
        self.inflight = 0
        self._flows: Dict[str, FairFlow] = {}
        self._virtual = 0.0
        self._seq = 0

    def register(
        self, name: str, weight: float = 1.0, queue_limit: int = 64
    ) -> FairFlow:
        """Add a flow; re-registering an existing name is an error."""
        if name in self._flows:
            raise ValueError(f"flow {name!r} already registered")
        flow = FairFlow(name, weight, queue_limit, index=len(self._flows))
        self._flows[name] = flow
        return flow

    def unregister(self, name: str) -> None:
        """Remove a flow that has nothing queued (e.g. the destination lane
        of a migration that was abandoned before cutover)."""
        if self._flows[name].queue:
            raise RuntimeError(f"flow {name!r} still has queued requests")
        del self._flows[name]

    def flow(self, name: str) -> FairFlow:
        """Look up a registered flow by name."""
        return self._flows[name]

    @property
    def backlog(self) -> int:
        """Total queued (not yet in-service) requests across all flows."""
        return sum(len(f.queue) for f in self._flows.values())

    def acquire(self, name: str, nbytes: int) -> Event:
        """Event firing when ``nbytes`` for flow ``name`` reaches service.

        Raises :class:`~repro.qos.errors.Busy` synchronously when the
        flow's private queue is full — the reject path does no simulated
        work, exactly like the admission gate.
        """
        flow = self._flows[name]
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        if len(flow.queue) >= flow.queue_limit:
            flow.rejected += 1
            raise Busy(f"wfq: flow {name!r} backlog at limit {flow.queue_limit}")
        start = max(self._virtual, flow.finish_tag)
        flow.finish_tag = start + nbytes / flow.weight
        event = self.env.event()
        self._seq += 1
        flow.queue.append((flow.finish_tag, self._seq, nbytes, event))
        flow.admitted += 1
        self._dispatch()
        return event

    def release(self) -> None:
        """Return a service slot; dispatches the next eligible request."""
        if self.inflight <= 0:
            raise RuntimeError("release() without a matching acquire()")
        self.inflight -= 1
        self._dispatch()

    def _dispatch(self) -> None:
        while self.inflight < self.slots:
            best: Optional[FairFlow] = None
            for flow in self._flows.values():
                if not flow.queue:
                    continue
                if best is None or flow.queue[0][:2] < best.queue[0][:2]:
                    best = flow
            if best is None:
                return
            finish, _seq, _nbytes, event = best.queue.pop(0)
            self._virtual = max(self._virtual, finish)
            best.dispatched += 1
            self.inflight += 1
            event.succeed()
