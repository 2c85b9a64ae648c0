"""Shared resources for the simulation kernel.

These primitives cover every piece of hardware this repository models:

* :class:`Store` — an unbounded FIFO queue of items (mailboxes, command
  queues).
* :class:`CapacityResource` — a counted semaphore (queue-depth limits).
* :class:`FifoServers` — ``k`` FIFO servers fed earliest-free first, in
  closed form: the one queueing rule under NIC directions and SSD media
  channels (CPU cores inline its one-server case).
* :class:`BandwidthChannel` — a fluid FIFO bandwidth server on top of it.
  A transfer of ``n`` bytes occupies the channel for ``overhead + n/rate``
  seconds; queued transfers are served in order.  This is the model used
  for NIC directions.

Hot-path note: uncontended ``Store.get`` / ``CapacityResource.request``
return *pre-processed* grant events, which a yielding process continues
past without a calendar entry; a queued waiter (:class:`_StoreGet`,
:class:`_CapacityRequest`) is woken through ``Environment._schedule``.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.sim.core import Environment, Event, SimulationError

#: Nanoseconds per second; all rates are converted to bytes/ns internally.
NS_PER_S = 1_000_000_000


class _StoreGet(Event):
    """A queued ``Store.get`` wait that survives ``Process.interrupt``.

    When the waiting process is interrupted the kernel calls
    :meth:`_abandoned`: a still-queued getter withdraws from the store's
    wait queue; a getter that was already handed an item (triggered but not
    yet resumed) returns that item to the store so it is not lost.
    """

    __slots__ = ("store",)

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        self.store = store

    def _abandoned(self) -> None:
        store, self.store = self.store, None
        if store is None:  # pragma: no cover - double interrupt, defensive
            return
        if self._ok is None:
            try:
                store._getters.remove(self)
            except ValueError:  # pragma: no cover - already granted/removed
                pass
        elif self._ok and not store._grant(self._value):
            # Granted but never consumed: the item is first in line again —
            # the oldest still-live getter's, else the queue's head.
            store._items.appendleft(self._value)


class _CapacityRequest(Event):
    """A queued ``CapacityResource.request`` that survives interrupts.

    Cancel path (the PR-1 fast-path bug): an interrupted waiter used to
    linger untriggered in the waiter queue, so a later ``release`` would
    grant the slot to a consumer that never resumes — leaking one unit of
    capacity forever.  The :meth:`_abandoned` hook removes a still-queued
    waiter outright and re-releases a slot that was granted between the
    grant and the resume.
    """

    __slots__ = ("resource", "proc")

    def __init__(self, resource: "CapacityResource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        #: requesting process (for the sanitizer's leaked-hold report)
        self.proc = resource.env._active_process

    def _abandoned(self) -> None:
        resource, self.resource = self.resource, None
        if resource is None:  # pragma: no cover - double interrupt, defensive
            return
        if self._ok is None:
            try:
                resource._waiters.remove(self)
            except ValueError:  # pragma: no cover - already granted/removed
                pass
        elif self._ok:
            # Granted but never consumed: hand the slot to the next live
            # waiter (or return it to the free pool).
            if resource.sanitizer is not None:
                resource.sanitizer.on_resource_abandon(resource, self)
            resource._pass_on()


class Store:
    """Unbounded FIFO store of items, drained by event-based ``get`` calls
    or by one registered consumer callback.

    A store is consumed *either* by processes yielding :meth:`get` *or* by
    the callback given to :meth:`consume` — never both (typed error).  The
    callback form behaves exactly like a process looping
    ``fn((yield store.get()))`` without the parked process: one wake event
    per burst takes the slot the getter's wake would take (a hold, see
    *Handoff* in :mod:`repro.sim.core`), same-instant arrivals queue behind
    it and that one wake drains them in order.  A delivery to an idle
    consumer on a quiescent calendar skips even that wake
    (:meth:`_arrive`).
    """

    def __init__(self, env: Environment, name: str = "store") -> None:
        self.env = env
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._consumer: Optional[Callable[[Any], None]] = None
        #: a consumer wake is on the calendar (or draining): arrivals queue
        #: behind it in ``_items`` instead of scheduling their own
        self._waking = False

    def __len__(self) -> int:
        return len(self._items)

    def consume(self, consumer: Callable[[Any], None]) -> None:
        """Register ``consumer(item)`` as this store's only reader.

        The consumer must not block: anything that waits belongs in a
        handler process it starts.
        """
        if self._consumer is not None or self._getters:
            raise SimulationError(f"{self.name}: already has a reader")
        self._consumer = consumer
        if self._items:
            self._wake(self._items.popleft())

    def put(self, item: Any) -> None:
        """Add ``item``; wakes the consumer or the oldest waiting getter."""
        if self._consumer is not None:
            if self._waking:
                self._items.append(item)
            else:
                self._wake(item)
        elif not self._grant(item):
            self._items.append(item)

    def _grant(self, item: Any) -> bool:
        """Hand ``item`` to the oldest live waiting getter, if there is one."""
        getters = self._getters
        while getters:
            getter = getters.popleft()
            if getter._ok is not None:  # cancelled getter
                continue
            getter._ok = True
            getter._value = item
            self.env._schedule(getter)
            return True
        return False

    def _arrive(self, delivery: Event) -> None:
        """A delivery timer's continuation: put the message it carries.

        An idle consumer on a quiescent calendar is called at once: the put
        is this callback's last statement, so its wake is what the run loop
        would take next (*Handoff* in :mod:`repro.sim.core`).
        """
        consumer = self._consumer
        if consumer is not None and not self._waking and self.env._quiescent():
            consumer(delivery._value)
        else:
            self.put(delivery._value)

    def _wake(self, item: Any) -> None:
        """Make the consumer's wake carrying ``item`` — like a parked
        getter's, it holds its item outside ``_items``."""
        self._waking = True
        wake = Event(self.env)
        wake.callbacks.append(self._drain)
        wake.succeed(item)

    def _drain(self, wake: Event) -> None:
        """The wake's only callback: feed the consumer the burst in order.

        The consumer counts as idle again from its last call on (arrivals
        during it wake it afresh).
        """
        consumer = self._consumer
        item = wake._value
        items = self._items
        while items:
            consumer(item)
            item = items.popleft()
        self._waking = False
        consumer(item)

    def clear(self) -> int:
        """Drop every queued item (fault injection: a crashed server loses
        its inbox).  Waiting getters are left pending.  Returns the number
        of items dropped."""
        dropped = len(self._items)
        self._items.clear()
        return dropped

    def get(self) -> Event:
        """Event that succeeds with the next item (FIFO order).

        When an item is already available the returned event is *processed*
        (not merely triggered): a process yielding it resumes inline without
        a trip through the event calendar.  Getters that must wait are woken
        through the calendar as before, preserving FIFO fairness.
        """
        if self._consumer is not None:
            raise SimulationError(f"{self.name}: get() on a store with a consumer")
        items = self._items
        if items:
            event = Event(self.env)
            event._ok = True
            event._value = items.popleft()
            event.callbacks = None
            event._scheduled = True
            return event
        event = _StoreGet(self)
        self._getters.append(event)
        return event


class CapacityResource:
    """A counted resource (semaphore) with FIFO request ordering."""

    #: Armed by :class:`repro.verify.kernel.KernelSanitizer.watch_resource`;
    #: None keeps request/release on their zero-cost paths.
    sanitizer = None

    def __init__(self, env: Environment, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def request(self) -> Event:
        """Event that succeeds once a slot is available (slot is then held).

        Uncontended requests return a *processed* event so a yielding
        process continues inline without touching the event calendar;
        contended requests queue and are woken FIFO through the calendar.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            event = Event(self.env)
            event._ok = True
            event._value = self
            event.callbacks = None
            event._scheduled = True
            if self.sanitizer is not None:
                self.sanitizer.on_resource_grant(self)
        else:
            event = _CapacityRequest(self)
            self._waiters.append(event)
        return event

    def _pass_on(self) -> None:
        """Hand a freed slot to the oldest live waiter, else free it."""
        waiters = self._waiters
        while waiters:
            waiter = waiters.popleft()
            if waiter._ok is not None:  # cancelled waiter
                continue
            waiter._ok = True
            waiter._value = self
            self.env._schedule(waiter)
            if self.sanitizer is not None:
                self.sanitizer.on_resource_grant(self, waiter)
            return
        self._in_use -= 1

    def release(self) -> None:
        """Release a held slot, handing it to the oldest waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError(f"{self.name}: release without matching request")
        if self.sanitizer is not None:
            self.sanitizer.on_resource_release(self)
        if not self._waiters:  # uncontended fast path
            self._in_use -= 1
            return
        self._pass_on()


class FifoServers:
    """``parallelism`` identical FIFO servers fed earliest-free first: the
    queueing rule under every NIC direction and SSD media channel.

    A piece of work of ``work_ns`` nanoseconds goes to the server that
    frees up first (the lowest index on a tie), starts when that server is
    free or now, whichever is later, and occupies it for ``work_ns``.  The
    schedule is closed form: :meth:`occupy` returns the absolute completion
    time in ns and makes no event, so a device that owns one of these sets
    one timer per request.  One server is a plain FIFO pipe; more keep a
    ``(free_at, idx)`` min-heap beside the per-server free times, so picking
    a server costs O(log k).  :meth:`queue_delay_ns` and
    :meth:`backlog_ns` are computed from the free times when called.
    """

    def __init__(self, env: Environment, parallelism: int = 1) -> None:
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        self.env = env
        self.parallelism = parallelism
        #: absolute time (ns) at which each server has drained its queue
        self._free_at = [0] * parallelism
        #: ``(free_at, idx)`` min-heap over the servers; read for k > 1 only
        self._free_heap: List[Tuple[int, int]] = [(0, i) for i in range(parallelism)]

    def occupy(self, work_ns: int) -> int:
        """Queue ``work_ns`` on the earliest-free server; returns the
        absolute time (ns) at which it completes."""
        now = self.env.now
        free_at = self._free_at
        if self.parallelism == 1:
            free = free_at[0]
            free_at[0] = done = (free if free > now else now) + work_ns
            return done
        heap = self._free_heap
        free, idx = heap[0]
        free_at[idx] = done = (free if free > now else now) + work_ns
        heapq.heapreplace(heap, (done, idx))
        return done

    def stall(self, pause_ns: int) -> None:
        """Stop every server for ``pause_ns`` once all queued work has
        drained (an SSD garbage-collection pause); the pause starts no
        earlier than now."""
        now = self.env.now
        busy = max(self._free_at)
        until = (busy if busy > now else now) + pause_ns
        self._free_at = [until] * self.parallelism
        self._free_heap = [(until, i) for i in range(self.parallelism)]

    def forget_backlog(self) -> None:
        """Drop all queued work: every server is free from now on (a drive
        swapped for a fresh one)."""
        now = self.env.now
        self._free_at = [f if f < now else now for f in self._free_at]
        self._free_heap = sorted((f, i) for i, f in enumerate(self._free_at))

    def queue_delay_ns(self) -> int:
        """Wait (ns) that work submitted now would incur before service."""
        free = min(self._free_at)
        now = self.env.now
        return free - now if free > now else 0

    def backlog_ns(self) -> int:
        """Total remaining work (ns) across all servers (congestion signal)."""
        now = self.env.now
        return sum(f - now for f in self._free_at if f > now)


class BandwidthChannel(FifoServers):
    """A fluid FIFO bandwidth server.

    The channel serves transfers strictly in submission order.  A transfer
    of ``nbytes`` takes ``per_op_overhead_ns + nbytes / rate``; its
    completion event fires when the transfer (and everything queued before
    it) has drained.  The schedule is :class:`FifoServers`'s, so a
    reservation makes no event of its own.

    ``parallelism`` models devices with internal channels (e.g. NAND dies):
    ``k`` independent FIFO servers each running at ``rate / k``, with new
    transfers dispatched to the earliest-free server.  ``parallelism=1``
    (the default) is a plain FIFO pipe at full rate.

    A transfer's service time is computed once per size (:meth:`service_ns`)
    and remembered until the rate changes; ``per_op_overhead_ns`` and
    ``parallelism`` are fixed at construction.
    """

    def __init__(
        self,
        env: Environment,
        rate_bytes_per_s: float,
        per_op_overhead_ns: int = 0,
        parallelism: int = 1,
        name: str = "channel",
    ) -> None:
        if rate_bytes_per_s <= 0:
            raise ValueError(f"rate must be positive, got {rate_bytes_per_s}")
        super().__init__(env, parallelism)
        self.name = name
        self.per_op_overhead_ns = int(per_op_overhead_ns)
        self._rate = float(rate_bytes_per_s)
        self._per_server_rate = self._rate / parallelism
        #: nbytes -> service_ns(nbytes) at the current rate
        self._service: Dict[int, int] = {}
        # accounting
        self.bytes_transferred = 0
        self.ops = 0
        self.busy_ns = 0

    @property
    def rate_bytes_per_s(self) -> float:
        return self._rate

    @rate_bytes_per_s.setter
    def rate_bytes_per_s(self, value: float) -> None:
        if value <= 0:
            raise ValueError(f"rate must be positive, got {value}")
        self._rate = float(value)
        self._per_server_rate = self._rate / self.parallelism
        self._service.clear()

    def service_ns(self, nbytes: int) -> int:
        """Pure service time of ``nbytes`` (no queueing); remembered for
        :meth:`reserve`, whose miss path this is."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        service = self._service[nbytes] = self.per_op_overhead_ns + int(
            round(nbytes * NS_PER_S / self._per_server_rate)
        )
        return service

    def reserve(self, nbytes: int, extra_ns: int = 0) -> int:
        """Queue a transfer and return its *absolute* completion time.

        This is the primitive behind :meth:`transfer`; layers that need to
        combine several channel occupancies into one completion event (e.g.
        a network transfer through sender-TX and receiver-RX) call
        ``reserve`` on each channel and take the max.
        """
        service = self._service.get(nbytes)
        if service is None:
            service = self.service_ns(nbytes)  # (a negative size raises there)
        if extra_ns:
            service += int(extra_ns)
        self.bytes_transferred += nbytes
        self.ops += 1
        self.busy_ns += service
        return self.occupy(service)

    def transfer(self, nbytes: int) -> Event:
        """Submit a transfer; returns its completion event."""
        done = self.reserve(nbytes)
        return self.env.timeout(done - self.env.now, value=nbytes)

    def utilization(self, elapsed_ns: int) -> float:
        """Fraction of capacity used over ``elapsed_ns`` (can exceed 1 briefly
        when overheads dominate)."""
        if elapsed_ns <= 0:
            return 0.0
        return self.busy_ns / (elapsed_ns * self.parallelism)

    def reset_accounting(self) -> None:
        self.bytes_transferred = 0
        self.ops = 0
        self.busy_ns = 0
