"""Core of the discrete-event simulation kernel.

The design mirrors ``simpy``: an :class:`Environment` owns a binary-heap
event calendar; a :class:`Process` wraps a Python generator that yields
events and is resumed when those events trigger.  Unlike ``simpy``, time is
an integer (nanoseconds) so simulations are exactly reproducible across
platforms, and the implementation is trimmed to what this repository needs.

The calendar
------------

One binary heap of ``(time, event id, event)`` holds every calendar entry,
timers and zero-delay events alike, and :meth:`Environment.run` pops it in
that order — one dispatch loop for every kind of ``until``.  Every event is
freshly allocated, a timer in one Python frame (:meth:`Environment.timeout`),
born with its continuation when a callback chain passes ``then=``.
What keeps the loop short is what never reaches it: the handoff below.

Three older layers under every event are gone because, behind handoff,
they cost more than they saved (counted on the benchmark workloads):

* a **now-queue** of zero-delay events, merged with the heap by event id on
  every dispatch, carried 1.4 % of dRAID's calendar.  Such an entry now
  takes its heap slot ``(now, id)`` — the order the merge reproduced.
* **batch-advance** — a process that yielded the heap head popped it
  without parking — fired 0 times on the four closed-loop workloads, and
  a timer kept off the heap in the hope of it (a *deferred* timer) was
  consumed in place for 0.32 of 14.7 timers per op on ``fio_small_mixed``;
  every other one paid the checks and was pushed anyway.  A step that
  yields a timer parks, and the run loop pops it.
* an **event arena** recycled dead timers, grants and waiters under a
  reference-count guard taken on every dispatch and resume, which cost
  more than allocating the object (4–6 % of ``host_us_per_op`` alone).

Handoff
-------

One rule.  Every zero-delay event — an event :meth:`Event.succeed`
triggers, a new :class:`Process` (its start) and ``env.timeout(0)`` — is
*held* in one slot in front of the heap (``env._held``) under the event id
it takes there and then (``env._held_eid``), whoever makes it: a process
step or a plain callback.  The run loop reads the hold before it pops the
heap.  If no id has been handed out since (``env._eid == env._held_eid``)
and nothing else is due at ``now`` (the heap head is later), the held event
is the very next thing pure-heap order dispatches, so the loop takes it in
place — runs its callbacks, or the process's first step — and the id goes
back: ``env._eid`` counts calendar entries, exactly.  Otherwise the held
event is pushed into its own slot, ``(now, its id)``, and popped like any
other entry.  Whatever reads the calendar before the loop does flushes the
hold the same way: a second hold, :meth:`Environment._quiescent`,
:meth:`Environment.peek`, arming a sanitizer.  Nobody promises anything,
sites that only hand out an id (failures, grants, timers) need not know a
hold exists, and a chain of zero-time steps is driven by the loop, one
step per iteration, not by recursion.  ``run(until=event)`` drains the
hold before it looks at ``until``.  :mod:`repro.sim.census` counts the holds
taken and flushed.

Two fast paths stay inside the kernel, each for a measured reason.  Both
ask :meth:`Environment._quiescent`: the running callback is its event's
last (the dispatch loop sets ``env._more`` around the others) and the heap
head is later than ``now``.

* :meth:`Environment.gather` (a process step that yields the result next)
  runs the children's first steps in place of their ``Initialize`` queue,
  every child but the last under ``env._more``.  An ``AllOf`` over held
  children instead raised ``events_per_op`` on ``func_recovery`` (156.43 →
  157.05), ``rack_tenancy`` and ``ycsb_lsm``.
* :meth:`~repro.sim.resources.Store._arrive`, a delivery timer's
  continuation, calls an idle consumer at once rather than making the wake
  the loop would take next.  Routing every delivery through a held wake
  cost ``fio_small_mixed`` 4.5 % of ``host_us_per_op`` (300 → 314 µs/op,
  5 of 5 interleaved pairs), for the same entries.

Arming a :class:`repro.verify.kernel.KernelSanitizer` sets
``env._fast = False`` and flushes the hold: the kernel degrades to the
pure-heap path — every hold is flushed as it is made, nothing is handed
off — and the sanitizer's rebound ``run`` sees every single event.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional

#: Sentinel for "event has not been assigned a value yet".
_PENDING = object()

#: Run horizon meaning "no limit" (compares greater than any int timestamp).
_NO_HORIZON = float("inf")

ProcessGenerator = Generator["Event", Any, Any]


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an invalid state."""


class Interrupt(Exception):
    """Raised inside a process when :meth:`Process.interrupt` is called.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """An event that may succeed (with a value) or fail (with an exception).

    Callbacks are plain callables invoked with the event as their only
    argument when the event is *processed* (popped from the calendar).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused", "_scheduled")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._defused = False
        self._scheduled = False

    def __repr__(self) -> str:
        state = "pending"
        if self._ok is True:
            state = f"ok({self._value!r})"
        elif self._ok is False:
            state = f"failed({self._value!r})"
        return f"<{type(self).__name__} {state}>"

    @property
    def triggered(self) -> bool:
        """True once the event has an outcome (succeeded or failed)."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event has no value yet")
        return self._value

    def _abandoned(self) -> None:
        """Hook: the process waiting on this event was interrupted away.

        :meth:`Process.interrupt` detaches the consumer and then calls this
        so resource-wait events (queued :class:`~repro.sim.resources.Store`
        gets, :class:`~repro.sim.resources.CapacityResource` requests,
        stripe-lock acquires) can withdraw from their wait queue — or, if
        the grant already happened, hand the slot back — instead of leaking
        it to a consumer that will never resume.  The base event has no
        resource attached, so this is a no-op.
        """

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``: it is held (see
        *Handoff* in the module docstring)."""
        if self._ok is not None:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        if not self._scheduled:
            self._scheduled = True
            self.env._hold(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception propagates into every process waiting on the event;
        if nothing waits, :meth:`Environment.run` re-raises it (errors never
        pass silently).
        """
        if self._ok is not None:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self


class Timeout(Event):
    """An event that triggers after a fixed delay, at ``_time``.

    Made only by :meth:`Environment.timeout`, which fills in every field
    itself — its continuation (``then=``) included: the kernel's most
    common event costs one Python frame.
    """

    __slots__ = ("delay", "_time")


class Initialize(Event):
    """Internal event that starts a freshly created process: the calendar
    entry of a start whose hold was flushed."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)


def _defuse_on_failure(event: "Event") -> None:
    """Sink callback for events abandoned by an interrupted process."""
    if event._ok is False:
        event._defused = True


class Process(Event):
    """A running process: an event that triggers when its generator returns.

    The wrapped generator yields :class:`Event` instances.  When a yielded
    event succeeds the generator is resumed with the event's value; when it
    fails the exception is thrown into the generator.
    """

    __slots__ = ("_generator", "_target", "_name")

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: Optional[str] = None,
        _inline: bool = False,
    ) -> None:
        # (the Event fields set here, not through a second frame)
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False
        self._scheduled = False
        self._generator = generator
        self._target: Optional[Event] = None
        self._name = name
        if _inline:
            self._resume(None)  # env.gather has proved the start is next
        else:
            env._hold(self)  # the start: held while ``_ok`` is None

    @property
    def name(self) -> str:
        """Given at creation, else the generator's; built when read."""
        return self._name or getattr(self._generator, "__name__", "process")

    def __repr__(self) -> str:
        return f"<Process {self.name} at t={self.env.now}>"

    @property
    def is_alive(self) -> bool:
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current wait."""
        if not self.is_alive:
            raise SimulationError(f"{self!r} has already terminated")
        if self._target is None:
            raise SimulationError(f"{self!r} is not waiting on anything")
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        # Detach from the current wait target so the original event no
        # longer resumes this process when it eventually triggers.
        target = self._target
        if target.callbacks is not None and self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
            # The interrupted process was this event's consumer; if the
            # abandoned event later fails there is nobody left to handle
            # it, so defuse instead of crashing the simulation.
            target.callbacks.append(_defuse_on_failure)
        self._target = None
        # Let resource-wait events return queued positions or granted
        # slots; a plain Event's hook is a no-op.
        target._abandoned()
        interrupt_event.callbacks = [self._resume]
        self.env._schedule(interrupt_event)

    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_process = self
        generator = self._generator
        while True:
            try:
                if event is None or event._ok:
                    target = generator.send(None if event is None else event._value)
                else:
                    event._defused = True
                    target = generator.throw(event._value)
                while not isinstance(target, Event):
                    # Throw into the generator so the process terminates (or
                    # recovers) through the normal paths below — the Process
                    # event must still succeed or fail, or waiters leak.
                    target = generator.throw(
                        SimulationError(f"process yielded a non-event: {target!r}")
                    )
            except StopIteration as stop:
                result = stop.value
                break
            except BaseException as exc:
                self._target = None
                env._active_process = None
                self.fail(exc)
                return
            if target.callbacks is None:
                # Already processed: resume immediately with its outcome.
                event = target
                continue
            self._target = target
            target.callbacks.append(self._resume)
            env._active_process = None
            return

        # The generator returned.
        self._target = None
        env._active_process = None
        self.succeed(result)


class Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            self.succeed(self._outcome())
            return
        for event in self.events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)
            if self.triggered:
                break

    def _outcome(self) -> Any:
        return {e: e._value for e in self.events if e.triggered and e._ok}

    def _check(self, event: Event) -> None:
        """A child's outcome is in (a child's callback, or the constructor
        for a child already processed)."""
        raise NotImplementedError


class AllOf(Condition):
    """Triggers when every child event has succeeded (fails fast on error)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._outcome())


class AnyOf(Condition):
    """Triggers as soon as any child event succeeds (fails fast on error)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        # The race is over: let go of every timer that lost it.  A pending
        # timer would otherwise keep this condition, the winner and its
        # value alive until it expires; it cannot fail, so no defuse duty
        # is lost, and it stays in the calendar to dispatch with no listener.
        check = self._check
        for child in self.events:
            if child.__class__ is Timeout and child.callbacks and check in child.callbacks:
                child.callbacks.remove(check)
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed(self._outcome())


class Environment:
    """The simulation event loop.

    ``now`` is the current simulated time in integer nanoseconds.
    """

    def __init__(self, initial_time: int = 0) -> None:
        self.now: int = int(initial_time)
        self._queue: List = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: False once a sanitizer arms this environment: every hold is
        #: flushed as it is made and nothing is handed off.
        self._fast = True
        #: True while the callback now running is not its event's last (or
        #: a ``gather`` child is not the last): ``_quiescent()`` is False.
        self._more = False
        #: The hold (see *Handoff* in the module docstring): the zero-delay
        #: event made last — a :class:`Process` to start while its ``_ok``
        #: is None — and the event id it took, not yet in the calendar.
        self._held: Optional[Event] = None
        self._held_eid = 0

    # -- event construction helpers ------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(
        self, delay: int, value: Any = None,
        then: Optional[Callable[[Event], None]] = None,
    ) -> Timeout:
        """An event that succeeds ``delay`` nanoseconds from now.

        ``then`` is the timer's continuation: the timer is born with it as
        its first callback, exactly as if it were appended at once — a step
        of a callback chain is one call.  A zero-delay timer advances no
        clock: it is held like a succeeded event.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        t = Timeout.__new__(Timeout)
        t.env = self
        t.callbacks = [] if then is None else [then]
        t._value = value
        t._ok = True
        t._defused = False
        t._scheduled = True
        t.delay = delay
        t._time = time = self.now + delay
        if not delay:
            self._hold(t)
            return t
        self._eid += 1
        heapq.heappush(self._queue, (time, self._eid, t))
        return t

    def process(self, generator: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Start a new process from ``generator`` (its start is held)."""
        return Process(self, generator, name)

    def gather(self, generators: Iterable[ProcessGenerator]) -> AllOf:
        """Fan out: ``AllOf(env, [env.process(g) for g in generators])``,
        for a process step that yields the result as its next action.

        On a quiescent calendar the children's ``Initialize`` events would
        dispatch next, in order, with the caller already parked — so their
        first steps run here instead, in that order.  Every child but the
        last runs under ``env._more``, so no fast path in it can overtake a
        later sibling's first step (see *Handoff* in the module docstring).
        Anywhere else — calendar not quiescent, not called from a process
        step — it is literally that expression.  (The caller is not parked
        yet while the first steps run: a child may not interrupt it from
        there.)
        """
        generators = list(generators)
        parent = self._active_process
        if parent is None or not generators or not self._quiescent():
            return AllOf(self, [Process(self, g) for g in generators])
        children = []
        self._more = True
        try:
            for generator in generators[:-1]:
                children.append(Process(self, generator, None, True))
        finally:
            self._more = False
        children.append(Process(self, generators[-1], None, True))
        self._active_process = parent
        return AllOf(self, children)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling -----------------------------------------------------

    def _hold(self, event: Event) -> None:
        """Give a zero-delay event the hold, flushing the one already there
        (on the pure-heap path it is flushed at once)."""
        if self._held is not None:
            self._flush_held()
        self._eid += 1
        self._held = event
        self._held_eid = self._eid
        if not self._fast:
            self._flush_held()

    def _flush_held(self) -> None:
        """Put the held event into the calendar under the id it took when it
        was made: whoever reads the calendar first does this."""
        held = self._held
        self._held = None
        if held._ok is None:  # a process: the start event it has not needed
            held = Initialize(self, held)
            held._scheduled = True
        heapq.heappush(self._queue, (self.now, self._held_eid, held))

    def _flush(self) -> None:
        """The held event, if any: ``peek``, arming a sanitizer."""
        if self._held is not None:
            self._flush_held()

    def _quiescent(self) -> bool:
        """Would pure-heap order dispatch a zero-delay event created right
        now *next*, with nothing in between, if the running callback made it
        as its last statement?  (Flushes the hold: it would come first.)

        True only on the fast path, with the running callback the last of
        its event (``_more``) and the heap head strictly later than ``now``
        — anything due at ``now`` holds an earlier event id.
        """
        if self._held is not None:
            self._flush_held()
        if self._more or not self._fast:
            return False
        queue = self._queue
        return not queue or queue[0][0] > self.now

    def _run_callbacks(self, callbacks: List[Callable[[Event], None]], event: Event) -> None:
        """Dispatch an event that has no callback or several (the loop
        inlines the one-callback case): all but the last are flagged as not
        the event's last."""
        if not callbacks:
            return
        self._more = True
        try:
            for callback in callbacks[:-1]:
                callback(event)
        finally:
            self._more = False
        callbacks[-1](event)

    def _schedule(self, event: Event, delay: int = 0) -> None:
        """Give ``event`` its calendar entry: failures, interrupts and
        resource grants — every entry that is neither a timer nor a hold."""
        if event._scheduled:
            return
        event._scheduled = True
        self._eid += 1
        heapq.heappush(self._queue, (self.now + delay, self._eid, event))

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), an integer
        time, or an :class:`Event` (run until it triggers and return its
        value).

        Integer-horizon semantics (locked by ``tests/test_sim_core.py``):
        every event with timestamp ``<= until`` is processed before ``run``
        returns — including zero-delay cascades spawned *at* the horizon —
        and the clock is left exactly at ``until``.  Events scheduled after
        the horizon stay queued for the next ``run`` call.  This boundary
        is deterministic: two runs split at any horizon process the same
        events in the same order as one uninterrupted run.

        Every kind of ``until`` is a stop event and a horizon, so the
        dispatch loop — the hottest code in the repository — is written
        once.  It reads the hold before anything else (see *Handoff* in the
        module docstring), so the hold is drained before ``until`` is.
        """
        if until.__class__ is Timeout and until.callbacks is not None:
            # Timeouts are pre-succeeded at creation (``_ok`` is True long
            # before they dispatch), so waiting for the event would return
            # at once having simulated nothing.  An undispatched timer passed
            # as ``until`` therefore runs as the integer horizon it denotes.
            until = until._time
        if isinstance(until, Event):
            stop, horizon = until, _NO_HORIZON
        else:
            stop = Event(self)  # (never triggered)
            horizon = _NO_HORIZON if until is None else int(until)
            if horizon < self.now:
                raise ValueError(f"until={horizon} is in the past (now={self.now})")
        queue = self._queue
        pop = heapq.heappop
        while True:
            event = self._held
            if event is not None:
                if self._eid != self._held_eid or (queue and queue[0][0] == self.now):
                    self._flush_held()
                    continue
                # the next dispatch in pure-heap order: taken in place
                self._held = None
                self._eid -= 1
                if event._ok is None:
                    event._resume(None)
                    continue
            elif stop._ok is not None or not queue or queue[0][0] > horizon:
                break
            else:
                self.now, _, event = pop(queue)
            callbacks, event.callbacks = event.callbacks, None
            if len(callbacks) == 1:
                callbacks[0](event)
            else:
                self._run_callbacks(callbacks, event)
            if event._ok is False and not event._defused:
                raise event._value
        if stop is not until:
            if until is not None:
                self.now = horizon
            return None
        if stop._ok is None:
            raise SimulationError(
                f"simulation ran out of events before {stop!r} triggered"
            )
        if not stop._ok:
            stop._defused = True
            raise stop._value
        return stop._value

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or None if the calendar is empty."""
        self._flush()
        return self._queue[0][0] if self._queue else None
