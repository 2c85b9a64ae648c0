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

Handoff (PR 18, PR 20, PR 22, PR 23)
------------------------------------

A zero-delay event may be
dispatched inline only from *tail position*: its creation is the last
statement of the last callback of the event being dispatched.  The second
half the kernel tracks itself (``env._more``).  When the calendar is also
quiescent (:meth:`Environment._quiescent`: the event the call would
schedule is the very next thing pure-heap order dispatches) its callbacks
run at once instead: no calendar entry, no ``_eid`` tick, same order.  In
every other case nothing changes.  Who vouches for the first half:

* **promised** by the caller: a *plain callback* passes ``tail=True`` to
  :meth:`Event.succeed`, :meth:`Environment.process` or
  :meth:`~repro.sim.resources.Store.put` (a process step never does: its
  own code follows), and a *process step* that yields the result as its
  next action may fan out through :meth:`Environment.gather`, whose
  children's first steps then run in place of the ``Initialize`` queue.
* **proved** by the kernel, at the process-step positions it can see.  A
  **process end**: the generator has returned, so ``_resume`` marks the process
  processed and runs its listeners (a failing process always goes through
  the calendar).  A **condition release**: :class:`AllOf`/:class:`AnyOf`
  ``_check``, run as a child's dispatched callback, succeeds the condition
  as its last statement (the constructor's synchronous ``_check`` calls
  for already-processed children are not callbacks).  An **observed
  yield**: a step creates a zero-delay event nobody listens to yet — a new
  :class:`Process`, or an event it succeeds without ``tail`` (a free
  stripe lock, an ``AllOf`` over processed children) — and the kernel
  *holds* it in ``env._held`` instead of scheduling it, under the event
  id it takes there and then (``env._held_eid``).  If the step's next
  yield is that very event, no id has been handed out since
  (``env._eid == env._held_eid``) and the calendar is quiescent, the step
  has parked on exactly what dispatches next: the id goes back and the
  child's first step runs in place (``_MAX_INLINE_DEPTH`` deep at most;
  its parent has parked, so it may interrupt it), or the step goes on
  with the wake.  A
  **zero-delay timer** is such a wake: ``env.timeout(0)`` made by a step
  advances no clock and is held like an event the step succeeds.  An
  **observed fork**: a step that holds a child, has handed out no id since
  and parks on a *different*, still unprocessed event (a timer made before
  the fork, a pending request, a condition the child is raced in) has, on
  a quiescent calendar, parked with the child's ``Initialize`` as the next
  dispatch — it parks, the id goes back and the child's first step runs
  in place, as if it had been yielded.

The flush rule: in every other case the held event is pushed onto the heap
at ``(now, its own id)`` *before the calendar is read* — a ``_quiescent()``
ask, the step yielding (anything not taken in place as above), returning
or raising, ``run``/``peek``, a second hold — which is the slot an
immediate schedule would have taken: a step cannot advance the clock
before it yields.  Sites that only hand out an id (``succeed``, timers,
``_schedule``) need not know a hold exists.
``env._eid`` counts calendar entries, exactly; :mod:`repro.sim.census`
says which.

Arming a :class:`repro.verify.kernel.KernelSanitizer` sets
``env._fast = False`` and flushes the hold: the kernel degrades to the
pure-heap path — nothing held, nothing handed off — and the sanitizer's
rebound ``run`` sees every single event.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional

#: Sentinel for "event has not been assigned a value yet".
_PENDING = object()

#: Run horizon meaning "no limit" (compares greater than any int timestamp).
_NO_HORIZON = float("inf")

#: The ``tail`` value :meth:`Environment.gather` starts its children with: it
#: has tested quiescence once for all of them and sets ``env._more`` per child.
_INLINE = object()

#: How many observed process starts may nest (each a Python call inside its
#: parent's ``_resume``); the next takes a calendar entry: the stack unwinds.
_MAX_INLINE_DEPTH = 16

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

    def succeed(self, value: Any = None, tail: bool = False) -> "Event":
        """Trigger the event successfully with ``value``.

        ``tail=True`` is the caller's promise that this call is the last
        statement of its callback (see *Handoff* in the module docstring):
        on a quiescent calendar the callbacks run here, not from the calendar.
        """
        if self._ok is not None:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        if not self._scheduled:
            env = self.env
            if tail and env._quiescent():
                self._scheduled = True
                callbacks, self.callbacks = self.callbacks, None
                if len(callbacks) == 1:
                    callbacks[0](self)
                else:
                    env._run_callbacks(callbacks, self)
            elif env._fast and env._active_process is not None and not self.callbacks:
                # Observed yield: odds are the step yields its wake next.
                if env._held is not None:
                    env._flush_held()
                self._scheduled = True
                env._eid += 1
                env._held = self
                env._held_eid = env._eid
            else:
                env._schedule(self)
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
    """Internal event that starts a freshly created process (its maker
    schedules it)."""

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
        tail: bool = False,
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
        if tail and (tail is _INLINE or env._quiescent()):
            # Handoff: the Initialize event would dispatch next anyway.
            self._resume(None)
        elif env._active_process is not None and env._fast:
            # Observed yield: odds are the step yields its child next, and
            # the Initialize event is never made.
            if env._held is not None:
                env._flush_held()
            env._eid += 1
            env._held = self
            env._held_eid = env._eid
        else:
            env._schedule(Initialize(env, self))

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
                env._flush()  # (a child this step holds keeps its earlier id)
                return

            child = None
            if env._held is not None:
                # Observed yield / fork: is what this step has just made
                # what dispatches next once it parks on ``target``?
                child = env._observe(target)
                if child is not None and child._ok is not None:
                    # a wake (``target`` itself), ours alone: consume it
                    target._scheduled = True
                    target.callbacks = None
                    event = target
                    continue
                # (a child: park below, then run its first step)
            if target.callbacks is None:
                # Already processed: resume immediately with its outcome.
                event = target
                continue
            self._target = target
            target.callbacks.append(self._resume)
            env._active_process = None
            if child is not None:
                # in place of the Initialize event it never got
                env._depth += 1
                try:
                    child._resume(None)
                finally:
                    env._depth -= 1
            return

        # The generator returned.
        self._target = None
        env._active_process = None
        if env._held is not None:
            env._flush()
        if env._quiescent():
            # Handoff: a step's end is its last action, so on a quiescent
            # calendar the end event would dispatch next — run the listeners
            # here.  (A failing process always goes through the calendar, so
            # an unhandled error still surfaces from ``run``.)
            self._ok = True
            self._value = result
            self._scheduled = True
            callbacks, self.callbacks = self.callbacks, None
            if len(callbacks) == 1:
                callbacks[0](self)
            else:
                env._run_callbacks(callbacks, self)
        else:
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
                self._check(event, tail=False)
            else:
                event.callbacks.append(self._check)
            if self.triggered:
                break

    def _outcome(self) -> Any:
        return {e: e._value for e in self.events if e.triggered and e._ok}

    def _check(self, event: Event, tail: bool = True) -> None:
        """A child's outcome is in.  As a child's dispatched callback the
        release it may cause is this callback's last statement (handoff);
        ``tail`` is False only for the synchronous calls the constructor
        makes for already-processed children, whose caller goes on."""
        raise NotImplementedError


class AllOf(Condition):
    """Triggers when every child event has succeeded (fails fast on error)."""

    __slots__ = ()

    def _check(self, event: Event, tail: bool = True) -> None:
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
            self.succeed(self._outcome(), tail)


class AnyOf(Condition):
    """Triggers as soon as any child event succeeds (fails fast on error)."""

    __slots__ = ()

    def _check(self, event: Event, tail: bool = True) -> None:
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
        self.succeed(self._outcome(), tail)


class Environment:
    """The simulation event loop.

    ``now`` is the current simulated time in integer nanoseconds.
    """

    def __init__(self, initial_time: int = 0) -> None:
        self.now: int = int(initial_time)
        self._queue: List = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: False once a sanitizer arms this environment: nothing is held or
        #: handed off, every event goes through the heap.
        self._fast = True
        #: True while the callback now running is not in tail position: a
        #: sibling callback of the same event, or a later item of the same
        #: inbox burst, runs after it.  No fast path may run ahead of those.
        self._more = False
        #: Observed yield: the listener-less zero-delay event a process step
        #: has just made — a new :class:`Process` (``_ok`` None: it has no
        #: ``Initialize``), a succeeded event or a zero-delay timer — and the
        #: event id it took.  Not in the calendar until something reads it,
        #: in its creation-time slot when it does.
        self._held: Optional[Event] = None
        self._held_eid = 0
        self._depth = 0  #: observed starts now nested (``_MAX_INLINE_DEPTH``)

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
        of a callback chain is one call.

        A zero-delay timer made by a process step is a wake, not a clock
        advance: it is *held* like an event the step succeeds (see *Handoff*
        in the module docstring).
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
        if not delay and self._fast and self._active_process is not None:
            if self._held is not None:
                self._flush_held()
            self._eid += 1
            self._held = t
            self._held_eid = self._eid
            return t
        self._eid += 1
        heapq.heappush(self._queue, (time, self._eid, t))
        return t

    def process(
        self, generator: ProcessGenerator, name: Optional[str] = None,
        tail: bool = False,
    ) -> Process:
        """Start a new process from ``generator``.

        ``tail=True`` is the caller's promise that this call is the last
        statement of its callback (see *Handoff* in the module docstring):
        on a quiescent calendar the first step runs here, with no
        ``Initialize`` event.  A process step's child is held instead, and
        started in place if the step yields it next (*observed yield*).
        """
        return Process(self, generator, name, tail)

    def gather(self, generators: Iterable[ProcessGenerator]) -> AllOf:
        """Fan out: ``AllOf(env, [env.process(g) for g in generators])``,
        for a process step that yields the result as its next action.

        On a quiescent calendar the children's ``Initialize`` events would
        dispatch next, in order, with the caller already parked — so their
        first steps run here instead, in that order.  Every child but the
        last runs under ``env._more``: whatever it creates is scheduled, so
        nothing can overtake a later sibling's first step (see *Handoff* in
        the module docstring).  Anywhere else — calendar not quiescent, not
        called from a process step — it is literally that expression.  (The
        caller is not parked yet while the first steps run: a child may not
        interrupt it from there.)
        """
        generators = list(generators)
        parent = self._active_process
        if parent is None or not generators or not self._quiescent():
            return AllOf(self, [Process(self, g) for g in generators])
        children = []
        self._more = True
        try:
            for generator in generators[:-1]:
                children.append(Process(self, generator, tail=_INLINE))
        finally:
            self._more = False
        children.append(Process(self, generators[-1], tail=_INLINE))
        self._active_process = parent
        return AllOf(self, children)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling -----------------------------------------------------

    def _quiescent(self) -> bool:
        """The handoff guard: would pure-heap order dispatch a zero-delay
        event created right now *next*, with nothing in between?

        True only on the fast path, with the running callback the last of
        its event (``_more``) and the heap head strictly later than ``now``
        — anything due at ``now`` holds an earlier event id.  That the
        *call* is the callback's last statement is the caller's
        ``tail=True`` promise.
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
        in tail position."""
        if not callbacks:
            return
        self._more = True
        try:
            for callback in callbacks[:-1]:
                callback(event)
        finally:
            self._more = False
        callbacks[-1](event)

    def _flush_held(self) -> None:
        """Put the held event into the calendar under the id it took when it
        was made: called by whatever reads the calendar, or holds the next."""
        held = self._held
        self._held = None
        if held._ok is None:  # a process: the start event it has not needed
            held = Initialize(self, held)
            held._scheduled = True
        heapq.heappush(self._queue, (self.now, self._held_eid, held))

    def _flush(self) -> None:
        """The held event, if any: a step's end, ``run``, ``peek``, arming."""
        if self._held is not None:
            self._flush_held()

    def _observe(self, target: Event) -> Optional[Event]:
        """A process step yields ``target`` while an event is held.  Returns
        the held event when no id was handed out since its own and, with the
        step parked on ``target``, it is what the calendar dispatches next:
        the wake ``target`` itself (nobody else listens), or a child process
        — yielded, or forked beside a ``target`` still to be processed.  The
        caller takes it in place and the id goes back.  Else the event is
        flushed and None returned."""
        held = self._held
        if (
            self._eid == self._held_eid
            and self._depth < _MAX_INLINE_DEPTH
            and (
                target.callbacks is not None if held._ok is None
                else held is target and not held.callbacks
            )
        ):
            self._held = None  # quiescent apart from the held event itself?
            if self._quiescent():
                self._eid -= 1
                return held
            self._held = held
        self._flush_held()
        return None

    def _schedule(self, event: Event, delay: int = 0) -> None:
        """Give ``event`` its calendar entry: every one that is not a timer
        or a flushed hold is made here."""
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
        dispatch loop — the hottest code in the repository — is written once.
        """
        self._flush()
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
        while stop._ok is None and queue and queue[0][0] <= horizon:
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
