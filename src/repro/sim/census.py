"""Calendar census: what one environment's event calendar is made of.

``env._eid`` says how many calendar entries a run created; this says which:
every entry by class — ``timer`` (advances the clock: the model), ``start``
(a process's ``Initialize``), ``wake`` (a succeeded event, a resource grant
or a zero-delay timer), ``process-end``, ``condition`` (an
``AllOf``/``AnyOf`` release), ``other`` (failures, interrupts) — and by the
code that created it, plus what became of every hold (*Handoff* in
:mod:`repro.sim.core`): taken in place by the run loop, or flushed into the
calendar, by reason.  Two more lines weigh the calendar itself: its peak
length, and the entries popped from it with nobody listening (a
never-cancelled guard timer is both).

A :class:`Census` arms one :class:`~repro.sim.core.Environment` the way
:class:`repro.verify.kernel.KernelSanitizer` does — it rebinds entry points
on the *instance* (``timeout`` makes every timer, ``_hold`` every hold,
``_flush_held`` a hold's entry, ``_schedule`` every other entry) — so an
unarmed environment runs the stock kernel, not one instruction more.  An
armed run creates the same entries in the same order as an unarmed one;
only slower (a stack walk per entry and per hold).

``python -m repro.sim.census <system> [--io-size N --read-share X]`` prints
the table for one :func:`repro.experiments.common.fio_point`.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from typing import List, Optional

from repro.sim import core
from repro.sim.core import Condition, Environment, Event, Initialize, Process, Timeout

_RUN_CODE = Environment.run.__code__
_HOLD_CODE = Environment._hold.__code__

CLASSES = ("timer", "start", "wake", "process-end", "condition", "other")

#: Why a held event got its calendar entry after all.
FLUSH_REASONS = (
    "other tick",     # the run loop found an id handed out after it
    "not quiescent",  # the run loop found something else due at `now`
    "second hold",    # another zero-delay event was made first
    "calendar read",  # _quiescent() (gather, a delivery), peek or arming read it first
)


def _class_of(event: Event) -> str:
    if isinstance(event, Timeout):
        return "timer" if event.delay else "wake"
    if isinstance(event, Initialize):
        return "start"
    if isinstance(event, Process):
        return "process-end"
    if isinstance(event, Condition):
        return "condition"
    return "wake" if event._ok else "other"


def _qualname(code) -> str:
    return getattr(code, "co_qualname", code.co_name)  # 3.11+


def _site(frame) -> str:
    """``module:function`` of the nearest caller outside ``repro.sim``; for
    an entry the kernel makes when a step ends, the process that ended; for
    one a ``repro.sim`` callback makes (a delivery's ``Store._arrive``), that
    callback."""
    ending = callback = None
    while frame is not None:
        module = frame.f_globals.get("__name__", "?")
        code = frame.f_code
        if code.co_filename == __file__:
            pass
        elif not module.startswith("repro.sim."):
            return f"{module}:{_qualname(code)}"
        elif module != core.__name__:
            callback = f"{module}:{_qualname(code)}"
        elif code.co_name == "_resume":
            ending = frame.f_locals["self"]
        elif code.co_name == "run":
            break
        frame = frame.f_back
    if ending is not None:
        return f"<step end>:{_qualname(ending._generator.gi_code)}"
    return callback or "<kernel>"


class Census:
    """Arms ``env`` (before it runs) and counts until read."""

    def __init__(self, env: Environment) -> None:
        if not env._fast:
            raise ValueError("a census measures the fast path; a sanitizer is armed")
        self.env = env
        #: (class, creating site) -> calendar entries
        self.entries: Counter = Counter()
        #: zero-delay events held
        self.holds = 0
        #: most entries the calendar held at once
        self.peak_length = 0
        #: entries the run loop popped and dispatched to no callback at all
        self.unheard = 0
        #: reason -> holds that went to the calendar
        self.flushed: Counter = Counter()
        self._eid_at_arm = env._eid
        #: the hold made last, while no entry has been made since: the one
        #: event the run loop may dispatch without popping it
        self._holding: Optional[Event] = None
        #: where the event now held was made
        self._held_site = ""
        self._timeout = env.timeout
        self._schedule = env._schedule
        self._hold = env._hold
        self._flush_held = env._flush_held
        self._run_callbacks = env._run_callbacks
        env.timeout = self._counting_timeout
        env._schedule = self._counting_schedule
        env._hold = self._counting_hold
        env._flush_held = self._counting_flush_held
        env._run_callbacks = self._counting_run_callbacks

    # -- hooks ----------------------------------------------------------------

    def _note(self, event: Event, frame) -> None:
        self.entries[_class_of(event), _site(frame)] += 1
        self._holding = None

    def _weigh(self) -> None:
        """Called after every entry made: the calendar only grows there."""
        length = len(self.env._queue)
        if length > self.peak_length:
            self.peak_length = length

    def _counting_timeout(self, delay: int, value=None, then=None) -> Timeout:
        # every timer of the model is made here (nothing constructs Timeout)
        timer = self._timeout(delay, value, then)
        if self.env._held is not timer:  # (a held one has no entry yet)
            self._note(timer, sys._getframe(1))
            self._weigh()
        return timer

    def _counting_schedule(self, event: Event, delay: int = 0) -> None:
        if not event._scheduled:  # (else no entry is made)
            self._note(event, sys._getframe(1))
        self._schedule(event, delay)
        self._weigh()

    def _counting_hold(self, event: Event) -> None:
        site = _site(sys._getframe(1))
        self._hold(event)  # (may flush the hold before it: "second hold")
        self.holds += 1
        self._holding = event
        self._held_site = site

    def _counting_flush_held(self) -> None:
        env = self.env
        held = env._held
        caller = sys._getframe(1).f_code
        if caller is _RUN_CODE:
            reason = "other tick" if env._eid != env._held_eid else "not quiescent"
        else:
            reason = "second hold" if caller is _HOLD_CODE else "calendar read"
        self.flushed[reason] += 1
        # a hold's entry is named after where it was made, not its flusher
        cls = "start" if held._ok is None else _class_of(held)
        self.entries[cls, self._held_site] += 1
        self._holding = None
        self._flush_held()
        self._weigh()

    def _counting_run_callbacks(self, callbacks, event: Event) -> None:
        # the run loop comes here with no callback or several; a listener-less
        # event it took from the hold was never in the calendar
        if not callbacks and sys._getframe(1).f_code is _RUN_CODE:
            if event is self._holding:
                self._holding = None
            else:
                self.unheard += 1
        self._run_callbacks(callbacks, event)

    # -- reading --------------------------------------------------------------

    @property
    def total(self) -> int:
        """Calendar entries created since arming (``env._eid`` delta)."""
        return self.env._eid - self._eid_at_arm

    def by_class(self) -> Counter:
        counts: Counter = Counter()
        for (cls, _site_name), n in self.entries.items():
            counts[cls] += n
        return counts

    @property
    def unattributed(self) -> int:
        """Entries ``env._eid`` counted that no hook saw (0 unless something
        schedules behind the kernel's back)."""
        return self.total - sum(self.entries.values())

    @property
    def taken(self) -> int:
        """Holds the run loop took in place: no calendar entry, no id."""
        return self.holds - sum(self.flushed.values()) - (self.env._held is not None)

    def non_timer_share(self) -> float:
        total = self.total
        return 0.0 if not total else 1.0 - self.by_class()["timer"] / total

    def table(self, top: int = 8) -> str:
        """The census as text: classes, holds, then the busiest sites."""
        total = self.total
        by_class = self.by_class()
        lines = [f"calendar entries (env._eid): {total}"]
        for cls in CLASSES:
            n = by_class[cls]
            lines.append(f"  {cls:<12} {n:>9}  {n / max(1, total):6.1%}")
        if self.unattributed:
            lines.append(f"  {'unattributed':<12} {self.unattributed:>9}")
        lines.append(f"non-timer share: {self.non_timer_share():.2%}")
        lines.append(f"peak calendar length: {self.peak_length}")
        lines.append(f"dispatched with no listener: {self.unheard}")
        lines.append(
            f"holds: {self.holds} made, {self.taken} taken by the run loop, "
            f"{sum(self.flushed.values())} flushed"
        )
        for reason in FLUSH_REASONS:
            if self.flushed[reason]:
                lines.append(f"  {reason:<15} {self.flushed[reason]:>9}")
        for title, keep in (
            ("non-timer", lambda cls: cls != "timer"),
            ("timer", lambda cls: cls == "timer"),
        ):
            rows = [(n, cls, site) for (cls, site), n in self.entries.items() if keep(cls)]
            rows.sort(key=lambda row: (-row[0], row[1], row[2]))
            lines.append(f"{title} entries by creating site:")
            for n, cls, site in rows[:top]:
                lines.append(f"  {n:>9}  {cls:<12} {site}")
            if len(rows) > top:
                rest = sum(n for n, _cls, _site_name in rows[top:])
                lines.append(f"  {rest:>9}  ({len(rows) - top} more sites)")
        return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    from repro.experiments.common import DEFAULT_QD, _measure, build_array, fio_point

    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.census",
        description="Census of the event calendar over one fio_point.",
    )
    parser.add_argument("system", help="a repro.build_testbed system name, e.g. dRAID")
    parser.add_argument("--io-size", type=int, default=4096)
    parser.add_argument("--read-share", type=float, default=0.5)
    parser.add_argument(
        "--ceiling", type=float, default=None, metavar="SHARE",
        help="exit 1 if the non-timer share of the calendar exceeds SHARE",
    )
    args = parser.parse_args(argv)

    array = build_array(args.system)
    census = Census(array.env)
    # the rest of fio_point, on the armed environment
    result = _measure(array, args.io_size, args.read_share, DEFAULT_QD, True, 1234)
    unarmed = fio_point(args.system, io_size=args.io_size, read_fraction=args.read_share)
    assert result == unarmed, f"armed {result} != unarmed {unarmed}"

    print(f"{args.system}: {args.io_size} B, read share {args.read_share:g}, "
          f"{result.ops_completed} ops measured (armed run == unarmed run)")
    print(census.table())
    if args.ceiling is not None and census.non_timer_share() > args.ceiling:
        print(f"FAIL: non-timer share {census.non_timer_share():.2%} exceeds the "
              f"ceiling {args.ceiling:.2%}: a relay event is back (sites above)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
