"""Calendar census: what one environment's event calendar is made of.

``env._eid`` says how many calendar entries a run created; this says which:
every entry by class — ``timer`` (advances the clock: the model), ``start``
(a process's ``Initialize``), ``wake`` (a succeeded event, a resource grant
or a zero-delay timer), ``process-end``, ``condition`` (an
``AllOf``/``AnyOf`` release), ``other`` (failures, interrupts) — and by the
code that created it, plus what became of every observed-yield hold
(*Handoff* in :mod:`repro.sim.core`): starts, forks and wakes taken in
place, and holds flushed into the calendar by reason.  Two more lines weigh
the calendar itself: its peak length, and the entries that dispatched with
nobody listening (a never-cancelled guard timer is both).

A :class:`Census` arms one :class:`~repro.sim.core.Environment` the way
:class:`repro.verify.kernel.KernelSanitizer` does — it rebinds entry points
on the *instance* (``timeout`` makes every timer, ``_schedule`` every other
entry but a flushed hold) — so an unarmed environment runs the stock
kernel, not one instruction more.  An
armed run creates the same entries in the same order as an unarmed one;
only slower (a stack walk per entry).

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

CLASSES = ("timer", "start", "wake", "process-end", "condition", "other")

#: Why a held event got its calendar entry after all.
FLUSH_REASONS = (
    "other tick",        # yielded, but after another entry got an id; or the step
                         # made a second hold or asked _quiescent() (gather) first
    "not quiescent",     # yielded next, but something else is due at `now`
    "_more",             # yielded next, by a step that is not its event's last callback
    "other listener",    # a wake yielded next that someone else listens to as well
    "parked elsewhere",  # a wake's maker yielded a different event; a child's
                         # maker one that was already processed
    "step ended",        # the step returned or raised without yielding it
    "nesting bound",     # yielded next, _MAX_INLINE_DEPTH starts deep
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
        self.inline_starts = 0
        self.inline_forks = 0
        self.inline_wakes = 0
        #: most entries the calendar held at once
        self.peak_length = 0
        #: entries the run loop dispatched to no callback at all
        self.unheard = 0
        #: reason -> holds that went to the calendar
        self.flushed: Counter = Counter()
        self._eid_at_arm = env._eid
        #: why the kernel entry point now running flushes the hold it finds
        self._reason: Optional[str] = None
        self._timeout = env.timeout
        self._schedule = env._schedule
        self._flush_held = env._flush_held
        self._flush = env._flush
        self._observe = env._observe
        self._run_callbacks = env._run_callbacks
        env.timeout = self._counting_timeout
        env._schedule = self._counting_schedule
        env._flush_held = self._counting_flush_held
        env._flush = self._counting_flush
        env._observe = self._counting_observe
        env._run_callbacks = self._counting_run_callbacks

    # -- hooks ----------------------------------------------------------------

    def _note(self, event: Event, frame) -> None:
        self.entries[_class_of(event), _site(frame)] += 1

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

    def _counting_flush_held(self) -> None:
        # a hold's entry is named after what was held, not after its flusher
        held = self.env._held
        self.flushed[self._reason or "other tick"] += 1
        if held._ok is None:
            self.entries["start", f"<held>:{_qualname(held._generator.gi_code)}"] += 1
        else:
            self.entries[_class_of(held), f"<held>:{type(held).__name__}"] += 1
        self._flush_held()
        self._weigh()

    def _counting_flush(self) -> None:
        # run/peek/arming find no hold: one only outlives a step that ended
        self._reason = "step ended"
        try:
            self._flush()
        finally:
            self._reason = None

    def _counting_observe(self, target: Event) -> Optional[Event]:
        env = self.env
        held = env._held
        if held is not target and (held._ok is not None or target.callbacks is None):
            self._reason = "parked elsewhere"
        elif env._eid != env._held_eid:
            self._reason = "other tick"
        elif env._depth >= core._MAX_INLINE_DEPTH:
            self._reason = "nesting bound"
        elif held._ok is not None and held.callbacks:
            self._reason = "other listener"
        else:
            self._reason = "_more" if env._more else "not quiescent"
        try:
            taken = self._observe(target)
        finally:
            self._reason = None
        if taken is not None:
            if taken._ok is not None:
                self.inline_wakes += 1
            elif taken is target:
                self.inline_starts += 1
            else:
                self.inline_forks += 1
        return taken

    def _counting_run_callbacks(self, callbacks, event: Event) -> None:
        # the run loops come here with no callback or several; so do the
        # handoff sites, whose events never had an entry
        if not callbacks and sys._getframe(1).f_code is _RUN_CODE:
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
            f"observed yield: {self.inline_starts} starts, "
            f"{self.inline_forks} forks and "
            f"{self.inline_wakes} wakes taken in place; "
            f"{sum(self.flushed.values())} holds flushed"
        )
        for reason in FLUSH_REASONS:
            if self.flushed[reason]:
                lines.append(f"  {reason:<17} {self.flushed[reason]:>9}")
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
