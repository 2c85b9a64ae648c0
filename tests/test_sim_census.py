"""The calendar census: a microscope that must not touch
the specimen — an armed run creates the entries of an unarmed one — and
whose counts must add up to ``env._eid``."""

import io
import re
from contextlib import redirect_stdout
from functools import lru_cache

from repro.sim import AllOf, Environment, Store
from repro.sim.census import CLASSES, FLUSH_REASONS, Census, main


def small_world(env):
    """Every class of entry, and holds taken and flushed for every reason."""
    box = Store(env)
    log = []

    def child(delay):
        yield env.timeout(delay)
        return delay

    def getter():
        log.append((yield box.get()))                   # its end: not quiescent

    def parent():
        log.append((yield env.process(child(2))))       # start and end taken
        wake = env.event()
        wake.succeed("w")
        log.append((yield wake))                        # wake taken
        log.append((yield env.timeout(0, "z")))         # so is a zero-delay timer
        tick = env.timeout(1)
        forked = env.process(child(2))                   # a fork ...
        yield tick                                       # ... taken: tick is later
        env.process(child(1))                            # held ...
        yield env.timeout(0)                             # ... 2nd hold; not quiescent
        box.put("item")                                  # a getter's wake
        kids = [env.process(child(3)), env.process(child(3))]  # 2nd hold
        log.append(sorted((yield AllOf(env, kids)).values()))  # not quiescent
        late = env.event()
        late.succeed("l")
        env.timeout(4)                                   # nobody ever listens to it
        log.append((yield late))                         # a timer's id after it: other tick
        ready = env.event()
        ready.succeed()                                  # never yielded ...
        yield forked                                     # (already processed)
        env.process(child(1))                            # ... 2nd hold, and the end after it

    env.process(getter())                                # 2nd hold
    env.process(parent())                                # not quiescent
    env.run()
    return log


def test_armed_run_creates_the_unarmed_runs_entries():
    plain = Environment()
    armed = Environment()
    census = Census(armed)
    assert small_world(armed) == small_world(plain)
    assert (armed.now, armed._eid) == (plain.now, plain._eid)
    assert census.total == plain._eid and census.unattributed == 0
    assert sum(census.by_class().values()) == census.total


def test_classes_holds_and_reasons():
    env = Environment()
    census = Census(env)
    small_world(env)
    by_class = census.by_class()
    assert set(by_class) <= set(CLASSES)
    # (the two zero-delay timers are wakes: one taken in place, one flushed)
    assert by_class == {"timer": 8, "start": 6, "wake": 4, "process-end": 6}
    assert (census.holds, census.taken) == (22, 7)
    assert set(census.flushed) <= set(FLUSH_REASONS)
    assert census.flushed == {"other tick": 1, "not quiescent": 9, "second hold": 5}
    # dead weight: the timer nobody listens to, `ready` and four unawaited
    # process ends (the last child's end is taken from the hold: not counted)
    assert (census.peak_length, census.unheard) == (5, 6)
    sites = {site for (_cls, site), _n in census.entries.items()}
    assert "tests.test_sim_census:small_world.<locals>.child" in sites   # its timers
    # a flushed hold is named after where it was made
    assert census.entries["start", "tests.test_sim_census:small_world.<locals>.parent"] == 4
    assert census.entries["process-end", "<step end>:small_world.<locals>.child"] == 4
    assert 0.0 < census.non_timer_share() < 1.0
    table = census.table()
    assert "non-timer share" in table and "22 made, 7 taken" in table
    assert "peak calendar length: 5" in table
    assert "dispatched with no listener: 6" in table


def test_unarmed_environment_is_untouched():
    env = Environment()
    hooks = {"timeout", "_schedule", "_hold", "_flush_held", "_run_callbacks"}
    assert not hooks & set(vars(env))
    assert env._schedule.__func__ is Environment._schedule
    Census(env)
    assert hooks <= set(vars(env))


def test_census_counts_a_sanitized_run_as_an_unarmed_one():
    from repro.verify.kernel import KernelSanitizer

    def counted(armed):
        env = Environment()
        if armed:
            KernelSanitizer(env)
        census = Census(env)
        log = small_world(env)
        return (log, env._eid, census.entries, census.flushed,
                census.holds, census.taken, census.peak_length, census.unheard)

    assert counted(armed=True) == counted(armed=False)


@lru_cache(maxsize=None)
def ci_point(ceiling):
    """``python -m repro.sim.census dRAID --ceiling <ceiling>``: its exit
    code and what it printed (run once per ceiling for every test here)."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["dRAID", "--ceiling", ceiling])
    return code, out.getvalue()


def test_cli_prints_the_table_and_enforces_the_ceiling():
    code, out = ci_point("0.5")
    assert code == 0
    assert "armed run == unarmed run" in out and "timer" in out
    code, out = ci_point("0.0")
    assert code == 1
    assert "FAIL: non-timer share" in out


def test_ci_point_makes_its_entries_with_fewer_holds():
    """The guard against a relay coming back: the CI point's calendar is
    128 839 entries with 1 779 holds flushed, as before any sub-operation
    ran in its caller's process (``env.call``), and the holds made stay at
    least 15 % under the 98 488 the relays made."""
    _code, out = ci_point("0.5")
    entries = int(re.search(r"calendar entries \(env._eid\): (\d+)", out).group(1))
    made, flushed = map(int, re.search(
        r"holds: (\d+) made, \d+ taken by the run loop, (\d+) flushed", out
    ).groups())
    assert (entries, flushed) == (128_839, 1_779)
    assert made <= 0.85 * 98_488, made
