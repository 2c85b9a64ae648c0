"""The calendar census (PR 22 satellite): a microscope that must not touch
the specimen — an armed run creates the entries of an unarmed one — and
whose counts must add up to ``env._eid``."""

import pytest

from repro.sim import AllOf, Environment, Store
from repro.sim.census import CLASSES, FLUSH_REASONS, Census, main


def small_world(env):
    """Every class of entry and both kinds of hold, taken and flushed."""
    box = Store(env)
    log = []

    def child(delay):
        yield env.timeout(delay)
        return delay

    def getter():
        log.append((yield box.get()))

    def parent():
        log.append((yield env.process(child(2))))       # start taken in place
        wake = env.event()
        wake.succeed("w")
        log.append((yield wake))                        # wake taken in place
        log.append((yield env.timeout(0, "z")))         # so is a zero-delay timer
        tick = env.timeout(1)
        forked = env.process(child(2))                   # a fork ...
        yield tick                                       # ... taken in place: tick is older
        env.process(child(1))                            # held ...
        yield env.timeout(0)                             # ... 2nd hold: other tick; not quiescent
        box.put("item")                                  # a getter's wake
        kids = [env.process(child(3)), env.process(child(3))]  # 2nd hold: other tick
        log.append(sorted((yield AllOf(env, kids)).values()))  # a fork, but not quiescent
        late = env.event()
        late.succeed("l")
        env.timeout(4)                                   # nobody ever listens to it
        log.append((yield late))                         # a timer's id first: other tick
        ready = env.event()
        ready.succeed()
        yield forked                                     # the wake's maker parked elsewhere
        env.process(child(1))                            # step ended

    env.process(getter())
    env.process(parent())
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
    assert (census.inline_starts, census.inline_forks, census.inline_wakes) == (1, 1, 2)
    assert set(census.flushed) <= set(FLUSH_REASONS)
    assert census.flushed == {
        "other tick": 3, "not quiescent": 2, "parked elsewhere": 1, "step ended": 1,
    }
    # dead weight: the timer nobody listens to and five unawaited process ends
    assert (census.peak_length, census.unheard) == (5, 6)
    sites = {site for (_cls, site), _n in census.entries.items()}
    assert "tests.test_sim_census:small_world.<locals>.child" in sites   # its timers
    assert "<held>:small_world.<locals>.child" in sites                  # flushed starts
    assert 0.0 < census.non_timer_share() < 1.0
    table = census.table()
    assert "non-timer share" in table and "1 forks" in table
    assert "peak calendar length: 5" in table
    assert "dispatched with no listener: 6" in table


def test_unarmed_environment_is_untouched():
    env = Environment()
    hooks = {"timeout", "_schedule", "_flush_held", "_flush", "_observe", "_run_callbacks"}
    assert not hooks & set(vars(env))
    assert env._schedule.__func__ is Environment._schedule
    Census(env)
    assert hooks <= set(vars(env))


def test_census_refuses_a_sanitized_environment():
    from repro.verify.kernel import KernelSanitizer

    env = Environment()
    KernelSanitizer(env)
    with pytest.raises(ValueError, match="fast path"):
        Census(env)


def test_cli_prints_the_table_and_enforces_the_ceiling(capsys):
    assert main(["dRAID", "--ceiling", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "armed run == unarmed run" in out and "timer" in out
    assert main(["dRAID", "--ceiling", "0.0"]) == 1
    assert "FAIL: non-timer share" in capsys.readouterr().out
