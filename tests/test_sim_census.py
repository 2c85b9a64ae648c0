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
        forked = env.process(child(1))                   # held ...
        yield env.timeout(0)                             # ... parked elsewhere
        box.put("item")                                  # a getter's wake
        kids = [env.process(child(3)), env.process(child(3))]  # 2nd hold: other tick
        log.append(sorted((yield AllOf(env, kids)).values()))  # parked elsewhere
        late = env.event()
        late.succeed("l")
        env.timeout(4)
        log.append((yield late))                         # a timer's id first: other tick
        yield forked
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
    assert by_class == {"timer": 7, "start": 6, "wake": 2, "process-end": 4}
    assert (census.inline_starts, census.inline_wakes) == (1, 1)
    assert set(census.flushed) <= set(FLUSH_REASONS)
    assert census.flushed == {"other tick": 2, "parked elsewhere": 2, "step ended": 1}
    sites = {site for (_cls, site), _n in census.entries.items()}
    assert "tests.test_sim_census:small_world.<locals>.child" in sites   # its timers
    assert "<held>:small_world.<locals>.child" in sites                  # flushed starts
    assert 0.0 < census.non_timer_share() < 1.0
    assert "non-timer share" in census.table()


def test_unarmed_environment_is_untouched():
    env = Environment()
    assert not {"timeout", "_flush_held", "_flush", "_observe"} & set(vars(env))
    assert type(env._nowq).__name__ == "deque"
    Census(env)
    assert {"timeout", "_flush_held", "_flush", "_observe"} <= set(vars(env))


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
