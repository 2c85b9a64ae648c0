"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    BandwidthChannel,
    Environment,
    Interrupt,
    SimulationError,
    Store,
)
from repro.sim.census import Census
from repro.sim.resources import NS_PER_S


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(100)
        return env.now

    p = env.process(proc())
    assert env.run(until=p) == 100
    assert env.now == 100


def test_timeout_value_passthrough():
    env = Environment()

    def proc():
        got = yield env.timeout(5, value="hello")
        return got

    assert env.run(until=env.process(proc())) == "hello"


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def proc(delay, tag):
        yield env.timeout(delay)
        order.append((env.now, tag))

    env.process(proc(30, "c"))
    env.process(proc(10, "a"))
    env.process(proc(20, "b"))
    env.run()
    assert order == [(10, "a"), (20, "b"), (30, "c")]


def test_fifo_order_for_simultaneous_events():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(7)
        order.append(tag)

    for tag in "abcd":
        env.process(proc(tag))
    env.run()
    assert order == list("abcd")


def test_process_waits_on_process():
    env = Environment()

    def child():
        yield env.timeout(42)
        return "done"

    def parent():
        result = yield env.process(child())
        return (env.now, result)

    assert env.run(until=env.process(parent())) == (42, "done")


def test_yield_already_completed_event():
    env = Environment()

    def child():
        yield env.timeout(5)
        return 99

    def parent(c):
        yield env.timeout(50)  # child finished long ago
        value = yield c
        return (env.now, value)

    c = env.process(child())
    assert env.run(until=env.process(parent(c))) == (50, 99)


def test_event_succeed_manually():
    env = Environment()
    gate = env.event()

    def opener():
        yield env.timeout(10)
        gate.succeed("open")

    def waiter():
        value = yield gate
        return (env.now, value)

    env.process(opener())
    assert env.run(until=env.process(waiter())) == (10, "open")


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_failure_propagates_into_waiter():
    env = Environment()
    gate = env.event()

    def failer():
        yield env.timeout(1)
        gate.fail(ValueError("boom"))

    def waiter():
        try:
            yield gate
        except ValueError as exc:
            return f"caught {exc}"

    env.process(failer())
    assert env.run(until=env.process(waiter())) == "caught boom"


def test_unhandled_failure_raises_at_run():
    env = Environment()

    def failer():
        yield env.timeout(1)
        raise RuntimeError("unhandled")

    env.process(failer())
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_all_of_waits_for_everything():
    env = Environment()

    def proc():
        results = yield AllOf(env, [env.timeout(10, "a"), env.timeout(30, "b")])
        return (env.now, sorted(results.values()))

    assert env.run(until=env.process(proc())) == (30, ["a", "b"])


def test_any_of_returns_on_first():
    env = Environment()

    def proc():
        yield AnyOf(env, [env.timeout(10, "fast"), env.timeout(99, "slow")])
        return env.now

    assert env.run(until=env.process(proc())) == 10


def test_all_of_empty_is_immediate():
    env = Environment()

    def proc():
        yield AllOf(env, [])
        return env.now

    assert env.run(until=env.process(proc())) == 0


def test_interrupt_wakes_process():
    env = Environment()

    def sleeper():
        try:
            yield env.timeout(1_000_000)
            return "slept"
        except Interrupt as intr:
            return ("interrupted", env.now, intr.cause)

    def interrupter(target):
        yield env.timeout(25)
        target.interrupt("wake up")

    target = env.process(sleeper())
    env.process(interrupter(target))
    assert env.run(until=target) == ("interrupted", 25, "wake up")


def test_interrupt_dead_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_run_until_time_stops_clock():
    env = Environment()
    ticks = []

    def ticker():
        while True:
            yield env.timeout(10)
            ticks.append(env.now)

    env.process(ticker())
    env.run(until=105)
    assert env.now == 105
    assert ticks == [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]


def test_run_until_untriggerable_event_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.run(until=env.event())


def test_nested_processes_deep_chain():
    env = Environment()

    def level(n):
        if n == 0:
            yield env.timeout(1)
            return 0
        result = yield env.process(level(n - 1))
        return result + 1

    assert env.run(until=env.process(level(50))) == 50
    assert env.now == 1


def test_yield_non_event_fails_process_and_wakes_waiters():
    # Regression: the non-event-yield path used to throw into the generator
    # but discard the outcome, so the Process event never triggered and
    # waiters leaked silently.
    env = Environment()

    def bad():
        yield "not an event"

    def parent():
        try:
            yield env.process(bad())
        except SimulationError as exc:
            return f"caught {exc}"
        return "not raised"

    result = env.run(until=env.process(parent()))
    assert result.startswith("caught")
    assert "non-event" in result


def test_yield_non_event_unwaited_still_raises():
    env = Environment()

    def bad():
        yield env.timeout(1)
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_yield_non_event_process_can_recover():
    env = Environment()

    def sloppy():
        try:
            yield "oops"
        except SimulationError:
            yield env.timeout(10)
            return "recovered"

    assert env.run(until=env.process(sloppy())) == "recovered"
    assert env.now == 10


def test_yield_non_event_return_value_propagates():
    env = Environment()

    def stops_cleanly():
        try:
            yield object()
        except SimulationError:
            return "clean exit"

    assert env.run(until=env.process(stops_cleanly())) == "clean exit"


def test_horizon_drains_same_timestamp_events():
    # run(until=t) must process every event with timestamp <= t, including
    # zero-delay cascades spawned at the horizon itself.
    env = Environment()
    fired = []

    def chain():
        yield env.timeout(100)
        fired.append("first")
        yield env.timeout(0)
        fired.append("second")
        yield env.timeout(0)
        fired.append("third")
        yield env.timeout(1)
        fired.append("past-horizon")

    env.process(chain())
    env.run(until=100)
    assert fired == ["first", "second", "third"]
    assert env.now == 100
    env.run(until=101)
    assert fired == ["first", "second", "third", "past-horizon"]


def test_horizon_split_matches_uninterrupted_run():
    # Splitting a run at any horizon must not reorder events.
    def build(split):
        env = Environment()
        log = []

        def proc(seed):
            for i in range(6):
                yield env.timeout((seed * 5 + i * 3) % 17 + 1)
                log.append((env.now, seed, i))

        for seed in range(4):
            env.process(proc(seed))
        if split is None:
            env.run()
        else:
            env.run(until=split)
            env.run()
        return log

    uninterrupted = build(None)
    for split in (1, 7, 13, 40):
        assert build(split) == uninterrupted


def test_horizon_equal_to_now_drains_pending():
    env = Environment()
    fired = []

    def proc():
        yield env.timeout(0)
        fired.append(env.now)

    env.process(proc())
    env.run(until=0)
    assert fired == [0]
    assert env.now == 0


def test_determinism_two_runs_identical():
    def build():
        env = Environment()
        log = []

        def proc(seed):
            for i in range(5):
                yield env.timeout((seed * 7 + i * 13) % 29 + 1)
                log.append((env.now, seed, i))

        for seed in range(4):
            env.process(proc(seed))
        env.run()
        return log

    assert build() == build()


def test_run_until_timeout_event_runs_to_its_horizon():
    """Regression: timeouts are pre-succeeded at creation, so the
    event-wait branch of ``run`` used to see ``until=env.timeout(n)`` as
    already triggered and return instantly having simulated nothing."""
    env = Environment()
    fired = []

    def proc():
        yield env.timeout(1_000)
        fired.append(env.now)

    env.process(proc())
    env.run(until=env.timeout(5_000))
    assert fired == [1_000]
    assert env.now == 5_000
    # a timer that already dispatched is genuinely "triggered": no-op
    stale = env.timeout(1_000)
    env.run(until=10_000)
    env.run(until=stale)
    assert env.now == 10_000


# -- the one run loop: every kind of ``until``, fast == pure-heap ------------


class Boom(Exception):
    pass


def _world(env, log):
    """Timers, a start, a wake and a zero-delay timer taken in place, and a
    child that ends at once: entries at t=0, 5 (a zero-delay cascade), 8
    and 15, where the parent returns "done"."""
    def child(tag, delay):
        yield env.timeout(delay)
        log.append((env.now, tag))
        return tag

    def instant():
        log.append((env.now, "instant"))
        return "now"
        yield  # pragma: no cover

    def parent():
        log.append((env.now, "parent"))
        got = yield env.process(child("a", 5))
        wake = env.event()
        wake.succeed("w")
        log.append((env.now, (yield wake)))
        yield env.timeout(0)
        log.append((env.now, (yield env.process(instant()))))
        env.process(child("b", 3))
        yield env.timeout(10)
        log.append((env.now, got))
        return "done"

    return env.process(parent())


def _past(env, parent):
    env.run(until=5)
    return 3


def _failing(env, parent):
    def raiser():
        yield env.timeout(3)
        raise Boom("at 3")

    return env.process(raiser())


def _processed_timeout(env, parent):
    timer = env.timeout(2, "tv")
    env.run(until=4)
    return timer


#: (case, until(env, parent process) -> the ``until`` to pass, outcome, now)
UNTIL_CASES = [
    ("None", lambda env, parent: None, None, 15),
    ("int > now", lambda env, parent: 5, None, 5),
    ("int == now", lambda env, parent: 0, None, 0),
    ("int < now", _past, ValueError, 5),
    ("pending event", lambda env, parent: parent, "done", 15),
    ("failing event", _failing, Boom, 3),
    ("never triggered", lambda env, parent: env.event(), SimulationError, 15),
    ("pending Timeout", lambda env, parent: env.timeout(8), None, 8),
    ("processed Timeout", _processed_timeout, "tv", 4),
]


def _run_until(fast, make_until):
    env = Environment()
    if not fast:
        env._fast = False  # the pure-heap oracle
    log = []
    parent = _world(env, log)
    until = make_until(env, parent)
    try:
        outcome = env.run(until=until)
    except Exception as exc:  # noqa: BLE001 - the outcome under test
        outcome = type(exc)
    return outcome, env.now, log, env._eid


@pytest.mark.parametrize(
    "make_until, outcome, now",
    [case[1:] for case in UNTIL_CASES],
    ids=[case[0] for case in UNTIL_CASES],
)
def test_run_loop_serves_every_kind_of_until(make_until, outcome, now):
    fast = _run_until(True, make_until)
    pure = _run_until(False, make_until)
    assert fast[:3] == pure[:3]
    assert fast[0] == outcome and fast[1] == now
    assert fast[3] <= pure[3]
    # everything up to ``now`` was dispatched, nothing after it
    full = _run_until(True, lambda env, parent: None)[2]
    assert fast[2] == [entry for entry in full if entry[0] <= now]


# -- chains that once advanced inside one Python stack ------------------------


def _pingpong(env, log, rounds=300):
    """``repro.sim.benchkit.pingpong``'s shape: a token over two stores."""
    ping, pong = Store(env, name="ping"), Store(env, name="pong")

    def player(name, inbox, outbox, serve_first):
        if serve_first:
            outbox.put(0)
        for _ in range(rounds):
            token = yield inbox.get()
            yield env.timeout(5)
            log.append((env.now, name, token))
            outbox.put(token + 1)

    env.process(player("pong", ping, pong, False))
    env.process(player("ping", pong, ping, True))


def _closed_loop(clients, rounds=40):
    """``clients`` closed-loop clients on one core: every op starts a child
    that ends at once, then takes the core for 4 ns."""
    def build(env, log):
        core = BandwidthChannel(env, rate_bytes_per_s=NS_PER_S, name="core")

        def instant(i):
            return i
            yield  # pragma: no cover

        def op(i):
            got = yield env.process(instant(i))
            yield core.transfer(4)
            return got

        def client(c):
            for i in range(rounds):
                log.append((env.now, c, (yield env.process(op(i)))))

        for c in range(clients):
            env.process(client(c))

    return build


@pytest.mark.parametrize(
    "build",
    [_pingpong, _closed_loop(16), _closed_loop(1)],
    ids=["pingpong", "16 clients on one core", "one client alone"],
)
def test_timer_chains_match_the_pure_heap_kernel(build):
    """A step that yields a timer parks and the run loop pops it, so a
    chain of closed-loop resumes never nests (a lone client's chain did,
    when the kernel resumed it past its own timers inside one Python
    stack); every entry the census sees is one ``_eid`` counted."""
    runs = []
    for fast in (True, False):
        env = Environment()
        if not fast:
            env._fast = False
        census = Census(env) if fast else None
        log = []
        build(env, log)
        env.run()
        runs.append((log, env.now, env._eid, census))
    (fast_log, fast_now, fast_eid, census), (pure_log, pure_now, pure_eid, _) = runs
    assert fast_log == pure_log and fast_now == pure_now
    assert fast_eid <= pure_eid
    assert census.unattributed == 0
