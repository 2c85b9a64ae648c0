"""Differential oracle for the handoff fast path.

Every zero-delay event — a succeeded event, a process start, a zero-delay
timer — is held in front of the heap, and the run loop takes it in place
when it is the next dispatch anyway; ``gather`` and a delivery to an idle
consumer skip even the hold.  The claim is that nothing but the event-id
counter can tell: every consumer call, handler step and completion happens
at the same simulated time and in the same order as on the pure-heap
kernel (``env._fast = False``, the oracle only these tests set), which
never hands off.  An armed ``KernelSanitizer`` wraps the stock loop, so it
holds and hands off exactly as an unarmed run does.

The networks here are built from the real pieces — ``Fabric`` loopback
connections whose delivery delay is driven through ``jitter_ns_fn``,
inboxes with consumers, handler processes, request events — so the
delivery continuation (``Store._arrive``) is under test too.  Delays come
from a small set that includes 0, so same-nanosecond collisions (the cases
where the guard must fall back to the evented path) are the norm, not the
exception.
"""

import heapq
import os
from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.fabric import Fabric
from repro.net.nic import Nic
from repro.raid.locks import StripeLockManager
from repro.sim import AllOf, AnyOf, Environment, Interrupt, SimulationError, Store
from repro.sim.census import Census

# CI's perf-smoke job re-runs this file with HYPOTHESIS_PROFILE=handoff-ci:
# same examples every time, and a budget tier-1 could not afford.
settings.register_profile(
    "handoff-ci", max_examples=3000, derandomize=True, deadline=None
)
if os.environ.get("HYPOTHESIS_PROFILE") == "handoff-ci":
    settings.load_profile("handoff-ci")

DELAYS = (0, 0, 1, 2, 5)
INBOXES = 3


@dataclass
class Hop:
    """One leg of a message's route: wire delay, destination inbox and what
    the consumer does — ``timers=None`` completes the request from the
    consumer itself; otherwise it starts a handler
    that yields the timers, then forwards or completes."""

    inbox: int
    delay: int
    timers: Optional[Tuple[int, ...]]


@dataclass
class Msg:
    label: str
    hops: List[Hop]
    at: int = 0
    done: object = field(default=None, repr=False)


class Net:
    """A loopback network that records a ``(now, label)`` trace."""

    def __init__(self, fast: bool, inboxes: int = INBOXES) -> None:
        self.env = env = Environment()
        if not fast:
            env._fast = False  # the evented oracle
        self.trace: List[Tuple[int, str]] = []
        fabric = Fabric(env, propagation_ns=0, rdma_op_ns=0, loopback_ns=0)
        self._delay = 0
        fabric.jitter_ns_fn = lambda: self._delay
        nic = Nic(env)
        self.conns = [fabric.connect(nic, nic, f"q{i}") for i in range(inboxes)]
        for i, conn in enumerate(self.conns):
            conn.b.inbox.consume(partial(self._consume, i))

    def log(self, label: str) -> None:
        self.trace.append((self.env.now, label))

    def inbox(self, i: int) -> Store:
        return self.conns[i].b.inbox

    def send(self, msg: Msg):
        hop = msg.hops[msg.at]
        self._delay = hop.delay
        return self.conns[hop.inbox].a.send(msg)

    def _consume(self, i: int, msg: Msg) -> None:
        self.log(f"{msg.label}@{i}")
        hop = msg.hops[msg.at]
        if hop.timers is not None:
            self.env.process(self._handle(msg, hop))
        elif msg.at + 1 < len(msg.hops):
            msg.at += 1
            self.send(msg)
        else:
            msg.done.succeed(msg.label)

    def _handle(self, msg: Msg, hop: Hop):
        for step, delay in enumerate(hop.timers):
            self.log(f"{msg.label}.h{msg.at}.{step}")
            yield self.env.timeout(delay)
        self.log(f"{msg.label}.h{msg.at}.end")
        msg.at += 1
        if msg.at < len(msg.hops):
            self.send(msg)
        else:
            msg.done.succeed(msg.label)

    def producer(self, name: str, script):
        """``script``: (gap, msg, mode) with mode 'forget' | 'wait' (yield
        the request event) | 'listen' (yield the delivery timer itself)."""
        env = self.env
        for gap, msg, mode in script:
            yield env.timeout(gap)
            msg.done = env.event()
            sent = self.send(msg)
            if mode == "listen":
                yield sent
                self.log(f"{name}:sent:{msg.label}")
            elif mode == "wait":
                value = yield msg.done
                self.log(f"{name}<-{value}")


def run_both(build, until=None):
    """Run ``build(net)`` on the fast and the pure-heap kernel; the traces
    must be equal and the fast run may only have used fewer event ids."""
    nets = []
    for fast in (True, False):
        net = Net(fast)
        build(net)
        while True:
            try:
                net.env.run(until=until)
                break
            except Boom as boom:  # nobody listened to the process that raised
                net.log(f"surfaced:{boom}")
        nets.append(net)
    fast, pure = nets
    assert fast.trace == pure.trace
    assert fast.env.now == pure.env.now
    assert fast.env._eid <= pure.env._eid
    return fast, pure


# -- the differential property ------------------------------------------------

hops = st.lists(
    st.builds(
        Hop,
        inbox=st.integers(0, INBOXES - 1),
        delay=st.sampled_from(DELAYS),
        timers=st.one_of(
            st.none(),
            st.lists(st.sampled_from((0, 1, 3)), max_size=3).map(tuple),
        ),
    ),
    min_size=1,
    max_size=3,
)
scripts = st.lists(
    st.tuples(
        st.sampled_from(DELAYS),
        hops,
        st.sampled_from(("forget", "wait", "listen")),
    ),
    min_size=1,
    max_size=5,
)


@given(producers=st.lists(scripts, min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_handoff_matches_pure_heap_order(producers):
    def build(net):
        for p, script in enumerate(producers):
            net.env.process(net.producer(f"p{p}", [
                (gap, Msg(f"m{p}.{i}", [Hop(h.inbox, h.delay, h.timers) for h in route]),
                 mode)
                for i, (gap, route, mode) in enumerate(script)
            ]))

    run_both(build)


# -- named cases: where handoff happens, and every forced fallback -----------


def one_message(net, label, inbox, delay, timers=(1,), mode="forget", gap=0):
    net.env.process(
        net.producer(f"p:{label}", [(gap, Msg(label, [Hop(inbox, delay, timers)]), mode)])
    )


def test_idle_delivery_hands_off_wake_start_and_end():
    """One delivery on an idle calendar: the producer's start, its
    zero-delay gap timer (a wake), its listener-less end event, the
    consumer wake and the handler's Initialize all disappear."""
    fast, pure = run_both(lambda net: one_message(net, "m", 0, 5))
    assert fast.trace == [(5, "m@0"), (5, "m.h0.0"), (6, "m.h0.end")]
    assert pure.env._eid - fast.env._eid == 5


def test_two_deliveries_in_one_nanosecond_to_one_inbox():
    """The first is not quiescent (the second's timer is due now): one
    evented wake drains both, and their handlers start in order."""
    def build(net):
        one_message(net, "a", 0, 5)
        one_message(net, "b", 0, 5)

    fast, _ = run_both(build)
    assert [label for _, label in fast.trace[:4]] == ["a@0", "b@0", "a.h0.0", "b.h0.0"]


def test_two_deliveries_in_one_nanosecond_to_two_inboxes():
    def build(net):
        one_message(net, "a", 0, 5)
        one_message(net, "b", 1, 5)

    fast, _ = run_both(build)
    assert [label for _, label in fast.trace[:4]] == ["a@0", "b@1", "a.h0.0", "b.h0.0"]


def test_delivery_beside_an_unrelated_zero_delay_event():
    """An event already due at the same instant holds an earlier id: its
    listener runs before the consumer."""
    def build(net):
        env = net.env
        flag = env.event()

        def setter():
            yield env.timeout(5)
            flag.succeed()

        def listener():
            yield flag
            net.log("listener")

        env.process(setter())
        env.process(listener())
        one_message(net, "m", 0, 5)

    fast, _ = run_both(build)
    assert [label for _, label in fast.trace[:2]] == ["listener", "m@0"]


def test_delivery_timer_with_a_second_listener():
    """``yield end.send(...)``: the delivery is not the timer's last
    callback, so the wake is evented and the sender resumes first."""
    fast, _ = run_both(lambda net: one_message(net, "m", 0, 5, mode="listen"))
    assert [label for _, label in fast.trace[:2]] == ["p:m:sent:m", "m@0"]


def test_clear_between_delivery_and_wake():
    """A crash drops what queued behind the wake; the wake's own item was
    already handed over, exactly as with a parked getter."""
    def build(net):
        one_message(net, "a", 0, 5, timers=None)
        one_message(net, "b", 0, 5, timers=None)

        def crasher():
            # a third same-instant timer: after both deliveries, before the wake
            yield net.env.timeout(0)
            net.env.timeout(5).callbacks.append(lambda _ev: net.inbox(0).clear())

        net.env.process(crasher())

    fast, _ = run_both(build)
    assert fast.trace == [(5, "a@0")]


def test_completion_from_the_consumer_resumes_the_waiter_inline():
    fast, pure = run_both(
        lambda net: one_message(net, "m", 0, 5, timers=None, mode="wait")
    )
    assert fast.trace == [(5, "m@0"), (5, "p:m<-m")]
    assert fast.env._eid < pure.env._eid


def test_sibling_callbacks_are_never_overtaken():
    """Two processes wake on one timer; the first may not run its own next
    timer past the second's wake-up."""
    def build(net):
        env = net.env
        shared = env.timeout(5)

        def proc(name, delay):
            yield shared
            net.log(f"{name}:woke")
            yield env.timeout(delay)
            net.log(f"{name}:done")

        env.process(proc("a", 10))
        env.process(proc("b", 3))

    fast, _ = run_both(build)
    assert fast.trace == [(5, "a:woke"), (5, "b:woke"), (8, "b:done"), (15, "a:done")]


def test_run_until_horizon_processes_a_chain_spawned_at_the_horizon():
    fast, _ = run_both(lambda net: one_message(net, "m", 0, 5, timers=(0, 2)), until=5)
    assert fast.trace == [(5, "m@0"), (5, "m.h0.0"), (5, "m.h0.1")]
    assert fast.env.now == 5
    fast.env.run()
    assert fast.trace[-1] == (7, "m.h0.end")


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "pure-heap"])
class TestErrorsStillSurface:
    def test_handler_raising_on_its_inline_first_step(self, fast):
        net = Net(fast)

        def bad_handler(msg, hop):
            raise RuntimeError("boom")
            yield  # pragma: no cover

        net._handle = bad_handler
        one_message(net, "m", 0, 5)
        with pytest.raises(RuntimeError, match="boom"):
            net.env.run()
        assert net.trace == [(5, "m@0")]

    def test_unobserved_process_that_fails(self, fast):
        net = Net(fast)

        def doomed():
            yield net.env.timeout(3)
            raise RuntimeError("nobody listens")

        net.env.process(doomed())
        with pytest.raises(RuntimeError, match="nobody listens"):
            net.env.run()

    def test_unobserved_process_that_succeeds_is_processed(self, fast):
        net = Net(fast)

        def quiet():
            yield net.env.timeout(3)
            return 7

        proc = net.env.process(quiet())
        net.env.run()
        assert proc.processed and proc.value == 7

        def late():
            value = yield proc  # resumes at once, as for any processed event
            net.log(f"late:{value}")

        net.env.process(late())
        net.env.run()
        assert net.trace == [(3, "late:7")]


class TestOneReaderPerStore:
    def test_get_on_a_consumed_store_is_a_typed_error(self):
        store = Store(Environment(), name="box")
        store.consume(lambda item: None)
        with pytest.raises(SimulationError, match="box"):
            store.get()

    def test_consume_on_a_store_with_a_getter_or_a_consumer(self):
        env = Environment()
        store = Store(env, name="box")
        store.get()
        with pytest.raises(SimulationError, match="box"):
            store.consume(lambda item: None)
        other = Store(env, name="other")
        other.consume(lambda item: None)
        with pytest.raises(SimulationError, match="other"):
            other.consume(lambda item: None)

    def test_items_put_before_the_consumer_registered_are_delivered(self):
        env = Environment()
        store = Store(env)
        store.put("early")
        store.put("also early")
        seen = []
        store.consume(seen.append)
        store.put("late")
        env.run()
        assert seen == ["early", "also early", "late"]


# -- process steps: ends, condition releases, fan-out, locks -------------------
#
# A process that returns, an ``AllOf``/``AnyOf`` whose last child comes in and
# the grant of a free stripe lock are held and taken when nothing else is
# due; the first steps of ``env.gather`` children run in place.  Same claim,
# same oracle: equal ``(now, label)`` traces on the fast and on the pure-heap
# kernel.

STEP_DELAYS = (0, 1, 2, 5)

timer_step = st.tuples(st.just("timer"), st.sampled_from(STEP_DELAYS))
lock_step = st.tuples(
    st.just("lock"),
    st.integers(0, 1),
    st.lists(st.sampled_from(STEP_DELAYS), max_size=2).map(tuple),
)
leaf_steps = st.one_of(timer_step, lock_step)


def _branching(programs):
    """Programs whose steps may start the child ``programs``."""
    racers = st.lists(
        st.one_of(st.sampled_from(STEP_DELAYS), programs), min_size=1, max_size=3
    )
    return st.lists(
        st.one_of(
            leaf_steps,
            st.tuples(st.just("gather"), st.lists(programs, min_size=1, max_size=3)),
            st.tuples(st.sampled_from(("all", "any")), racers),
            st.tuples(st.just("spawn"), programs),
        ),
        max_size=4,
    )


programs = st.recursive(st.lists(leaf_steps, max_size=3), _branching, max_leaves=10)


def interpret(net, locks, label, program):
    """Run ``program`` as a process body, logging every step and the end."""
    env = net.env

    def child(tag, body):
        return interpret(net, locks, f"{label}.{tag}", body)

    for i, step in enumerate(program):
        kind = step[0]
        net.log(f"{label}[{i}]{kind}")
        if kind == "timer":
            yield env.timeout(step[1])
        elif kind == "lock":
            yield locks.acquire(step[1])
            net.log(f"{label}[{i}]held")
            try:
                for delay in step[2]:
                    yield env.timeout(delay)
            finally:
                locks.release(step[1])
        elif kind == "gather":
            yield env.gather(
                child(f"{i}g{j}", body) for j, body in enumerate(step[1])
            )
        elif kind == "spawn":
            env.process(child(f"{i}s", step[1]))
        else:
            racers = [
                env.timeout(r) if isinstance(r, int)
                else env.process(child(f"{i}c{j}", r))
                for j, r in enumerate(step[1])
            ]
            yield (AllOf if kind == "all" else AnyOf)(env, racers)
    net.log(f"{label}:end")


@given(roots=st.lists(programs, min_size=1, max_size=4))
@settings(max_examples=max(250, settings.default.max_examples), deadline=None)
def test_process_step_handoff_matches_pure_heap_order(roots):
    def build(net):
        locks = StripeLockManager(net.env)
        for r, program in enumerate(roots):  # all start in nanosecond 0
            net.env.process(interpret(net, locks, f"r{r}", program))

    run_both(build)


def labels(net, count=None):
    return [label for _, label in net.trace[:count]]


def test_idle_fan_out_hands_off_start_grant_end_and_release():
    """One child on an idle calendar: its Initialize, the free-lock grant,
    its end, the AllOf release, the parent's start and its end all
    disappear; the timers are what is left."""
    def build(net):
        net.env.timeout(1)
        net.env.process(interpret(
            net, StripeLockManager(net.env), "p", [("gather", [[("lock", 0, (3,))]])]
        ))

    fast, pure = run_both(build)
    assert fast.env._eid == 2 and pure.env._eid == 8
    assert fast.trace[-1] == (3, "p:end")


def test_child_ending_beside_an_unrelated_zero_delay_event():
    """The unrelated event holds the earlier id: its listener runs before
    the parent resumes, so the child's end goes through the calendar."""
    def build(net):
        env = net.env
        flag = env.event()

        def setter():
            yield env.timeout(5)
            flag.succeed()

        def listener():
            yield flag
            net.log("listener")

        def kid():
            yield env.timeout(5)
            net.log("kid:end")

        def parent():
            yield env.process(kid())
            net.log("parent:resumed")

        env.process(setter())
        env.process(listener())
        env.process(parent())

    fast, _ = run_both(build)
    assert labels(fast) == ["kid:end", "listener", "parent:resumed"]


def test_process_with_two_listeners():
    """The first listener's zero-delay timer took its id before the second
    listener made its own: neither overtakes the other."""
    def build(net):
        env = net.env

        def kid():
            yield env.timeout(5)

        def waiter(name, proc):
            yield proc
            net.log(f"{name}:woke")
            yield env.timeout(0)
            net.log(f"{name}:done")

        proc = env.process(kid())
        env.process(waiter("a", proc))
        env.process(waiter("b", proc))

    fast, _ = run_both(build)
    assert labels(fast) == ["a:woke", "b:woke", "a:done", "b:done"]


def test_all_of_over_already_processed_children():
    """The constructor's own ``_check`` calls are not dispatched callbacks:
    the release is scheduled, and what the builder does next precedes it."""
    def build(net):
        env = net.env

        def kid():
            yield env.timeout(1)

        def parent():
            kids = [env.process(kid()), env.process(kid())]
            yield env.timeout(3)
            gathered = AllOf(env, kids)
            gathered.callbacks.append(lambda _ev: net.log("released"))
            net.log("built")
            yield gathered
            net.log("resumed")

        env.process(parent())

    fast, _ = run_both(build)
    assert fast.trace == [(3, "built"), (3, "released"), (3, "resumed")]


def test_non_last_fan_out_child_taking_a_free_lock():
    """Its grant is scheduled behind the later sibling's first step, exactly
    where the Initialize queue puts it (and the sibling's grant behind it)."""
    def build(net):
        locks = StripeLockManager(net.env)
        net.env.process(interpret(net, locks, "p", [
            ("gather", [[("lock", 0, ())], [("lock", 1, ())]]),
        ]))

    fast, pure = run_both(build)
    assert labels(fast, 5) == [
        "p[0]gather", "p.0g0[0]lock", "p.0g1[0]lock", "p.0g0[0]held", "p.0g0:end",
    ]
    assert fast.env._eid < pure.env._eid


def test_non_last_fan_out_child_may_not_run_ahead():
    def build(net):
        net.env.process(interpret(net, StripeLockManager(net.env), "p", [
            ("gather", [[("timer", 0)], [("timer", 0)]]),
        ]))

    fast, _ = run_both(build)
    assert labels(fast, 5) == [
        "p[0]gather", "p.0g0[0]timer", "p.0g1[0]timer", "p.0g0:end", "p.0g1:end",
    ]


def test_fan_out_when_not_quiescent():
    """Another process starts in the same nanosecond: the children get their
    Initialize events behind it."""
    def build(net):
        locks = StripeLockManager(net.env)
        net.env.process(interpret(net, locks, "p", [("gather", [[], []])]))
        net.env.process(interpret(net, locks, "q", [("timer", 1)]))

    fast, _ = run_both(build)
    assert labels(fast, 3) == ["p[0]gather", "q[0]timer", "p.0g0:end"]


def test_fan_out_from_a_plain_callback():
    """Nobody yields the result next, so it is the plain expression."""
    def build(net):
        env = net.env

        def kid(name):
            net.log(f"{name}:start")
            yield env.timeout(1)

        def fan_out(_event):
            gathered = env.gather(kid(name) for name in "ab")
            gathered.callbacks.append(lambda _ev: net.log("released"))
            net.log("callback:done")

        env.timeout(5).callbacks.append(fan_out)

    fast, pure = run_both(build)
    assert labels(fast) == ["callback:done", "a:start", "b:start", "released"]
    assert fast.env._eid == pure.env._eid - 1  # only the release hands off


def test_last_child_batch_advancing_to_its_end_inside_the_fan_out():
    """The child is processed before the AllOf exists; the parent still
    resumes at the child's end time, after the sibling."""
    def build(net):
        net.env.process(interpret(net, StripeLockManager(net.env), "p", [
            ("gather", [[("timer", 5)], [("timer", 1), ("timer", 2)]]),
        ]))

    fast, _ = run_both(build)
    assert fast.trace[-3:] == [(3, "p.0g1:end"), (5, "p.0g0:end"), (5, "p:end")]


def test_lone_child_batch_advancing_to_its_end_inside_the_fan_out():
    def build(net):
        net.env.process(interpret(net, StripeLockManager(net.env), "p", [
            ("gather", [[("timer", 1), ("timer", 2)]]), ("timer", 1),
        ]))

    fast, _ = run_both(build)
    assert fast.trace[-3:] == [(3, "p.0g0:end"), (3, "p[1]timer"), (4, "p:end")]


class Boom(Exception):
    pass


def failing_family(net, fail_after, position):
    """A parent fanning out over two healthy children and one that raises
    ``fail_after`` timers in (``position`` among the three)."""
    env = net.env

    def healthy(name):
        yield env.timeout(2)
        net.log(f"{name}:end")

    def doomed():
        for _ in range(fail_after):
            yield env.timeout(1)
        net.log("doomed:raising")
        raise Boom("boom")

    def parent():
        kids = [healthy("a"), healthy("b")]
        kids.insert(position, doomed())
        try:
            yield env.gather(kids)
        except Boom:
            net.log("parent:caught")
        yield env.timeout(10)
        net.log("parent:end")

    env.process(parent())


@pytest.mark.parametrize("position", [0, 2], ids=["first", "last"])
def test_child_raising_on_its_first_step(position):
    fast, _ = run_both(lambda net: failing_family(net, 0, position))
    assert labels(fast) == [
        "doomed:raising", "parent:caught", "a:end", "b:end", "parent:end",
    ]


@pytest.mark.parametrize("position", [0, 2], ids=["first", "last"])
def test_failing_child_under_all_of_fails_fast_and_is_defused(position):
    """The AllOf fails as soon as the child does; the children that end
    later are checked in and nothing surfaces from ``run``."""
    fast, _ = run_both(lambda net: failing_family(net, 1, position))
    assert fast.trace[:2] == [(1, "doomed:raising"), (1, "parent:caught")]
    assert fast.trace[-1] == (11, "parent:end")


def test_run_until_horizon_with_an_end_release_resume_chain_at_the_horizon():
    def build(net):
        net.env.process(interpret(net, StripeLockManager(net.env), "p", [
            ("gather", [[("timer", 5)]]), ("lock", 0, (2,)),
        ]))

    fast, _ = run_both(build, until=5)
    assert fast.trace[-3:] == [(5, "p.0g0:end"), (5, "p[1]lock"), (5, "p[1]held")]
    assert fast.env.now == 5
    fast.env.run()
    assert fast.trace[-1] == (7, "p:end")


def test_interrupt_of_a_parent_parked_on_a_fan_out():
    """The children run on; the parent is gone from the release's listeners."""
    def build(net):
        env = net.env

        def kid(name, delay):
            yield env.timeout(delay)
            net.log(f"{name}:end")

        def parent():
            try:
                yield env.gather([kid("a", 4), kid("b", 6)])
            except Interrupt as interrupt:
                net.log(f"parent:interrupted:{interrupt.cause}")
            yield env.timeout(1)
            net.log("parent:end")

        def interrupter(victim):
            yield env.timeout(5)
            victim.interrupt("stop")

        env.process(interrupter(env.process(parent())))

    fast, _ = run_both(build)
    assert fast.trace == [
        (4, "a:end"), (5, "parent:interrupted:stop"), (6, "b:end"), (6, "parent:end"),
    ]


def test_any_of_lets_go_of_the_timer_that_lost():
    """The winner's value is not kept alive by the pending deadline, which
    still dispatches (with no listener) where it always did."""
    env = Environment()
    winner = env.event()
    deadline = env.timeout(50)
    race = AnyOf(env, [winner, deadline])
    env.timeout(1).callbacks.append(lambda _ev: winner.succeed("won"))
    env.run(until=race)
    assert deadline.callbacks == [] and env.now == 1
    env.run()
    assert env.now == 50


# -- the child or the wake a step has just made ----------------------------------
#
# A process step that creates a process, or succeeds an event, and yields
# that very event next gets it from the hold: no ``Initialize``, no wake
# entry.  Nobody promises anything — whatever the step does between making
# the event and yielding (or never yielding) it, the run loop either finds
# the event is what the calendar would dispatch next or gives it the entry it
# was spared.  Same claim, same oracle.

BETWEEN = ("nothing", "timer", "put", "succeed", "process", "interrupt", "callback")
WRAPS = (None, None, "all", "any")

made_step = st.tuples(
    st.sampled_from(("child", "wake", "spawn")),
    st.sampled_from(BETWEEN),
    st.sampled_from(WRAPS),
)

# A fork: a child is made and the step parks on something else, or never
# parks — ``(what, delay)``: a timer made before / after the
# fork, a pending event released ``delay`` from now, an event processed long
# ago; the step (and the process) ending, or raising.
PARKS = [
    (what, delay)
    for what in ("timer-before", "timer-after", "pending")
    for delay in (0, 1, 3)
] + [("processed", 0), ("end", 0), ("raise", 0)]

fork_step = st.tuples(
    st.just("fork"),
    st.sampled_from(("nothing",) * 3 + BETWEEN),  # (any poke flushes the hold)
    st.sampled_from(PARKS),
)


def _observed(programs):
    return st.lists(
        st.one_of(
            timer_step,
            st.tuples(made_step, programs),
            st.tuples(fork_step, programs),
        ),
        max_size=4,
    )


observed_programs = st.recursive(
    st.lists(timer_step, max_size=2), _observed, max_leaves=8
)


class World:
    """Bystanders a step can poke between making an event and yielding it:
    a mailbox with a parked getter, signals with listeners, a sleeper to
    interrupt."""

    def __init__(self, net):
        self.net = net
        env = net.env
        self.box = Store(env, name="box")
        self.signals = [env.event() for _ in range(3)]
        self.done = env.event().succeed("done")  # processed before any root starts
        env.process(self._getter())
        for i, signal in enumerate(self.signals):
            env.process(self._listener(i, signal))
        self.sleeper = env.process(self._sleeper())

    def _getter(self):
        while True:
            item = yield self.box.get()
            self.net.log(f"box<-{item}")

    def _listener(self, i, signal):
        value = yield signal
        self.net.log(f"signal{i}<-{value}")

    def _sleeper(self):
        while True:
            try:
                yield self.net.env.timeout(50)
                return
            except Interrupt as interrupt:
                self.net.log(f"sleeper:interrupted:{interrupt.cause}")

    def _bystander(self, label):
        self.net.log(f"bystander:{label}")
        yield self.net.env.timeout(0)
        self.net.log(f"bystander:{label}:end")

    def poke(self, how, label):
        env = self.net.env
        if how == "timer":
            env.timeout(0).callbacks.append(lambda _ev: self.net.log(f"tick:{label}"))
        elif how == "put":
            self.box.put(label)
        elif how == "succeed":
            pending = [s for s in self.signals if not s.triggered]
            if pending:
                pending[0].succeed(label)
        elif how == "process":
            env.process(self._bystander(label))
        elif how == "interrupt":
            if self.sleeper.is_alive and self.sleeper._target is not None:
                self.sleeper.interrupt(label)
        elif how == "callback":
            # a zero-delay timer made by a plain callback: never held
            log = self.net.log
            env.timeout(1).callbacks.append(
                lambda _ev: env.timeout(0).callbacks.append(
                    lambda _ev: log(f"callback-tick:{label}")
                )
            )


def observe(net, world, label, program):
    """Run ``program``: timers, and events made then (maybe) yielded."""
    env = net.env
    for i, step in enumerate(program):
        if step[0] == "timer":
            net.log(f"{label}[{i}]timer")
            yield env.timeout(step[1])
            continue
        (kind, between, wrap), body = step
        net.log(f"{label}[{i}]{kind}")
        if kind == "fork":
            what, delay = wrap
            park = None
            if what == "timer-before":
                park = env.timeout(delay, "older")
            elif what == "pending":
                park = env.event()
                env.timeout(delay).callbacks.append(
                    lambda _ev, gate=park: gate.succeed("released")
                )
            elif what == "processed":
                park = world.done
        if kind == "wake":
            made = env.event()
            made.succeed(f"{label}.{i}")
        else:
            made = env.process(observe(net, world, f"{label}.{i}", body))
        world.poke(between, f"{label}.{i}")
        if kind == "spawn":
            continue  # made, never yielded
        if kind == "fork":
            if what == "end":
                break
            if what == "raise":
                raise Boom(f"{label}[{i}]")
            if what == "timer-after":
                park = env.timeout(delay, "younger")
            got = yield park
            net.log(f"{label}[{i}]parked:{got}")
        if wrap in ("all", "any"):
            made = (AllOf if wrap == "all" else AnyOf)(env, [made])
        try:
            got = yield made
        except Boom as boom:  # a child that raised after a fork of its own
            net.log(f"{label}[{i}]boom:{boom}")
            continue
        net.log(
            f"{label}[{i}]got:{sorted(got.values()) if wrap in ('all', 'any') else got}"
        )
    net.log(f"{label}:end")
    return label


@given(
    roots=st.lists(
        st.tuples(st.sampled_from((0, 0, 10, 25)), observed_programs),
        min_size=1, max_size=3,
    )
)
@settings(max_examples=max(250, settings.default.max_examples), deadline=None)
def test_observed_yield_matches_pure_heap_order(roots):
    def build(net):
        world = World(net)
        # a root starts in nanosecond 0, beside the bystanders and the other
        # roots, or later, when the calendar may well be quiescent
        for r, (start, program) in enumerate(roots):
            net.env.process(
                observe(net, world, f"r{r}", [("timer", start)] * bool(start) + program)
            )

    run_both(build)


def test_idle_child_and_wake_are_taken_in_place():
    """One timer: both starts, both ends and the wake never reach the
    calendar."""
    def build(net):
        env = net.env

        def child():
            yield env.timeout(3)
            return "kid"

        def parent():
            got = yield env.process(child())
            net.log(f"child:{got}")
            wake = env.event()
            wake.succeed("woke")
            got = yield wake
            net.log(f"wake:{got}")

        env.process(parent())

    fast, pure = run_both(build)
    assert fast.trace == [(3, "child:kid"), (3, "wake:woke")]
    assert fast.env._eid == 1 and pure.env._eid == 6


@pytest.mark.parametrize("between", BETWEEN[1:])
def test_anything_between_making_and_yielding_flushes_the_hold(between):
    """The poke gets its calendar entry *behind* the held start, as if the
    start had been scheduled when it was made."""
    def build(net):
        world = World(net)
        net.env.process(observe(net, world, "p", [
            (("child", between, None), [("timer", 0)]),
        ]))

    fast, pure = run_both(build)
    if between != "interrupt":  # (one entry, then a second timer: no saving)
        assert fast.env._eid < pure.env._eid  # ends still hand off


def test_a_tick_site_need_not_know_about_the_hold():
    """The held start took its event id when it was made, so a site that
    only hands out the next id — written here as a future inlined wake would
    be, with no flush in it — cannot get ahead of it."""
    def build(net):
        env = net.env

        def child():
            net.log("child:start")
            yield env.timeout(1)

        def parent():
            proc = env.process(child())
            wake = env.event()
            wake._ok, wake._value, wake._scheduled = True, None, True
            wake.callbacks.append(lambda _event: net.log("raw-wake"))
            env._eid += 1
            heapq.heappush(env._queue, (env.now, env._eid, wake))
            yield proc
            net.log("parent:end")

        env.process(parent())

    fast, _ = run_both(build)
    assert fast.trace == [(0, "child:start"), (0, "raw-wake"), (1, "parent:end")]


def test_zero_time_child_loop_is_not_recursive():
    """Each instant child is started, and its end resumes the parent, from
    the run loop: nothing nests, and nothing reaches the calendar."""
    def build(net):
        env = net.env

        def instant(i):
            return i
            yield  # pragma: no cover

        def parent():
            total = 0
            for i in range(5000):
                total += yield env.process(instant(i))
            net.log(f"total:{total}")

        env.process(parent())

    fast, pure = run_both(build)
    assert fast.trace == [(0, f"total:{sum(range(5000))}")]
    assert fast.env._eid < pure.env._eid // 10


def test_deep_chain_of_children_is_not_recursive():
    def build(net):
        env = net.env

        def link(depth):
            net.log(f"down:{depth}")
            if depth < 200:
                yield env.process(link(depth + 1))
            else:
                yield env.timeout(1)
            net.log(f"up:{depth}")

        env.process(link(0))

    fast, _ = run_both(build)
    assert fast.trace[200] == (0, "down:200") and fast.trace[-1] == (1, "up:0")


def test_child_started_in_place_can_interrupt_its_parent():
    """The parent is parked before the child's first step runs (unlike under
    ``gather``), so it is a legal interrupt target."""
    def build(net):
        env = net.env

        def child(parent):
            parent.interrupt("from-child")
            yield env.timeout(2)
            net.log("child:end")

        def parent():
            try:
                yield env.process(child(env._active_process))
            except Interrupt as interrupt:
                net.log(f"parent:interrupted:{interrupt.cause}")
            yield env.timeout(5)
            net.log("parent:end")

        env.process(parent())

    fast, _ = run_both(build)
    assert fast.trace == [
        (0, "parent:interrupted:from-child"), (2, "child:end"), (5, "parent:end"),
    ]


def test_held_process_that_is_never_yielded_still_starts():
    def build(net):
        env = net.env

        def child():
            net.log("child:start")
            yield env.timeout(1)

        def parent():
            env.process(child())
            net.log("parent:end")
            return
            yield  # pragma: no cover

        env.process(parent())

    fast, _ = run_both(build)
    assert fast.trace == [(0, "parent:end"), (0, "child:start")]


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "pure-heap"])
def test_held_process_whose_creator_raises_still_starts(fast):
    net = Net(fast)
    env = net.env

    def child():
        net.log("child:start")
        yield env.timeout(1)
        net.log("child:end")

    def parent():
        env.process(child())
        raise RuntimeError("creator failed")
        yield  # pragma: no cover

    env.process(parent())
    with pytest.raises(RuntimeError, match="creator failed"):
        env.run()
    assert net.trace == [(0, "child:start")]
    env.run()
    assert net.trace[-1] == (1, "child:end")


def test_armed_sanitizer_holds_and_hands_off_as_unarmed():
    from repro.verify.kernel import KernelSanitizer

    def program(armed):
        env = Environment()
        if armed:
            KernelSanitizer(env)
        seen = []

        def child():
            seen.append(("first step", env.now, env._eid))
            yield env.timeout(1)

        def parent():
            proc = env.process(child())
            wake = env.event()
            wake.succeed()
            seen.append(type(env._held).__name__)
            yield proc
            yield wake
            zero = env.timeout(0)
            seen.append(type(env._held).__name__)
            yield zero
            tick = env.timeout(2)
            env.process(child())  # a fork
            seen.append(type(env._held).__name__)
            yield tick
            yield env.gather([child(), child()])  # first steps run in place

        env.process(parent())
        env.run()
        return seen, env._eid

    unarmed = program(armed=False)
    assert program(armed=True) == unarmed
    # held, not on the calendar; the gather children's first steps take no
    # id in between (the pure-heap kernel ends at 18)
    assert unarmed == ([
        "Event", ("first step", 0, 2), "Timeout", "Process",
        ("first step", 1, 4), ("first step", 3, 5), ("first step", 3, 6),
    ], 9)


# -- forks and zero-delay wakes ---------------------------------------------------
#
# A step that has just made a child and parks on something *else* leaves the
# child's start in the hold, which the run loop reads next;
# ``env.timeout(0)`` is a wake, held like a succeeded event.  The oracle above
# draws both at random; these pin each case.


def forking_parent(net, make, before, between=None):
    """A parent that makes a child and then yields ``make(env)``'s event —
    made before the fork or after it — doing ``between(env)`` in between."""
    env = net.env

    def child():
        net.log("child:start")
        yield env.timeout(2)
        net.log("child:end")
        return "kid"

    def parent():
        older = make(env) if before else None
        kid = env.process(child())
        if between is not None:
            between(env)
        got = yield (older if before else make(env))
        net.log(f"parent:parked:{got}")
        got = yield kid
        net.log(f"parent:got:{got}")

    env.process(parent())


def test_idle_fork_starts_in_place():
    """The child's Initialize never reaches the calendar (nor do the
    parent's start, the two ends and the zero-delay timer): two timers are
    all there is."""
    def build(net):
        env = net.env

        def child():
            net.log("child:start")
            yield env.timeout(1)
            net.log("child:end")

        def parent():
            tick = env.timeout(3)
            env.process(child())
            yield tick
            net.log("parent:tick")
            got = yield env.timeout(0, "zero")
            net.log(f"parent:{got}")

        env.process(parent())

    fast, pure = run_both(build)
    assert fast.trace == [
        (0, "child:start"), (1, "child:end"), (3, "parent:tick"), (3, "parent:zero"),
    ]
    assert fast.env._eid == 2 and pure.env._eid == 7


@pytest.mark.parametrize(
    "before, delay, first",
    [
        (True, 1, "child:start"),
        (True, 0, "parent:parked:tick"),  # due now and made first: it goes first
        (False, 1, "child:start"),
        (False, 0, "child:start"),
    ],
    ids=["timer-before", "zero-before", "timer-after", "zero-after"],
)
def test_fork_then_park_on_a_timer(before, delay, first):
    fast, pure = run_both(lambda net: forking_parent(
        net, lambda env: env.timeout(delay, "tick"), before
    ))
    rest = {"child:start", "parent:parked:tick"} - {first}
    assert labels(fast) == [first, *rest, "child:end", "parent:got:kid"]
    assert fast.env._eid < pure.env._eid


def test_fork_then_an_already_processed_event():
    """The step does not park: it goes on, and the child starts when it does."""
    def build(net):
        env = net.env

        def child():
            net.log("child:start")
            yield env.timeout(2)

        def parent():
            done = env.timeout(0)
            yield done
            kid = env.process(child())
            yield done
            net.log("parent:went-on")
            yield kid
            net.log("parent:end")

        env.process(parent())

    fast, _ = run_both(build)
    assert labels(fast) == ["parent:went-on", "child:start", "parent:end"]


@pytest.mark.parametrize(
    "between",
    [
        lambda env: env.event().succeed(),
        lambda env: env.timeout(0),
        lambda env: env.timeout(5),
        lambda env: env.process(e for e in ()),
    ],
    ids=["succeed", "zero-timer", "timer", "process"],
)
def test_anything_between_fork_and_park_flushes_the_hold(between):
    """The fork got its id first, so the child still starts first."""
    fast, _ = run_both(lambda net: forking_parent(
        net, lambda env: env.timeout(1, "tick"), True, between
    ))
    assert labels(fast, 2) == ["child:start", "parent:parked:tick"]


def test_fork_by_a_step_that_ends_or_raises():
    def build(net):
        env = net.env

        def child(name):
            net.log(f"{name}:start")
            yield env.timeout(1)

        def ends():
            env.process(child("a"))
            net.log("ends:end")
            return
            yield  # pragma: no cover

        def raises():
            yield env.timeout(2)
            env.process(child("b"))
            raise Boom("raised")

        env.process(ends())
        env.process(raises())

    fast, _ = run_both(build)
    assert fast.trace == [
        (0, "ends:end"), (0, "a:start"), (2, "b:start"), (2, "surfaced:raised"),
    ]


def test_forked_child_started_in_place_can_interrupt_its_parent():
    """The parent has parked (on its older timer) before the child's first
    step runs, so it is a legal interrupt target."""
    def build(net):
        env = net.env

        def child(parent):
            parent.interrupt("from-child")
            yield env.timeout(2)
            net.log("child:end")

        def parent():
            tick = env.timeout(5)
            env.process(child(env._active_process))
            try:
                yield tick
            except Interrupt as interrupt:
                net.log(f"parent:interrupted:{interrupt.cause}")
            yield env.timeout(1)
            net.log("parent:end")

        env.process(parent())

    fast, _ = run_both(build)
    assert fast.trace == [
        (0, "parent:interrupted:from-child"), (1, "parent:end"), (2, "child:end"),
    ]


def test_deep_chain_of_forks_is_not_recursive():
    """Each link forks the next from its first step; the run loop starts it
    from the hold once the link has parked."""
    def build(net):
        env = net.env

        def link(depth):
            tick = env.timeout(1)
            if depth < 1000:
                env.process(link(depth + 1))
            yield tick
            net.log(f"up:{depth}")

        env.process(link(0))

    fast, pure = run_both(build)
    assert fast.trace[0] == (1, "up:0") and fast.trace[-1] == (1, "up:1000")
    assert pure.env._eid - fast.env._eid > 900


def test_zero_delay_timer_from_a_plain_callback_waits_for_a_due_sibling():
    """The callback's ``timeout(0)`` is held like any zero-delay event; a
    timer already due at ``now`` holds an earlier id, so the loop flushes it
    and the sibling runs first."""
    def build(net):
        env = net.env

        def callback(_event):
            zero = env.timeout(0)
            zero.callbacks.append(lambda _ev: net.log("zero"))
            assert env._held is (zero if env._fast else None)
            net.log("callback:end")

        env.timeout(5).callbacks.append(callback)
        env.timeout(5).callbacks.append(lambda _ev: net.log("sibling"))

    fast, pure = run_both(build)
    assert labels(fast) == ["callback:end", "sibling", "zero"]
    assert fast.env._eid == pure.env._eid == 3


def test_zero_delay_wake_does_not_depend_on_the_timer_pool():
    """Whether a timer came before must not show in ``_eid``."""
    def run(prime):
        env = Environment()

        def proc():
            if prime:
                yield env.timeout(1)
            for _ in range(3):
                yield env.timeout(0)

        env.process(proc())
        env.run()
        return env._eid

    assert run(False) == 0  # the start and the three wakes are all taken
    assert run(True) == 1  # the 1 ns timer


# -- one hold, read by the run loop ------------------------------------------------


def test_plain_callback_zero_delay_events_are_taken_by_the_loop():
    """A callback's ``succeed()``, ``timeout(0)`` and ``process()``, each the
    next dispatch when the loop reads it, make no calendar entry; the
    listener-less end of the process is not counted as dispatched to
    nobody."""
    logs, eids, censuses = [], [], []
    for fast in (True, False):
        env = Environment()
        if fast:
            censuses.append(Census(env))
        else:
            env._fast = False
        log = []
        wake = env.event()

        def handler():
            log.append(("handler", env.now))
            return
            yield  # pragma: no cover

        env.timeout(5, then=lambda _ev: wake.succeed("w"))
        wake.callbacks.append(
            lambda ev: env.timeout(0, ev.value, then=lambda _ev: env.process(handler()))
        )
        env.run()
        logs.append(log)
        eids.append(env._eid)
    assert logs[0] == logs[1] == [("handler", 5)]
    assert eids == [1, 5]  # the timer; or with the wake, the zero, the start, the end
    (census,) = censuses
    assert (census.holds, census.taken, census.unheard) == (4, 4, 0)


def test_a_second_hold_flushes_the_first_in_id_order():
    env = Environment()
    census = Census(env)
    log = []

    def callback(_event):
        first = env.event()
        first.callbacks.append(lambda _ev: log.append("first"))
        first.succeed()
        assert env._held is first and env._queue == []
        second = env.event()
        second.callbacks.append(lambda _ev: log.append("second"))
        second.succeed()
        assert env._held is second and env._queue == [(5, 2, first)]

    env.timeout(5, then=callback)
    env.run()
    assert log == ["first", "second"]
    # the second is flushed too: the first is due at `now` ahead of it
    assert env._eid == 3
    assert census.flushed == {"second hold": 1, "not quiescent": 1}
    assert census.taken == 0 and census.unattributed == 0


def test_run_until_an_event_drains_the_hold():
    """The process's end is held when ``until`` triggers; ``run`` takes it
    (and what its listener holds in turn) before it returns."""
    env = Environment()
    log = []

    def proc():
        yield env.timeout(3)
        return "v"

    def tail():
        log.append(("tail", env.now))
        yield env.timeout(2)

    p = env.process(proc())
    p.callbacks.append(lambda _ev: env.process(tail()))
    assert env.run(until=p) == "v"
    assert log == [("tail", 3)] and env._held is None
    assert [entry[0] for entry in env._queue] == [5]


def test_ten_thousand_deep_chain_of_zero_time_children_is_loop_driven():
    """Each link yields its child; starts and ends are all taken from the
    hold by the loop, so the chain costs no Python stack and no entry."""
    def build(net):
        env = net.env

        def link(depth):
            if depth < 10_000:
                depth = yield env.process(link(depth + 1))
            return depth

        def root():
            net.log(f"deepest:{(yield env.process(link(0)))}")

        env.process(root())

    fast, pure = run_both(build)
    assert fast.trace == [(0, "deepest:10000")]
    assert fast.env._eid == 0 and pure.env._eid > 20_000


def test_gather_and_delivery_skip_even_the_hold():
    """``gather`` starts its children in place and a delivery calls an idle
    consumer at once: neither makes a hold, so only the starts, ends and the
    release that do are counted, all taken."""
    env = Environment()
    census = Census(env)
    seen = []
    box = Store(env)
    box.consume(seen.append)
    env.timeout(5, "m", then=box._arrive)

    def kid(delay):
        yield env.timeout(delay)

    def parent():
        yield env.timeout(10)
        yield env.gather(kid(delay) for delay in (1, 2, 3))

    env.process(parent())
    env.run()
    assert seen == ["m"] and env.now == 13
    assert env._eid == 5  # timers only: the delivery, the parent's, the kids'
    # the parent's start and end, the kids' ends and the release
    assert (census.holds, census.taken) == (6, 6)


# -- a sub-operation run in the caller's process: ``env.call`` --------------------
#
# ``result = yield from env.call(g)`` stands for ``result = yield
# env.process(g)``, and ``env.call(g, fan_out=True)`` for ``yield
# env.gather([g])``.  Same claim, and one more: the fast kernel makes exactly
# the calendar entries the spelled-out relay makes (equal ``env._eid``),
# whether the call ran the generator in place or took the relay — on success,
# on a raise caught or let through, with a child ending beside an unrelated
# zero-delay event, in a caller woken as a non-last callback of a shared
# timer, and in a caller stepped by plain callbacks instead of a process.

call_leaf = st.one_of(
    timer_step,
    lock_step,
    st.just(("raise",)),
    st.tuples(st.just("shared"), st.integers(0, 2)),
    st.tuples(st.just("poke"), st.sampled_from(("succeed", "zero", "timer"))),
)


def _calling(programs):
    return st.lists(
        st.one_of(
            call_leaf,
            # (fan_out, catch a raise here, the sub-operation)
            st.tuples(st.just("call"), st.booleans(), st.booleans(), programs),
            st.tuples(st.just("gather"), st.lists(programs, min_size=2, max_size=3)),
            st.tuples(st.just("spawn"), programs),
        ),
        max_size=4,
    )


call_programs = st.recursive(st.lists(call_leaf, max_size=3), _calling, max_leaves=10)


class CallWorld:
    """Runs call programs, with ``env.call`` (``inline``) or the relay it
    stands for spelled out; bystander ticks land where children end."""

    def __init__(self, net, inline):
        self.net = net
        self.inline = inline
        env = net.env
        self.locks = StripeLockManager(env)
        self.shared = [env.timeout(delay) for delay in (1, 3, 5)]
        for delay in (1, 2, 5):
            env.timeout(delay, then=lambda _ev, d=delay: net.log(f"tick{d}"))

    def poke(self, how, label):
        env, log = self.net.env, self.net.log
        if how == "succeed":
            made = env.event()
            made.callbacks.append(lambda _ev: log(f"poked:{label}"))
            made.succeed()
        elif how == "zero":
            env.timeout(0, then=lambda _ev: log(f"poked:{label}"))
        else:
            env.timeout(1, then=lambda _ev: log(f"poked:{label}"))

    def run(self, label, program):
        env, log = self.net.env, self.net.log
        for i, step in enumerate(program):
            kind = step[0]
            log(f"{label}[{i}]{kind}")
            if kind == "timer":
                yield env.timeout(step[1])
            elif kind == "lock":
                yield self.locks.acquire(step[1])
                try:
                    for delay in step[2]:
                        yield env.timeout(delay)
                finally:
                    self.locks.release(step[1])
            elif kind == "raise":
                raise Boom(label)
            elif kind == "shared":
                yield self.shared[step[1]]
            elif kind == "poke":
                self.poke(step[1], f"{label}[{i}]")
            elif kind == "spawn":
                env.process(self.run(f"{label}.{i}s", step[1]))
            elif kind == "gather":
                yield env.gather(
                    self.run(f"{label}.{i}g{j}", body) for j, body in enumerate(step[1])
                )
            else:
                _, fan_out, catch, body = step
                sub = self.run(f"{label}.{i}", body)
                try:
                    if self.inline:
                        got = yield from env.call(sub, fan_out=fan_out)
                    elif fan_out:
                        (got,) = (yield env.gather([sub])).values()
                    else:
                        got = yield env.process(sub)
                except Boom as boom:
                    if not catch:
                        raise
                    log(f"{label}[{i}]caught:{boom}")
                    continue
                log(f"{label}[{i}]got:{got}")
        log(f"{label}:end")
        return label

    def drive(self, label, program):
        """Step ``program`` from plain callbacks: no process is running when
        it calls."""
        generator = self.run(label, program)

        def step(event):
            while True:
                try:
                    if event is None or event._ok:
                        target = generator.send(None if event is None else event._value)
                    else:
                        event._defused = True
                        target = generator.throw(event._value)
                except StopIteration:
                    return
                except Boom as boom:
                    self.net.log(f"{label}:raised:{boom}")
                    return
                if target.callbacks is not None:
                    target.callbacks.append(step)
                    return
                event = target

        return step


def run_calls(build, until=None):
    """``build(world)`` with ``env.call`` and with the relays spelled out,
    each on the fast and on the pure-heap kernel: one trace, each kernel's
    ``env._eid`` the same either way, and on the fast kernel the same holds
    flushed, by reason (:mod:`repro.sim.census`)."""
    runs, flushed = {}, {}
    for inline in (True, False):
        for fast in (True, False):
            net = Net(fast)
            if fast:
                census = Census(net.env)
            build(CallWorld(net, inline))
            while True:
                try:
                    net.env.run(until=until)
                    break
                except Boom as boom:  # nobody listened to the process that raised
                    net.log(f"surfaced:{boom}")
            runs[inline, fast] = net
            if fast:
                flushed[inline] = census.flushed
    reference = runs[False, False]
    for net in runs.values():
        assert net.trace == reference.trace
        assert net.env.now == reference.env.now
    for fast in (True, False):
        assert runs[True, fast].env._eid == runs[False, fast].env._eid
    # and the holds that reach the calendar do so for the relays' reasons
    assert flushed[True] == flushed[False]
    return runs[True, True], runs[True, False]


call_roots = st.lists(
    st.tuples(
        st.sampled_from(("process", "process", "callback")),
        # how a root begins: at once, after a timer, or woken by a timer
        # it shares with other roots (all but the last woken as non-last
        # callbacks)
        st.sampled_from((
            [], [("timer", 1)], [("timer", 5)], [("shared", 0)], [("shared", 1)],
            [("shared", 1)],
        )),
        call_programs,
    ),
    min_size=1,
    max_size=4,
)


@given(roots=call_roots)
@settings(max_examples=max(250, settings.default.max_examples), deadline=None)
def test_call_matches_pure_heap_order_and_the_relays_entries(roots):
    def build(world):
        env = world.net.env
        for r, (how, start, program) in enumerate(roots):
            if how == "callback":
                step = world.drive(f"r{r}", start + program)
                env.timeout(0, then=lambda _ev, step=step: step(None))
            else:
                env.process(world.run(f"r{r}", start + program))

    run_calls(build)


def test_idle_call_makes_no_relay():
    """A lone call and a lone fan-out on an idle calendar (past the world's
    ticks): the sub-operations run in the caller, and only timers reach
    the calendar."""
    def build(world):
        world.net.env.process(world.run("p", [
            ("timer", 10),
            ("call", False, False, [("timer", 2)]),
            ("call", True, False, [("lock", 0, (1,))]),
        ]))

    fast, pure = run_calls(build)
    assert fast.trace[-3:] == [(13, "p.2:end"), (13, "p[2]got:p.2"), (13, "p:end")]
    assert (fast.env._eid, pure.env._eid) == (9, 17)  # the world's 6, and 3


@pytest.mark.parametrize("fan_out", [False, True], ids=["process", "fan-out"])
def test_call_ending_beside_an_unrelated_event(fan_out):
    """``q``'s timer, due when the sub-operation ends, holds a later id: it
    runs before the caller resumes, through one wake per relay end, where
    the relay's own end would have gone."""
    def build(world):
        env = world.net.env
        env.process(world.run("p", [("timer", 10), ("call", fan_out, False, [("timer", 2)])]))
        env.process(world.run("q", [("timer", 11), ("timer", 1)]))

    fast, _ = run_calls(build)
    assert labels(fast)[-4:] == ["p.1:end", "q:end", "p[1]got:p.1", "p:end"]


def test_fan_out_end_behind_an_event_made_after_it():
    """``q``'s timer was due beside the child's end (the first wake); what
    ``q`` makes next is due before the ``AllOf`` release (the second)."""
    def build(world):
        env = world.net.env
        env.process(world.run("p", [("timer", 10), ("call", True, False, [("timer", 2)])]))
        env.process(world.run("q", [("timer", 11), ("timer", 1), ("poke", "zero")]))

    fast, _ = run_calls(build)
    assert labels(fast)[-6:] == [
        "p.1:end", "q[2]poke", "q:end", "poked:q[2]", "p[1]got:p.1", "p:end",
    ]


@pytest.mark.parametrize("fan_out", [False, True], ids=["process", "fan-out"])
def test_call_ending_beside_its_own_zero_delay_event(fan_out):
    """The sub-operation's last step made a zero-delay event: it is held
    when the sub-operation returns, so it goes first."""
    def build(world):
        world.net.env.process(world.run("p", [
            ("timer", 10), ("call", fan_out, False, [("timer", 1), ("poke", "zero")]),
        ]))

    fast, _ = run_calls(build)
    assert labels(fast)[-4:] == ["p.1:end", "poked:p.1[1]", "p[1]got:p.1", "p:end"]


@pytest.mark.parametrize("fan_out", [False, True], ids=["process", "fan-out"])
@pytest.mark.parametrize("catch", [True, False], ids=["caught", "let-through"])
def test_call_that_raises(fan_out, catch):
    """One failure entry per relay, in turn: the caller hears of the raise
    where it would have, after the zero-delay event made before it."""
    def build(world):
        world.net.env.process(world.run("p", [
            ("call", fan_out, catch, [("timer", 1), ("poke", "zero"), ("raise",)]),
            ("timer", 1),
        ]))

    fast, _ = run_calls(build)
    heard = "p[0]caught:p.0" if catch else "surfaced:p.0"
    assert labels(fast)[3:7] == ["p.0[1]poke", "p.0[2]raise", "poked:p.0[1]", heard]


def test_call_from_a_non_last_callback_takes_the_relay():
    """Two callers wake on one timer: the first's call may not run ahead of
    the second's wake-up."""
    def build(world):
        env = world.net.env
        for name in "ab":
            env.process(world.run(name, [
                ("shared", 0), ("call", False, False, [("poke", "zero")]),
            ]))

    fast, pure = run_calls(build)
    assert labels(fast)[:8] == [
        "a[0]shared", "b[0]shared", "a[1]call", "b[1]call", "tick1",
        "a.1[0]poke", "a.1:end", "b.1[0]poke",
    ]
    assert fast.env._eid == pure.env._eid  # every relay through the calendar


def test_call_from_a_plain_callback_takes_the_relay():
    def build(world):
        step = world.drive("c", [("call", True, False, [("timer", 1)])])
        world.net.env.timeout(1, then=lambda _ev: step(None))

    fast, pure = run_calls(build)
    assert labels(fast) == [
        "tick1", "c[0]call", "c.0[0]timer", "tick2", "c.0:end", "c[0]got:c.0",
        "c:end", "tick5",
    ]
    assert fast.env._eid < pure.env._eid  # the relay's own holds are taken


def test_interrupt_aimed_at_the_caller_lands_inside_the_call():
    """The caveat, pinned: in place, the caller's interrupt is thrown into
    the sub-operation; through the relay (the pure-heap kernel) it is
    thrown at the caller, and the child runs on.  Hence no process that
    is ever interrupted may use ``env.call``."""
    traces = []
    for fast in (True, False):
        net = Net(fast)
        env = net.env

        def sub():
            try:
                yield env.timeout(10)
                net.log("sub:end")
            except Interrupt as interrupt:
                net.log(f"sub:interrupted:{interrupt.cause}")
            return "sub"

        def caller():
            try:
                got = yield from env.call(sub())
                net.log(f"caller:got:{got}")
            except Interrupt as interrupt:
                net.log(f"caller:interrupted:{interrupt.cause}")

        proc = env.process(caller())
        env.timeout(5, then=lambda _ev, proc=proc: proc.interrupt("stop"))
        env.run()
        traces.append(net.trace)
    assert traces == [
        [(5, "sub:interrupted:stop"), (5, "caller:got:sub")],
        [(5, "caller:interrupted:stop"), (10, "sub:end")],
    ]


class StopRun(Exception):
    pass


def _caller_parked_in_a_call(where, close):
    """Run a caller until a bystander stops the run with the caller parked
    inside ``env.call``: in the sub-operation (``sub``), on the failure
    entry after it raised (``failure``) or on the wake after it returned
    (``wake``) — ``close`` closes the caller's generator first."""
    env = Environment()
    log = []
    caller_proc = []

    def stop(_ev):
        if close:
            caller_proc[0]._generator.close()
        raise StopRun

    def sub():
        try:
            tick = env.timeout(5)
            # due with the tick, after it: the end is not quiescent
            env.timeout(3 if where == "sub" else 5, then=stop)
            yield tick
            if where == "failure":
                raise Boom("sub")
            return "sub"
        finally:
            log.append("sub:closed")

    def caller():
        try:
            yield from env.call(sub(), fan_out=True)
        finally:
            log.append("caller:closed")

    caller_proc.append(env.process(caller()))
    with pytest.raises(StopRun):
        env.run()
    return env, log


@pytest.mark.parametrize("where", ["sub", "failure", "wake"])
def test_closing_a_caller_inside_a_call_is_clean(where, monkeypatch):
    """GeneratorExit goes through ``env.call``: neither an explicit
    ``close()`` nor a collected caller reports "generator ignored
    GeneratorExit"."""
    import gc
    import sys

    _env, log = _caller_parked_in_a_call(where, close=True)
    assert log == ["sub:closed", "caller:closed"]

    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    env, log = _caller_parked_in_a_call(where, close=False)
    del env
    gc.collect()
    assert unraisable == []
    assert log == ["sub:closed", "caller:closed"]
