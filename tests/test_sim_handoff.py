"""Differential oracle for the handoff fast path (PR 18 satellite).

Handoff lets a tail-position ``put``/``process``/``succeed`` run its
zero-delay event's callbacks at once instead of scheduling it, and retires
a listener-less process on the spot.  The claim is that nothing but the
event-id counter can tell: every consumer call, handler step and
completion happens at the same simulated time and in the same order as on
the pure-heap kernel (``env._fast = False``, what ``KernelSanitizer``
arms), which never hands off.

The networks here are built from the real pieces — ``Fabric`` loopback
connections whose delivery delay is driven through ``jitter_ns_fn``,
inboxes with consumers, handler processes, request events — so the
delivery closure in ``repro.net.fabric`` is under test too.  Delays come
from a small set that includes 0, so same-nanosecond collisions (the cases
where the guard must fall back to the evented path) are the norm, not the
exception.
"""

from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.fabric import Fabric
from repro.net.nic import Nic
from repro.sim import Environment, SimulationError, Store

DELAYS = (0, 0, 1, 2, 5)
INBOXES = 3


@dataclass
class Hop:
    """One leg of a message's route: wire delay, destination inbox and what
    the consumer does — ``timers=None`` completes the request from the
    consumer itself (tail-position succeed); otherwise it starts a handler
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
            self.env.process(self._handle(msg, hop), tail=True)
        elif msg.at + 1 < len(msg.hops):
            msg.at += 1
            self.send(msg)
        else:
            msg.done.succeed(msg.label, tail=True)

    def _handle(self, msg: Msg, hop: Hop):
        for step, delay in enumerate(hop.timers):
            self.log(f"{msg.label}.h{msg.at}.{step}")
            yield self.env.timeout(delay)
        self.log(f"{msg.label}.h{msg.at}.end")
        msg.at += 1
        if msg.at < len(msg.hops):
            self.send(msg)
        else:
            # a process is never in tail position: its own end follows
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
        net.env.run(until=until)
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
    """One delivery on an idle calendar: the producer's listener-less end
    event, the consumer wake and the handler's Initialize all disappear."""
    fast, pure = run_both(lambda net: one_message(net, "m", 0, 5))
    assert fast.trace == [(5, "m@0"), (5, "m.h0.0"), (6, "m.h0.end")]
    assert pure.env._eid - fast.env._eid == 3


def test_two_deliveries_in_one_nanosecond_to_one_inbox():
    """The first is not quiescent (the second's timer is due now): one
    evented wake drains both, and only the last drained item is in tail
    position."""
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
    """An event already in the now-queue holds an earlier id: its listener
    runs before the consumer."""
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
    """Two processes wake on one timer; the first may not batch-advance its
    own next timer past the second's wake-up."""
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
