"""A timer born with its continuation is a timer with it appended.

``Environment.timeout(..., then=f)`` and the sites that pass it through —
``CpuCore.execute``, ``NvmeDrive.read``/``write``, ``ConnectionEnd.rdma_read`` —
give the timer ``callbacks == [f]`` at birth; a ``send``'s delivery timer
carries the message and has ``Store._arrive`` as that continuation.  The
claim is that nothing but host time can tell: against the form it replaced
(make the timer, then ``.callbacks.append(f)``; for ``send`` a lambda that
puts the message) every callback, resume and delivery happens at the same
simulated time and in the same order, and ``env._eid`` ends equal — on the
fast kernel and on the pure-heap one (``env._fast = False``).

The service-time memos behind those sites (``BandwidthChannel.reserve``,
``NvmeDrive`` per direction) are checked against the formula, through NIC
degrade/restore and drive fail-slow.
"""

import itertools
from dataclasses import dataclass
from typing import Any, Callable, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.machines import CpuCore
from repro.net.fabric import CAPSULE_BYTES, Fabric
from repro.net.nic import Nic
from repro.sim import BandwidthChannel, Environment
from repro.sim.resources import NS_PER_S
from repro.storage import DriveProfile, NvmeDrive

MB = 1_000_000

#: site -> the sizes (work ns, bytes) a step may use
ARGS = {
    "execute": (0, 1, 700, 3_000),
    "read": (512, 4_096, 16_384, 4_096),
    "write": (512, 4_096, 16_384, 8_192),
    "rdma_read": (0, 192, 4_096, 65_536),
    "send": (0, 0, 4_096, 65_536),       # payload bytes
    "loopback": (0, 0, 4_096, 65_536),   # a send between co-located ends
}
SITES = tuple(ARGS)
SENDS = ("send", "loopback")
#: wait: the continuation completes a request the actor yields (tail position)
#: yield: the actor yields the timer itself (a second listener)
#: forget: the actor goes on at once
#: chain: the continuation makes a second timer, whose continuation completes
MODES = ("wait", "yield", "forget", "chain")

PROFILE = DriveProfile(
    name="continuations",
    read_bw_bytes_per_s=1_000 * MB,
    write_bw_bytes_per_s=700 * MB,
    read_latency_ns=900,
    write_latency_ns=300,
    parallelism=2,
    gc_after_bytes_written=20_000,  # a GC stall every few writes
    gc_pause_ns=7_000,
)


@dataclass
class Note:
    """A message: the consumer calls ``cont(note)`` on arrival."""

    label: str
    cont: Callable[[Any], None]


class World:
    """One core, one drive, a connection and a loopback connection, each
    inbox with a consumer; ``born`` picks how continuations are attached."""

    def __init__(self, fast: bool, born: bool) -> None:
        self.env = env = Environment()
        if not fast:
            env._fast = False  # the evented oracle
        self.born = born
        self.trace: List[Tuple[int, str]] = []
        fabric = Fabric(env)
        jitter = itertools.cycle((0, 0, 1, 2_500))
        fabric.jitter_ns_fn = lambda: next(jitter)
        host = Nic(env, 10 * 1_000 * MB, name="host")
        server = Nic(env, 5 * 1_000 * MB, name="server")
        self.conn = fabric.connect(host, server)
        self.loop = fabric.connect(host, host)
        for conn in (self.conn, self.loop):
            conn.b.inbox.consume(self._consume)
        self.cpu = CpuCore(env)
        self.drive = NvmeDrive(env, PROFILE)
        self.drive.set_fail_slow(2.5, duration_ns=20_000)
        env.process(self._faults())

    def log(self, label: str) -> None:
        self.trace.append((self.env.now, label))

    def _faults(self):
        yield self.env.timeout(6_000)
        self.conn.stall(9_000)
        self.log("stall")
        yield self.env.timeout(30_000)
        self.drive.set_fail_slow(1.5, duration_ns=10_000)

    def _consume(self, note: Note) -> None:
        self.log(f"{note.label}:delivered")
        note.cont(note)

    def submit(self, site: str, arg: int, label: str, then: Callable[[Any], None]):
        """``site``'s timer with continuation ``then``: born with it, or
        (the replaced form) made bare and given it on the next line."""
        if site in SENDS:
            end = (self.conn if site == "send" else self.loop).a
            note = Note(label, then)
            if self.born:
                return end.send(note, payload_bytes=arg)
            peer = end.peer
            event = end.connection._transfer(
                end.nic, peer.nic, CAPSULE_BYTES + arg, CAPSULE_BYTES + arg, None, None
            )
            event.callbacks.append(lambda _event: peer.inbox.put(note))
            return event
        end = self.conn.a
        make = {
            "execute": lambda t: self.cpu.execute(arg, then=t),
            "read": lambda t: self.drive.read(0, arg, then=t),
            "write": lambda t: self.drive.write(0, arg, then=t),
            "rdma_read": lambda t: end.rdma_read(arg, then=t),
        }[site]
        if self.born:
            return make(then)
        event = make(None)
        event.callbacks.append(then)
        return event

    def _logger(self, label: str) -> Callable[[Any], None]:
        return lambda _event: self.log(label)

    def _completer(self, label: str, req, chain=None) -> Callable[[Any], None]:
        """Completes ``req`` as its last statement — after making the
        timer of ``chain`` (site, size) and waiting for it, if given."""
        def done(_event) -> None:
            self.log(f"{label}:done")
            req.succeed(label)

        def first(_event) -> None:
            self.log(f"{label}:first")
            self.submit(*chain, f"{label}.2", done)

        return done if chain is None else first

    def actor(self, name: str, gap: int, steps):
        env = self.env
        if gap:
            yield env.timeout(gap)
        for i, (site, mode, pick) in enumerate(steps):
            arg = ARGS[site][pick]
            label = f"{name}.{i}.{site}.{mode}"
            if mode == "yield":
                value = yield self.submit(site, arg, label, self._logger(label))
                self.log(f"{label}:resumed:{None if site in SENDS else value}")
            elif mode == "forget":
                self.submit(site, arg, label, self._logger(label))
            else:
                req = env.event()
                chain = (site, arg) if mode == "chain" else None
                self.submit(site, arg, label, self._completer(label, req, chain))
                self.log(f"{label}:{(yield req)}")


def run(actors, fast: bool, born: bool) -> World:
    world = World(fast, born)
    for n, (gap, steps) in enumerate(actors):
        world.env.process(world.actor(f"a{n}", gap, steps))
    world.env.run()
    return world


def assert_equivalent(actors) -> List[World]:
    """Born vs appended, on both kernels: equal traces, clocks and ``_eid``;
    and the fast kernel's trace is the pure-heap kernel's."""
    worlds = []
    for fast in (True, False):
        born, appended = run(actors, fast, True), run(actors, fast, False)
        assert born.trace == appended.trace
        assert (born.env.now, born.env._eid) == (appended.env.now, appended.env._eid)
        worlds.append(born)
    assert worlds[0].trace == worlds[1].trace
    return worlds


def script_for(site: str):
    """Three actors that put ``site`` through every mode and size, two of
    them starting in the same nanosecond (plus, for a drive read, writes
    that stall it for GC)."""
    steps = [(site, mode, pick) for mode in MODES for pick in range(4)]
    script = [(0, steps), (0, steps[::-1]), (1, steps[5:] + steps[:5])]
    if site == "read":
        script.append((0, [("write", "forget", 2)] * 3))
    return script


@pytest.mark.parametrize("site", SITES)
def test_each_site_born_equals_appended(site):
    fast, _pure = assert_equivalent(script_for(site))
    labels = [label for _t, label in fast.trace]
    assert sum(":resumed:" in label for label in labels) == 3 * 4      # yield steps
    assert sum(label.endswith(":done") for label in labels) == 3 * 8   # wait + chain
    assert sum(label.endswith(":first") for label in labels) == 3 * 4  # chain
    if site in ("read", "write"):
        assert fast.drive.stats.gc_events > 0
    if site == "send":  # some deliveries were held back by the stall
        assert any(t >= 15_000 for t, label in fast.trace if label.endswith(":delivered"))


def test_execute_zero_is_a_wake_born_with_its_listener():
    """``execute(0)`` from a process step is a held zero-delay timer: with a
    continuation it has a listener, so the step yielding it is not a wake
    taken in place (``other listener``) — in both forms alike."""
    fast, _pure = assert_equivalent([(0, [("execute", mode, 0) for mode in MODES])])
    assert [label for _t, label in fast.trace][:4] == [
        "a0.0.execute.wait:done", "a0.0.execute.wait:a0.0.execute.wait",
        "a0.1.execute.yield", "a0.1.execute.yield:resumed:None",
    ]


step = st.tuples(st.sampled_from(SITES), st.sampled_from(MODES), st.integers(0, 3))
actors = st.lists(
    st.tuples(st.sampled_from((0, 0, 1, 500)), st.lists(step, min_size=1, max_size=6)),
    min_size=1,
    max_size=4,
)


@given(actors=actors)
@settings(max_examples=60, deadline=None)
def test_random_mixes_born_equals_appended(actors):
    assert_equivalent(actors)


# -- value contract ------------------------------------------------------------


def test_delivery_value_is_the_message_and_rdma_value_is_nbytes():
    env = Environment()
    fabric = Fabric(env)
    conn = fabric.connect(Nic(env, name="a"), Nic(env, name="b"))
    inbox = []
    conn.b.inbox.consume(inbox.append)
    seen = {}

    message = {"op": "read"}

    def proc():
        seen["send"] = yield conn.a.send(message, payload_bytes=4_096)
        seen["rdma_read"] = yield conn.a.rdma_read(5_000)
        seen["rdma_write"] = yield conn.a.rdma_write(7_000)

    env.run(until=env.process(proc()))
    assert seen["send"] is message and inbox == [message]
    assert seen["rdma_read"] == 5_000 and seen["rdma_write"] == 7_000
    delivery = conn.b.send(None)
    assert delivery.callbacks == [conn.a.inbox._arrive]
    assert delivery._value is None  # a None message is still the value


# -- service-time memos --------------------------------------------------------


channel_steps = st.lists(
    st.one_of(
        st.tuples(st.just("reserve"), st.integers(-2, 600_000)),
        st.tuples(st.just("reserve"), st.sampled_from((0, 192, 4_096, 4_288, 131_072))),
        st.tuples(st.just("degrade"), st.sampled_from((1.0, 0.5, 0.3, 0.1))),
        st.tuples(st.just("restore"), st.none()),
        st.tuples(st.just("rate"), st.sampled_from((0.7e9, 1e9, 3.3e9))),
    ),
    max_size=60,
)


@given(
    steps=channel_steps,
    overhead=st.sampled_from((0, 7, 300)),
    parallelism=st.integers(1, 3),
)
@settings(max_examples=120, deadline=None)
def test_reserve_is_the_formula_through_rate_changes(steps, overhead, parallelism):
    env = Environment()
    nic = Nic(env, 11.5e9)
    channel = BandwidthChannel(env, 2e9, overhead, parallelism)
    for action, arg in steps:
        if action == "reserve":
            for ch in (nic.tx, nic.rx, channel):
                if arg < 0:
                    with pytest.raises(ValueError, match="negative"):
                        ch.reserve(arg)
                    assert arg not in ch._service
                    continue
                busy = ch.busy_ns
                ch.reserve(arg)
                rate = ch.rate_bytes_per_s / ch.parallelism
                assert ch.busy_ns - busy == ch.per_op_overhead_ns + int(round(arg * NS_PER_S / rate))
        elif action == "degrade":
            nic.degrade(arg)
        elif action == "restore":
            nic.restore()
        else:
            channel.rate_bytes_per_s = arg


drive_steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(("read", "write")), st.sampled_from((1, 512, 4_096, 131_072))),
        st.tuples(st.sampled_from(("read", "write")), st.integers(1, 400_000)),
        st.tuples(st.just("slow"), st.sampled_from((1.0, 1.5, 2.0, 3.7))),
        st.tuples(st.just("slow_for"), st.sampled_from((1_000, 50_000))),
        st.tuples(st.just("clear"), st.none()),
        st.tuples(st.just("advance"), st.integers(1, 60_000)),
    ),
    max_size=50,
)


@given(steps=drive_steps)
@settings(max_examples=120, deadline=None)
def test_drive_work_is_the_formula_under_fail_slow(steps):
    env = Environment()
    profile = DriveProfile(
        name="memo", read_bw_bytes_per_s=3_200 * MB, write_bw_bytes_per_s=2_375 * MB,
        read_latency_ns=80_000, write_latency_ns=18_000,
    )
    drive = NvmeDrive(env, profile)
    mult, until = 1.0, None
    for action, arg in steps:
        if action in ("read", "write"):
            rate = profile.read_bw_bytes_per_s if action == "read" else profile.write_bw_bytes_per_s
            latency = profile.read_latency_ns if action == "read" else profile.write_latency_ns
            work = int(round(arg * NS_PER_S / rate))
            if until is not None and env.now >= until:
                mult, until = 1.0, None
            if mult != 1.0:
                work, latency = int(round(work * mult)), int(round(latency * mult))
            busy = drive.stats.busy_ns
            event = getattr(drive, action)(0, arg)
            assert drive.stats.busy_ns - busy == work
            assert event._time - drive._media._free_at[0] == latency
        elif action == "slow":
            drive.set_fail_slow(arg)
            mult, until = arg, None
        elif action == "slow_for":
            drive.set_fail_slow(2.0, duration_ns=arg)
            mult, until = 2.0, env.now + arg
        elif action == "clear":
            drive.clear_fail_slow()
            mult, until = 1.0, None
        else:
            env.run(until=env.now + arg)
