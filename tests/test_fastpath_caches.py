"""Differential oracle for the free-server caches (PR 6 satellite).

``BandwidthChannel`` and ``NvmeDrive`` keep three pieces of derived state
between reservations — the earliest-free head, the raw sum of server free
times, and the (free_at, idx) heap mirror — so ``queue_delay_ns`` and
``backlog_ns`` are O(1) in the saturated regime instead of scanning every
internal server on each call.  These tests prove the caches change *no
behavior*: after arbitrary interleavings of reservations, clock advances,
GC stalls and heals, the cached answers must equal a naive recomputation
from the raw ``_free_at`` list, bit for bit.
"""

import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import BandwidthChannel, Environment
from repro.sim.resources import NS_PER_S
from repro.storage import DriveProfile, NvmeDrive

MB = 1_000_000


def _check_channel_caches(channel, now):
    """Cached state and O(1) answers vs. naive recomputation from _free_at."""
    free_at = channel._free_at
    assert channel._earliest_free == min(free_at)
    assert channel._free_sum == sum(free_at)
    if len(free_at) > 1:  # the heap mirror is only maintained when consulted
        assert sorted(channel._free_heap) == sorted(
            (f, i) for i, f in enumerate(free_at)
        )
    naive_delay = max(0, min(free_at) - now)
    naive_backlog = sum(f - now for f in free_at if f > now)
    assert channel.queue_delay_ns() == naive_delay
    assert channel.backlog_ns() == naive_backlog


def _check_drive_caches(drive, now):
    free_at = drive._free_at
    assert drive._earliest_free == min(free_at)
    assert drive._free_sum == sum(free_at)
    if len(free_at) > 1:  # the heap mirror is only maintained when consulted
        assert sorted(drive._free_heap) == sorted(
            (f, i) for i, f in enumerate(free_at)
        )
    naive_backlog = sum(max(0, f - now) for f in free_at)
    assert drive.backlog_ns() == naive_backlog


class TestChannelCacheOracle:
    @given(
        parallelism=st.integers(1, 5),
        steps=st.lists(
            st.tuples(
                st.integers(0, 500_000),   # nbytes reserved
                st.integers(0, 200_000),   # clock advance before reserving
            ),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_cached_answers_match_naive_scan(self, parallelism, steps):
        env = Environment()
        channel = BandwidthChannel(
            env, rate_bytes_per_s=NS_PER_S, parallelism=parallelism
        )
        _check_channel_caches(channel, env.now)
        for nbytes, advance in steps:
            if advance:
                env.run(until=env.now + advance)
                # idle regime too: caches must answer correctly when some
                # (or all) servers freed up in the past
                _check_channel_caches(channel, env.now)
            channel.reserve(nbytes)
            _check_channel_caches(channel, env.now)

    @given(
        parallelism=st.integers(2, 4),
        sizes=st.lists(st.integers(1, 300_000), min_size=2, max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_rate_change_keeps_caches_consistent(self, parallelism, sizes):
        """Changing the link rate mid-sweep (fig. 14-style experiments) must
        not desynchronize the cached per-server rate from the free times."""
        env = Environment()
        channel = BandwidthChannel(
            env, rate_bytes_per_s=NS_PER_S, parallelism=parallelism
        )
        for i, nbytes in enumerate(sizes):
            if i == len(sizes) // 2:
                channel.rate_bytes_per_s = NS_PER_S * 2
                assert channel._per_server_rate == channel._rate / parallelism
            channel.reserve(nbytes)
            _check_channel_caches(channel, env.now)


class TestDriveCacheOracle:
    @given(
        parallelism=st.integers(1, 4),
        steps=st.lists(
            st.tuples(
                st.booleans(),              # read vs write
                st.integers(1, 400_000),    # nbytes
                st.integers(0, 150_000),    # clock advance first
            ),
            min_size=1,
            max_size=30,
        ),
        heal_at=st.integers(0, 29),
    )
    @settings(max_examples=60, deadline=None)
    def test_io_gc_and_heal_match_naive_scan(self, parallelism, steps, heal_at):
        """Reads, writes, GC stalls (bulk _free_at rewrite) and heal (bulk
        reset) must all leave the caches equal to a recomputation."""
        env = Environment()
        profile = DriveProfile(
            name="oracle",
            read_bw_bytes_per_s=1000 * MB,
            write_bw_bytes_per_s=500 * MB,
            read_latency_ns=0,
            write_latency_ns=0,
            parallelism=parallelism,
            gc_after_bytes_written=600_000,  # triggers several stalls
            gc_pause_ns=50_000,
        )
        drive = NvmeDrive(env, profile)
        _check_drive_caches(drive, env.now)
        for i, (is_read, nbytes, advance) in enumerate(steps):
            if advance:
                env.run(until=env.now + advance)
                _check_drive_caches(drive, env.now)
            if i == heal_at:
                drive.heal()
                _check_drive_caches(drive, env.now)
            if is_read:
                drive.read(0, nbytes)
            else:
                drive.write(0, nbytes)
            _check_drive_caches(drive, env.now)


def test_saturated_backlog_is_constant_time():
    """Microbenchmark: at high internal parallelism the cached saturated
    path must beat a naive per-server scan.  The margin asserted is huge
    (cached simply faster than a 256-server Python scan) so the test is
    robust to machine noise while still failing if someone reintroduces an
    O(k) scan on the saturated path."""
    env = Environment()
    k = 256
    channel = BandwidthChannel(env, rate_bytes_per_s=NS_PER_S, parallelism=k)
    for _ in range(k * 2):
        channel.reserve(100_000)  # every server booked far past now
    assert channel._earliest_free > env.now

    calls = 2_000
    start = time.perf_counter()
    for _ in range(calls):
        channel.backlog_ns()
    cached = time.perf_counter() - start

    free_at = channel._free_at
    now = env.now
    start = time.perf_counter()
    for _ in range(calls):
        sum(f - now for f in free_at if f > now)
    naive = time.perf_counter() - start

    assert channel.backlog_ns() == sum(f - now for f in free_at if f > now)
    assert cached < naive, (
        f"cached backlog_ns ({cached * 1e6 / calls:.2f}us/call) is not "
        f"faster than the naive {k}-server scan "
        f"({naive * 1e6 / calls:.2f}us/call)"
    )


# -- one call per CPU charge (PR 22 satellite) ---------------------------------
#
# ``CpuCore.execute`` reserves in place.  The parent's code path is kept here
# as the oracle: a core that is a one-server channel at 1 byte/ns behind
# ``transfer``.  (NIC channels ride along so a degrade between charges, and
# the timers the channels interleave, are part of the compared history.)


class _OracleCore:
    def __init__(self, env):
        self.env = env
        self._channel = BandwidthChannel(env, NS_PER_S)

    def execute(self, work_ns):
        if work_ns < 0:
            raise ValueError(f"negative work {work_ns}")
        if work_ns == 0:
            return self.env.timeout(0)
        return self._channel.transfer(int(work_ns))

    @property
    def busy_ns(self):
        return self._channel.busy_ns

    def utilization(self, elapsed_ns):
        return self._channel.utilization(elapsed_ns)


charge_steps = st.lists(
    st.one_of(
        st.tuples(st.just("execute"), st.sampled_from((0, 1, 700, 1_000, 3_300, 10**7))),
        st.tuples(st.just("transfer"), st.sampled_from((0, 64, 192, 4_160, 524_352))),
        st.tuples(st.just("reserve"), st.integers(0, 600_000)),
        st.tuples(st.just("degrade"), st.sampled_from((1.0, 0.5, 0.1))),
        st.tuples(st.just("restore"), st.none()),
        st.tuples(st.just("advance"), st.integers(1, 50_000)),
    ),
    max_size=60,
)


def _charge_history(steps, core_cls):
    from repro.net.nic import Nic

    env = Environment()
    core = core_cls(env)
    nic = Nic(env)
    history = []
    for action, arg in steps:
        if action == "execute":
            done = core.execute(arg)
            history.append((env.now + done.delay, done._value))
        elif action == "transfer":
            done = nic.tx.transfer(arg)
            history.append((env.now + done.delay, done._value))
        elif action == "reserve":
            history.append((nic.rx.reserve(arg), nic.rx.reserve(arg, extra_ns=7)))
        elif action == "degrade":
            nic.degrade(arg)
        elif action == "restore":
            nic.restore()
        else:
            env.run(until=env.now + arg)
        history.append((
            core.busy_ns, core.utilization(env.now + 1),
            nic.tx.bytes_transferred, nic.tx.ops, nic.tx.busy_ns,
            nic.tx._earliest_free, nic.tx._free_sum,
            nic.rx.bytes_transferred, nic.rx.ops, nic.rx.busy_ns,
            nic.rx.queue_delay_ns(), nic.rx.backlog_ns(),
        ))
    env.run()
    history.append((env.now, env._eid))
    return history


class TestCpuChargeOracle:
    @given(steps=charge_steps)
    @settings(max_examples=150, deadline=None)
    def test_same_completion_times_and_counters(self, steps):
        from repro.cluster.machines import CpuCore

        assert _charge_history(steps, CpuCore) == _charge_history(steps, _OracleCore)
