"""Differential oracles for the one k-server FIFO scheduler.

``FifoServers`` is the queueing rule under every NIC direction
(``BandwidthChannel``) and every SSD's media channels (``NvmeDrive``).
Both oracles replay a random history against a naive model — a plain list
of ``k`` server free times, the earliest-free (lowest-index) server taking
each piece of work — and require every completion time and every
congestion answer to be equal, to the nanosecond.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, FifoServers
from repro.sim.resources import NS_PER_S
from repro.storage import DriveProfile, NvmeDrive

MB = 1_000_000


class NaiveServers:
    """``k`` FIFO servers as a list, scanned on every call."""

    def __init__(self, k):
        self.free_at = [0] * k

    def occupy(self, now, work_ns):
        idx = self.free_at.index(min(self.free_at))
        self.free_at[idx] = max(self.free_at[idx], now) + work_ns
        return self.free_at[idx]

    def stall(self, now, pause_ns):
        until = max(max(self.free_at), now) + pause_ns
        self.free_at = [until] * len(self.free_at)

    def forget_backlog(self, now):
        self.free_at = [min(f, now) for f in self.free_at]

    def queue_delay_ns(self, now):
        return max(0, min(self.free_at) - now)

    def backlog_ns(self, now):
        return sum(max(0, f - now) for f in self.free_at)


server_steps = st.lists(
    st.one_of(
        st.tuples(st.just("occupy"), st.integers(0, 300_000)),
        st.tuples(st.just("stall"), st.integers(0, 200_000)),
        st.tuples(st.just("forget"), st.none()),
        st.tuples(st.just("advance"), st.integers(1, 400_000)),
    ),
    max_size=60,
)


class TestFifoServersOracle:
    @given(k=st.integers(1, 5), steps=server_steps)
    @settings(max_examples=150, deadline=None)
    def test_matches_the_list_of_servers(self, k, steps):
        env = Environment()
        servers = FifoServers(env, k)
        model = NaiveServers(k)
        for action, arg in steps:
            now = env.now
            if action == "occupy":
                assert servers.occupy(arg) == model.occupy(now, arg)
            elif action == "stall":
                servers.stall(arg)
                model.stall(now, arg)
            elif action == "forget":
                servers.forget_backlog()
                model.forget_backlog(now)
            else:
                env.run(until=now + arg)
                now = env.now
            assert servers.queue_delay_ns() == model.queue_delay_ns(now)
            assert servers.backlog_ns() == model.backlog_ns(now)

    def test_rejects_no_servers(self):
        with pytest.raises(ValueError):
            FifoServers(Environment(), 0)


drive_steps = st.lists(
    st.one_of(
        st.tuples(st.just("read"), st.integers(1, 400_000)),
        st.tuples(st.just("write"), st.integers(1, 400_000)),
        st.tuples(st.just("slow"), st.sampled_from((1.0, 1.5, 3.0))),
        st.tuples(st.just("slow_for"), st.integers(1, 300_000)),
        st.tuples(st.just("heal"), st.none()),
        # long enough for the drive to go idle between GC stalls
        st.tuples(st.just("advance"), st.integers(1, 2_000_000)),
    ),
    min_size=10,
    max_size=50,
)


class TestDriveOracle:
    @given(k=st.integers(1, 4), gc=st.booleans(), steps=drive_steps)
    @settings(max_examples=120, deadline=None)
    def test_completion_times_match_the_list_of_servers(self, k, gc, steps):
        """Reads, writes, fail-slow (open-ended and timed), GC stalls and
        heal: every completion, ``busy_ns`` and ``backlog_ns`` as the
        naive servers, the profile rates and the fault rules give them."""
        env = Environment()
        profile = DriveProfile(
            name="oracle",
            read_bw_bytes_per_s=1000 * MB,
            write_bw_bytes_per_s=500 * MB,
            read_latency_ns=20_000,
            write_latency_ns=7_000,
            parallelism=k,
            gc_after_bytes_written=200_000 if gc else 0,
            gc_pause_ns=50_000 if gc else 0,
        )
        drive = NvmeDrive(env, profile)
        model = NaiveServers(k)
        budget = profile.gc_after_bytes_written
        mult, until, busy = 1.0, None, 0
        for action, arg in steps:
            now = env.now
            if action in ("read", "write"):
                rate = profile.read_bw_bytes_per_s if action == "read" else profile.write_bw_bytes_per_s
                latency = profile.read_latency_ns if action == "read" else profile.write_latency_ns
                work = int(round(arg * NS_PER_S / (rate / k)))
                if until is not None and now >= until:
                    mult, until = 1.0, None
                if mult != 1.0:
                    work, latency = int(round(work * mult)), int(round(latency * mult))
                if action == "write" and gc:
                    budget -= arg
                    if budget <= 0:
                        budget = profile.gc_after_bytes_written
                        model.stall(now, profile.gc_pause_ns)
                busy += work
                event = getattr(drive, action)(0, arg)
                assert event._time == model.occupy(now, work) + latency
            elif action == "slow":
                drive.set_fail_slow(arg)
                mult, until = arg, None
            elif action == "slow_for":
                drive.set_fail_slow(2.0, duration_ns=arg)
                mult, until = 2.0, now + arg
            elif action == "heal":
                drive.heal()
                model.forget_backlog(now)
                budget = profile.gc_after_bytes_written
                mult, until = 1.0, None
            else:
                env.run(until=now + arg)
                now = env.now
            assert drive.stats.busy_ns == busy
            assert drive.backlog_ns() == model.backlog_ns(now)
