"""Whole-array functional correctness of dRAID.

Runs the same model-checked workloads as the baseline tests, plus
dRAID-specific behaviours: peer-to-peer parity reduction (byte counting),
the §5.3 pipeline ablation, §5.4 timeout/retry and degraded writes with
host-supplied partials.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, build_cluster
from repro.draid import DraidArray
from repro.draid.host import _OpWaiter
from repro.draid.protocol import DraidCompletion
from repro.nvmeof.messages import next_cid
from repro.raid.geometry import RaidGeometry, RaidLevel
from repro.sim import AnyOf, Environment
from tests.raid_harness import ArrayHarness, TEST_CHUNK

LEVELS = [RaidLevel.RAID5, RaidLevel.RAID6]


@pytest.fixture(params=LEVELS, ids=lambda l: l.name)
def level(request):
    return request.param


class TestNormalState:
    def test_roundtrip_small(self, level):
        h = ArrayHarness(DraidArray, level=level)
        payload = bytes(range(256)) * 16
        h.write(0, payload)
        h.check_read(0, len(payload))
        h.scrub()

    def test_full_stripe_write(self, level):
        h = ArrayHarness(DraidArray, level=level)
        rng = np.random.default_rng(1)
        size = h.geometry.stripe_data_bytes
        h.write(0, rng.integers(0, 256, size, dtype=np.uint8))
        h.check_read(0, size)
        h.scrub()
        assert h.array.stats.full_stripe_writes == 1

    def test_rmw_write(self, level):
        h = ArrayHarness(DraidArray, level=level)
        rng = np.random.default_rng(2)
        h.write(0, rng.integers(0, 256, 2 * h.geometry.stripe_data_bytes, dtype=np.uint8))
        h.write(TEST_CHUNK // 2, rng.integers(0, 256, 4096, dtype=np.uint8))
        h.check_read(0, 2 * h.geometry.stripe_data_bytes)
        h.scrub()
        assert h.array.stats.rmw_writes >= 1

    def test_rcw_write(self, level):
        h = ArrayHarness(DraidArray, level=level)
        rng = np.random.default_rng(3)
        h.write(0, rng.integers(0, 256, h.geometry.stripe_data_bytes, dtype=np.uint8))
        size = h.geometry.stripe_data_bytes - TEST_CHUNK
        h.write(0, rng.integers(0, 256, size, dtype=np.uint8))
        h.check_read(0, h.geometry.stripe_data_bytes)
        h.scrub()
        assert h.array.stats.rcw_writes >= 1

    def test_unaligned_cross_stripe_write(self, level):
        h = ArrayHarness(DraidArray, level=level)
        rng = np.random.default_rng(4)
        offset = h.geometry.stripe_data_bytes - 5000
        size = 2 * h.geometry.stripe_data_bytes + 7777
        h.write(offset, rng.integers(0, 256, size, dtype=np.uint8))
        h.check_read(0, 4 * h.geometry.stripe_data_bytes)
        h.scrub()

    def test_random_workload(self, level):
        h = ArrayHarness(DraidArray, level=level)
        h.random_workload(seed=42, ops=30)
        h.scrub()

    def test_pipeline_disabled_is_equally_correct(self, level):
        h = ArrayHarness(DraidArray, level=level, pipeline=False)
        h.random_workload(seed=43, ops=20)
        h.scrub()

    def test_pipeline_is_faster(self):
        """§5.3: the pipelined data path must beat the serial one."""

        def run(pipeline):
            h = ArrayHarness(DraidArray, pipeline=pipeline)
            rng = np.random.default_rng(5)
            h.write(0, rng.integers(0, 256, 3 * h.geometry.stripe_data_bytes, dtype=np.uint8))
            start = h.env.now
            for i in range(8):
                h.write(i * 4096, rng.integers(0, 256, 4096, dtype=np.uint8))
            return h.env.now - start

        assert run(pipeline=True) < run(pipeline=False)


class TestPeerToPeerDataPath:
    def test_rmw_host_tx_is_write_size_not_4x(self):
        """The headline claim: partial-stripe writes move each user byte
        through the host NIC once (vs 2x outbound + 2x inbound for the
        host-centric baselines)."""
        h = ArrayHarness(DraidArray)
        rng = np.random.default_rng(6)
        h.write(0, rng.integers(0, 256, h.geometry.stripe_data_bytes, dtype=np.uint8))
        host = h.cluster.host.nic
        h.cluster.reset_accounting()
        size = 8192
        h.write(0, rng.integers(0, 256, size, dtype=np.uint8))
        # host TX: the new data + small capsules; nothing like 2x
        assert size <= host.tx_bytes < size + 4096
        # host RX: only completion capsules
        assert host.rx_bytes < 2048

    def test_rmw_partial_parity_flows_between_servers(self):
        h = ArrayHarness(DraidArray)
        rng = np.random.default_rng(7)
        h.write(0, rng.integers(0, 256, h.geometry.stripe_data_bytes, dtype=np.uint8))
        h.cluster.reset_accounting()
        size = 8192
        h.write(0, rng.integers(0, 256, size, dtype=np.uint8))
        data_server = h.geometry.data_drive(0, 0)
        parity_server = h.geometry.parity_drives(0)[0]
        # the data bdev forwarded its delta to the parity bdev
        assert h.cluster.servers[data_server].nic.tx_bytes >= size
        assert h.cluster.servers[parity_server].nic.rx_bytes >= size

    def test_degraded_read_host_rx_only_requested_bytes(self):
        h = ArrayHarness(DraidArray)
        rng = np.random.default_rng(8)
        h.write(0, rng.integers(0, 256, 2 * h.geometry.stripe_data_bytes, dtype=np.uint8))
        h.array.fail_drive(h.geometry.data_drive(0, 0))
        h.cluster.reset_accounting()
        size = 8192
        h.check_read(0, size)  # lost chunk: triggers reconstruction
        host = h.cluster.host.nic
        # §6.1: the host receives only the reconstructed bytes (+capsules),
        # not width-1 source chunks
        assert host.rx_bytes < size + 4096


class TestDegradedState:
    def test_degraded_read_every_drive(self, level):
        rng = np.random.default_rng(9)
        for failed in range(5):
            h = ArrayHarness(DraidArray, level=level)
            blob = rng.integers(0, 256, 4 * h.geometry.stripe_data_bytes, dtype=np.uint8)
            h.write(0, blob)
            h.array.fail_drive(failed)
            h.check_read(0, len(blob))

    def test_degraded_write_full_chunk(self, level):
        h = ArrayHarness(DraidArray, level=level)
        rng = np.random.default_rng(10)
        h.write(0, rng.integers(0, 256, 2 * h.geometry.stripe_data_bytes, dtype=np.uint8))
        h.array.fail_drive(h.geometry.data_drive(0, 0))
        h.write(0, rng.integers(0, 256, TEST_CHUNK, dtype=np.uint8))
        h.check_read(0, 2 * h.geometry.stripe_data_bytes)

    def test_degraded_write_partial_chunk(self, level):
        h = ArrayHarness(DraidArray, level=level)
        rng = np.random.default_rng(11)
        h.write(0, rng.integers(0, 256, 2 * h.geometry.stripe_data_bytes, dtype=np.uint8))
        h.array.fail_drive(h.geometry.data_drive(0, 1))
        h.write(TEST_CHUNK + 1000, rng.integers(0, 256, 2000, dtype=np.uint8))
        h.check_read(0, 2 * h.geometry.stripe_data_bytes)

    def test_degraded_write_failed_parity(self, level):
        h = ArrayHarness(DraidArray, level=level)
        rng = np.random.default_rng(12)
        h.write(0, rng.integers(0, 256, h.geometry.stripe_data_bytes, dtype=np.uint8))
        h.array.fail_drive(h.geometry.parity_drives(0)[0])
        h.write(0, rng.integers(0, 256, 4096, dtype=np.uint8))
        h.check_read(0, h.geometry.stripe_data_bytes)

    def test_degraded_random_workload(self, level):
        h = ArrayHarness(DraidArray, level=level)
        h.random_workload(seed=13, ops=15)
        h.array.fail_drive(1)
        h.random_workload(seed=14, ops=15)

    def test_raid6_double_failure(self):
        h = ArrayHarness(DraidArray, level=RaidLevel.RAID6, drives=6)
        rng = np.random.default_rng(15)
        blob = rng.integers(0, 256, 4 * h.geometry.stripe_data_bytes, dtype=np.uint8)
        h.write(0, blob)
        h.array.fail_drive(0)
        h.array.fail_drive(3)
        h.check_read(0, len(blob))
        # writes fall back to the host path but must stay correct
        h.write(4096, rng.integers(0, 256, 8192, dtype=np.uint8))
        h.check_read(0, len(blob))


class TestFailureHandling:
    def test_transient_stall_still_completes(self, level):
        """§5.4 transient failure: a frozen target delays but never corrupts."""
        h = ArrayHarness(DraidArray, level=level)
        rng = np.random.default_rng(16)
        h.write(0, rng.integers(0, 256, h.geometry.stripe_data_bytes, dtype=np.uint8))
        # freeze one data server for 1 ms (shorter than the op timeout)
        victim = h.geometry.data_drive(0, 0)

        def stall():
            yield h.env.timeout(0)
            # drain-inject: push a long busy period onto the victim's core
            yield h.cluster.servers[victim].cpu.execute(1_000_000)

        h.env.process(stall())
        h.write(0, rng.integers(0, 256, 4096, dtype=np.uint8))
        h.check_read(0, h.geometry.stripe_data_bytes)
        h.scrub()
        assert h.array.stats.retries == 0

    def test_timeout_triggers_full_stripe_retry(self, level):
        """An op exceeding the deadline is retried as a full-stripe write."""
        h = ArrayHarness(DraidArray, level=level)
        h.array.timeout_ns = 500_000  # 0.5 ms deadline
        rng = np.random.default_rng(17)
        h.write(0, rng.integers(0, 256, h.geometry.stripe_data_bytes, dtype=np.uint8))
        victim = h.geometry.data_drive(0, 0)
        # 5 ms of CPU busy on the victim stalls its command handling
        h.cluster.servers[victim].cpu.execute(5_000_000)
        h.write(0, rng.integers(0, 256, 4096, dtype=np.uint8))
        assert h.array.stats.retries >= 1
        h.check_read(0, h.geometry.stripe_data_bytes)
        h.scrub()

    def test_finished_op_is_released_before_its_deadline_expires(self, monkeypatch):
        """Without a fault injector nothing can happen at the §5.4 deadline,
        so no guard timer is armed: a finished op leaves the calendar empty.
        On the resilient datapath the timer outlives the op it guarded (it is
        never cancelled) but must not keep the op's waiter and payload alive
        for the 50 ms it has left: the ``AnyOf`` it lost lets go of it."""
        refs = []
        on_completion = _OpWaiter.on_completion

        def spy(waiter, comp):
            refs.extend((weakref.ref(waiter), weakref.ref(comp.data)))
            on_completion(waiter, comp)

        for resilient in (False, True):
            h = ArrayHarness(DraidArray)
            h.array.resilient = resilient
            h.write(0, bytes(range(256)) * 16)
            h.env.run()  # idle: no timer of the write is left
            del refs[:]
            issued = h.env.now
            with monkeypatch.context() as patch:
                patch.setattr(_OpWaiter, "on_completion", spy)
                h.check_read(0, 4096)
            gc.collect()  # a waiter and its event refer to each other
            assert len(refs) == 2 and all(ref() is None for ref in refs)
            assert not h.array._waiters
            if not resilient:
                assert h.env._queue == []
                continue
            ((expiry, _, deadline),) = h.env._queue
            assert deadline.callbacks == []
            assert issued < expiry - h.array.timeout_ns < h.env.now
            h.env.run()
            assert h.env.now == expiry

    def test_selector_is_used_for_reconstruction(self):
        picks = []

        class SpySelector:
            def pick(self, candidates, region_bytes):
                picks.append(tuple(candidates))
                return candidates[0]

        h = ArrayHarness(DraidArray, selector=SpySelector())
        rng = np.random.default_rng(18)
        h.write(0, rng.integers(0, 256, h.geometry.stripe_data_bytes, dtype=np.uint8))
        h.array.fail_drive(h.geometry.data_drive(0, 0))
        h.check_read(0, 4096)
        assert len(picks) == 1
        # participants: the 3 surviving data drives + P (5-drive RAID-5)
        assert len(picks[0]) == 4


# -- the unarmed §5.4 wait against the guard-timer form it replaced (PR 23) -----


class GuardTimerDraid(DraidArray):
    """The oracle: ``_await_op`` as it was, a §5.4 guard timer and an
    ``AnyOf`` around every member op whether or not anything can happen at
    expiry.  The resilient branch is the one the array still runs."""

    def _await_op(self, cid, waiter, attempt=0, drain=True, deadline_ns=None):
        if self.resilient:
            result = yield from super()._await_op(
                cid, waiter, attempt, drain, deadline_ns
            )
            return result
        timeout_ns = self.timeout_ns
        remaining = self._deadline_remaining(deadline_ns)
        if remaining is not None:
            timeout_ns = min(timeout_ns, max(1, remaining))
        deadline = self.env.timeout(timeout_ns)
        yield AnyOf(self.env, [waiter.event, deadline])
        expired = not waiter.event.triggered
        if expired:
            yield waiter.event
        del self._waiters[cid]
        if self._protocol_verifier is not None:
            self._protocol_verifier.on_deregister(cid)
        return expired


AWAIT_TIMEOUT = 10
DELIVERIES = ("in-flight", "late-hop", "late-wake")


def await_in_turn(cls, arrivals, deadline_ns):
    """One process awaits member ops in turn; op ``i`` comes in at
    ``arrivals[i][0]``, delivered ``arrivals[i][1]``: one timer ``in-flight``
    from the start, or a last hop made one nanosecond before it lands — a
    timer (``late-hop``) or a timer and the wake it makes (``late-wake``).
    Returns ``(wait began, wait ended, expired, completions)`` per op."""
    env = Environment()
    cluster = build_cluster(
        env, ClusterConfig(num_servers=5, io_timeout_ns=AWAIT_TIMEOUT)
    )
    array = cls(cluster, RaidGeometry(RaidLevel.RAID5, 5, TEST_CHUNK))
    ops = []
    for i, (at, how) in enumerate(arrivals):
        member = i % 5
        cid = next_cid()
        waiter = array._register(cid, {"read": 1}, {member})

        def deliver(_event, member=member, comp=DraidCompletion(cid, "read")):
            array._receive(member, comp)

        if at == 0:
            deliver(None)  # already in (and processed) when any wait begins
        elif how == "late-hop" and at > 1:
            env.timeout(at - 1).callbacks.append(
                lambda _event, deliver=deliver: env.timeout(1).callbacks.append(deliver)
            )
        elif how == "late-wake" and at > 1:
            def wake(_event, deliver=deliver):
                hop = env.event()
                hop.callbacks.append(deliver)
                hop.succeed()

            env.timeout(at - 1).callbacks.append(
                lambda _event, wake=wake: env.timeout(1).callbacks.append(wake)
            )
        else:
            env.timeout(at).callbacks.append(deliver)
        ops.append((cid, waiter))
    log = []

    def caller():
        for cid, waiter in ops:
            began = env.now
            expired = yield from array._await_op(cid, waiter, deadline_ns=deadline_ns)
            log.append((began, env.now, expired, len(waiter.completions)))

    env.run(until=env.process(caller()))
    assert not array._waiters
    return log


class TestAwaitOp:
    @given(
        arrivals=st.lists(
            st.tuples(st.integers(0, 3 * AWAIT_TIMEOUT), st.sampled_from(DELIVERIES)),
            min_size=1, max_size=4,
        ),
        deadline_ns=st.one_of(st.none(), st.integers(0, 3 * AWAIT_TIMEOUT)),
    )
    @settings(max_examples=150, deadline=None)
    def test_expiry_read_off_the_clock_equals_the_guard_timer(
        self, arrivals, deadline_ns
    ):
        """Before, after and on the deadline; with and without a request
        deadline clamping it; ops already in when their wait starts; several
        awaited in turn.  Same flag, same clock — except on the very
        nanosecond of the deadline, where the guard timer's answer depended on
        event ids and the rule now is: expired."""
        new = await_in_turn(DraidArray, arrivals, deadline_ns)
        old = await_in_turn(GuardTimerDraid, arrivals, deadline_ns)
        for (began, ended, expired, comps), oracle in zip(new, old):
            assert (began, ended, comps) == (oracle[0], oracle[1], oracle[3])
            timeout_ns = AWAIT_TIMEOUT
            if deadline_ns is not None:
                timeout_ns = min(timeout_ns, max(1, deadline_ns - began))
            if ended - began == timeout_ns:
                assert expired is True
            else:
                assert expired == oracle[2] == (ended - began > timeout_ns)

    @pytest.mark.parametrize("how", DELIVERIES)
    def test_op_landing_on_the_nanosecond_of_its_deadline_is_expired(self, how):
        """DESIGN.md §9's tie rule; a request deadline moves the nanosecond,
        not the rule.  (The guard timer's answer depended on event ids.)"""
        on_it = [(AWAIT_TIMEOUT, how)]
        assert await_in_turn(DraidArray, on_it, None) == [(0, AWAIT_TIMEOUT, True, 1)]
        assert await_in_turn(GuardTimerDraid, on_it, None) == [
            (0, AWAIT_TIMEOUT, how == "late-wake", 1)
        ]
        assert await_in_turn(DraidArray, [(AWAIT_TIMEOUT - 1, how)], None) == [
            (0, AWAIT_TIMEOUT - 1, False, 1)
        ]
        assert await_in_turn(DraidArray, [(4, how)], 4) == [(0, 4, True, 1)]
        assert await_in_turn(DraidArray, [(3, how)], 4) == [(0, 3, False, 1)]
        # awaited second: its clock starts when the first wait ends
        assert await_in_turn(DraidArray, [(5, "in-flight"), (15, how)], None)[1] == (
            5, 15, True, 1
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_stalled_ops_retry_as_under_the_guard_timer(self, seed, level):
        """Whole ops on a functional array whose members stall around the
        deadline: same retries, same clock after every op, same bytes."""
        def run(cls):
            h = ArrayHarness(cls, level=level)
            h.array.timeout_ns = 500_000
            rng = np.random.default_rng(seed)
            stripe = h.geometry.stripe_data_bytes
            h.write(0, rng.integers(0, 256, 2 * stripe, dtype=np.uint8))
            log = []
            for _ in range(10):
                stall = int(rng.choice([0, 300_000, 450_000, 500_000, 550_000, 3_000_000]))
                if stall:
                    victim = int(rng.integers(0, h.geometry.num_drives))
                    h.cluster.servers[victim].cpu.execute(stall)
                size = int(rng.integers(1, stripe))
                offset = int(rng.integers(0, 2 * stripe - size))
                if rng.random() < 0.5:
                    h.check_read(offset, size)
                else:
                    h.write(offset, rng.integers(0, 256, size, dtype=np.uint8))
                log.append((h.env.now, h.array.stats.retries))
            h.check_read(0, 2 * stripe)
            h.scrub()
            return log, h.array.stats

        log, stats = run(DraidArray)
        assert (log, stats) == run(GuardTimerDraid)
        assert stats.retries > 0

