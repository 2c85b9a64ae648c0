"""Unit tests for stores, capacity resources and bandwidth channels."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import BandwidthChannel, CapacityResource, Environment, Interrupt, Store
from repro.sim.resources import NS_PER_S, _CapacityRequest


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)

        def proc():
            store.put("x")
            item = yield store.get()
            return item

        assert env.run(until=env.process(proc())) == "x"

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)

        def producer():
            yield env.timeout(40)
            store.put("late")

        def consumer():
            item = yield store.get()
            return (env.now, item)

        env.process(producer())
        assert env.run(until=env.process(consumer())) == (40, "late")

    def test_fifo_ordering(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer(tag):
            item = yield store.get()
            got.append((tag, item))

        def producer():
            yield env.timeout(1)
            for i in range(3):
                store.put(i)

        for tag in "abc":
            env.process(consumer(tag))
        env.process(producer())
        env.run()
        assert got == [("a", 0), ("b", 1), ("c", 2)]

    def test_len_counts_items(self):
        env = Environment()
        store = Store(env)
        store.put(1)
        store.put(2)
        assert len(store) == 2


class TestCapacityResource:
    def test_capacity_limits_concurrency(self):
        env = Environment()
        res = CapacityResource(env, capacity=2)
        active = []
        peak = []

        def worker(i):
            yield res.request()
            active.append(i)
            peak.append(len(active))
            yield env.timeout(10)
            active.remove(i)
            res.release()

        for i in range(5):
            env.process(worker(i))
        env.run()
        assert max(peak) == 2
        assert env.now == 30  # 5 jobs, 2 wide, 10ns each

    def test_release_without_request_raises(self):
        env = Environment()
        res = CapacityResource(env, capacity=1)
        with pytest.raises(RuntimeError):
            res.release()

    def test_invalid_capacity(self):
        env = Environment()
        with pytest.raises(ValueError):
            CapacityResource(env, capacity=0)


class TestBandwidthChannel:
    def test_single_transfer_service_time(self):
        env = Environment()
        # 1 GB/s => 1 byte per ns
        ch = BandwidthChannel(env, rate_bytes_per_s=NS_PER_S)

        def proc():
            yield ch.transfer(4096)
            return env.now

        assert env.run(until=env.process(proc())) == 4096

    def test_per_op_overhead_added(self):
        env = Environment()
        ch = BandwidthChannel(env, rate_bytes_per_s=NS_PER_S, per_op_overhead_ns=100)

        def proc():
            yield ch.transfer(1000)
            return env.now

        assert env.run(until=env.process(proc())) == 1100

    def test_fifo_serialization(self):
        env = Environment()
        ch = BandwidthChannel(env, rate_bytes_per_s=NS_PER_S)
        done = []

        def proc(tag, size):
            yield ch.transfer(size)
            done.append((tag, env.now))

        env.process(proc("a", 100))
        env.process(proc("b", 50))
        env.run()
        # Both submitted at t=0; FIFO: a finishes at 100, b at 150.
        assert done == [("a", 100), ("b", 150)]

    def test_aggregate_rate_preserved_under_load(self):
        env = Environment()
        ch = BandwidthChannel(env, rate_bytes_per_s=NS_PER_S)

        def proc():
            events = [ch.transfer(1000) for _ in range(10)]
            for e in events:
                yield e
            return env.now

        # 10 kB at 1 B/ns => exactly 10_000 ns regardless of batching.
        assert env.run(until=env.process(proc())) == 10_000

    def test_parallelism_splits_rate(self):
        env = Environment()
        ch = BandwidthChannel(env, rate_bytes_per_s=NS_PER_S, parallelism=4)

        def one():
            yield ch.transfer(1000)
            return env.now

        # A single stream only gets 1/4 of the rate.
        assert env.run(until=env.process(one())) == 4000

    def test_parallelism_aggregate_throughput(self):
        env = Environment()
        ch = BandwidthChannel(env, rate_bytes_per_s=NS_PER_S, parallelism=4)
        done = []

        def proc(i):
            yield ch.transfer(1000)
            done.append(env.now)

        for i in range(4):
            env.process(proc(i))
        env.run()
        # 4 concurrent streams use all 4 servers: all done at 4000.
        assert done == [4000, 4000, 4000, 4000]

    def test_queue_delay_reflects_backlog(self):
        env = Environment()
        ch = BandwidthChannel(env, rate_bytes_per_s=NS_PER_S)

        def proc():
            ch.transfer(500)
            assert ch.queue_delay_ns() == 500
            assert ch.backlog_ns() == 500
            yield env.timeout(200)
            assert ch.queue_delay_ns() == 300

        env.run(until=env.process(proc()))

    def test_accounting(self):
        env = Environment()
        ch = BandwidthChannel(env, rate_bytes_per_s=NS_PER_S)

        def proc():
            yield ch.transfer(100)
            yield ch.transfer(200)

        env.run(until=env.process(proc()))
        assert ch.bytes_transferred == 300
        assert ch.ops == 2
        assert ch.busy_ns == 300
        assert ch.utilization(600) == pytest.approx(0.5)
        ch.reset_accounting()
        assert ch.bytes_transferred == 0

    def test_rate_is_adjustable(self):
        env = Environment()
        ch = BandwidthChannel(env, rate_bytes_per_s=NS_PER_S)
        ch.rate_bytes_per_s = NS_PER_S / 2

        def proc():
            yield ch.transfer(100)
            return env.now

        assert env.run(until=env.process(proc())) == 200

    def test_invalid_args(self):
        env = Environment()
        with pytest.raises(ValueError):
            BandwidthChannel(env, rate_bytes_per_s=0)
        ch = BandwidthChannel(env, rate_bytes_per_s=1.0)
        with pytest.raises(ValueError):
            ch.transfer(-1)


class TestCancelSafety:
    """Interrupting a waiter must never leak slots or items.

    Regression tests for the PR-1 fast-path bug: a request cancelled
    between grant and resume bypassed the waiter bookkeeping, leaking the
    slot (or the store item) forever.  ``Event._abandoned`` now hands the
    grant back; the kernel sanitizer's leaked-hold check pins it.
    """

    def test_capacity_cancel_while_queued(self):
        env = Environment()
        resource = CapacityResource(env, capacity=1)
        order = []

        def holder():
            yield resource.request()
            yield env.timeout(10)
            resource.release()

        def waiter(tag):
            try:
                yield resource.request()
            except Exception:
                order.append((tag, "interrupted"))
                return
            order.append((tag, env.now))
            resource.release()

        env.process(holder())
        victim = env.process(waiter("victim"))
        env.process(waiter("heir"))

        def killer():
            yield env.timeout(5)  # before the release at t=10
            victim.interrupt("cancelled")

        env.process(killer())
        env.run()
        # the heir — not the cancelled victim — got the slot at release time
        assert order == [("victim", "interrupted"), ("heir", 10)]
        assert resource.in_use == 0
        assert not resource._waiters

    def test_capacity_cancel_between_grant_and_resume(self):
        env = Environment()
        resource = CapacityResource(env, capacity=1)
        order = []

        def holder():
            yield resource.request()
            yield env.timeout(10)
            resource.release()  # grants the victim at t=10 ...

        def waiter(tag):
            try:
                yield resource.request()
            except Exception:
                order.append((tag, "interrupted"))
                return
            order.append((tag, env.now))
            resource.release()

        env.process(holder())
        victim = env.process(waiter("victim"))
        env.process(waiter("heir"))

        def killer():
            yield env.timeout(10)  # ... and the interrupt lands before
            victim.interrupt("cancelled")  # the victim ever resumes

        env.process(killer())
        env.run()
        # the heir inherited the slot at t=10 (resuming just before the
        # victim's interrupt lands); nothing leaked
        assert sorted(order) == [("heir", 10), ("victim", "interrupted")]
        assert resource.in_use == 0

    def test_store_cancel_while_queued(self):
        env = Environment()
        store = Store(env)
        got = []

        def getter(tag):
            try:
                item = yield store.get()
            except Exception:
                got.append((tag, "interrupted"))
                return
            got.append((tag, item))

        victim = env.process(getter("victim"))
        env.process(getter("heir"))

        def producer():
            yield env.timeout(10)
            store.put("item")

        def killer():
            yield env.timeout(5)
            victim.interrupt("cancelled")

        env.process(producer())
        env.process(killer())
        env.run()
        # the item goes to the heir, not into the cancelled getter's void
        assert got == [("victim", "interrupted"), ("heir", "item")]
        assert len(store) == 0

    def test_store_cancel_between_grant_and_resume(self):
        env = Environment()
        store = Store(env)
        got = []

        def getter(tag):
            try:
                item = yield store.get()
            except Exception:
                got.append((tag, "interrupted"))
                return
            got.append((tag, item))

        victim = env.process(getter("victim"))

        def producer():
            yield env.timeout(10)
            store.put("item")  # grants the victim at t=10 ...

        def killer():
            yield env.timeout(10)  # ... then the interrupt lands first
            victim.interrupt("cancelled")

        env.process(producer())
        env.process(killer())
        env.run()
        assert got == [("victim", "interrupted")]
        # the granted item went back into the store, not into the void
        assert len(store) == 1

    def test_abandoned_grant_keeps_its_place_in_line(self):
        """A granted but abandoned item goes back *ahead* of the items that
        arrived after it (it used to be re-put behind them)."""
        env = Environment()
        store = Store(env)
        got = []
        first = env.process(self._getter(store, got))

        def producer():
            yield env.timeout(10)
            store.put("A")  # granted to the waiting getter ...
            store.put("B")  # ... and queued
            first.interrupt("cancelled")

        def late_getters():
            yield env.timeout(20)
            got.append((yield store.get()))
            got.append((yield store.get()))

        env.process(producer())
        env.process(late_getters())
        env.run()
        assert got == ["A", "B"]

    def test_abandoned_grant_goes_to_the_oldest_live_getter(self):
        env = Environment()
        store = Store(env)
        got = []
        first = env.process(self._getter(store, got))
        env.process(self._getter(store, got))

        def producer():
            yield env.timeout(10)
            store.put("A")  # granted to the first getter, which is interrupted
            first.interrupt("cancelled")

        env.process(producer())
        env.run()
        assert got == ["A"] and len(store) == 0

    @staticmethod
    def _getter(store, got):
        try:
            got.append((yield store.get()))
        except Interrupt:
            pass

    def test_cancelled_paths_pass_leak_check(self):
        from repro.verify import KernelSanitizer

        env = Environment()
        sanitizer = KernelSanitizer(env)
        resource = CapacityResource(env, capacity=1, name="slots")
        sanitizer.watch_resource(resource)

        def holder():
            yield resource.request()
            yield env.timeout(10)
            resource.release()

        def victim_proc():
            try:
                yield resource.request()
            except Exception:
                return

        env.process(holder())
        victim = env.process(victim_proc())

        def killer():
            yield env.timeout(10)
            victim.interrupt("cancelled")

        env.process(killer())
        env.run()  # the armed run loop leak-checks at drain
        assert sanitizer.violations == []
        sanitizer.check_quiescent()


_OPS = st.lists(
    st.sampled_from(["spawn", "feed", "cancel", "advance"]),
    min_size=4,
    max_size=50,
)


class TestCancelConservation:
    """Arbitrary interleavings of request, grant and cancel: no store item
    is lost or delivered twice and no capacity slot leaks, wherever the
    cancels land (still queued, or granted but not yet resumed)."""

    @given(ops=_OPS, picks=st.data())
    @settings(max_examples=60, deadline=None)
    def test_store_get_cancel_keeps_every_item_once(self, ops, picks):
        env = Environment()
        store = Store(env, name="box")
        received = []
        procs = []
        next_token = 0

        def getter():
            try:
                item = yield store.get()
            except Interrupt:
                return
            received.append(item)

        for op in ops:
            if op == "spawn":
                procs.append(env.process(getter(), name="getter"))
            elif op == "feed":
                store.put(next_token)
                next_token += 1
            elif op == "cancel":
                waiting = [p for p in procs if p.is_alive and p._target is not None]
                if waiting:
                    idx = picks.draw(st.integers(0, len(waiting) - 1), label="victim")
                    waiting[idx].interrupt("cancel")
            else:  # advance: park spawned processes, deliver grants
                env.run(until=env.now + 1)

        # Drain: one item per still-live process, then run to quiescence.
        env.run(until=env.now + 1)
        for p in procs:
            if p.is_alive:
                store.put(next_token)
                next_token += 1
        env.run()

        assert all(not p.is_alive for p in procs)
        # every token delivered at most once, and delivered or still stored
        # (a cancel hands a granted-but-unconsumed item back)
        assert len(received) == len(set(received))
        assert sorted(received + list(store._items)) == list(range(next_token))

    @given(capacity=st.integers(1, 3), ops=_OPS, picks=st.data())
    @settings(max_examples=60, deadline=None)
    def test_capacity_request_cancel_leaks_no_slot(self, capacity, ops, picks):
        env = Environment()
        res = CapacityResource(env, capacity=capacity, name="slots")
        served = []
        procs = []

        def holder(idx, hold_ns):
            try:
                yield res.request()
            except Interrupt:
                return
            served.append(idx)
            yield env.timeout(hold_ns)
            res.release()

        for op in ops:
            if op == "spawn":
                hold = picks.draw(st.integers(1, 20), label="hold_ns")
                procs.append(env.process(holder(len(procs), hold), name="holder"))
            elif op == "feed":
                env.run(until=env.now + 5)  # let holders release
            elif op == "cancel":
                # only processes parked on the request itself: both the
                # still-queued and the granted-but-not-resumed paths
                waiting = [
                    p for p in procs
                    if p.is_alive and isinstance(p._target, _CapacityRequest)
                ]
                if waiting:
                    idx = picks.draw(st.integers(0, len(waiting) - 1), label="victim")
                    waiting[idx].interrupt("cancel")
            else:  # advance
                env.run(until=env.now + 1)
            assert 0 <= res._in_use <= capacity

        env.run()
        assert all(not p.is_alive for p in procs)
        # every grant was released, including slots granted to waiters that
        # were cancelled before resuming
        assert res._in_use == 0
        assert len(served) == len(set(served))
