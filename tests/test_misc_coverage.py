"""Edge-case coverage across modules: kernel details, waiter semantics,
proxy error paths and timing-mode behaviour."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, build_cluster
from repro.draid.host import _OpWaiter
from repro.nvmeof.messages import IoError, NvmeOfCompletion
from repro.sim import AllOf, AnyOf, Environment, Event, Interrupt, SimulationError
from repro.sim.core import Condition


class TestKernelEdges:
    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_value_before_trigger_raises(self):
        env = Environment()
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.value
        with pytest.raises(SimulationError):
            _ = event.ok

    def test_run_until_past_time_rejected(self):
        env = Environment()
        env.run(until=100)
        with pytest.raises(ValueError):
            env.run(until=50)

    def test_peek_empty_calendar(self):
        env = Environment()
        assert env.peek() is None
        env.timeout(10)
        assert env.peek() == 10

    def test_interrupt_process_waiting_on_condition(self):
        env = Environment()

        def sleeper():
            try:
                yield AllOf(env, [env.timeout(1000), env.timeout(2000)])
            except Interrupt:
                return ("interrupted", env.now)

        def interrupter(target):
            yield env.timeout(10)
            target.interrupt()

        target = env.process(sleeper())
        env.process(interrupter(target))
        assert env.run(until=target) == ("interrupted", 10)

    def test_anyof_failure_propagates(self):
        env = Environment()
        bad = env.event()

        def failer():
            yield env.timeout(5)
            bad.fail(RuntimeError("anyof-child"))

        def waiter():
            try:
                yield AnyOf(env, [bad, env.timeout(100)])
            except RuntimeError as exc:
                return str(exc)

        env.process(failer())
        assert env.run(until=env.process(waiter())) == "anyof-child"

    def test_condition_with_pre_failed_event_defuses(self):
        env = Environment()
        bad = env.event()

        def proc():
            bad.fail(RuntimeError("early"))
            yield env.timeout(10)  # let the failure process
            try:
                yield AllOf(env, [bad, env.timeout(5)])
            except RuntimeError as exc:
                return str(exc)

        # the pre-failed event must not crash the run loop: the process
        # that consumes it defuses the failure
        bad._defused = True
        assert env.run(until=env.process(proc())) == "early"

    def test_process_yielding_non_event_fails(self):
        env = Environment()

        def bad():
            yield 42

        env.process(bad())
        with pytest.raises(Exception):
            env.run()


class TestOpWaiter:
    def test_completes_when_buckets_drain(self):
        env = Environment()
        waiter = _OpWaiter(env, {"data": 2, "parity": 1})
        waiter.on_completion(NvmeOfCompletion(1, kind="data"))
        assert not waiter.event.triggered
        waiter.on_completion(NvmeOfCompletion(1, kind="parity"))
        waiter.on_completion(NvmeOfCompletion(1, kind="data"))
        assert waiter.event.triggered
        assert not waiter.errors

    def test_error_releases_immediately(self):
        env = Environment()
        waiter = _OpWaiter(env, {"data": 5})
        waiter.on_completion(NvmeOfCompletion(1, kind="data", ok=False, error="boom"))
        assert waiter.event.triggered
        assert len(waiter.errors) == 1

    def test_empty_expectation_is_immediate(self):
        env = Environment()
        waiter = _OpWaiter(env, {})
        assert waiter.event.triggered

    def test_unexpected_kinds_collected_not_counted(self):
        env = Environment()
        waiter = _OpWaiter(env, {"parity": 1})
        waiter.on_completion(NvmeOfCompletion(1, kind="data"))  # stray callback
        assert not waiter.event.triggered
        waiter.on_completion(NvmeOfCompletion(1, kind="parity"))
        assert waiter.event.triggered
        kinds = sorted(c.kind for c in waiter.completions)
        assert kinds == ["data", "parity"]

    def test_completions_after_release_dropped(self):
        env = Environment()
        waiter = _OpWaiter(env, {"parity": 1})
        waiter.on_completion(NvmeOfCompletion(1, kind="parity"))
        waiter.on_completion(NvmeOfCompletion(1, kind="parity"))
        assert len(waiter.completions) == 1


class TestOffloadErrors:
    def test_proxy_propagates_io_errors(self):
        from repro.draid.offload import OffloadedDraidArray
        from repro.raid.geometry import RaidGeometry, RaidLevel

        env = Environment()
        cluster = build_cluster(env, ClusterConfig(num_servers=6))
        array = OffloadedDraidArray(cluster, RaidGeometry(RaidLevel.RAID5, 5, 16384))
        array.controller.max_retries = 0
        array.controller.timeout_ns = 1_000_000
        # fail two drives: RAID-5 reads of lost chunks cannot be served
        array.fail_drive(0)
        cluster.servers[array.controller._server_of(1)].drive.fail()

        def proc():
            try:
                yield array.read(0, 5 * 16384 * 4)  # whole-stripe read
            except IoError as exc:
                return "io-error"

        assert env.run(until=env.process(proc())) == "io-error"


class TestLogStructuredTimingMode:
    def test_timing_mode_reads_and_writes(self):
        from repro.baselines import LogStructuredRaid
        from repro.raid.geometry import RaidGeometry, RaidLevel

        env = Environment()
        cluster = build_cluster(env, ClusterConfig(num_servers=5))
        array = LogStructuredRaid(cluster, RaidGeometry(RaidLevel.RAID5, 5, 16384))

        def proc():
            for i in range(array.blocks_per_stripe + 2):
                yield array.write(i * 4096, 4096)
            yield env.timeout(50_000_000)
            data = yield array.read(0, 4096)
            return data

        assert env.run(until=env.process(proc())) is None
        assert array.log_stats.stripes_flushed >= 1


class TestTraceWrites:
    def test_trace_replays_writes(self):
        from repro.draid import DraidArray
        from repro.raid.geometry import RaidGeometry, RaidLevel
        from repro.workloads.trace import TraceRecord, TraceWorkload

        env = Environment()
        cluster = build_cluster(env, ClusterConfig(num_servers=5))
        array = DraidArray(cluster, RaidGeometry(RaidLevel.RAID5, 5, 65536))
        records = [
            TraceRecord(i * 100_000, "write", i * 65536, 65536) for i in range(8)
        ]
        result = TraceWorkload(array, records).run()
        assert result.completed == 8
        assert array.stats.writes == 8
