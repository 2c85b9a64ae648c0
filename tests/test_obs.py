"""Observability subsystem: span accounting, exports, sampling, determinism.

The load-bearing invariants:

* critical-path parts of every traced request sum *exactly* to its
  end-to-end latency (nanosecond-exact, no double counting);
* exported Chrome traces validate against the trace-event schema and are
  byte-identical across repeated runs and across worker-process fan-out;
* the bottleneck report names the resource the paper's analysis names;
* an unarmed cluster records nothing and takes no observability branches.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import build_testbed
from repro.cluster import ClusterConfig, build_cluster
from repro.draid.offload import OffloadedController
from repro.experiments.common import build_array, traced_fio_point
from repro.experiments.runner import SweepPoint, run_points
from repro.obs import (
    ObservabilityConfig,
    Tracer,
    breakdown_table,
    chrome_trace_json,
    request_breakdowns,
    validate_chrome_trace,
)
from repro.metrics.report import Row, format_table
from repro.raid.geometry import RaidGeometry, RaidLevel
from repro.sim import Environment
from repro.workloads import FioWorkload

GOLDEN_TRACE = Path(__file__).parent / "golden" / "trace_draid_4k.json"
#: Linux MD, RAID-6 4 KiB writes: host submit/xor/gf and raid-thread staging
GOLDEN_LINUX_TRACE = Path(__file__).parent / "golden" / "trace_linux_4k.json"

KB = 1024


def _traced_run(system: str, io_size: int = 4 * KB, read_fraction: float = 0.0,
                queue_depth: int = 2, measure_ns: int = 400_000, seed: int = 77,
                level: RaidLevel = RaidLevel.RAID5):
    """A small, fast observability-armed FIO run; returns (fio, obs)."""
    array = build_array(system, level=level, observability=ObservabilityConfig())
    fio = FioWorkload(array, io_size, read_fraction=read_fraction,
                      queue_depth=queue_depth, seed=seed)
    fio.run(warmup_ns=100_000, measure_ns=measure_ns)
    return fio, array.cluster.obs


def small_trace_json(system: str = "dRAID", level: RaidLevel = RaidLevel.RAID5) -> str:
    """Module-level so run_points can ship it across the process boundary."""
    _, obs = _traced_run(system, level=level)
    return chrome_trace_json(obs.tracer)


class TestCriticalPathAccounting:
    @pytest.mark.parametrize("system", ["Linux", "SPDK", "dRAID"])
    def test_parts_sum_exactly_to_latency(self, system):
        fio, obs = _traced_run(system)
        breakdowns = request_breakdowns(obs.tracer)
        assert breakdowns, "traced run produced no requests"
        for b in breakdowns:
            assert sum(b["parts"].values()) == b["duration_ns"]

    @pytest.mark.parametrize("system", ["Linux", "SPDK", "dRAID"])
    def test_roots_match_measured_latencies(self, system):
        measure_ns = 1_500_000
        fio, obs = _traced_run(system, measure_ns=measure_ns)
        window_end = 100_000 + measure_ns  # warmup + measurement, absolute ns
        roots = [s for s in obs.tracer.spans if s.cat == "request"]
        assert roots, "traced run recorded no request roots"
        in_window = sorted(
            s.duration_ns for s in roots if s.end_ns <= window_end
        )
        samples = sorted(fio.reads._samples + fio.writes._samples)
        # a root completing inside the window IS a measured latency sample;
        # samples may additionally cover I/Os submitted during warmup
        remaining = list(samples)
        for duration in in_window:
            assert duration in remaining
            remaining.remove(duration)

    def test_reads_and_writes_both_traced(self):
        fio, obs = _traced_run("dRAID", read_fraction=0.5)
        names = {s.name for s in obs.tracer.spans if s.cat == "request"}
        assert names == {"read", "write"}

    def test_breakdown_table_renders(self):
        _, obs = _traced_run("dRAID")
        table = breakdown_table(request_breakdowns(obs.tracer), limit=5)
        lines = table.splitlines()
        assert lines[0].split()[:3] == ["trace", "request", "total_us"]
        assert lines[-1].lstrip().startswith("mean")


class TestChromeTraceExport:
    def test_export_validates(self):
        _, obs = _traced_run("dRAID")
        trace = json.loads(chrome_trace_json(obs.tracer))
        validate_chrome_trace(trace)
        events = trace["traceEvents"]
        assert any(e["ph"] == "X" for e in events)
        tracks = {e["args"]["name"] for e in events if e["ph"] == "M" and e["name"] == "thread_name"}
        assert "host.io" in tracks
        assert any(t.startswith("net.") for t in tracks)
        assert any(t.endswith(".nvme") for t in tracks)

    def test_validator_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"no": "events"})
        with pytest.raises(ValueError):
            validate_chrome_trace([])
        with pytest.raises(ValueError):
            validate_chrome_trace([{"ph": "X", "name": "x", "pid": 1, "tid": 1,
                                    "ts": -5, "dur": 1, "cat": "c"}])
        with pytest.raises(ValueError):
            validate_chrome_trace([{"ph": "Q", "name": "x", "pid": 1, "tid": 1}])

    def test_golden_trace(self):
        assert small_trace_json("dRAID") == GOLDEN_TRACE.read_text()

    def test_golden_trace_linux(self):
        assert small_trace_json("Linux", RaidLevel.RAID6) == GOLDEN_LINUX_TRACE.read_text()

    def test_two_runs_byte_identical(self):
        assert small_trace_json("dRAID") == small_trace_json("dRAID")

    def test_parallel_workers_byte_identical(self):
        points = [SweepPoint(small_trace_json, dict(system="dRAID"))] * 2
        serial = run_points(points, jobs=1)
        parallel = run_points(points, jobs=2)
        assert serial == parallel
        assert serial[0] == serial[1]


class TestLockWaitSpan:
    def test_second_write_on_a_stripe_records_its_blocked_interval(self):
        """Two traced writes to one SPDK stripe: the second waits on the
        stripe lock from its acquire until the first releases it."""
        array = build_array("SPDK", observability=ObservabilityConfig())
        env, tracer = array.env, array.cluster.obs.tracer
        first_ctx, second_ctx = tracer.new_request(), tracer.new_request()
        first = array.write(0, 4 * KB, ctx=first_ctx)
        array.write(4 * KB, 4 * KB, ctx=second_ctx)
        released = []
        first.callbacks.append(lambda _event: released.append(env.now))
        env.run()
        waits = [s for s in tracer.spans if s.cat == "lock-wait"]
        assert len(waits) == 1
        wait, = waits
        assert (wait.name, wait.track) == ("stripe-0", "host.locks")
        assert (wait.trace_id, wait.parent_id) == (second_ctx.trace_id, second_ctx.span_id)
        submit, = [s for s in tracer.spans
                   if s.name == "submit" and s.parent_id == second_ctx.span_id]
        assert wait.start_ns == submit.end_ns
        assert wait.end_ns == released[0]
        assert wait.start_ns < wait.end_ns


class TestBackoffSpan:
    def test_retry_pause_is_recorded_under_the_request(self):
        """A read whose first attempt is lost to crashed targets retries
        after a backoff pause, recorded as one span of the request."""
        array = build_array("SPDK", observability=ObservabilityConfig())
        array.resilient = True
        array.timeout_ns = 200_000
        for target in array.targets:
            target.crash(100_000)
        tracer = array.cluster.obs.tracer
        ctx = tracer.new_request()
        array.env.run(until=array.read(0, 4 * KB, ctx=ctx))
        assert array.stats.retries == 1
        pause, = [s for s in tracer.spans if s.cat == "backoff"]
        assert (pause.name, pause.track, pause.parent_id) == (
            "retry-backoff", "host.cpu", ctx.span_id)
        assert pause.start_ns == 2_000 + 200_000  # submit, then one timeout
        assert pause.end_ns > pause.start_ns


class TestEnvelopeSpan:
    @pytest.mark.parametrize("system, names", [
        ("dRAID", {"draid.degraded-write", "draid.recon"}),
        ("dRAID-ST", {"draid.read", "draid.write-fallback"}),
    ])
    def test_degraded_envelopes_cover_their_commands(self, system, names):
        """A traced degraded write, then read, of the failed chunk: every
        remote-op envelope hangs off its request and covers each span its
        commands recorded under it."""
        array = build_array(system, observability=ObservabilityConfig())
        array.fail_drive(array.geometry.data_drive(0, 0))
        env, tracer = array.env, array.cluster.obs.tracer
        roots = [tracer.new_request(), tracer.new_request()]
        env.run(until=array.write(0, 4 * KB, ctx=roots[0]))
        env.run(until=array.read(0, 4 * KB, ctx=roots[1]))
        envelopes = [s for s in tracer.spans if s.cat == "rpc"]
        assert {s.name for s in envelopes} == names
        for envelope in envelopes:
            assert envelope.parent_id in {root.span_id for root in roots}
            children = [s for s in tracer.spans if s.parent_id == envelope.span_id]
            assert children
            for child in children:
                assert envelope.start_ns <= child.start_ns
                assert child.end_ns <= envelope.end_ns


def _compute_tracks(array):
    """Tracks of the compute spans one traced 4 KiB write on ``array`` records."""
    tracer = array.cluster.obs.tracer
    array.env.run(until=array.write(0, 4 * KB, ctx=tracer.new_request()))
    return {s.track for s in tracer.spans if s.cat == "compute"}


class TestResourceTracks:
    def test_named_cluster_cores_get_their_own_tracks(self):
        _, _, array = build_testbed("dRAID", config=ClusterConfig(
            name="r0", observability=ObservabilityConfig()))
        tracks = _compute_tracks(array)
        assert "r0.host.cpu" in tracks
        assert tracks <= {"r0.host.cpu"} | {f"r0.server{i}.cpu" for i in range(8)}

    def test_offloaded_controller_charges_its_server_core(self):
        cluster = build_cluster(Environment(), ClusterConfig(
            num_servers=6, observability=ObservabilityConfig()))
        controller = OffloadedController(
            cluster, RaidGeometry(RaidLevel.RAID5, 5, 16 * KB), controller_server=0
        )
        tracks = _compute_tracks(controller)
        assert "server0.cpu" in tracks and "host.cpu" not in tracks


class TestBottleneckReport:
    def test_md_large_read_is_host_nic_bound(self):
        _, obs = traced_fio_point("Linux", io_size=128 * KB, read_fraction=1.0,
                                  fast=True)
        assert obs.sampler.report().bottleneck == "host-nic"

    def test_draid_4k_write_is_drive_bound(self):
        _, obs = traced_fio_point("dRAID", io_size=4 * KB, fast=True)
        report = obs.sampler.report()
        assert report.bottleneck == "drive"
        assert report.utilization["host-nic"] < 0.5

    def test_report_render_and_idle(self):
        _, obs = _traced_run("dRAID")
        text = obs.sampler.report().render()
        assert "bottleneck:" in text and "drive" in text
        # a sampler that never ran reports idle
        env = Environment()
        cluster = build_cluster(env, ClusterConfig(
            observability=ObservabilityConfig()))
        assert cluster.obs.sampler.report().bottleneck == "idle"


class TestZeroCostDisabled:
    def test_unarmed_cluster_has_no_obs(self):
        env = Environment()
        cluster = build_cluster(env, ClusterConfig())
        assert cluster.obs is None

    def test_unarmed_run_records_nothing(self):
        array = build_array("dRAID")
        fio = FioWorkload(array, 4 * KB, queue_depth=2, seed=77)
        assert fio._tracer is None
        fio.run(warmup_ns=100_000, measure_ns=200_000)
        assert array.cluster.obs is None

    def test_armed_and_unarmed_results_identical(self):
        """Arming the tracer must not perturb the simulated outcome on any
        controller; past the sampler's own wakeups it adds not one calendar
        entry."""

        def run(system, observability, sampled=True):
            array = build_array(system, observability=observability)
            fio = FioWorkload(array, 4 * KB, queue_depth=2, seed=77)
            if not sampled:
                fio._obs = None  # traced, but the sampler is never started
            return fio.run(warmup_ns=100_000, measure_ns=400_000), array.env._eid

        for system in ("Linux", "SPDK", "dRAID"):
            plain, plain_eid = run(system, None)
            armed, _ = run(system, ObservabilityConfig())
            traced, traced_eid = run(system, ObservabilityConfig(), sampled=False)
            assert plain == armed == traced, system
            assert plain_eid == traced_eid, system


class TestTracerUnit:
    def test_derive_parents_envelope_before_record(self):
        tracer = Tracer()
        root = tracer.new_request()
        envelope = tracer.derive(root)
        tracer.record(envelope, "child", "disk", "s0.drive", 10, 20)
        tracer.record_at(envelope, "rpc", "rpc", "host", 5, 30)
        tracer.record_root(root, "write", "host.io", 0, 40)
        spans = {s.name: s for s in tracer.spans}
        assert spans["child"].parent_id == envelope.span_id
        assert spans["rpc"].span_id == envelope.span_id
        assert spans["rpc"].parent_id == root.span_id
        assert spans["write"].parent_id is None

    def test_zero_length_spans_dropped(self):
        tracer = Tracer()
        ctx = tracer.new_request()
        tracer.record(ctx, "noop", "compute", "host.cpu", 7, 7)
        tracer.record_at(tracer.derive(ctx), "noop", "rpc", "host", 9, 9)
        assert tracer.spans == []


class TestFormatTableAlignment:
    def test_small_table_layout_unchanged(self):
        rows = [Row(4, "dRAID", {"bandwidth_mb_s": 1234.5, "iops": 9.0})]
        expected = (
            "t\n"
            "=\n"
            f"{'x':>12} {'system':>10}{'bandwidth_mb_s':>16}{'iops':>16}\n"
            + "-" * 55 + "\n"
            f"{'4':>12} {'dRAID':>10}{'1234.5':>16}{'9.0':>16}"
        )
        assert format_table("t", rows) == expected

    def test_wide_cells_and_names_stay_aligned(self):
        rows = [
            Row("rd128K[host-nic]", "Linux",
                {"bandwidth_mb_s": 11490.6, "raid-thread-util": 0.0,
                 "a_metric_name_wider_than_sixteen": 123456789012345.6}),
            Row(8, "dRAID",
                {"bandwidth_mb_s": 3.0, "raid-thread-util": 1.0,
                 "a_metric_name_wider_than_sixteen": 1.0}),
        ]
        table = format_table("wide", rows)
        lines = table.splitlines()
        header, separator, first, second = lines[2], lines[3], lines[4], lines[5]
        assert len(header) == len(first) == len(second) == len(separator)
        # adjacent column headers never run together
        assert "utila_metric" not in header
        assert " a_metric_name_wider_than_sixteen" in header
        # right-aligned numeric cells end at the same offsets as headers
        assert first.endswith("123456789012345.6")
        assert second.endswith(f"{'1.0':>{len('a_metric_name_wider_than_sixteen') + 1}}")
