"""Parallel sweep executor: determinism and plumbing.

The load-bearing property is that fanning sweep points over worker
processes yields *byte-identical* rows to the serial path, because every
point owns its own Environment and seed.  These tests pin that for two
figure sweeps (the acceptance bar) plus seed stability of a single point.
"""

import os
from unittest import mock

import pytest

from repro.experiments import app_figures, fio_figures
from repro.experiments.common import fio_point
from repro.experiments.runner import (
    JOBS_ENV_VAR,
    ChildTraceback,
    SweepPoint,
    SweepSpec,
    resolve_jobs,
    run_forked,
    run_points,
)
from repro.metrics.report import Row
from repro.raid.geometry import RaidLevel


def _double(x):
    return x * 2


def _make_row(x, system):
    return Row(x=x, system=system, metrics={"v": float(x)})


class TestRunPoints:
    def test_serial_path_preserves_order(self):
        points = [SweepPoint(_double, dict(x=i)) for i in range(5)]
        assert run_points(points, jobs=1) == [0, 2, 4, 6, 8]

    def test_parallel_path_preserves_order(self):
        points = [SweepPoint(_double, dict(x=i)) for i in range(7)]
        assert run_points(points, jobs=3) == [i * 2 for i in range(7)]

    def test_rows_cross_process_boundary(self):
        points = [SweepPoint(_make_row, dict(x=i, system="s")) for i in range(4)]
        rows = run_points(points, jobs=2)
        assert rows == [_make_row(i, "s") for i in range(4)]

    def test_empty_points(self):
        assert run_points([], jobs=4) == []

    def test_single_point_runs_in_process(self):
        assert run_points([SweepPoint(_double, dict(x=21))], jobs=8) == [42]

    def test_sweep_spec_wrapper(self):
        spec = SweepSpec("demo", tuple(SweepPoint(_double, dict(x=i)) for i in range(3)))
        assert spec.run(jobs=1) == [0, 2, 4]


def _append_and_count(items, item):
    items.append(item)
    return len(items)


def _raise_value_error(message):
    raise ValueError(message)


class _Unpicklable(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def _raise_unpicklable():
    raise _Unpicklable("one", "two")


def _fork_and_raise(message):
    return run_forked(_raise_value_error, message)


class TestRunForked:
    def test_result_returns_and_the_child_leaves_the_parent_alone(self):
        items = [1, 2]
        assert run_forked(_append_and_count, items, 3) == 3
        assert run_forked(_append_and_count, items, 4) == 3
        assert items == [1, 2]

    def test_child_exception_is_raised_in_the_parent(self):
        with pytest.raises(ValueError, match="boom") as info:
            run_forked(_raise_value_error, "boom")
        assert isinstance(info.value.__cause__, ChildTraceback)
        assert "_raise_value_error" in str(info.value.__cause__)

    def test_unpicklable_exception_arrives_as_runtime_error(self):
        with pytest.raises(RuntimeError, match="_Unpicklable: one and two"):
            run_forked(_raise_unpicklable)

    def test_child_of_a_pool_worker_raises_in_the_driver(self):
        points = [SweepPoint(_fork_and_raise, dict(message=f"point {i}")) for i in range(2)]
        with pytest.raises(ValueError, match="point 0"):
            run_points(points, jobs=2)


class TestFig19SharedPreload:
    """fig19 preloads each (system, state) once and runs every YCSB workload
    in a forked child: its rows must equal one fresh preload per workload.
    A above F makes the check bite: F run after A in the same process (no
    fork) reads A's updates and its row moves."""

    KEYS = 17_000  # one memtable flush: lookups reach an SST
    WORKLOADS = ("A", "F")
    CASES = [(system, degraded) for system in ("SPDK", "dRAID") for degraded in (False, True)]

    @pytest.fixture(scope="class")
    def shared(self):
        return {
            case: app_figures._lsm_rows(*case, self.WORKLOADS, True, keys=self.KEYS)
            for case in self.CASES
        }

    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{'degraded' if c[1] else 'normal'}")
    def test_shared_preload_equals_fresh_preloads(self, shared, case):
        fresh = [
            app_figures._lsm_rows(*case, (workload,), True, keys=self.KEYS)[0]
            for workload in self.WORKLOADS
        ]
        assert shared[case] == fresh

    def test_pool_workers_give_the_serial_rows(self, shared):
        points = [
            SweepPoint(
                app_figures._lsm_rows,
                dict(system=system, degraded=degraded, workloads=self.WORKLOADS,
                     fast=True, keys=self.KEYS),
            )
            for system, degraded in self.CASES
        ]
        assert run_points(points, jobs=2) == [shared[case] for case in self.CASES]

    def test_rows_keep_the_workload_then_system_order(self, monkeypatch):
        def rows(system, degraded, workloads, fast):
            return [Row(x=workload, system=system, metrics={}) for workload in workloads]

        monkeypatch.setattr(app_figures, "_lsm_rows", rows)
        got = app_figures.lsm_ycsb(workloads=("A", "B", "C"), jobs=1)
        assert [(row.x, row.system) for row in got] == [
            (w, s) for w in ("A", "B", "C") for s in ("SPDK", "dRAID")
        ]


class TestResolveJobs:
    def test_explicit_wins(self):
        with mock.patch.dict(os.environ, {JOBS_ENV_VAR: "7"}):
            assert resolve_jobs(3) == 3

    def test_env_var(self):
        with mock.patch.dict(os.environ, {JOBS_ENV_VAR: "5"}):
            assert resolve_jobs() == 5

    def test_default_is_cpu_count(self):
        with mock.patch.dict(os.environ, {}, clear=False):
            os.environ.pop(JOBS_ENV_VAR, None)
            assert resolve_jobs() == (os.cpu_count() or 1)

    def test_capped_by_point_count(self):
        assert resolve_jobs(16, num_points=3) == 3

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)
        with mock.patch.dict(os.environ, {JOBS_ENV_VAR: "banana"}):
            with pytest.raises(ValueError):
                resolve_jobs()


class TestSweepDeterminism:
    """REPRO_JOBS=1 and REPRO_JOBS=4 must produce identical Row lists."""

    def _assert_rows_identical(self, serial, parallel):
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert a.x == b.x
            assert a.system == b.system
            assert set(a.metrics) == set(b.metrics)
            for key in a.metrics:
                # bit-for-bit, not approx: parallelism must be exact
                assert a.metrics[key] == b.metrics[key], (a.x, a.system, key)

    def test_io_size_sweep_parallel_identical(self):
        kwargs = dict(
            level=RaidLevel.RAID5,
            read_fraction=0.0,
            sizes_kb=[4, 128],
            servers=4,
            systems=("SPDK", "dRAID"),
            fast=True,
        )
        serial = fio_figures.sweep_io_size(jobs=1, **kwargs)
        parallel = fio_figures.sweep_io_size(jobs=4, **kwargs)
        self._assert_rows_identical(serial, parallel)

    def test_read_ratio_sweep_parallel_identical(self):
        kwargs = dict(
            level=RaidLevel.RAID5,
            ratios=[0.0, 1.0],
            systems=("dRAID",),
            fast=True,
        )
        serial = fio_figures.sweep_read_ratio(jobs=1, **kwargs)
        parallel = fio_figures.sweep_read_ratio(jobs=4, **kwargs)
        self._assert_rows_identical(serial, parallel)

    def test_jobs_env_var_drives_sweeps(self):
        kwargs = dict(
            level=RaidLevel.RAID5,
            ratios=[1.0],
            systems=("dRAID",),
            fast=True,
        )
        with mock.patch.dict(os.environ, {JOBS_ENV_VAR: "2"}):
            via_env = fio_figures.sweep_read_ratio(**kwargs)
        explicit = fio_figures.sweep_read_ratio(jobs=1, **kwargs)
        self._assert_rows_identical(explicit, via_env)


class TestSeedStability:
    def test_fio_point_two_serial_runs_match_exactly(self):
        kwargs = dict(servers=4, queue_depth=8, fast=True, seed=1234)
        a = fio_point("dRAID", **kwargs)
        b = fio_point("dRAID", **kwargs)
        assert a.bandwidth_mb_s == b.bandwidth_mb_s
        assert a.iops == b.iops
        assert a.ops_completed == b.ops_completed
        assert a.measured_ns == b.measured_ns
        assert a.latency == b.latency

    def test_different_seeds_differ(self):
        kwargs = dict(servers=4, queue_depth=8, fast=True)
        a = fio_point("dRAID", seed=1, **kwargs)
        b = fio_point("dRAID", seed=2, **kwargs)
        # same workload shape, different offsets: latencies should differ
        assert a.latency != b.latency
