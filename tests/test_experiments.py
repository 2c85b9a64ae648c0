"""Tests for the experiment harnesses, analysis models and the CLI."""

import pathlib

import pytest

from repro.analysis import (
    architecture_table,
    degraded_read_bound_mb_s,
    drive_bound_write_mb_s,
    nic_bound_write_mb_s,
)
from repro.analysis.table1 import ARCHITECTURES
from repro.experiments.__main__ import main as cli_main
from repro.experiments.common import build_array, fio_point, nic_goodput_mb_s
from repro.experiments.registry import EXPERIMENTS, _thin, render, run, run_experiment
from repro.metrics.report import Row, format_table


class TestAnalyticalBounds:
    def test_nic_bound_matches_paper_quotes(self):
        # §2.3: "maximum write throughput is 50 Gbps for RAID-5 and
        # 33.3 Gbps for RAID-6 with a high-end 100 Gbps RDMA NIC"
        # (stated on line rate; our model uses goodput, same ratios)
        raid5 = nic_bound_write_mb_s(num_parity=1)
        raid6 = nic_bound_write_mb_s(num_parity=2)
        assert raid5 == pytest.approx(nic_goodput_mb_s() / 2)
        assert raid6 == pytest.approx(nic_goodput_mb_s() / 3)
        assert nic_bound_write_mb_s(host_centric=False) == pytest.approx(
            nic_goodput_mb_s()
        )

    def test_drive_bound_at_paper_width(self):
        # §9.3: eight targets "can only provide roughly 5000 MB/s"
        bound = drive_bound_write_mb_s(width=8)
        assert 4500 < bound < 6000

    def test_degraded_read_bound(self):
        # §9.4: SPDK reaches 57% of normal-state read at width 8
        bound = degraded_read_bound_mb_s(width=8)
        assert bound / nic_goodput_mb_s() == pytest.approx(0.571, abs=0.01)
        assert degraded_read_bound_mb_s(width=8, host_centric=False) == pytest.approx(
            nic_goodput_mb_s()
        )

    def test_architecture_table_renders(self):
        table = architecture_table()
        for arch in ARCHITECTURES.values():
            assert arch.name in table
        assert "1-4x" in table and "Nx" in table


class TestHarness:
    def test_build_array_rejects_unknown_system(self):
        with pytest.raises(ValueError):
            build_array("ZFS")

    def test_fio_point_runs_quickly(self):
        result = fio_point("dRAID", servers=4, queue_depth=4, fast=True)
        assert result.bandwidth_mb_s > 0

    def test_thin_keeps_endpoints(self):
        points = [1, 2, 3, 4, 5, 6, 7, 8]
        thinned = _thin(points, fast=True)
        assert thinned[0] == 1 and thinned[-1] == 8
        assert len(thinned) < len(points)
        assert _thin(points, fast=False) == points
        assert _thin([1, 2, 3], fast=True) == [1, 2, 3]

    def test_registry_covers_every_table_and_figure(self):
        expected = (
            {
                "table1",
                "availability",
                "reliability",
                "integrity",
                "obs",
                "overload",
                "tenancy",
                "geometries",
                "ablation",
                "nvram_staging",
                "rebuild_throttle",
                "fidelity",
            }
            | {f"fig{i:02d}" for i in range(9, 31)}
        )
        assert set(EXPERIMENTS) == expected

    def test_run_experiment_unknown_id(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_table1_experiment_renders(self):
        out = run_experiment("table1")
        assert "dRAID" in out and "Distributed" in out

    def test_table1_rows_are_measured(self):
        title, rows = run("table1")
        # host-NIC counters: host-centric RMW ~4x and reconstruct read ~7x,
        # dRAID ~1x for both -- never the analytical constants themselves
        assert [(row.x, row.system) for row in rows] == [
            ("Distributed", "SPDK"), ("dRAID", "dRAID")
        ]
        values = [v for row in rows for v in row.metrics.values()]
        assert values == pytest.approx([4.0, 7.0, 1.0, 1.0], abs=0.02)
        assert not set(values) & {1.0, 4.0, 7.0}
        lines = render("table1", title, rows).splitlines()
        assert lines[:2] == [title, "=" * len(title)]
        assert max(map(len, lines)) == max(map(len, architecture_table().splitlines()))

    def test_run_memo_runs_each_experiment_once(self):
        runs = {}
        first = run("table1", True, runs)
        assert run("table1", True, runs) is first and list(runs) == ["table1"]


class TestReport:
    def test_format_table_groups_metrics(self):
        rows = [
            Row("4KB", "SPDK", {"bandwidth_mb_s": 1000.0, "avg_latency_us": 50.0}),
            Row("4KB", "dRAID", {"bandwidth_mb_s": 1500.0, "avg_latency_us": 40.0}),
        ]
        text = format_table("Demo", rows, metric_order=["bandwidth_mb_s"])
        assert "Demo" in text
        assert "1500.0" in text
        assert text.index("bandwidth_mb_s") < text.index("avg_latency_us")

    def test_render_leads_with_bandwidth_latency_kiops(self):
        # the application figures (19-21) carry kiops, no bandwidth: the CLI
        # and the committed benchmarks/results tables print the same order
        rows = [Row("YCSB-A", "dRAID", {"kiops": 64.0, "avg_latency_us": 503.0,
                                        "p99_latency_us": 1594.2})]
        header = render("fig20", "t", rows).splitlines()[2].split()
        assert header == ["x", "system", "avg_latency_us", "kiops", "p99_latency_us"]
        committed = pathlib.Path(__file__).resolve().parent.parent / "benchmarks/results/fig20.txt"
        assert committed.read_text().splitlines()[2].split() == header

    def test_format_table_missing_metric_is_nan(self):
        rows = [Row(1, "a", {"x": 1.0}), Row(1, "b", {"y": 2.0})]
        text = format_table("t", rows)
        assert "nan" in text


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out and "table1" in out

    def test_unknown_experiment(self, capsys):
        assert cli_main(["fig99"]) == 2

    def test_no_args_shows_help(self, capsys):
        assert cli_main([]) == 2

    def test_runs_table1(self, capsys):
        assert cli_main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "dRAID" in out

    @pytest.mark.parametrize("value", ["x", "-1"])
    def test_bad_repro_jobs_exits_2_with_one_line(self, value, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", value)
        assert cli_main(["fig11"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "REPRO_JOBS" in captured.err


class TestCsvExport:
    def test_rows_to_csv(self):
        from repro.metrics.report import rows_to_csv

        rows = [
            Row("4KB", "SPDK", {"bandwidth_mb_s": 1000.0}),
            Row("4KB", "dRAID", {"bandwidth_mb_s": 1500.5, "iops": 12.0}),
        ]
        csv = rows_to_csv(rows)
        lines = csv.strip().split("\n")
        assert lines[0] == "x,system,bandwidth_mb_s,iops"
        assert lines[1] == "4KB,SPDK,1000.000,"
        assert lines[2] == "4KB,dRAID,1500.500,12.000"

    def test_cli_csv_output(self, tmp_path, capsys):
        assert cli_main(["table1", "--csv", str(tmp_path)]) == 0
        content = (tmp_path / "table1.csv").read_text()
        assert "write_overhead_x" in content
        assert "dRAID" in content
