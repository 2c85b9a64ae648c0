"""Smoke test of the benchmark itself (not part of tier-1: run with
``python -m pytest bench/tests``).

One ``--quick --trace`` run of all five workloads must print every
workload, end-to-end metric and per-layer metric that ``BENCHMARK.json``
names, with its unit; the profile fold must account for the profiled
phase; and ``--check`` must fire when a stored byte is flipped.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench import metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def quick_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--quick", "--trace", "--json", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text()), done.stdout


def test_spec_matches_the_metric_tables():
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(metrics.WORKLOADS)
    assert SPEC["end_to_end"] == metrics.spec()["end_to_end"]
    assert SPEC["per_layer"] == metrics.spec()["per_layer"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert len(SPEC["end_to_end"]) == 9 and len(SPEC["per_layer"]) == 114


def test_quick_run_prints_every_named_metric_with_its_unit(quick_report):
    report, stdout = quick_report
    for workload in SPEC["workloads"]:
        rows = report["workloads"][workload["name"]]
        assert rows["failed"] == 0
        for section in ("end_to_end", "per_layer"):
            for metric in SPEC[section]:
                row = rows[section][metric["name"]]
                assert row["unit"] == metric["unit"]
                assert isinstance(row["value"], (int, float))
                assert re.search(
                    rf"^\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}\b",
                    stdout, re.M,
                ), metric["name"]
        for metric in SPEC["end_to_end"]:
            assert rows["end_to_end"][metric["name"]]["value"] > 0


def test_per_layer_metrics_are_measured_where_the_tables_say(quick_report):
    report, _stdout = quick_report
    exact_zero_is_normal = {"count", "fraction", "s", "sim_ms", "MB/sim_s", "sim_us",
                            "ops/sim_s", "bytes/byte"}
    for name, unit, _better, where in metrics.PER_LAYER:
        for workload in metrics.WORKLOADS:
            value = report["workloads"][workload]["per_layer"][name]["value"]
            if workload not in where:
                assert value == 0, (workload, name)
            elif unit not in exact_zero_is_normal:
                assert value > 0, (workload, name)


def test_fold_accounts_for_the_profiled_phase(quick_report):
    # the quick run wrote bench/out/trace-<workload>.json
    for workload in metrics.WORKLOADS:
        trace = json.loads((ROOT / "bench" / "out" / f"trace-{workload}.json").read_text())
        profiled = next(s for s in trace["spans"] if s["name"] == "run.measure")
        folded = sum(trace["fold"]["self_s"].values())
        assert folded == pytest.approx(profiled["end"] - profiled["start"], rel=0.02)
        assert {"setup.import", "setup.build", "run.measure", "check.verify"} <= {
            s["name"] for s in trace["spans"]
        }


def test_check_fires_on_a_flipped_stored_byte():
    """Corrupt one stored byte behind the program's back: the read-back
    against the shadow model (or the scrub) must count failed ops."""
    from bench.harness import Spans
    from bench.workloads import WORKLOADS

    workload = WORKLOADS["func_recovery"]
    spans = Spans()
    state = workload.setup(seed=1, scale=20, spans=spans)
    # lrc: lazily armed store, so no CRC catches and repairs the flip on
    # the way.  No public call mutates stored bytes unrecorded, hence _data.
    bed = next(b for b in state["beds"] if b["run"].name == "lrc")
    geometry = bed["array"].geometry
    drive = bed["cluster"].drives()[geometry.data_drive(5, 0)]
    drive._data[5 * geometry.chunk_bytes] ^= 0xFF
    runs = workload.measure(state, spans)
    assert sum(r.failed for r in runs) > 0

    from bench.run import CheckFailed, check_repeats

    report = {"sim": {}, "layers": {}, "attempted": 1, "frozen_ops": 1,
              "failed": sum(r.failed for r in runs)}
    with pytest.raises(CheckFailed):
        check_repeats("func_recovery", [report])
