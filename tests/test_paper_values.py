"""Tests for the claims table and its evaluator (repro.experiments.paper_values)."""

import math
import pathlib

import pytest

from repro.experiments import paper_values as pv
from repro.experiments.registry import EXPERIMENTS, run
from repro.metrics.report import Row

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "results"


def grid(**cells):
    """``grid(SPDK_4=1.0, ...)`` -> one bandwidth row per ``<system>_<x>``."""
    rows = []
    for key, value in cells.items():
        system, x = key.split("_")
        rows.append(Row(int(x), system, {pv.BW: value}))
    return rows


def verdict(claim, rows):
    return pv.evaluate(claim, rows).verdict


def committed_rows(exp_id):
    """A figure's rows read back from its committed table (one decimal)."""
    lines = (RESULTS / f"{exp_id}.txt").read_text().splitlines()
    metrics = lines[2].split()[2:]
    rows = []
    for line in lines[4:]:
        x, system, *values = line.split()
        rows.append(Row(int(x) if x.isdigit() else x, system,
                        dict(zip(metrics, map(float, values)))))
    return rows


class TestEvaluator:
    def test_missing_point_raises(self):
        rows = grid(SPDK_4=1.0, dRAID_4=2.0)
        for measure in (
            pv.Point(8, "dRAID"),
            pv.Point(4, "Linux"),
            pv.Point(4, "dRAID", "kiops"),
            pv.Ratio(pv.Point(4, "dRAID"), pv.Point(8, "SPDK")),
            pv.Extreme("max", "dRAID", prefix="wo-"),
        ):
            with pytest.raises(KeyError):
                pv.evaluate(pv.Claim("f", measure, lo=0.0), rows)
        with pytest.raises(KeyError):
            pv.score({"fig10": grid(SPDK_4=1.0)})

    def test_bounds_are_exclusive(self):
        rows = grid(dRAID_4=10.0)
        point = pv.Point(4, "dRAID")
        assert verdict(pv.Claim("f", point, lo=9.99), rows) == "pass"
        assert verdict(pv.Claim("f", point, lo=10.0), rows) == "FAIL"
        assert verdict(pv.Claim("f", point, hi=10.01), rows) == "pass"
        assert verdict(pv.Claim("f", point, hi=10.0), rows) == "FAIL"

    def test_two_sided_band(self):
        point = pv.Point(4, "dRAID")
        band = pv.Claim("f", point, lo=5.0, hi=15.0)
        assert verdict(band, grid(dRAID_4=10.0)) == "pass"
        assert verdict(band, grid(dRAID_4=4.0)) == "FAIL"
        assert verdict(band, grid(dRAID_4=16.0)) == "FAIL"

    def test_ratio_and_extreme(self):
        rows = grid(SPDK_4=2.0, dRAID_4=3.0, SPDK_8=4.0, dRAID_8=9.0)
        ratio = pv.Ratio(pv.Point(8, "dRAID"), pv.Point(8, "SPDK"))
        assert pv.evaluate(pv.Claim("f", ratio), rows).measured == pytest.approx(2.25)
        assert verdict(pv.Claim("f", ratio, lo=2.2), rows) == "pass"
        assert verdict(pv.Claim("f", ratio, lo=2.3), rows) == "FAIL"
        assert pv.Extreme("max", "dRAID").value(rows) == 9.0
        assert pv.Extreme("min", "dRAID").value(rows) == 3.0
        assert pv.Extreme("min", "dRAID", skip=1).value(rows) == 9.0

    def test_extreme_skips_rows_without_its_metric(self):
        # the tenancy figure's row mix: a system's rows do not all carry
        # every metric, and a committed table's empty cell reads back as nan
        for noisy in ({"victim_retention": 1.0}, {"hot_goodput_mb_s": float("nan")}):
            rows = [Row("noisy-neighbor", "dRAID-migrate", noisy),
                    Row("hotspot-p2", "dRAID-migrate", {"hot_goodput_mb_s": 5.0})]
            for fn in ("max", "min"):
                assert pv.Extreme(fn, "dRAID-migrate", metric="hot_goodput_mb_s").value(rows) == 5.0
            with pytest.raises(KeyError):
                pv.Point("noisy-neighbor", "dRAID-migrate", "hot_goodput_mb_s").value(rows)

    def test_zero_denominator_fails_the_claim(self):
        # a baseline that loses nothing: 0 / 0 and 1 / 0 fail either bound
        for num in (0.0, 1.0):
            rows = grid(SPDK_4=0.0, dRAID_4=num)
            ratio = pv.Ratio(pv.Point(4, "dRAID"), pv.Point(4, "SPDK"))
            for claim in (pv.Claim("f", ratio, hi=1.0), pv.Claim("f", ratio, lo=1.0, paper=2.0)):
                scored = pv.evaluate(claim, rows)
                assert scored.verdict == "FAIL" and math.isnan(scored.measured)
                assert scored.error is None
            failed = pv.score({"f": rows}, (pv.Claim("f", ratio, hi=1.0),)).failed
            assert [row.claim.measure for row in failed] == [ratio]

    def test_swapping_two_systems_fails(self):
        claim = pv.Claim("f", pv.Ratio(pv.Point(4, "dRAID"), pv.Point(4, "SPDK")), lo=1.5)
        assert verdict(claim, grid(SPDK_4=1.0, dRAID_4=2.0)) == "pass"
        assert verdict(claim, grid(SPDK_4=2.0, dRAID_4=1.0)) == "FAIL"

    def test_error_arithmetic(self):
        rows = grid(dRAID_4=11.0, dRAID_8=8.0, SPDK_4=5.0)
        claims = (
            pv.Claim("a", pv.Point(4, "dRAID"), paper=10.0),  # error 0.1
            pv.Claim("a", pv.Point(8, "dRAID"), paper=10.0),  # error 0.2
            pv.Claim("a", pv.Point(4, "SPDK"), lo=1.0),  # gated, no paper value
            pv.Claim("b", pv.Point(4, "SPDK"), paper=4.0),  # error 0.25
            pv.Claim("c", pv.Point(4, "SPDK"), hi=1.0),  # no paper value in the figure
        )
        result = pv.score({"a": rows, "b": rows, "c": rows}, claims)
        errors = [row.error for row in result.rows]
        assert errors[2] is None and errors[4] is None
        assert [errors[0], errors[1], errors[3]] == pytest.approx([0.1, 0.2, 0.25])
        assert result.figure_error["a"] == pytest.approx(0.15)
        assert result.figure_error["b"] == pytest.approx(0.25)
        assert result.figure_error["c"] is None
        assert result.mean_error == pytest.approx(0.2)
        assert [row.verdict for row in result.rows] == ["report", "report", "pass", "report", "FAIL"]
        assert [row.claim for row in result.failed] == [claims[4]]


class TestClaimsTable:
    def test_every_figure_has_a_claim_and_every_claim_a_runner(self):
        expected = ("table1", *(f"fig{n:02d}" for n in range(9, 31)))
        assert pv.FIGURES == expected
        assert pv.REPO_FIGURES == ("overload", "tenancy", "availability", "geometries",
                                   "ablation", "nvram_staging", "rebuild_throttle")
        assert {claim.figure for claim in pv.CLAIMS + pv.REPO_CLAIMS} <= set(EXPERIMENTS)

    def test_repo_claims_are_gated_and_carry_no_paper_value(self):
        assert all(claim.gated and claim.paper is None for claim in pv.REPO_CLAIMS)

    def test_every_claim_holds_on_the_committed_tables(self):
        # the figures' committed tables (the CI `figures` job keeps them
        # current), read back at one decimal; Table 1 runs in milliseconds
        rows_by_figure = {
            exp_id: committed_rows(exp_id) for exp_id in pv.FIGURES[1:] + pv.REPO_FIGURES
        }
        rows_by_figure["table1"] = run("table1")[1]
        claims = pv.CLAIMS + pv.REPO_CLAIMS
        result = pv.score(rows_by_figure, claims)
        assert len(result.rows) == len(claims)
        assert not result.failed, [str(row.claim.measure) for row in result.failed]

    def test_fidelity_report_lists_every_claim(self):
        result = pv.score({"table1": run("table1")[1]})
        lines = pv.render(result).splitlines()
        for row in result.rows:
            assert any(str(row.claim.measure) in line for line in lines)
        assert lines[-1].split()[:4] == ["all", "4", "4", "0"]


def _moved(rows, claim, value):
    """A copy of ``rows`` in which the cell ``claim`` reads (a ratio's
    numerator) makes the measure equal ``value``."""
    cell, target = claim.measure, value
    if isinstance(cell, pv.Ratio):
        cell, target = cell.num, value * cell.den.value(rows)
    moved = [Row(row.x, row.system, dict(row.metrics)) for row in rows]
    (row,) = [row for row in moved if (row.x, row.system) == (cell.x, cell.system)]
    row.metrics[cell.metric] = target
    return moved


def _repo_claim_ids():
    seen = {}
    for claim in pv.REPO_CLAIMS:
        seen[claim.figure] = seen.get(claim.figure, -1) + 1
        yield f"{claim.figure}-{seen[claim.figure]}"


@pytest.mark.parametrize("claim", pv.REPO_CLAIMS, ids=list(_repo_claim_ids()))
def test_every_repo_bound_can_fail(claim):
    """Each bound of the repository's claims, on its committed table: the
    value the measure reads, put just inside the bound, passes, and put
    just past it, fails."""
    rows = committed_rows(claim.figure)
    for bound, outward in ((claim.lo, -1), (claim.hi, 1)):
        if bound is None:
            continue
        step = 1e-6 * max(1.0, abs(bound))
        assert verdict(claim, _moved(rows, claim, bound - outward * step)) == "pass"
        assert verdict(claim, _moved(rows, claim, bound + outward * step)) == "FAIL"
