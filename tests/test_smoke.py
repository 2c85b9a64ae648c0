"""The smoke table: every committed ``*_smoke.golden`` is compared in full
(on every core the machine has; ``-j N`` prints the same bytes as ``-j 1``),
every named check fires by name, and the one CLI entry behaves.  Regenerate
a golden with ``python -m repro.experiments smoke <name> --write-golden``.
"""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.experiments import smoke
from repro.experiments.__main__ import main
from repro.experiments.overload import OVERLOAD_SYSTEMS
from repro.experiments.runner import JOBS_ENV_VAR
from repro.experiments.smoke import SMOKES, failed_checks, golden_path, run_smoke
from repro.metrics.report import Row

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", list(SMOKES))
def test_report_matches_committed_golden(name):
    report, failures = run_smoke(name)
    assert failures == []
    assert report == golden_path(name).read_text()


def test_serial_matches_parallel():
    assert run_smoke("chaos", jobs=1) == run_smoke("chaos", jobs=2)


# -- named checks: doctored results that violate exactly one invariant --------


RAW, PROTECTED = False, True
#: goodput (MB/s) per (arm, x) of an overload grid on which every check holds
PASSING_GOODPUT = {
    (RAW, "1x"): 100, (RAW, "2x"): 10, (RAW, "meta"): 10,
    (PROTECTED, "1x"): 100, (PROTECTED, "2x"): 95, (PROTECTED, "meta"): 90,
}


def _overload_results(arm, x, goodput):
    """The passing grid with one cell's goodput replaced, on every system."""
    table = {**PASSING_GOODPUT, (arm, x): goodput}
    return [
        dict(system=system, protected=protected, x=x, goodput_mb_s=value)
        for system in OVERLOAD_SYSTEMS
        for (protected, x), value in table.items()
    ]


def _rack_results(off=0.3, on=0.95, migrations=1, migrate_p2=150):
    return [
        dict(qos=False, victim_retention=off),
        dict(qos=True, victim_retention=on),
        dict(migrate=False, migrations=0, p2_hot_goodput_mb_s=100),
        dict(migrate=True, migrations=migrations, p2_hot_goodput_mb_s=migrate_p2),
    ]


def _availability_results(draid_losses=0):
    return [
        dict(process="correlated", system=system, loss_events=losses)
        for system, losses in (("Linux", 1), ("SPDK", 1), ("dRAID", draid_losses))
    ]


def _geometry_rows(declustered_ms=1.0, chaos_ok=1.0):
    return [
        Row("rotating/rs", "dRAID", dict(rebuild_ms=2.0, chaos_ok=1.0)),
        Row("declustered/rs", "dRAID", dict(rebuild_ms=declustered_ms, chaos_ok=chaos_ok)),
    ]


def _chaos_outcomes(**changes):
    outcomes = [point.execute() for point in SMOKES["chaos"].points[:2]]
    return [dataclasses.replace(outcomes[0], **changes), outcomes[1]]


VIOLATIONS = [
    ("chaos", "every-schedule-ok", lambda: _chaos_outcomes(verified=False)),
    ("integrity", "every-schedule-ok", lambda: _chaos_outcomes(unrecoverable=1)),
    ("fuzz", "every-schedule-ok", lambda: _chaos_outcomes(scrub_clean=False)),
    ("availability", "dRAID-loses-no-more-than-baselines",
     lambda: _availability_results(draid_losses=2)),
    ("overload", "collapse", lambda: _overload_results(RAW, "2x", 70)),
    ("overload", "retention", lambda: _overload_results(PROTECTED, "2x", 70)),
    ("overload", "metastability", lambda: _overload_results(PROTECTED, "meta", 15)),
    ("rack", "interference", lambda: _rack_results(off=0.6)),
    ("rack", "isolation", lambda: _rack_results(on=0.8)),
    ("rack", "migration-recovery", lambda: _rack_results(migrations=2)),
    ("rack", "migration-recovery", lambda: _rack_results(migrate_p2=110)),
    ("geometries", "every-schedule-ok", lambda: _geometry_rows(chaos_ok=0.0)),
    ("geometries", "declustered-rebuild-faster",
     lambda: _geometry_rows(declustered_ms=2.0)),
]


def test_every_named_check_is_exercised():
    named = {(name, check) for name, spec in SMOKES.items() for check, _ in spec.checks}
    assert named == {(name, check) for name, check, _ in VIOLATIONS}


@pytest.mark.parametrize(
    "name, check, results", VIOLATIONS, ids=[f"{n}-{c}" for n, c, _ in VIOLATIONS]
)
def test_violated_check_is_reported_by_name(name, check, results):
    failures = failed_checks(SMOKES[name], results())
    assert len(failures) == 1
    assert failures[0].startswith(f"{name}: check {check!r} failed: ")


# -- the CLI entry -------------------------------------------------------------


@pytest.fixture
def serial(monkeypatch):
    """One in-process worker, restored afterwards (``-j`` would leave
    ``REPRO_JOBS`` set for the rest of the session)."""
    monkeypatch.setenv(JOBS_ENV_VAR, "1")


def test_write_golden_round_trips(tmp_path, monkeypatch, capsys, serial):
    monkeypatch.setattr(smoke, "GOLDEN_DIR", tmp_path)
    assert main(["smoke", "fuzz", "--write-golden"]) == 0
    written = tmp_path / "fuzz_smoke.golden"
    assert written.read_text() == (ROOT / "tests/golden/fuzz_smoke.golden").read_text()
    assert main(["smoke", "fuzz", "--check"]) == 0
    written.write_text(written.read_text().replace("result=ok", "result=diff", 1))
    capsys.readouterr()
    assert main(["smoke", "fuzz", "--check"]) == 1
    assert "-" + written.read_text().splitlines()[0] in capsys.readouterr().out


def test_plain_run_prints_the_report(capsys, serial):
    assert main(["smoke", "fuzz"]) == 0
    assert capsys.readouterr().out == golden_path("fuzz").read_text()


def test_unknown_smoke_exits_2_and_lists_the_known_names(capsys):
    assert main(["smoke", "nope"]) == 2
    assert f"known: {', '.join(SMOKES)}" in capsys.readouterr().err


def test_zero_jobs_exits_2(capsys):
    assert main(["smoke", "fuzz", "-j", "0"]) == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err


def test_ci_matrix_runs_every_smoke():
    ci = (ROOT / ".github/workflows/ci.yml").read_text()
    matrix = re.search(r"^\s+name: \[([^\]]+)\]$", ci, re.MULTILINE)
    assert matrix and matrix.group(1).split(", ") == list(SMOKES)
