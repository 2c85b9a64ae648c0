"""Smoke grids: small seeded sweeps pinned to committed goldens.

One table, :data:`SMOKES`.  A smoke is data — a
:class:`~repro.experiments.runner.SweepSpec` whose cells are
:class:`~repro.experiments.runner.SweepPoint` s over the point functions
the figures already use, plus the lines those cells print and the figure's
headline invariants as *named* checks.  :func:`run_smoke` runs any of them
through ``run_points`` (so ``-j N`` is free and prints the same bytes as
``-j 1``); the golden is ``tests/golden/<name>_smoke.golden``.  Command
line: ``python -m repro.experiments smoke <name>...|--all [--check]
[--write-golden] [-j N]``; DESIGN.md "Smoke grids" tabulates the entries.

Every cell is fully determined by its keyword arguments — fault times,
workloads, retry jitter, placement and admission decisions all key off
seeded RNGs and the sim clock — so a diff against the golden means the
datapath changed behaviour (or the golden needs a deliberate
``--write-golden``).
"""

from __future__ import annotations

import difflib
import operator
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments import availability, geometries, overload, tenancy
from repro.experiments.runner import SweepPoint, SweepSpec, resolve_jobs
from repro.faults.chaos import CHAOS_SYSTEMS, run_chaos_schedule
from repro.verify import fuzz

#: where ``<name>_smoke.golden`` lives (a source checkout: src/repro/experiments/..)
GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "golden"

Check = Callable[[List[Any]], Optional[str]]


# -- chaos / integrity / fuzz: one schedule per cell ---------------------------


def _every_schedule_ok(outcomes) -> Optional[str]:
    return "\n".join(o.row() for o in outcomes if not o.ok) or None


def _chaos_lines(outcomes) -> List[str]:
    return [line for o in outcomes for line in (o.row(), f"      {o.fault_summary}")]


def _integrity_lines(outcomes) -> List[str]:
    return [
        line
        for o in outcomes
        for line in (o.integrity_row(), f"      {o.integrity_summary}")
    ]


CHAOS = SweepSpec(
    "chaos",
    tuple(
        SweepPoint(run_chaos_schedule, dict(system=system, seed=seed))
        for seed in (1, 2, 3, 4)
        for system in CHAOS_SYSTEMS
    ),
    lines=_chaos_lines,
    checks=(("every-schedule-ok", _every_schedule_ok),),
)

#: corruption storms (bit rot, lost / torn / misdirected writes mixed into
#: the chaos plan, checksums armed); seed 105 also runs a ScrubDaemon
#: *during* the storm at a 500 us pace
INTEGRITY = SweepSpec(
    "integrity",
    tuple(
        SweepPoint(
            run_chaos_schedule,
            dict(system=system, seed=seed, corruption_events=4, scrub_pace_ns=pace),
        )
        for seed, pace in ((101, None), (102, None), (103, None), (105, 500_000))
        for system in CHAOS_SYSTEMS
    ),
    lines=_integrity_lines,
    checks=(("every-schedule-ok", _every_schedule_ok),),
)

def _fuzz_cell(i: int) -> SweepPoint:
    """Schedule ``i`` of the grid: SHA-256-derived seeds, round-robin over
    the controllers, kernel sanitizer and protocol checker armed."""
    system = fuzz.FUZZ_SYSTEMS[i % len(fuzz.FUZZ_SYSTEMS)]
    schedule = fuzz.make_schedule(system, fuzz.derive_seed(0, i))
    return SweepPoint(fuzz.run_schedule, dict(schedule=schedule))


FUZZ = SweepSpec(
    "fuzz",
    tuple(_fuzz_cell(i) for i in range(10)),
    lines=lambda outcomes: [o.row() for o in outcomes],
    checks=(("every-schedule-ok", _every_schedule_ok),),
)


# -- availability: a mini Monte Carlo durability grid --------------------------


def _availability_lines(results) -> List[str]:
    lines = [
        f"{r['process']:<12} {r['system']:<6} seed={r['seed']} "
        f"loss={r['loss_events']} "
        f"worst={r['worst_erasures']} "
        f"degraded_ms={r['degraded_ms']:.3f} "
        f"zero_ms={r['zero_redundancy_ms']:.3f} "
        f"rebuild_ms={r['rebuild_ms']:.3f} "
        f"rebuilt={r['rebuilds_completed']} "
        f"spare_waits={r['spare_waits']}"
        for r in results
    ]
    for row in availability.aggregate_rows(results):
        metrics = " ".join(
            f"{key}={value:.3f}" for key, value in sorted(row.metrics.items())
        )
        lines.append(f"agg {row.x:<12} {row.system:<6} {metrics}")
    return lines


def _draid_loses_no_more_than_baselines(results) -> Optional[str]:
    losses: Dict[str, int] = dict.fromkeys(availability.AVAIL_SYSTEMS, 0)
    for r in results:
        if r["process"] == "correlated":
            losses[r["system"]] += r["loss_events"]
    if all(losses["dRAID"] <= losses[b] for b in ("Linux", "SPDK")):
        return None
    return f"loss events under correlated storms: {losses}"


AVAILABILITY = SweepSpec(
    "availability",
    tuple(
        SweepPoint(
            availability.availability_point, dict(system=system, process=process, seed=seed)
        )
        for process in availability.AVAIL_PROCESSES
        for system in availability.AVAIL_SYSTEMS
        for seed in (1, 2)
    ),
    lines=_availability_lines,
    checks=(
        ("dRAID-loses-no-more-than-baselines", _draid_loses_no_more_than_baselines),
    ),
)


# -- overload: a mini goodput-collapse grid -------------------------------------


def _overload_lines(results) -> List[str]:
    return [
        f"{r['system']:<6} {'protected' if r['protected'] else 'raw':<9} {r['x']:<5} "
        f"offered={r['offered_mb_s']:.1f} "
        f"goodput={r['goodput_mb_s']:.1f} "
        f"frac={r['goodput_fraction']:.3f} "
        f"busy={r['busy_rejections']} "
        f"deadline={r['deadline_failures']} "
        f"late={r['late_completions']} "
        f"ioerr={r['io_errors']} "
        f"p99_us={r['p99_us']:.1f}"
        for r in results
    ]


def _goodput_bound(cell: Tuple[bool, str], relation, factor: float,
                   anchor: Tuple[bool, str]) -> Check:
    """For every controller: goodput[cell] ``relation`` factor x goodput[anchor],
    a cell being ``(protected, x)``."""

    def check(results) -> Optional[str]:
        goodput = {
            (r["system"], r["protected"], r["x"]): r["goodput_mb_s"] for r in results
        }
        broken = []
        for system in overload.OVERLOAD_SYSTEMS:
            got, bound = goodput[(system, *cell)], factor * goodput[(system, *anchor)]
            if not relation(got, bound):
                broken.append(f"{system}: {got:.0f} MB/s against a bound of {bound:.0f}")
        return "; ".join(broken) or None

    return check


RAW, PROTECTED = False, True

OVERLOAD = SweepSpec(
    "overload",
    tuple(
        SweepPoint(fn, dict(system=system, protected=protected, **kwargs))
        for system in overload.OVERLOAD_SYSTEMS
        for protected in (RAW, PROTECTED)
        for fn, kwargs in (
            (overload.overload_point, dict(multiplier=1.0)),
            (overload.overload_point, dict(multiplier=2.0)),
            (overload.metastable_point, {}),
        )
    ),
    lines=_overload_lines,
    checks=(
        # raw goodput at 2x saturation falls below 60% of goodput at saturation
        ("collapse", _goodput_bound((RAW, "2x"), operator.le, 0.6, (RAW, "1x"))),
        # the protected datapath keeps >= 80% of saturation goodput at 2x
        (
            "retention",
            _goodput_bound((PROTECTED, "2x"), operator.ge, 0.8, (PROTECTED, "1x")),
        ),
        # after the load-spike storm protected goodput is >= 2x raw goodput
        (
            "metastability",
            _goodput_bound((PROTECTED, "meta"), operator.ge, 2.0, (RAW, "meta")),
        ),
    ),
)


# -- rack: a mini multi-tenant grid (dRAID controller) -------------------------


def _rack_lines(results) -> List[str]:
    lines = []
    for r in results:
        if "qos" in r:
            lines.append(
                f"noisy   {'qos-on ' if r['qos'] else 'qos-off'} "
                f"victim_solo={r['victim_solo_mb_s']:.1f} "
                f"victim={r['victim_goodput_mb_s']:.1f} "
                f"retention={r['victim_retention']:.3f} "
                f"victim_p99_us={r['victim_p99_us']:.1f} "
                f"noisy={r['noisy_goodput_mb_s']:.1f} "
                f"busy={r['noisy_busy']} "
                f"fairness={r['fairness']:.3f}"
            )
            continue
        for phase in (1, 2):
            lines.append(
                f"hotspot {'migrate' if r['migrate'] else 'static '} p{phase} "
                f"hot={r[f'p{phase}_hot_goodput_mb_s']:.1f} "
                f"hot_p99_us={r[f'p{phase}_hot_p99_us']:.1f} "
                f"busy={r[f'p{phase}_hot_busy']} "
                f"steady={r[f'p{phase}_steady_goodput_mb_s']:.1f} "
                f"migrations={r['migrations']}"
            )
    return lines


def _interference(results) -> Optional[str]:
    retention = results[0]["victim_retention"]
    if retention > 0.5:
        return f"QoS off, yet the victim kept {retention:.3f} of its solo goodput"
    return None


def _isolation(results) -> Optional[str]:
    retention = results[1]["victim_retention"]
    if retention < 0.9:
        return f"QoS on, yet the victim kept only {retention:.3f} of its solo goodput"
    return None


def _migration_recovery(results) -> Optional[str]:
    static, migrate = results[2], results[3]
    if migrate["migrations"] != 1:
        return f"balancer migrated {migrate['migrations']} volumes, expected 1"
    static_p2, migrate_p2 = (r["p2_hot_goodput_mb_s"] for r in (static, migrate))
    if migrate_p2 < 1.2 * static_p2:
        return f"phase-2 hot goodput {migrate_p2:.0f} MB/s vs static {static_p2:.0f}"
    return None


RACK = SweepSpec(
    "rack",
    (
        SweepPoint(tenancy.noisy_point, dict(system="dRAID", qos=False)),
        SweepPoint(tenancy.noisy_point, dict(system="dRAID", qos=True)),
        SweepPoint(tenancy.hotspot_point, dict(system="dRAID", migrate=False)),
        SweepPoint(tenancy.hotspot_point, dict(system="dRAID", migrate=True)),
    ),
    lines=_rack_lines,
    checks=(
        ("interference", _interference),
        ("isolation", _isolation),
        ("migration-recovery", _migration_recovery),
    ),
)


# -- geometries: the layout x code x controller grid ---------------------------


def _geometry_lines(rows) -> List[str]:
    return [
        f"{row.x:>15s} {row.system:>8s} "
        f"rebuild_ms={row.metrics['rebuild_ms']:.3f} "
        f"degraded_mb_s={row.metrics['degraded_mb_s']:.1f} "
        f"p99_ms={row.metrics['degraded_p99_ms']:.3f} "
        f"chaos_ok={row.metrics['chaos_ok']:.0f}"
        for row in rows
    ]


def _every_cell_chaos_ok(rows) -> Optional[str]:
    return ", ".join(
        f"{row.x} {row.system}" for row in rows if row.metrics["chaos_ok"] != 1.0
    ) or None


def _declustered_rebuild_faster(rows) -> Optional[str]:
    rebuild_ms = {(row.x, row.system): row.metrics["rebuild_ms"] for row in rows}
    slower = []
    for (x, system), ms in sorted(rebuild_ms.items()):
        layout, code = x.split("/")
        if layout != "declustered":
            continue
        rotating = rebuild_ms[(f"rotating/{code}", system)]
        if not ms < rotating:
            slower.append(
                f"{code}/{system}: declustered {ms:.3f} ms, rotating {rotating:.3f} ms"
            )
    return "; ".join(slower) or None


GEOMETRIES = SweepSpec(
    "geometries",
    tuple(
        SweepPoint(
            geometries.geometry_point, dict(layout=layout, code=code, controller=controller)
        )
        for layout in geometries.GEOM_LAYOUTS
        for code in geometries.GEOM_CODES
        for controller in geometries.GEOM_CONTROLLERS
    ),
    lines=_geometry_lines,
    checks=(
        ("every-schedule-ok", _every_cell_chaos_ok),
        ("declustered-rebuild-faster", _declustered_rebuild_faster),
    ),
)


#: The smoke table, in CI-matrix order.
SMOKES: Dict[str, SweepSpec] = {
    spec.name: spec
    for spec in (CHAOS, INTEGRITY, FUZZ, AVAILABILITY, OVERLOAD, RACK, GEOMETRIES)
}


# -- the driver ---------------------------------------------------------------


def golden_path(name: str) -> Path:
    """The committed golden of smoke ``name``."""
    return GOLDEN_DIR / f"{name}_smoke.golden"


def failed_checks(spec: SweepSpec, results: List[Any]) -> List[str]:
    """``"<smoke>: check '<name>' failed: <reason>"`` per violated invariant."""
    failures = []
    for check_name, check in spec.checks:
        reason = check(results)
        if reason is not None:
            failures.append(f"{spec.name}: check {check_name!r} failed: {reason}")
    return failures


def run_smoke(name: str, jobs: Optional[int] = None) -> Tuple[str, List[str]]:
    """Run smoke ``name``; returns ``(report, failed checks)``.

    The report is what the golden holds; an empty failure list means every
    named invariant of the grid holds.
    """
    spec = SMOKES[name]
    results = spec.run(jobs=jobs)
    return "\n".join(spec.lines(results)) + "\n", failed_checks(spec, results)


def smoke_cli(names: List[str], check: bool = False, write_golden: bool = False) -> int:
    """The ``smoke`` command: print each named smoke's report, or with
    ``check`` diff it against its golden, or with ``write_golden`` replace
    the golden.  Returns the exit status (1 on a failed check or a diff)."""
    unknown = [name for name in names if name not in SMOKES]
    if unknown or not names:
        print(f"unknown smokes: {', '.join(unknown) or '(none named)'}", file=sys.stderr)
        print(f"known: {', '.join(SMOKES)}", file=sys.stderr)
        return 2
    status = 0
    for name in names:
        start = time.time()
        report, failures = run_smoke(name)
        for failure in failures:
            print(failure, file=sys.stderr)
        golden = golden_path(name)
        if failures:
            status = 1
        elif write_golden:
            golden.parent.mkdir(parents=True, exist_ok=True)
            golden.write_text(report)
            print(f"wrote {golden}")
        elif not check:
            sys.stdout.write(report)
        elif report == golden.read_text():
            print(f"{name}: == {golden.name}, checks hold "
                  f"[-j {resolve_jobs()}, {time.time() - start:.1f}s]")
        else:
            status = 1
            sys.stdout.writelines(
                difflib.unified_diff(
                    golden.read_text().splitlines(keepends=True),
                    report.splitlines(keepends=True),
                    fromfile=str(golden),
                    tofile=f"smoke {name}",
                )
            )
    return status
