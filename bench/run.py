#!/usr/bin/env python3
"""The repo benchmark: five workloads, nine end-to-end metrics, a
per-layer ledger and a traced run.

    python3 bench/run.py                      all five workloads, seed 1
    python3 bench/run.py --trace              ... plus the per-layer numbers
    python3 bench/run.py --quick --trace      smoke run: op counts / 20, 1 repeat
    python3 bench/run.py --json OUT.json      also write the full report
    python3 bench/run.py --compare A.json B.json

Driver form (one workload; the last line of stdout is one JSON object):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every (workload, repeat) is a fresh ``bench/worker.py`` process, one at a
time.  See ``bench/README.md`` for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import metrics  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"
#: fewest repeats a host-timed median is taken over
MIN_REPEATS = 3
QUICK_SCALE = 20


class CheckFailed(RuntimeError):
    """``--check`` found wrong output or a run that does not repeat."""


def spawn_worker(workload: str, seed: int, scale: int, trace: bool) -> Dict:
    """Run one repeat in a fresh interpreter and return its report."""
    command = [
        sys.executable, str(Path(__file__).with_name("worker.py")),
        "--workload", workload, "--seed", str(seed), "--scale", str(scale),
        "--trace", str(int(trace)), "--spawned-at", repr(time.time()),
    ]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and n of a host-timed sample."""
    if len(values) < 2:
        return {"value": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    # inclusive: with three or four repeats the default method extrapolates
    # the quartiles beyond the fastest and slowest repeat
    q1, _median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def check_repeats(workload: str, repeats: List[Dict]) -> None:
    """Outputs correct, simulated numbers identical across repeats, op
    count as frozen.  Raises :class:`CheckFailed`."""
    first = repeats[0]
    for other in repeats[1:]:
        for section in ("sim", "layers"):
            if other[section] != first[section]:
                differing = sorted(k for k in first[section]
                                   if first[section][k] != other[section].get(k))
                raise CheckFailed(
                    f"{workload}: {section} metrics differ between two repeats "
                    f"of the same seed: {differing}"
                )
        if other["attempted"] != first["attempted"]:
            raise CheckFailed(f"{workload}: attempted ops differ between repeats")
    frozen, attempted = first["frozen_ops"], first["attempted"]
    # (None: open loop, the arrival count follows the seed)
    if frozen is not None and attempted != frozen:
        raise CheckFailed(
            f"{workload}: attempted {attempted} ops, frozen count is {frozen}")
    if first["failed"]:
        raise CheckFailed(
            f"{workload}: {first['failed']} ops gave a wrong or failed result "
            "(typed I/O error, read-back mismatch or dirty scrub stripe)"
        )


def summarise(workload: str, repeats: List[Dict], traced: Optional[Dict]) -> Dict:
    """Fold the repeats of one workload into its reported metrics."""
    first = repeats[0]
    end_to_end: Dict[str, Dict] = {}
    for name, unit, _better, _bound in metrics.END_TO_END:
        if name in metrics.HOST_TIMED:
            row = quartiles([r["host"][name] for r in repeats])
        else:
            row = {"value": first["sim"][name], "n": len(repeats)}
        row["unit"] = unit
        end_to_end[name] = row
    report = {
        "attempted": first["attempted"],
        "failed": first["failed"],
        "latency_samples": first["sim"]["latency_samples"],
        # not scaled to the nominal machine speed: what this machine did
        "host_calib_s": quartiles([r["host"]["host_calib_s"] for r in repeats]),
        "host_raw_us_per_op": quartiles(
            [r["host"]["host_raw_us_per_op"] for r in repeats]),
        "setup_raw_s": quartiles([r["host"]["setup_raw_s"] for r in repeats]),
        "end_to_end": end_to_end,
    }
    if traced is not None:
        report["per_layer"] = per_layer(workload, repeats, traced)
    return report


def per_layer(workload: str, repeats: List[Dict], traced: Dict) -> Dict[str, Dict]:
    """Every per-layer metric: counts and simulated values from the
    untraced repeats, the fold and isolation drivers from the traced run,
    host-timed per-system rows as medians of the untraced repeats."""
    first = repeats[0]
    values: Dict[str, float] = dict(first["layers"])
    values.update({f"{k}.self_s": v for k, v in traced["fold"]["self_s"].items()})
    values.update({f"{k}.calls": v for k, v in traced["fold"]["calls"].items()})
    values.update(traced["isolation"])
    values["trace.overhead_x"] = traced["host"]["measure_raw_s"] / statistics.median(
        r["host"]["measure_raw_s"] for r in repeats
    )
    for key in first["host"]:
        if key in metrics.HOST_TIMED_LAYERS:
            values[key] = statistics.median(r["host"][key] for r in repeats)
    out = {}
    for name, unit, _better, where in metrics.PER_LAYER:
        # 0 = not measured on this workload
        value = values.get(name, 0.0) if workload in where else 0.0
        out[name] = {"value": value, "unit": unit}
    return out


def write_trace(workload: str, traced: Dict, report: Dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}.json"
    path.write_text(json.dumps({
        "workload": workload,
        "seed": traced["seed"],
        "spans": traced["spans"],
        "fold": traced["fold"],
        "per_layer": report["per_layer"],
    }, indent=1))
    return path


def run_workloads(names: Sequence[str], seed: int, seconds: float, trace: bool,
                  scale: int, check: bool) -> Dict[str, Dict]:
    """Repeats interleaved round-robin across ``names`` (a slow spell of the
    machine spreads evenly), each workload until it has used ``seconds``
    and at least the minimum number of repeats; then the traced repeats."""
    min_repeats = 1 if scale > 1 else MIN_REPEATS
    repeats: Dict[str, List[Dict]] = {name: [] for name in names}
    spent = dict.fromkeys(names, 0.0)

    def wants_more(name: str) -> bool:
        done = len(repeats[name])
        if done < min_repeats:
            return True
        if scale > 1:
            return False
        # one more only if it is likely to end inside the budget
        return spent[name] + spent[name] / done <= seconds

    while any(wants_more(name) for name in names):
        for name in names:
            if wants_more(name):
                start = time.perf_counter()
                repeats[name].append(spawn_worker(name, seed, scale, trace=False))
                spent[name] += time.perf_counter() - start
    reports = {}
    for name in names:
        traced = spawn_worker(name, seed, scale, trace=True) if trace else None
        if check:
            check_repeats(name, repeats[name] + ([traced] if traced else []))
        reports[name] = summarise(name, repeats[name], traced)
        if traced is not None:
            write_trace(name, traced, reports[name])
    return reports


def print_report(reports: Dict[str, Dict], trace: bool) -> None:
    for workload, report in reports.items():
        print(f"== {workload}: attempted {report['attempted']} failed "
              f"{report['failed']} latency_samples {report['latency_samples']} "
              f"host_calib_s {report['host_calib_s']['value']:.4f}")
        for name, row in report["end_to_end"].items():
            print(f"  {name:<18} {row['value']:>14.6g} {row['unit']:<10} "
                  f"n={row['n']}  [{band(row)}]")
        if trace:
            for name, row in report["per_layer"].items():
                print(f"    {name:<42} {row['value']:>14.6g} {row['unit']}")


def contract_line(report: Dict, trace: bool) -> str:
    section = report["per_layer"] if trace else report["end_to_end"]
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": row["value"], "unit": row["unit"]}
                    for name, row in section.items()},
    })


def band(row: Dict) -> str:
    """Quartiles of a host-timed row; a simulated row has none."""
    return f"{row['q1']:.5g}..{row['q3']:.5g}" if "q1" in row else "exact"


def spread(row: Dict) -> float:
    return (row["q3"] - row["q1"]) / row["value"] if "q1" in row else 0.0


def compare(path_a: str, path_b: str) -> int:
    """Per workload x end-to-end metric: both medians, quartiles, the bound
    and agree / differ / unresolved."""
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    differ = 0
    print(f"{'workload':<20}{'metric':<16}{'A':>13}{'A q1..q3':>24}{'B':>13}"
          f"{'B q1..q3':>24}{'bound':>7}  verdict")
    for workload in a:
        for name, _unit, better, bound in metrics.END_TO_END:
            ra, rb = a[workload]["end_to_end"][name], b[workload]["end_to_end"][name]
            change = (rb["value"] - ra["value"]) / ra["value"]
            if max(spread(ra), spread(rb)) > bound:
                verdict = "unresolved"
            elif abs(change) > bound:
                verdict = "differ"
                differ += 1
            else:
                verdict = "agree"
            print(f"{workload:<20}{name:<16}{ra['value']:>13.6g}{band(ra):>24}"
                  f"{rb['value']:>13.6g}{band(rb):>24}{bound:>7.2f}  {verdict}"
                  f" ({change:+.2%}, {better} is better)")
        ca, cb = a[workload]["host_calib_s"], b[workload]["host_calib_s"]
        print(f"{workload:<20}{'host_calib_s':<16}{ca['value']:>13.6g}{'':>24}"
              f"{cb['value']:>13.6g}{'':>24}{'':>7}  reported only")
    return 1 if differ else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append", choices=metrics.WORKLOADS,
                        help="run only this workload (repeatable); default all five")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="host seconds of repeats per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="also run each workload once traced")
    parser.add_argument("--quick", action="store_true",
                        help=f"op counts / {QUICK_SCALE}, one repeat")
    parser.add_argument("--no-check", dest="check", action="store_false",
                        help="do not fail on wrong output or non-repeating counts")
    parser.add_argument("--json", metavar="OUT", help="write the full report here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print("bench: src/repro not found beside bench/: nothing to measure",
              file=sys.stderr)
        return 2
    names = args.workload or list(metrics.WORKLOADS)
    scale = QUICK_SCALE if args.quick else 1
    try:
        reports = run_workloads(names, args.seed, args.seconds, bool(args.trace),
                                scale, args.check)
    except CheckFailed as failure:
        print(f"bench: check failed: {failure}", file=sys.stderr)
        return 1
    print_report(reports, bool(args.trace))
    if args.json:
        Path(args.json).write_text(json.dumps({
            "seed": args.seed, "seconds": args.seconds, "scale": scale,
            "trace": bool(args.trace), "python": sys.version.split()[0],
            "cpus": os.cpu_count(), "workloads": reports,
        }, indent=1))
    if args.workload and len(names) == 1:
        print(contract_line(reports[names[0]], bool(args.trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
