"""Command-line entry point: regenerate paper tables/figures.

Usage::

    python -m repro.experiments fig10            # one figure, fast windows
    python -m repro.experiments fig10 --full     # longer measurement windows
    python -m repro.experiments fig10 -j 8       # sweep points on 8 processes
    python -m repro.experiments --list           # what is available
    python -m repro.experiments --all            # everything (takes minutes)
    python -m repro.experiments --trace t.json   # export one traced I/O run
    python -m repro.experiments smoke chaos --check   # a smoke grid vs its golden

Sweep points fan out over worker processes (``-j``/``REPRO_JOBS``, default:
all cores); results are byte-identical to ``-j 1`` because every point owns
its own simulated testbed and seed.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import time

from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.runner import JOBS_ENV_VAR, resolve_jobs
from repro.metrics.report import rows_to_csv


def export_trace(path: str, system: str = "dRAID", io_size: int = 4096,
                 fast: bool = True) -> None:
    """Run one traced FIO point; print its breakdown and write the trace."""
    from repro.experiments.common import traced_fio_point
    from repro.obs import breakdown_table, chrome_trace_json, request_breakdowns

    result, obs = traced_fio_point(system, io_size=io_size, fast=fast)
    breakdowns = request_breakdowns(obs.tracer)
    print(f"{system} {io_size}B: {result.bandwidth_mb_s:.1f} MB/s, "
          f"{len(breakdowns)} traced requests")
    print(breakdown_table(breakdowns, limit=10))
    print(obs.sampler.report().render())
    pathlib.Path(path).write_text(chrome_trace_json(obs.tracer))
    print(f"trace -> {path} (load in Perfetto / chrome://tracing)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate dRAID paper tables and figures in simulation.",
    )
    parser.add_argument(
        "experiments", nargs="*",
        help="experiment ids (e.g. fig10); or `smoke NAME...` to run smoke "
             "grids (seeded mini sweeps pinned to tests/golden/*_smoke.golden)",
    )
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument(
        "--full", action="store_true",
        help="longer measurement windows (more stable numbers, slower)",
    )
    parser.add_argument(
        "--csv", metavar="DIR", default=None,
        help="also write each experiment's rows as <DIR>/<id>.csv",
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=None, metavar="N",
        help="worker processes for sweep points (default: REPRO_JOBS or all "
             "cores; 1 = serial in-process)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="smoke: diff each report against its committed golden instead "
             "of printing it (exit 1 on a mismatch)",
    )
    parser.add_argument(
        "--write-golden", action="store_true",
        help="smoke: regenerate the committed golden(s) instead of printing",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="run one observability-armed dRAID 4 KiB write point, print its "
             "critical-path breakdown and write a Perfetto-loadable Chrome "
             "trace JSON to PATH",
    )
    parser.add_argument(
        "--trace-system", default="dRAID", metavar="SYS",
        help="system for --trace (Linux, SPDK or dRAID; default dRAID)",
    )
    parser.add_argument(
        "--trace-io-size", type=int, default=4096, metavar="BYTES",
        help="I/O size in bytes for --trace (default 4096)",
    )
    args = parser.parse_args(argv)

    if args.jobs is not None:
        if args.jobs < 1:
            print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
            return 2
        # the figure runners read REPRO_JOBS at sweep time
        os.environ[JOBS_ENV_VAR] = str(args.jobs)
    else:
        try:
            resolve_jobs()  # a bad REPRO_JOBS fails here, not mid-sweep
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2

    smoke = args.experiments[:1] == ["smoke"]
    if (args.check or args.write_golden) and not smoke:
        parser.error("--check and --write-golden belong to `smoke`")
    if smoke:
        from repro.experiments.smoke import SMOKES, smoke_cli

        names = list(SMOKES) if args.all else args.experiments[1:]
        return smoke_cli(names, check=args.check, write_golden=args.write_golden)
    if args.list:
        for exp_id in EXPERIMENTS:
            print(exp_id)
        return 0
    if args.trace:
        export_trace(args.trace, system=args.trace_system,
                     io_size=args.trace_io_size, fast=not args.full)
    targets = list(EXPERIMENTS) if args.all else args.experiments
    if not targets:
        if args.trace:
            return 0
        parser.print_help()
        return 2
    unknown = [t for t in targets if t not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    for exp_id in targets:
        start = time.time()
        if args.csv:
            title, rows = EXPERIMENTS[exp_id](not args.full)
            directory = pathlib.Path(args.csv)
            directory.mkdir(parents=True, exist_ok=True)
            (directory / f"{exp_id}.csv").write_text(rows_to_csv(rows))
            print(f"{title} -> {directory / (exp_id + '.csv')}")
        else:
            print(run_experiment(exp_id, fast=not args.full))
        print(f"[{exp_id}: {time.time() - start:.1f}s]")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
