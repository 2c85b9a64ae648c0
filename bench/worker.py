"""One (workload, repeat): set up, measure, check, print one JSON object.

Started by ``bench/run.py`` as a fresh ``python`` process per repeat, so
that ``setup_s`` (interpreter start, ``import repro``, testbed build,
prime/preload) and ``peak_rss_mb`` are real.  ``--trace 1`` wraps the
measured phase in ``cProfile`` (driven from here; the program is not
touched), folds it by layer and adds the workload's isolation drivers.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench.harness import REFERENCE_NOMINAL_S, Spans, host_rows, reference_slice  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402


def run(name: str, seed: int, scale: int, trace: bool, spawned_at: float) -> dict:
    workload = WORKLOADS[name]
    spans = Spans()
    slices = [reference_slice()]
    with spans.span("setup"):
        state = workload.setup(seed, scale, spans, reference=not trace)
        # keep the collector from walking the testbed during the measured
        # phase: its pauses would be charged to whichever op they hit
        gc.collect()
        gc.freeze()
    slices.append(reference_slice())
    # interpreter start to first measured op, less the two slices; scaled
    # to the nominal machine speed (see harness.reference_slice)
    setup_raw_s = time.time() - spawned_at - sum(slices)
    setup_scale = 2 * REFERENCE_NOMINAL_S / sum(slices)
    profiler = cProfile.Profile() if trace else None
    with spans.span("run.measure"):
        if profiler is not None:
            profiler.enable()
        runs = workload.measure(state, spans)
        if profiler is not None:
            profiler.disable()
    with spans.span("check.verify"):
        sim, layers = workload.finish(state, runs, spans)
    for r in runs:
        slices += r.clock.slices
    host = {
        "setup_s": setup_raw_s * setup_scale,
        "setup_raw_s": setup_raw_s,
        **host_rows(runs),
        "host_raw_us_per_op": sum(r.clock.raw_s / r.ops for r in runs) * 1e6,
        "measure_raw_s": sum(r.clock.raw_s for r in runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "host_calib_s": statistics.median(slices),
    }
    for span_name, key in workload.host_layers.items():
        host[key] = spans.seconds(span_name) * setup_scale
    out = {
        "workload": name,
        "seed": seed,
        "attempted": sum(r.ops for r in runs),
        "frozen_ops": workload.frozen_ops(scale),
        "failed": sum(r.failed for r in runs),
        "host": host,
        "sim": sim,
        "layers": layers,
        "spans": spans.records,
    }
    if profiler is not None:
        from bench.tracing import fold_profile, isolation_drivers

        out["fold"] = fold_profile(profiler)
        out["isolation"] = isolation_drivers(name, scale)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=int, default=1,
                        help="divide every op count by this (--quick uses 20)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.time() when the orchestrator started this process")
    args = parser.parse_args()
    spawned_at = args.spawned_at if args.spawned_at is not None else time.time()
    result = run(args.workload, args.seed, args.scale, bool(args.trace), spawned_at)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
