"""Geometries figure: the design-space grid of layout x code x controller.

One property-tested harness, three orthogonal axes:

* **layout** — how stripes map onto drives: the stock ``rotating``
  parity rotation (full width, dedicated replacement on rebuild) vs the
  seeded ``declustered`` organization (stripe width ``n-1``, one
  distributed spare slot per stripe);
* **code** — the parity math at equal storage overhead
  (:data:`GEOM_PARITY` parity chunks either way): ``rs`` tolerates any
  :data:`GEOM_PARITY` erasures, ``lrc`` trades global tolerance for
  cheap local repair (fewer survivors touched per reconstruction);
* **controller** — stock dRAID (``draid``, distributed partial-parity
  and peer-to-peer reconstruction) vs the stateless-target variant
  (``draid-st``, all stripe state host-side, targets are pure
  data-plane).

Every grid cell is one independent testbed: prefill the working set,
fail a drive, measure **degraded throughput and p99** under a closed-loop
read-only FIO run (every read risks the reconstruction path, the
degraded cost under test), then (foreground stopped) measure **rebuild
completion time** — :class:`~repro.raid.rebuild.SpareRebuildJob` onto the
distributed spares for the declustered layout, the stock
:class:`~repro.raid.rebuild.RebuildJob` replacement sweep for rotation.
Each cell is additionally driven through a chaos schedule of the fault
harness (:func:`~repro.verify.fuzz.chaos_schedule` with the same axes) and
reports whether the seeded fault storm verified byte-exact
(``chaos_ok``).  The headline result: declustered rebuild only touches
the ``width/n`` fraction of stripes holding the dead member and its
writes fan out across every stripe's own spare, so it completes
measurably faster than the rotating layout's funnel into one
replacement drive — the smoke golden asserts it.

Points are fully independent, so the sweep parallelizes across worker
processes (``-j``), byte-identical to serial.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro import ALIASES, ClusterConfig, build_testbed
from repro.experiments.runner import SweepPoint, run_points
from repro.metrics.report import Row

KB = 1024
MS = 1_000_000

#: the grid (>= 2 values per axis; every combination runs)
GEOM_LAYOUTS = ("rotating", "declustered")
GEOM_CODES = ("rs", "lrc")
GEOM_CONTROLLERS = ("draid", "draid-st")

GEOM_SERVERS = 8
GEOM_CHUNK = 32 * KB
#: equal storage overhead for both codes: RS(k, 3) vs LRC(k, l=2, g=1)
GEOM_PARITY = 3
GEOM_LOCAL_GROUPS = 2
GEOM_LAYOUT_SEED = 7
#: the failed member every cell rebuilds
GEOM_VICTIM = 0
GEOM_IO = 16 * KB
GEOM_QD = 16
GEOM_FIO_SEED = 42
#: seed of the chaos-harness verification storm run per cell
GEOM_CHAOS_SEED = 11


def geom_stripes(fast: bool = True) -> int:
    return 24 if fast else 64


def _prefill(array, stripes: int) -> None:
    """Deterministically fill every stripe (full-stripe writes)."""
    g = array.geometry
    rng = np.random.default_rng(GEOM_LAYOUT_SEED)
    payload = rng.integers(
        0, 256, size=stripes * g.stripe_data_bytes, dtype=np.uint8
    )

    def writer():
        for stripe in range(stripes):
            offset = stripe * g.stripe_data_bytes
            yield array.write(
                offset, g.stripe_data_bytes, payload[offset : offset + g.stripe_data_bytes]
            )

    array.env.process(writer(), name="prefill")
    array.env.run()


def geometry_point(
    layout: str, code: str, controller: str, fast: bool = True
) -> Row:
    """One grid cell: degraded FIO window, then a foreground-free rebuild."""
    from repro.raid.rebuild import RebuildJob, SpareRebuildJob
    from repro.verify.fuzz import chaos_point
    from repro.workloads import FioWorkload

    stripes = geom_stripes(fast)
    local_groups = GEOM_LOCAL_GROUPS if code == "lrc" else 1
    config = ClusterConfig(
        num_servers=GEOM_SERVERS, functional_capacity=stripes * GEOM_CHUNK
    )
    env, _, array = build_testbed(
        controller,
        chunk_bytes=GEOM_CHUNK,
        config=config,
        layout=layout,
        layout_seed=GEOM_LAYOUT_SEED,
        code=code,
        parity=GEOM_PARITY,
        local_groups=local_groups,
    )
    g = array.geometry
    _prefill(array, stripes)

    array.fail_drive(GEOM_VICTIM)
    fio = FioWorkload(
        array,
        GEOM_IO,
        read_fraction=1.0,
        queue_depth=GEOM_QD,
        capacity=stripes * g.stripe_data_bytes,
        seed=GEOM_FIO_SEED,
    )
    degraded = fio.run(warmup_ns=1 * MS, measure_ns=10 * MS if fast else 30 * MS)

    # rebuild with foreground stopped: completion time is the layout's own
    if layout == "declustered":
        job = SpareRebuildJob(array, GEOM_VICTIM, stripes)
    else:
        job = RebuildJob(array, GEOM_VICTIM, stripes)
    job.start()
    env.run()
    assert not array.failed, f"{array.name}: rebuild left {array.failed} failed"

    outcome = chaos_point(
        controller,
        seed=GEOM_CHAOS_SEED,
        drives=GEOM_SERVERS,
        stripes=12,
        ops=14,
        layout=layout,
        layout_seed=GEOM_LAYOUT_SEED,
        code=code,
        ec_parity=GEOM_PARITY,
        local_groups=local_groups,
    )

    return Row(
        x=f"{layout}/{code}",
        system=ALIASES[controller],
        metrics={
            "rebuild_ms": job.stats.elapsed_ns / 1e6,
            "degraded_mb_s": degraded.bandwidth_mb_s,
            "degraded_p99_ms": degraded.latency.p99_ns / 1e6,
            "chaos_ok": 1.0 if outcome.ok else 0.0,
        },
    )


def geometries_rows(fast: bool = True, jobs: Optional[int] = None) -> List[Row]:
    """The full grid, ranked by rebuild completion time within each x."""
    points = [
        SweepPoint(
            geometry_point,
            dict(layout=layout, code=code, controller=controller, fast=fast),
        )
        for layout in GEOM_LAYOUTS
        for code in GEOM_CODES
        for controller in GEOM_CONTROLLERS
    ]
    return run_points(points, jobs=jobs)
