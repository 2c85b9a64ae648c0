"""The one measurement-window protocol every traffic generator speaks.

A generator (:class:`~repro.workloads.fio.FioWorkload`,
:class:`~repro.workloads.ycsb.YcsbWorkload`,
:class:`~repro.workloads.openloop.OpenLoopWorkload`) exposes:

* ``start() -> Event`` — spawn its processes; succeeding the returned
  stop event ends them;
* ``open_window()`` / ``close_window()`` — zero its window counters and
  begin / stop attributing work to the window (a closed loop counts an
  I/O when it *completes* inside the window, an open loop when it
  *arrives* there);
* ``settle_ns(measure_ns)`` — how long in-flight window work needs after
  the close before the numbers are final (0 for a closed loop);
* ``snapshot(measure_ns)`` — freeze the window's counters into a result.

:func:`run_windows` is the one driver: every ``run`` method, the
multi-tenant rack streams and any caller that needs several generators
against one clock cut their windows through it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


def run_windows(
    generators: Sequence,
    phase_ns: Sequence[int],
    warmup_ns: int,
    settle_ns: Optional[int] = None,
) -> List[List]:
    """Start ``generators``, warm up, measure each phase; results per phase.

    Every phase opens every window, runs ``measure_ns``, closes every
    window, settles (``settle_ns``, default the longest any generator
    asks for; zero runs nothing) and snapshots each generator.  After the
    last phase every generator is stopped and the clock runs 1 ns more so
    their processes see the stop.  Generators start, open, close and
    snapshot in list order; returns ``[phase][generator]`` snapshots.
    """
    if not phase_ns:
        raise ValueError("need at least one phase")
    env = generators[0].env
    stops = [generator.start() for generator in generators]
    env.run(until=env.now + warmup_ns)
    results = []
    for measure_ns in phase_ns:
        gap = settle_ns
        if gap is None:
            gap = max(generator.settle_ns(measure_ns) for generator in generators)
        for generator in generators:
            generator.open_window()
        env.run(until=env.now + measure_ns)
        for generator in generators:
            generator.close_window()
        if gap:
            env.run(until=env.now + gap)
        results.append([generator.snapshot(measure_ns) for generator in generators])
    for stop in stops:
        stop.succeed()
    env.run(until=env.now + 1)
    return results
