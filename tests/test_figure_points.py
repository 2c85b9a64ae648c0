"""Pins the sweep points every table figure runs.

For each swept figure (9-18, 20-21 and the RAID-6 twins 22-30), at fast
and at full, the figure runs with every :class:`SweepPoint` stubbed: a
point is recorded and returns an empty :class:`Row` instead of building a
testbed.  A record is the point function's qualified name and its
arguments, bound with defaults applied to the signature of the function
that consumes them (:func:`fio_point` for ``_fio_row``), so an argument
written out at its default and one left to it compare equal.  A row
function that takes no ``level`` runs RAID-5 and is recorded so.

The records live in ``tests/golden/figure_points.json``; any change to
what a figure sweeps (an x value, a system, an argument, the order)
shows up here without running one simulation.  Regenerate deliberately
with ``PYTHONPATH=src python -m tests.test_figure_points --write-golden``.
"""

import inspect
import json
import sys
from pathlib import Path

import pytest

from repro.experiments import registry
from repro.experiments.common import fio_point
from repro.experiments.runner import JOBS_ENV_VAR, SweepPoint
from repro.metrics.report import Row
from repro.raid.geometry import RaidLevel

GOLDEN = Path(__file__).parent / "golden" / "figure_points.json"
FIGURES = [f"fig{n:02d}" for n in (*range(9, 19), 20, 21, *range(22, 31))]
MODES = {"fast": True, "full": False}
#: Row functions whose keyword arguments are another function's.
CONSUMERS = {"_fio_row": fio_point}


def _plain(value):
    if isinstance(value, RaidLevel):
        return value.name
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _record(point: SweepPoint) -> list:
    name = point.fn.__qualname__
    kwargs = dict(point.kwargs)
    head = {}
    consumer = CONSUMERS.get(name, point.fn)
    if consumer is not point.fn:
        head["x"] = kwargs.pop("x")
    bound = inspect.signature(consumer).bind(**kwargs)
    bound.apply_defaults()
    args = {**head, **bound.arguments}
    args.setdefault("level", RaidLevel.RAID5)
    return [name, _plain(args)]


def figure_points(exp_id: str, fast: bool) -> list:
    """The records of every point ``exp_id`` runs, in order."""
    log = []

    def execute(point):
        log.append(_record(point))
        return Row(point.kwargs.get("x", ""), point.kwargs["system"], {})

    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(JOBS_ENV_VAR, "1")
        patch.setattr(SweepPoint, "execute", execute)
        registry.run(exp_id, fast)
    return log


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("exp_id", FIGURES)
def test_figure_points_match_golden(golden, exp_id, mode):
    assert figure_points(exp_id, MODES[mode]) == golden[exp_id][mode]


def test_golden_covers_every_figure(golden):
    assert sorted(golden) == FIGURES


if __name__ == "__main__" and "--write-golden" in sys.argv:
    lines = []
    for exp_id in FIGURES:
        modes = [
            f'  "{mode}": [\n' + ",\n".join(
                "   " + json.dumps(record) for record in figure_points(exp_id, fast)
            ) + "\n  ]"
            for mode, fast in MODES.items()
        ]
        lines.append(f'"{exp_id}": {{\n' + ",\n".join(modes) + "\n}")
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
