"""The fault-schedule harness's own tools: the shrinker, the CLI's input
checks and failure path, and the read check of the runner.

Each test drives :mod:`repro.verify.fuzz` end to end on one or a few
small schedules; the 200-seed runs live in CI, the goldens in
``tests/test_smoke.py``.
"""

import dataclasses
import types

import pytest

import repro
from repro.verify import fuzz
from repro.verify.fuzz import chaos_point, make_schedule, run_schedule, shrink_schedule


def test_shrink_leaves_exactly_the_culprit_op():
    schedule = make_schedule("draid", 7)
    assert len(schedule.ops) == 10
    culprit = schedule.ops[6]
    shrunk = shrink_schedule(schedule, lambda candidate: culprit in candidate.ops)
    assert shrunk.ops == (culprit,)
    assert dataclasses.replace(shrunk, ops=schedule.ops) == schedule


# -- the CLI -------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--seeds", "3", "--systems", ","], "--systems names no system"),
        (["--seeds", "3", "--budget-s", "0"], "--budget-s must be > 0"),
        (["--seeds", "-2"], "--seeds must be >= 1"),
        (["--seeds", "1", "--ops", "-1"], "--ops must be >= 1"),
    ],
    ids=["no-system", "zero-budget", "negative-seeds", "negative-ops"],
)
def test_bad_input_is_a_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_:
        fuzz.main(argv)
    assert exit_.value.code == 2
    assert message in capsys.readouterr().err


def test_last_line_counts_the_schedules_that_ran(monkeypatch, capsys):
    clock = iter([0.0, 0.0, 10.0])  # start, before seed 0, before seed 1
    monkeypatch.setattr(fuzz, "time", types.SimpleNamespace(monotonic=lambda: next(clock)))
    assert fuzz.main(["--seeds", "3", "--systems", "md", "--budget-s", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["# budget exhausted after 1 seeds", "# 1 schedules clean"]


def test_a_failing_schedule_leaves_one_runnable_reproducer(tmp_path, monkeypatch, capsys):
    """One schedule fails while it holds a write: ``main`` shrinks it to a
    single write, writes its reproducer and exits 1; the reproducer
    compiles and, against the real runner, replays clean."""
    real = fuzz.run_schedule

    def fails_with_a_write(schedule):
        outcome = real(schedule)
        if any(op.kind == "write" for op in schedule.ops):
            return dataclasses.replace(outcome, failure="diff", verified=False)
        return outcome

    monkeypatch.setattr(fuzz, "run_schedule", fails_with_a_write)
    assert fuzz.main(["--seeds", "1", "--systems", "md", "--out", str(tmp_path)]) == 1
    monkeypatch.undo()
    [path] = tmp_path.iterdir()
    source = path.read_text()
    assert "Shrunk reproducer (1 ops): diff." in source
    assert f"reproducer at {path}" in capsys.readouterr().out
    namespace = {}
    exec(compile(source, str(path), "exec"), namespace)
    [test] = [fn for name, fn in namespace.items() if name.startswith("test_fuzz_md_")]
    test()


# -- the runner's read check ---------------------------------------------------


@pytest.fixture
def flipped_reads(monkeypatch):
    """Every array built from here on returns reads with one byte flipped."""
    real = repro.build_testbed

    def build(*args, **kwargs):
        env, cluster, array = real(*args, **kwargs)
        read = array.read

        def flipped(offset, nbytes, *rest, **options):
            def step():
                data = (yield read(offset, nbytes, *rest, **options)).copy()
                data[0] ^= 0xFF
                return data

            return env.process(step())

        array.read = flipped
        return env, cluster, array

    monkeypatch.setattr(repro, "build_testbed", build)


@pytest.mark.parametrize(
    "run",
    [lambda: run_schedule(make_schedule("md", 1)), lambda: chaos_point("md", 1)],
    ids=["fuzz", "chaos"],
)
def test_a_read_mismatch_is_a_diff_outcome(run, flipped_reads):
    outcome = run()
    assert outcome.failure == "diff"
    assert not outcome.ok
