"""Declarative sweep execution with optional process parallelism.

Every figure in the paper is a sweep of fully independent measurement
points: each point builds its own :class:`~repro.sim.Environment`, seeds its
own RNGs and never shares state with its neighbours.  That isolation makes
process-level parallelism *exact*: fanning the points out over a process
pool and reassembling the rows in submission order yields byte-identical
results to running them serially.

The pool is *warm and persistent*: the first parallel ``run_points`` call
creates it (workers pre-import the experiment stack in their initializer)
and later sweeps in the same driver run reuse it, so short sweep points no
longer pay process spawn + interpreter warm-up per sweep — the overhead
that made small ``-j`` runs slower than serial.  ``shutdown_pool()`` tears
it down (registered via ``atexit``); asking for a different worker count
recreates it at the new size.

Usage::

    points = [SweepPoint(fn, dict(x=..., system=..., ...)) for ...]
    rows = run_points(points)            # REPRO_JOBS workers (default: cores)
    rows = run_points(points, jobs=1)    # force the in-process serial path

``fn`` must be a module-level callable returning a picklable result (a
:class:`~repro.metrics.report.Row` for figure sweeps) so it can cross the
process boundary under both the ``fork`` and ``spawn`` start methods.  A
point crossing the boundary is just ``(fn reference, small kwargs dict)`` —
configs are built inside the worker, not shipped.

A point whose runs share an expensive start (fig19's preloaded store) makes
that start once and hands each run to :func:`run_forked`: a forked child of
the prepared process does the run and returns its result.  The helper works
the same on the serial path and inside a pool worker.  It needs ``os.fork``
(POSIX), as the benchmark driver does.
"""

from __future__ import annotations

import atexit
import os
import pickle
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Environment variable selecting the worker count (0/unset -> cpu count).
JOBS_ENV_VAR = "REPRO_JOBS"


@dataclass(frozen=True)
class SweepPoint:
    """One independent experiment point: ``fn(**kwargs)``."""

    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def execute(self) -> Any:
        return self.fn(**self.kwargs)


@dataclass(frozen=True)
class SweepSpec:
    """A named, declarative collection of sweep points.

    A *smoke* (one row of :data:`repro.experiments.smoke.SMOKES`) is a spec
    that also says what its results print and what they must prove:
    ``lines`` maps the result list (in point order) to the report's lines,
    and ``checks`` are named invariants — ``(name, fn)`` pairs where
    ``fn(results)`` returns ``None`` when the invariant holds and the
    reason when it does not.
    """

    name: str
    points: Tuple[SweepPoint, ...]
    lines: Optional[Callable[[List[Any]], List[str]]] = None
    checks: Tuple[Tuple[str, Callable[[List[Any]], Optional[str]]], ...] = ()

    def run(self, jobs: Optional[int] = None) -> List[Any]:
        return run_points(self.points, jobs=jobs)


def resolve_jobs(jobs: Optional[int] = None, num_points: Optional[int] = None) -> int:
    """Worker count: explicit ``jobs`` > ``REPRO_JOBS`` env > cpu count."""
    if jobs is None:
        raw = os.environ.get(JOBS_ENV_VAR, "").strip()
        if raw:
            try:
                jobs = int(raw)
            except ValueError:
                raise ValueError(f"{JOBS_ENV_VAR}={raw!r} is not an integer") from None
            if jobs < 0:
                raise ValueError(
                    f"{JOBS_ENV_VAR} must be >= 1 (or 0 for all cores), got {jobs}"
                )
        if not jobs:  # unset, empty or explicit 0: use every core
            jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if num_points is not None:
        jobs = min(jobs, max(1, num_points))
    return jobs


class ChildTraceback(Exception):
    """The traceback of an exception raised in a :func:`run_forked` child,
    chained as the ``__cause__`` of the exception re-raised in the parent."""

    def __str__(self) -> str:
        return self.args[0]


def run_forked(fn: Callable[..., Any], *args: Any) -> Any:
    """Return ``fn(*args)``, computed in a forked child of this process.

    The child starts from a copy of everything this process has built, so
    state made once serves many runs and no run can disturb the next.  Its
    result comes back pickled over a pipe, and an exception it raises is
    re-raised here (with the child's traceback as its cause).  The child
    ends with ``os._exit``: no ``atexit`` handler runs twice, and no buffer
    inherited from the parent is written twice.  A fork copies only the
    calling thread, so the child must not need a lock another thread holds:
    a simulation run takes none.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            try:
                payload = pickle.dumps((True, fn(*args)))
            except BaseException as exc:  # the parent re-raises it
                payload = _pickled_failure(exc)
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(payload)
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if not payload:
        raise ChildProcessError(f"forked child {pid} ended (status {status}) with no result")
    ok, value = pickle.loads(payload)
    if ok:
        return value
    exc, child_traceback = value
    raise exc from ChildTraceback(child_traceback)


def _pickled_failure(exc: BaseException) -> bytes:
    """``exc`` and its traceback text, pickled; a ``RuntimeError`` carrying
    its text stands in for an exception that does not survive pickling."""
    text = traceback.format_exc()
    try:
        payload = pickle.dumps((False, (exc, text)))
        pickle.loads(payload)
        return payload
    except Exception:
        return pickle.dumps((False, (RuntimeError(f"{type(exc).__name__}: {exc}"), text)))


def _execute(point: SweepPoint) -> Any:
    return point.execute()


def _warm_worker() -> None:
    """Worker initializer: pre-import the heavy experiment stack once per
    worker process so the first sweep point does not pay for it."""
    import repro.experiments.common  # noqa: F401
    import repro.metrics.report  # noqa: F401
    import repro.workloads.fio  # noqa: F401


#: The persistent pool and the worker count it was built with.
_pool: Optional[ProcessPoolExecutor] = None
_pool_jobs: int = 0


def warm_pool(jobs: Optional[int] = None) -> ProcessPoolExecutor:
    """Return the persistent worker pool, creating (or resizing) it.

    Workers are started once and reused by every subsequent parallel
    ``run_points`` call, so a driver running many sweeps pays process
    start-up and module-import cost a single time.  Requesting a different
    ``jobs`` count tears the old pool down and builds a new one.
    """
    global _pool, _pool_jobs
    jobs = resolve_jobs(jobs)
    if _pool is not None and _pool_jobs != jobs:
        shutdown_pool()
    if _pool is None:
        _pool = ProcessPoolExecutor(max_workers=jobs, initializer=_warm_worker)
        _pool_jobs = jobs
    return _pool


def shutdown_pool() -> None:
    """Tear down the persistent pool (no-op when none exists)."""
    global _pool, _pool_jobs
    if _pool is not None:
        _pool.shutdown(wait=True)
        _pool = None
        _pool_jobs = 0


atexit.register(shutdown_pool)


def run_points(points: Sequence[SweepPoint], jobs: Optional[int] = None) -> List[Any]:
    """Execute every point and return their results in submission order.

    ``jobs == 1`` (or a single point) runs in-process with no executor, so
    debuggers, profilers and coverage tools see straight-line code.  With
    more workers the points are distributed over the warm persistent pool;
    ``Executor.map`` preserves input order, and per-point isolation makes
    the assembled result list byte-identical to the serial path.
    """
    points = list(points)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(points) <= 1:
        return [point.execute() for point in points]
    pool = warm_pool(jobs)
    try:
        return list(pool.map(_execute, points, chunksize=1))
    except BrokenProcessPool:
        # A crashed worker poisons the whole pool: drop it so the next
        # call starts fresh instead of failing forever.
        shutdown_pool()
        raise
