"""Open-loop traffic against a RAID array (overload experiments).

Closed-loop generators (:class:`~repro.workloads.fio.FioWorkload`) are
self-clocking: when the array slows down the workers slow down with it, so
offered load collapses to match capacity and overload never materialises.
The open-loop generator instead fires arrivals from a clock that does not
listen to the array — a seeded Poisson process, or a bursty on/off
modulation of one — which is what datacenter frontends look like and what
makes goodput collapse observable.

Every arrival is fire-and-forget
(:class:`~repro.workloads.issue.FireAndForget`): a fresh process issues
one read or write and records its outcome; the arrival clock never
waits.  ``goodput`` counts only bytes whose I/O completed *within its
latency budget* during the measurement window — work the array finished
but delivered late counts toward throughput, not goodput.  Typed
overload rejections (:class:`~repro.qos.errors.Busy`,
:class:`~repro.qos.errors.DeadlineExceeded`) are tallied separately from
ordinary terminal I/O errors.

When a budget is set the generator stamps each I/O with an absolute
deadline (arrival time + budget).  Whether it becomes a wire deadline is
the device's decision: an overload-armed array sheds late work, an
unarmed one ignores it — the generator itself never perturbs a disarmed
run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.metrics.latency import LatencyRecorder, LatencySummary
from repro.sim.core import Event
from repro.workloads.issue import BlockStream, FireAndForget
from repro.workloads.window import run_windows

MB = 1_000_000
NS_PER_S = 1_000_000_000


@dataclass(frozen=True)
class OpenLoopResult:
    """Outcome of one open-loop measurement window."""

    offered_mb_s: float
    throughput_mb_s: float
    goodput_mb_s: float
    ops_offered: int
    ops_completed: int
    ops_good: int
    #: typed queue-full fast-rejects (admission gate or target queue)
    busy_rejections: int
    #: typed deadline failures (budget spent before completion)
    deadline_failures: int
    #: ordinary terminal I/O errors (retry budget / §5.4 exhaustion)
    io_errors: int
    #: I/Os that completed, but after their latency budget
    late_completions: int
    latency: LatencySummary
    measured_ns: int

    @property
    def goodput_fraction(self) -> float:
        """Goodput as a fraction of offered load (1.0 = nothing lost)."""
        if self.ops_offered == 0:
            return 0.0
        return self.ops_good / self.ops_offered


class OpenLoopWorkload(BlockStream, FireAndForget):
    """Fire-and-forget arrival generator with per-I/O latency budgets.

    ``rate_iops`` is the *offered* arrival rate; ``arrival`` selects the
    clock: ``"poisson"`` (memoryless), ``"bursty"`` (an on/off Poisson
    whose on-phase runs at ``burst_factor`` times the mean rate for
    ``burst_duty`` of every ``burst_period_ns``, with the off-phase scaled
    to preserve the mean), or ``"diurnal"`` (a sinusoidal modulation of the
    Poisson rate — period ``diurnal_period_ns``, peak-to-mean ratio
    ``1 + diurnal_amplitude`` — the shape of a frontend's day/night cycle
    compressed onto the sim clock).
    """

    def __init__(
        self,
        array,
        io_size: int,
        rate_iops: float,
        read_fraction: float = 1.0,
        capacity: Optional[int] = None,
        seed: int = 4321,
        deadline_ns: Optional[int] = None,
        arrival: str = "poisson",
        burst_factor: float = 4.0,
        burst_period_ns: int = 2_000_000,
        burst_duty: float = 0.25,
        diurnal_period_ns: int = 20_000_000,
        diurnal_amplitude: float = 0.5,
    ) -> None:
        BlockStream.__init__(self, array, io_size, read_fraction, capacity, seed)
        if rate_iops <= 0:
            raise ValueError(f"rate_iops must be positive, got {rate_iops}")
        if arrival not in ("poisson", "bursty", "diurnal"):
            raise ValueError(f"unknown arrival process: {arrival!r}")
        if arrival == "bursty":
            if burst_factor < 1.0:
                raise ValueError(f"burst_factor must be >= 1, got {burst_factor}")
            if not 0.0 < burst_duty < 1.0:
                raise ValueError(f"burst_duty out of range: {burst_duty}")
            if burst_period_ns <= 0:
                raise ValueError("burst_period_ns must be positive")
        if arrival == "diurnal":
            if not 0.0 <= diurnal_amplitude < 1.0:
                raise ValueError(
                    f"diurnal_amplitude out of range: {diurnal_amplitude}"
                )
            if diurnal_period_ns <= 0:
                raise ValueError("diurnal_period_ns must be positive")
        self.rate_iops = rate_iops
        self.deadline_ns = deadline_ns
        self.arrival = arrival
        self.burst_factor = burst_factor
        self.burst_period_ns = burst_period_ns
        self.burst_duty = burst_duty
        self.diurnal_period_ns = diurnal_period_ns
        self.diurnal_amplitude = diurnal_amplitude
        self._measuring = False
        self._zero()

    # -- arrival clock -----------------------------------------------------

    def _current_rate(self) -> float:
        """Instantaneous arrival rate (IOPS) at the current sim time."""
        if self.arrival == "poisson":
            return self.rate_iops
        if self.arrival == "diurnal":
            phase = 2.0 * math.pi * (self.env.now % self.diurnal_period_ns)
            return self.rate_iops * (
                1.0 + self.diurnal_amplitude * math.sin(phase / self.diurnal_period_ns)
            )
        pos = self.env.now % self.burst_period_ns
        if pos < self.burst_duty * self.burst_period_ns:
            return self.rate_iops * self.burst_factor
        # off-phase rate chosen so the long-run mean stays rate_iops
        off = (
            self.rate_iops
            * (1.0 - self.burst_duty * self.burst_factor)
            / (1.0 - self.burst_duty)
        )
        return max(off, 0.05 * self.rate_iops)

    def _arrivals(self, stop_event):
        rng = self._rng
        env = self.env
        arrived = None
        while not stop_event.triggered:
            rate = self._current_rate()
            gap = max(1, int(rng.expovariate(rate / NS_PER_S)))
            timer = env.timeout(gap)
            if arrived is not None:
                # Forked only now, the next arrival's timer made: no id is
                # handed out after the held start, so the run loop can take
                # it in place (*Handoff* in ``repro.sim.core``).
                env.process(self._issue(*arrived), name="openloop.io")
            yield timer
            if stop_event.triggered:
                break
            offset, is_read = self._draw()
            measured = self._measuring
            if measured:
                self.ops_offered += 1
                self._offered_bytes += self.io_size
            arrived = (offset, is_read, measured)

    # -- one fire-and-forget I/O -------------------------------------------

    def _issue(self, offset: int, is_read: bool, measured: bool):
        return self._fire(offset, self.io_size, is_read, measured, self.deadline_ns)

    def _completed(self, is_read: bool, nbytes: int, latency_ns: int) -> None:
        self.ops_completed += 1
        self._throughput_bytes += nbytes
        (self.reads if is_read else self.writes).record(latency_ns)
        if self.deadline_ns is None or latency_ns <= self.deadline_ns:
            self.ops_good += 1
            self._good_bytes += nbytes
        else:
            self.late_completions += 1

    # -- measurement window (repro.workloads.window) ----------------------

    def start(self) -> Event:
        """Spawn the arrival clock; returns the stop event ending it."""
        stop = self.env.event()
        self.env.process(self._arrivals(stop), name="openloop.clock")
        return stop

    def open_window(self) -> None:
        """Zero every counter and begin attributing arrivals to a window."""
        self._measuring = True
        self._zero()

    def _zero(self) -> None:
        self.ops_offered = self.ops_completed = self.ops_good = 0
        self._zero_rejects()
        self.late_completions = 0
        self._offered_bytes = self._throughput_bytes = self._good_bytes = 0
        self.reads = LatencyRecorder()
        self.writes = LatencyRecorder()

    def close_window(self) -> None:
        """Stop attributing new arrivals (in-flight measured I/Os still
        settle into the window's counters when they complete)."""
        self._measuring = False

    def settle_ns(self, measure_ns: int) -> int:
        """Time the window's in-flight arrivals get to finish after the
        close: half the window, or four latency budgets if longer."""
        return max(measure_ns // 2, 4 * (self.deadline_ns or 0))

    def snapshot(self, measure_ns: int) -> OpenLoopResult:
        """Freeze the current counters into an :class:`OpenLoopResult`."""
        summary = LatencyRecorder.merged(self.reads, self.writes).summarize()
        return OpenLoopResult(
            offered_mb_s=self._offered_bytes * 1e9 / measure_ns / MB,
            throughput_mb_s=self._throughput_bytes * 1e9 / measure_ns / MB,
            goodput_mb_s=self._good_bytes * 1e9 / measure_ns / MB,
            ops_offered=self.ops_offered,
            ops_completed=self.ops_completed,
            ops_good=self.ops_good,
            busy_rejections=self.busy_rejections,
            deadline_failures=self.deadline_failures,
            io_errors=self.io_errors,
            late_completions=self.late_completions,
            latency=summary,
            measured_ns=measure_ns,
        )

    def run(
        self,
        warmup_ns: int = 2_000_000,
        measure_ns: int = 20_000_000,
        drain_ns: Optional[int] = None,
    ) -> OpenLoopResult:
        """Warm up, measure for ``measure_ns``, drain, return results.

        Arrivals admitted during the window are attributed to it even when
        they complete during the drain (default :meth:`settle_ns`) — an
        open-loop window cuts on arrival time, not completion time.
        """
        return run_windows([self], [measure_ns], warmup_ns, drain_ns)[0][0]
