"""Availability-aware recovery orchestration (§1 hot spares, §5.4, §6).

:class:`RebuildJob` sweeps one failed member's stripes in address order.
That is the right primitive but the wrong *policy* once failures overlap:
after a second failure in a RAID-6 group, the stripes that lost **two**
chunks sit at zero surviving redundancy — one more fault there is data
loss — while single-degraded stripes can still absorb a hit.  A sequential
per-drive sweep happily polishes safe stripes while the at-risk ones wait.

:class:`RecoveryOrchestrator` replaces direct ``RebuildJob`` kickoff with a
small control plane:

* **risk-ordered scheduling** — one stripe-centric scheduler rebuilds the
  stripe with the *least surviving redundancy* first (most erasures, then
  lowest index), repairing every pending member's chunk under one lock
  acquisition.  Double-degraded stripes drain before single-degraded ones.
* **hot-spare pool** — :class:`SparePool` bounds concurrent replacements;
  a rebuild waits (FIFO) for a spare before the replacement is installed.
* **SLO-paced rebuild I/O** — a periodic foreground probe read measures
  end-to-end latency; when its EWMA exceeds ``slo_p99_us`` the inter-stripe
  ``pace_ns`` doubles (up to ``max_pace_ns``), and it decays back once the
  probe drops well under the SLO — the scrubber's rate-limit pattern made
  adaptive.
* **gray-failure escalation** — with a :class:`~repro.faults.detect
  .FailSlowDetector`, the watch loop probes every member, ejects persistent
  stragglers (never past parity), and re-admits them through a full rebuild
  only once the detector's hysteresis band says they have genuinely
  recovered — no eject/re-admit flapping.

Each chunk goes through the one restore step of :mod:`repro.raid.rebuild`
(:func:`~repro.raid.rebuild.rebuild_member_stripe`), and progress lands in
the controller's ``rebuilt_stripes`` record exactly as a sequential
``RebuildJob``'s does, so foreground writes update already rebuilt chunks
in place.  Between stripes a worker takes the scrub daemon's pause
(:func:`~repro.raid.rebuild.background_pause`).

Arming an orchestrator sets ``cluster.recovery``;
:class:`~repro.faults.injector.FaultInjector` then routes ``DriveHeal``
recovery through :meth:`request_rebuild` instead of spawning a
``RebuildJob`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.nvmeof.messages import IoError
from repro.raid.rebuild import RebuildStats, background_pause, rebuild_member_stripe
from repro.sim.core import Environment, Event, _defuse_on_failure
from repro.sim.resources import CapacityResource
from repro.storage.drive import DriveFailedError

#: floor of an SLO-raised ``pace_ns`` (the first doubling from zero)
MIN_PACE_NS = 50_000
#: bytes of each SLO probe read and gray-failure member probe
PROBE_BYTES = 4096


class SparePool:
    """A bounded pool of replacement drives (FIFO allocation).

    Disaggregated deployments keep a few hot spares per failure domain,
    not one per array; concurrent rebuilds beyond the pool size must
    queue.
    """

    def __init__(self, env: Environment, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"spare pool needs >= 1 spare, got {capacity}")
        self._resource = CapacityResource(env, capacity, name="spares")
        #: cumulative spare allocations
        self.allocated = 0
        #: allocations that had to queue behind an exhausted pool
        self.waits = 0

    @property
    def capacity(self) -> int:
        return self._resource.capacity

    @property
    def in_use(self) -> int:
        return self._resource.in_use

    @property
    def available(self) -> int:
        return self._resource.capacity - self._resource.in_use

    def acquire(self):
        """Take one spare (a generator; waits FIFO when exhausted)."""
        if self.available <= 0:
            self.waits += 1
        yield self._resource.request()
        self.allocated += 1

    def release(self) -> None:
        """Return one spare to the pool."""
        self._resource.release()


@dataclass
class RecoveryStats:
    """Counters of one orchestrator: rebuild episodes, per-chunk progress,
    SLO pacing actions and gray-failure escalations."""

    rebuilds_started: int = 0
    rebuilds_completed: int = 0
    rebuilds_aborted: int = 0
    #: member-stripe chunks reconstructed
    chunks_recovered: int = 0
    #: member-stripe chunks that could not be reconstructed (beyond parity)
    chunks_unrecoverable: int = 0
    #: cumulative wall (sim) time members spent under rebuild
    rebuild_ns_total: int = 0
    gray_ejections: int = 0
    readmissions: int = 0
    probes: int = 0
    pace_increases: int = 0
    pace_decreases: int = 0
    #: pace slots where rebuild I/O yielded to foreground admission pressure
    pressure_sheds: int = 0


class RecoveryOrchestrator:
    """Risk-ordered, SLO-paced rebuild scheduling for one array.

    Construction arms the orchestrator on the array's cluster
    (``cluster.recovery``) so fault-injection heals route through it.
    ``request_rebuild`` is the one entry point; :meth:`start_watch` adds
    the autonomous mode (failure detection, gray escalation/re-admission)
    used by the availability experiment.
    """

    def __init__(
        self,
        array,
        num_stripes: int,
        spares: Optional[SparePool] = None,
        concurrency: int = 1,
        pace_ns: int = 0,
        max_pace_ns: int = 2_000_000,
        slo_p99_us: Optional[float] = None,
        probe_every: int = 8,
        detector=None,
        poll_ns: int = 500_000,
        exposure=None,
    ) -> None:
        if num_stripes < 1:
            raise ValueError(f"need >= 1 stripe, got {num_stripes}")
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        if probe_every < 1:
            raise ValueError(f"probe_every must be >= 1, got {probe_every}")
        self.array = array
        self.env: Environment = array.env
        self.num_stripes = int(num_stripes)
        self.spares = spares
        self.concurrency = int(concurrency)
        self.base_pace_ns = int(pace_ns)
        self.pace_ns = int(pace_ns)
        self.max_pace_ns = int(max_pace_ns)
        self.slo_p99_us = slo_p99_us
        self.probe_every = int(probe_every)
        self.detector = detector if detector is not None else array.failslow_detector
        self.poll_ns = int(poll_ns)
        self.exposure = exposure
        self.stats = RecoveryStats()
        #: aggregate chunk/byte counters across all orchestrated rebuilds
        self.rebuild_stats = RebuildStats()
        # stripe -> members whose chunk there still needs reconstruction
        self._stripe_pending: Dict[int, Set[int]] = {}
        # stripes a scheduler worker is currently reconstructing
        self._in_flight: Set[int] = set()
        # member -> count of stripes still pending (0 == rebuild complete)
        self._remaining: Dict[int, int] = {}
        # member -> event fired when its rebuild completes (or aborts)
        self._done: Dict[int, Event] = {}
        # member -> sim time its rebuild was admitted (duration accounting)
        self._started_at: Dict[int, int] = {}
        # members ejected for gray (fail-slow) behavior, awaiting re-admission
        self._gray: Set[int] = set()
        self._scheduler_running = False
        self._watch_proc: Optional[Event] = None
        self._watch_stop = True
        self._ewma_probe_us: Optional[float] = None
        self._since_probe = 0
        array.cluster.recovery = self

    # -- public API ------------------------------------------------------------

    def request_rebuild(self, member: int) -> Event:
        """Rebuild failed ``member``; the returned event fires on repair.

        Concurrent requests for the same member coalesce onto one rebuild.
        The event *fails* (with the underlying error) if the replacement
        itself dies mid-rebuild — a later request starts over.
        """
        return self.env.process(
            self._request(member), name=f"{self.array.name}.recover{member}"
        )

    def risk_index(self) -> Dict[int, int]:
        """Histogram ``surviving redundancy -> stripe count``.

        A RAID-6 array with one wholly-failed member reports every stripe
        at level 1; as the rebuild progresses stripes migrate back to
        level 2.  Level 0 stripes are one fault away from data loss —
        exactly the ones the scheduler drains first.
        """
        array = self.array
        parity = array.geometry.num_parity
        histogram: Dict[int, int] = {}
        for stripe in range(self.num_stripes):
            level = parity - len(array.failed_in_stripe(stripe))
            histogram[level] = histogram.get(level, 0) + 1
        return histogram

    def start_watch(self) -> Event:
        """Start the autonomous poll loop (idempotent).

        Every ``poll_ns``: probe members and feed the fail-slow detector,
        eject persistent stragglers / re-admit recovered ones through the
        hysteresis band, kick rebuilds for hard-failed members, and sample
        the exposure tracker if attached.
        """
        if self._watch_proc is not None:
            return self._watch_proc
        self._watch_stop = False
        self._watch_proc = self.env.process(
            self._watch(), name=f"{self.array.name}.recovery-watch"
        )
        return self._watch_proc

    def stop_watch(self) -> None:
        """Ask the watch loop to exit at its next tick."""
        self._watch_stop = True

    @property
    def rebuilding(self) -> bool:
        """Whether any member rebuild is currently in flight."""
        return bool(self._remaining)

    # -- admission -------------------------------------------------------------

    def _request(self, member: int):
        if member not in self.array.failed:
            return None
        result = yield self._enqueue(member)
        return result

    def _enqueue(self, member: int) -> Event:
        done = self._done.get(member)
        if done is None:
            done = self.env.event()
            # an aborted rebuild nobody awaits must not crash the kernel
            done.callbacks.append(_defuse_on_failure)
            self._done[member] = done
            self.env.process(
                self._admit(member), name=f"{self.array.name}.spare{member}"
            )
        return done

    def _admit(self, member: int):
        array = self.array
        if self.spares is not None:
            yield from self.spares.acquire()
        if member not in array.failed:
            # repaired while waiting for a spare (e.g. an explicit heal)
            if self.spares is not None:
                self.spares.release()
            done = self._done.pop(member, None)
            if done is not None and not done.triggered:
                done.succeed(None)
            return
        # install the replacement; heal() (not repair()) so it carries no
        # queued-channel, GC or fail-slow residue from its previous life
        array.drives[member].heal()
        self._started_at[member] = self.env.now
        self._remaining[member] = self.num_stripes
        for stripe in range(self.num_stripes):
            self._stripe_pending.setdefault(stripe, set()).add(member)
        array.rebuilt_stripes[member] = set()
        self.stats.rebuilds_started += 1
        self._ensure_scheduler()

    def _ensure_scheduler(self) -> None:
        if self._scheduler_running:
            return
        self._scheduler_running = True
        self.env.process(self._scheduler(), name=f"{self.array.name}.recovery")

    # -- risk-ordered scheduler ------------------------------------------------

    def _scheduler(self):
        """Run ``concurrency`` reconstruction workers until the queue drains.

        Each worker repeatedly claims the most-at-risk unclaimed stripe.
        For dRAID the per-stripe reconstruction runs on the storage peers,
        so widening the pool scales rebuild bandwidth with the array; the
        host-centric baselines funnel every surviving chunk through one
        host and saturate it instead.
        """
        try:
            workers = [
                self.env.process(
                    self._rebuild_worker(), name=f"{self.array.name}.recovery{i}"
                )
                for i in range(self.concurrency)
            ]
            yield self.env.all_of(workers)
        finally:
            self._scheduler_running = False
            if self._stripe_pending:
                # a member was admitted while the pool was draining (e.g.
                # granted a spare freed by the last completion): respawn
                self._ensure_scheduler()

    def _rebuild_worker(self):
        array = self.array
        while self._stripe_pending:
            stripe = self._next_target()
            if stripe is None:
                # every pending stripe is claimed by a sibling worker
                yield self.env.timeout(self.poll_ns)
                continue
            self._in_flight.add(stripe)
            members = sorted(self._stripe_pending.get(stripe, ()))
            yield array.locks.acquire(stripe)
            try:
                for member in members:
                    pending = self._stripe_pending.get(stripe)
                    if pending is None or member not in pending:
                        continue
                    try:
                        yield from rebuild_member_stripe(
                            array, member, stripe, stats=self.rebuild_stats
                        )
                    except (IoError, DriveFailedError) as exc:
                        if array.drives[member].failed:
                            # the replacement died: all progress is void
                            self._abort(member, exc)
                            continue
                        # reconstruction impossible (beyond parity) —
                        # skip the chunk, keep draining the rest
                        self.stats.chunks_unrecoverable += 1
                    self._mark_done(member, stripe)
            finally:
                array.locks.release(stripe)
                self._in_flight.discard(stripe)
            self._finish_completed()
            yield from self._pace()

    def _next_target(self) -> Optional[int]:
        """The unclaimed stripe with the most erasures pending
        (ties: lowest index); None when all pending stripes are claimed."""
        best = None
        best_key = None
        in_flight = self._in_flight
        for stripe, members in self._stripe_pending.items():
            if stripe in in_flight:
                continue
            key = (-len(members), stripe)
            if best_key is None or key < best_key:
                best = stripe
                best_key = key
        return best

    def _mark_done(self, member: int, stripe: int) -> None:
        pending = self._stripe_pending.get(stripe)
        if pending is not None:
            pending.discard(member)
            if not pending:
                del self._stripe_pending[stripe]
        if member in self._remaining:
            self._remaining[member] -= 1
        rebuilt = self.array.rebuilt_stripes.get(member)
        if rebuilt is not None:
            rebuilt.add(stripe)
        self.stats.chunks_recovered += 1

    def _finish_completed(self) -> None:
        array = self.array
        for member in [m for m, left in self._remaining.items() if left <= 0]:
            del self._remaining[member]
            array.repair_drive(member)
            started = self._started_at.pop(member, None)
            if started is not None:
                self.stats.rebuild_ns_total += self.env.now - started
            if self.spares is not None:
                self.spares.release()
            self.stats.rebuilds_completed += 1
            if member in self._gray:
                self._gray.discard(member)
                if self.detector is not None:
                    self.detector.note_readmit(member, self.env.now)
                self.stats.readmissions += 1
            done = self._done.pop(member, None)
            if done is not None and not done.triggered:
                done.succeed(None)

    def _abort(self, member: int, exc: BaseException) -> None:
        self._remaining.pop(member, None)
        self._started_at.pop(member, None)
        for stripe in list(self._stripe_pending):
            pending = self._stripe_pending[stripe]
            pending.discard(member)
            if not pending:
                del self._stripe_pending[stripe]
        self.array.rebuilt_stripes.pop(member, None)
        self._gray.discard(member)
        if self.spares is not None:
            self.spares.release()
        self.stats.rebuilds_aborted += 1
        done = self._done.pop(member, None)
        if done is not None and not done.triggered:
            done.fail(exc)

    # -- SLO pacing ------------------------------------------------------------

    def _pace(self):
        if self.slo_p99_us is not None:
            self._since_probe += 1
            if self._since_probe >= self.probe_every:
                self._since_probe = 0
                yield from self._probe_slo()
        if (yield from background_pause(self.array, self.pace_ns)):
            self.stats.pressure_sheds += 1

    def _probe_slo(self):
        """One foreground-path read; adapt ``pace_ns`` against the SLO."""
        start = self.env.now
        try:
            yield self.array.read(0, PROBE_BYTES)
        except (IoError, DriveFailedError):
            return
        self.stats.probes += 1
        latency_us = (self.env.now - start) / 1_000.0
        if self._ewma_probe_us is None:
            self._ewma_probe_us = latency_us
        else:
            self._ewma_probe_us = 0.3 * latency_us + 0.7 * self._ewma_probe_us
        if self._ewma_probe_us > self.slo_p99_us:
            paced = min(self.max_pace_ns, max(self.pace_ns * 2, MIN_PACE_NS))
            if paced != self.pace_ns:
                self.stats.pace_increases += 1
            self.pace_ns = paced
        elif self._ewma_probe_us < 0.5 * self.slo_p99_us and self.pace_ns > self.base_pace_ns:
            paced = max(self.base_pace_ns, self.pace_ns // 2)
            if paced < MIN_PACE_NS and paced != self.base_pace_ns:
                paced = self.base_pace_ns
            if paced != self.pace_ns:
                self.stats.pace_decreases += 1
            self.pace_ns = paced

    # -- autonomous watch loop ---------------------------------------------------

    def _watch(self):
        while not self._watch_stop:
            yield self.env.timeout(self.poll_ns)
            yield from self._watch_tick()
        self._watch_proc = None

    def _watch_tick(self):
        array = self.array
        if self.detector is not None:
            yield from self._probe_members()
            self._escalate_gray()
            self._readmit_gray()
        for member in sorted(array.failed):
            if member in self._done or member in self._remaining:
                continue
            if array.drives[member].failed:
                self._enqueue(member)
        if self.exposure is not None:
            self._sample_exposure()

    def _probe_members(self):
        """Probe every physically-alive member with a small read so the
        detector's peer medians come from one uniform sample stream —
        including ejected-but-alive (gray) members, whose fresh samples
        feed :meth:`FailSlowDetector.recovered`."""
        for member, drive in enumerate(self.array.drives):
            if drive.failed:
                continue
            start = self.env.now
            try:
                yield drive.read(0, PROBE_BYTES)
            except DriveFailedError:
                continue
            self.detector.observe(member, self.env.now - start)

    def _escalate_gray(self) -> None:
        array = self.array
        for member in range(array.geometry.num_drives):
            if member in array.failed or not self.detector.suspect(
                member, exclude=array.failed, now_ns=self.env.now
            ):
                continue
            if not array._fence(member):
                # never eject past tolerance: a slow answer beats data loss
                break
            self.detector.note_eject(member, self.env.now)
            array.fault_stats.fail_slow_ejections += 1
            self._gray.add(member)
            self.stats.gray_ejections += 1

    def _readmit_gray(self) -> None:
        array = self.array
        for member in sorted(array.failed):
            if member in self._done or member in self._remaining:
                continue
            if array.drives[member].failed:
                continue  # hard failure — the watch tick rebuilds it
            if self.detector.recovered(
                member, self.env.now, exclude=array.failed - {member}
            ):
                # writes skipped the member while it was ejected, so
                # re-admission is a rebuild, not a flag flip
                self._gray.add(member)
                self._enqueue(member)

    def _sample_exposure(self) -> None:
        array = self.array
        worst = 0
        if array.failed:
            worst = max(
                len(array.failed_in_stripe(stripe))
                for stripe in range(self.num_stripes)
            )
        self.exposure.sample(
            self.env.now, worst, len(array.failed), array.geometry.num_parity
        )
