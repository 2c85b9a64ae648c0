"""Host-centric parity RAID over standard NVMe-oF.

This is the common implementation behind both baselines (SPDK POC and
Linux MD).  All parity math happens on the host; every constituent I/O of
a RAID operation is a plain NVMe-oF read or write, so all bytes traverse
the host NIC:

* read-modify-write moves ``2 x (data + parity-span)`` bytes through the
  host NIC (the paper's 4x amplification for RAID-5 single-chunk writes);
* a degraded read moves ``width - 1`` chunks to the host to rebuild one.

Subclasses tune CPU-cost hooks (stripe-cache staging, lock handling) to
differentiate the two baselines.

The controller runs in *functional mode* when the underlying drives carry
real bytes: parity is then actually computed with :mod:`repro.ec` and all
reconstructions are bit-exact, which the whole-array tests verify.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.builder import Cluster
from repro.faults.backoff import BackoffPolicy
from repro.metrics.faults import FaultStats
from repro.metrics.integrity import IntegrityStats
from repro.nvmeof.initiator import RemoteBdev
from repro.nvmeof.messages import IoError
from repro.nvmeof.target import NvmeOfTarget
from repro.qos.admission import PRIORITY_BACKGROUND, PRIORITY_FOREGROUND
from repro.qos.errors import Busy, DeadlineExceeded
from repro.raid.bitmap import WriteIntentBitmap
from repro.raid.geometry import ChunkSegment, RaidGeometry, StripeExtent
from repro.raid.locks import StripeLockManager
from repro.raid.modes import WriteMode, classify_write
from repro.storage.integrity import ChecksumError
from repro.sim.core import AllOf, AnyOf, Environment, Event, Interrupt, _defuse_on_failure


@dataclass
class RaidIoStats:
    """Per-array operation counters."""

    reads: int = 0
    writes: int = 0
    degraded_reads: int = 0
    rmw_writes: int = 0
    rcw_writes: int = 0
    full_stripe_writes: int = 0
    degraded_writes: int = 0
    #: full-stripe retries after timeout/error (dRAID, §5.4)
    retries: int = 0
    #: reconstructions delegated to a remote reducer (dRAID, §6.1)
    remote_reconstructions: int = 0

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0)


class ArrayFailureError(RuntimeError):
    """More drives failed than the RAID level tolerates."""


class HostCentricRaid:
    """A parity RAID array whose controller lives entirely on the host."""

    #: CPU charged on a host core per user I/O submitted (software stack cost).
    submit_ns = 2_000
    #: Whether normal reads take the stripe lock (the SPDK POC does, §8).
    lock_reads = True
    #: Retry budget per extent operation on the resilient datapath (§5.4).
    max_retries = 3
    #: After a write attempt times out, wait ``drain_factor x timeout`` for
    #: its straggling mutations to land before fencing and retrying.
    drain_factor = 10
    #: Subclasses whose member set is not 1:1 with the cluster's servers
    #: (e.g. the §7 offloaded controller) relax the size check.
    _require_full_cluster = True

    def __init__(
        self,
        cluster: Cluster,
        geometry: RaidGeometry,
        name: str = "raid",
        timeout_ns: Optional[int] = None,
    ) -> None:
        if self._require_full_cluster and geometry.num_drives != cluster.num_servers:
            raise ValueError(
                f"geometry wants {geometry.num_drives} drives, cluster has "
                f"{cluster.num_servers} servers"
            )
        self.env: Environment = cluster.env
        self.cluster = cluster
        self.geometry = geometry
        #: the erasure code every parity computation, partial-parity forward,
        #: decode and CPU charge goes through (P+Q for RAID-5/6 geometries;
        #: the dRAID controllers accept any :class:`~repro.ec.LinearCode`)
        self.code = geometry.default_code()
        self.name = name
        self.locks = StripeLockManager(self.env)
        #: §5.4 host-failure recovery: stripes with in-flight writes
        self.bitmap = WriteIntentBitmap()
        self.stats = RaidIoStats()
        self.failed: set = set()
        #: drive -> first stripe NOT yet rebuilt (see :meth:`drive_failed`)
        self.rebuild_watermark: Dict[int, int] = {}
        #: drive -> stripes already rebuilt *out of order* (risk-prioritized
        #: recovery, :mod:`repro.raid.recovery`).  Sequential rebuilds use
        #: the contiguous watermark above; this set exists only while an
        #: out-of-order rebuild is in flight, so healthy and
        #: sequential-rebuild paths never pay the extra lookup.
        self.rebuilt_stripes: Dict[int, set] = {}
        self.functional = cluster.config.functional_capacity > 0
        #: §5.4 hardening: I/O deadline (escalates per retry attempt) and
        #: fault bookkeeping.  ``timeout_ns`` may be reassigned on the
        #: instance (tests do); everything reads it at use time.
        self.timeout_ns = (
            timeout_ns if timeout_ns is not None else cluster.config.io_timeout_ns
        )
        self.backoff = BackoffPolicy(self.timeout_ns)
        self.fault_stats = FaultStats()
        self.integrity_stats = IntegrityStats()
        self.failslow_detector = None
        self._retry_rng = random.Random(f"repro.backoff:{name}")
        self._force_resilient = False
        #: Observability (repro.obs): the cluster tracer, or None when the
        #: cluster was built without an observability config.  Every traced
        #: branch below short-circuits on this being None.
        self._tracer = None if cluster.obs is None else cluster.obs.tracer
        #: Verification (repro.verify): the cluster's Verifier hub, or None
        #: when the cluster was built without a verify config.  Every
        #: checked branch short-circuits on these being None, exactly like
        #: the tracer above.
        self._verifier = cluster.verify
        self._protocol_verifier = (
            None if cluster.verify is None else cluster.verify.protocol
        )
        #: Overload control (repro.qos): the cluster's QosControl hub, or
        #: None when the cluster was built without an overload config.
        #: Every admission/deadline/budget/breaker branch short-circuits on
        #: this being None, exactly like the tracer above.
        self.qos = cluster.qos
        if self._verifier is not None:
            self._verifier.watch_array(self)
        self._attach_transport()

    def _attach_transport(self) -> None:
        """Wire up the remote-storage transport (overridden by dRAID)."""
        qos = self.qos
        target_depth = None if qos is None else qos.config.target_queue_depth
        breaker_on = qos is not None and qos.breaker is not None
        self.targets: List[NvmeOfTarget] = []
        self.bdevs: List[RemoteBdev] = []
        for i, server in enumerate(self.cluster.servers):
            target = NvmeOfTarget(
                server, self.cluster.server_end(i), queue_depth=target_depth
            )
            target.tracer = self._tracer
            self.targets.append(target)
            bdev = RemoteBdev(
                self.cluster.host,
                self.cluster.host_end(i),
                name=f"{self.name}.bdev{i}",
            )
            bdev.tracer = self._tracer
            bdev.verifier = self._protocol_verifier
            if breaker_on:
                bdev.on_result = (
                    lambda ok, member=i: self._breaker_observe(member, ok)
                )
            self.bdevs.append(bdev)

    # -- failure management ---------------------------------------------------

    def fail_drive(self, index: int) -> None:
        """Mark a member faulty; the array enters degraded state.

        Any rebuild progress recorded for the member is invalidated: a
        drive that fails again mid-rebuild restarts from scratch — resuming
        a stale watermark would serve reads from a replacement that never
        received those stripes' content.
        """
        self.failed.add(index)
        self.rebuild_watermark.pop(index, None)
        self.rebuilt_stripes.pop(index, None)
        self.cluster.servers[index].drive.fail()
        if len(self.failed) > self.fault_tolerance:
            raise ArrayFailureError(
                f"{self.name}: {len(self.failed)} failures exceed "
                f"{self._tolerance_name()} tolerance"
            )

    def repair_drive(self, index: int) -> None:
        self.failed.discard(index)
        self.rebuild_watermark.pop(index, None)
        self.rebuilt_stripes.pop(index, None)
        self.cluster.servers[index].drive.repair()
        if self.failslow_detector is not None:
            self.failslow_detector.forget(index)

    @property
    def fault_tolerance(self) -> int:
        """Guaranteed simultaneous-failure tolerance used by every fencing
        and tolerance guard: the code's (non-MDS codes such as LRC guarantee
        less than their parity count)."""
        return self.code.fault_tolerance

    @property
    def degraded(self) -> bool:
        return bool(self.failed)

    @property
    def resilient(self) -> bool:
        """Whether the timeout/retry datapath is active.

        Armed automatically when a :class:`repro.faults.FaultInjector`
        attaches to the cluster; arrays without one keep the exact event
        sequence of the healthy paths (committed figures unchanged).
        """
        return self._force_resilient or self.cluster.fault_injection is not None

    @property
    def _guarded(self) -> bool:
        """Whether member completions may fail and need a subscriber.

        True on the resilient path (injected faults produce error
        completions) and whenever overload control is armed (bounded
        targets produce typed busy/deadline error completions even with no
        fault injector attached).
        """
        return self.resilient or self.qos is not None

    @property
    def integrity(self):
        """The cluster's :class:`~repro.storage.integrity.IntegrityStore`.

        ``None`` unless a store was attached — unarmed arrays skip every
        verification branch, keeping the seed's exact event sequence.
        """
        return self.cluster.integrity

    def drive_failed(self, drive: int, stripe: int) -> bool:
        """Whether ``drive`` should be treated as failed for ``stripe``.

        During an online rebuild (:mod:`repro.raid.rebuild`) stripes below
        the rebuild watermark have already been reconstructed onto the
        replacement, so the drive is healthy *for those stripes* while
        still failed beyond the watermark.  Risk-prioritized rebuilds
        (:mod:`repro.raid.recovery`) sweep stripes out of order and record
        them in :attr:`rebuilt_stripes` instead.
        """
        if drive not in self.failed:
            return False
        watermark = self.rebuild_watermark.get(drive)
        if watermark is not None and stripe < watermark:
            return False
        rebuilt = self.rebuilt_stripes.get(drive)
        if rebuilt is not None and stripe in rebuilt:
            return False
        return True

    def failed_in_stripe(self, stripe: int) -> set:
        """The member drives to treat as failed for ``stripe``.

        Declustered layouts narrow this to the stripe's member set: a
        failed drive that holds no chunk of ``stripe`` does not degrade
        it (the fan-out property rebuild exploits).
        """
        failed = {d for d in self.failed if self.drive_failed(d, stripe)}
        if failed and not getattr(self.geometry, "full_width", True):
            failed &= set(self.geometry.stripe_drives(stripe))
        return failed

    def _tolerance_name(self) -> str:
        """Redundancy-scheme name for error messages (level-safe)."""
        level = self.geometry.level
        if level is not None:
            return level.name
        return f"{self.fault_tolerance}-failure"

    def _stripe_members(self, stripe: int):
        """Member drives of ``stripe`` in ascending order.

        Every drive for full-width (rotating) layouts — the historical
        iteration order — and the stripe's member subset for declustered
        layouts.
        """
        if getattr(self.geometry, "full_width", True):
            return range(self.geometry.num_drives)
        return sorted(self.geometry.stripe_drives(stripe))

    # -- observability helpers (repro.obs) --------------------------------------

    def _span_wait(self, event, ctx, name, cat="compute", track="host.cpu"):
        """Yield ``event``; when tracing is armed, record a span (ns) over
        the wait.  The simulated event sequence is identical either way."""
        tracer = self._tracer
        if tracer is None or ctx is None:
            result = yield event
            return result
        t0 = self.env.now
        result = yield event
        tracer.record(ctx, name, cat, track, t0, self.env.now)
        return result

    def _lock_wait(self, stripe: int, ctx):
        """Acquire the stripe lock, recording a lock-wait span if blocked.

        Uncontended acquires complete at the same instant and record
        nothing (zero-length spans are dropped by the tracer).
        """
        tracer = self._tracer
        if tracer is None or ctx is None:
            yield self.locks.acquire(stripe, ctx)
            return
        t0 = self.env.now
        yield self.locks.acquire(stripe, ctx)
        tracer.record(
            ctx, f"stripe-{stripe}", "lock-wait", "host.locks", t0, self.env.now
        )

    def _backoff_pause(self, pause_ns: int, ctx):
        """Sleep a retry backoff, recording a backoff span when traced."""
        t0 = self.env.now
        yield self.env.timeout(pause_ns)
        if self._tracer is not None and ctx is not None:
            self._tracer.record(
                ctx, "retry-backoff", "backoff", "host.cpu", t0, self.env.now
            )

    # -- overload control (repro.qos) -------------------------------------------
    #
    # Every helper here short-circuits when ``self.qos`` is None (or the
    # relevant sub-knob is off), so unarmed arrays keep the seed's exact
    # event sequence.

    def _qos_deadline(self, deadline_ns):
        """The effective absolute deadline (ns) for a new request.

        An explicit caller deadline wins; otherwise the armed config's
        ``default_deadline_ns`` is added to *now*; otherwise None.
        """
        if deadline_ns is not None:
            return deadline_ns
        qos = self.qos
        if qos is None or qos.config.default_deadline_ns is None:
            return None
        return self.env.now + qos.config.default_deadline_ns

    def _deadline_remaining(self, deadline_ns):
        """Budget (ns) left before ``deadline_ns``; None when undeadlined."""
        if deadline_ns is None:
            return None
        return deadline_ns - self.env.now

    def _deadline_spent(self, kind: str, stripe: int):
        """Terminal abandon: the request's deadline budget is exhausted."""
        if self.qos is not None:
            self.qos.stats.deadline_exceeded += 1
        self.fault_stats.io_errors += 1
        raise DeadlineExceeded(
            f"{self.name}: {kind} on stripe {stripe} exceeded its deadline"
        )

    def _charge_retry(self, kind: str, stripe: int) -> None:
        """Spend one retry-budget token; terminal IoError when denied.

        Caps retry amplification under overload (the SRE retry-budget
        rule): when the whole array is failing, retries stop being free.
        """
        qos = self.qos
        if qos is None or qos.retry_budget is None:
            return
        if not qos.retry_budget.try_spend():
            qos.stats.retries_denied += 1
            self.fault_stats.io_errors += 1
            raise IoError(
                f"{self.name}: {kind} on stripe {stripe}: retry budget exhausted"
            )

    def _note_success(self) -> None:
        """Deposit a fractional retry token on operation success."""
        qos = self.qos
        if qos is not None and qos.retry_budget is not None:
            qos.retry_budget.note_success()

    def _admitted(self, body, priority: str):
        """Run a top-level I/O under the bounded admission queue.

        Only reached when overload control is armed; with no admission
        bound configured this is a transparent pass-through.  A refused
        admission is a typed :class:`Busy` fast-reject — no datapath work,
        no queueing.
        """
        adm = self.qos.admission
        if adm is None:
            result = yield from body
            return result
        if not adm.try_admit(priority):
            stats = self.qos.stats
            if priority == PRIORITY_BACKGROUND:
                stats.shed_background += 1
                raise Busy(f"{self.name}: background I/O shed under pressure")
            stats.busy_rejections += 1
            raise Busy(f"{self.name}: admission queue full")
        try:
            result = yield from body
        finally:
            adm.release()
        return result

    def _breaker_observe(self, member: int, ok: bool) -> None:
        """Feed one completion result into the per-member circuit breaker.

        A member whose EWMA error/timeout rate crosses the trip threshold
        is fenced (reads route around it through reconstruction) — but
        never past parity headroom: tripping the last redundant member
        would convert sickness into data loss.
        """
        breaker = self.qos.breaker
        breaker.record(member, ok)
        if ok or member in self.failed:
            return
        if len(self.failed) >= self.fault_tolerance:
            return
        if not breaker.should_trip(member, self.env.now):
            return
        breaker.note_trip(member, self.env.now)
        self.qos.stats.breaker_trips += 1
        self.failed.add(member)
        self.fault_stats.degraded_transitions += 1
        if self._verifier is not None:
            self._verifier.check_fence(self)

    # -- §5.4 resilience machinery ---------------------------------------------

    def _gather(self, events):
        """Collect the values of ``events`` in order.

        On the healthy path this yields them one by one (the seed's exact
        event sequence).  On the guarded path (resilient or overload
        control armed) it subscribes all of them at once through
        :class:`AllOf`, so an error completion on any member surfaces as
        :class:`IoError` here instead of crashing the simulation as an
        unhandled failed event.
        """
        if not self._guarded:
            results = []
            for event in events:
                results.append((yield event))
            return results
        if not events:
            return []
        outcome = yield AllOf(self.env, events)
        return [outcome[event] for event in events]

    def _subscribe_early(self, events) -> Optional[AllOf]:
        """An :class:`AllOf` over ``events``, safe to yield *later*.

        Built before an intervening CPU charge so error completions find a
        subscriber; the failure sink keeps a late error from crashing the
        simulation if the surrounding attempt is interrupted before the
        condition is ever yielded.
        """
        if not (self._guarded and events):
            return None
        gathered = AllOf(self.env, events)
        gathered.callbacks.append(_defuse_on_failure)
        return gathered

    def _check_tolerance(self, stripe: int) -> None:
        if len(self.failed_in_stripe(stripe)) > self.fault_tolerance:
            self.fault_stats.io_errors += 1
            raise IoError(
                f"{self.name}: stripe {stripe} has more failures than "
                f"{self._tolerance_name()} tolerates"
            )

    def _run_attempt(self, body, timeout_ns: int, drain: bool):
        """Run one attempt generator under a deadline.

        Returns True if the attempt succeeded.  A timed-out *write*
        attempt is given a drain window (``drain_factor x timeout``) for
        its straggling mutations to land — §5.4: a retry must never race
        the attempt it replaces — after which unresponsive members are
        fenced as prolonged failures and the attempt is abandoned.
        """
        attempt = self.env.process(body, name=f"{self.name}.attempt")
        deadline = self.env.timeout(timeout_ns)
        try:
            yield AnyOf(self.env, [attempt, deadline])
        except IoError:
            return False
        if attempt.triggered:
            return bool(attempt._ok)
        self.fault_stats.timeouts += 1
        if drain:
            drain_deadline = self.env.timeout(self.drain_factor * timeout_ns)
            try:
                yield AnyOf(self.env, [attempt, drain_deadline])
            except IoError:
                return False
            if attempt.triggered:
                return bool(attempt._ok)
            self._fence_stragglers(timeout_ns)
        if attempt.is_alive:
            attempt.interrupt("attempt timed out")
            try:
                yield attempt
            except (Interrupt, IoError):
                pass
        return False

    def _fence_stragglers(self, timeout_ns: int) -> None:
        """Fail members still holding commands after a drain window.

        Liveness is judged by completion recency, not queue depth: a busy
        member under concurrent load always has commands outstanding, but
        only a dead one stops completing them.
        """
        now = self.env.now
        fenced = 0
        for i, bdev in enumerate(self.bdevs):
            if i in self.failed or not bdev.outstanding:
                continue
            if now - bdev.last_completion_ns < timeout_ns:
                continue
            if self.qos is not None and self.qos.breaker is not None:
                # timeouts count against the member's EWMA error rate too
                self.qos.breaker.record(i, False)
            if len(self.failed) >= self.fault_tolerance:
                # fencing past redundancy converts a stall into data loss;
                # leave the member in and let the retry budget bound the op
                break
            self.failed.add(i)
            self.cluster.servers[i].drive.fail()
            fenced += 1
            self.fault_stats.prolonged_failures += 1
            self.fault_stats.degraded_transitions += 1
        if fenced and self._verifier is not None:
            # real (injected) failures may legitimately exceed parity; a
            # *fencing decision* must never be what crosses the line
            self._verifier.check_fence(self)

    def _retry_loop(
        self, make_body, stripe: int, kind: str, drain: bool, ctx=None,
        deadline_ns=None,
    ):
        """Attempt/backoff loop shared by resilient reads and pre-reads.

        With a deadline, each attempt's timeout is clamped to the
        remaining budget (cumulative attempt timeouts charge against the
        request deadline), and a spent budget is a terminal
        :class:`DeadlineExceeded` — no retry ever starts past the
        deadline.  Each retry also spends a retry-budget token when one is
        armed.
        """
        attempts = 0
        while True:
            self._check_tolerance(stripe)
            remaining = self._deadline_remaining(deadline_ns)
            if remaining is not None and remaining <= 0:
                self._deadline_spent(kind, stripe)
            timeout_ns = self.backoff.timeout_for(
                attempts, self.timeout_ns, remaining_ns=remaining
            )
            ok = yield from self._run_attempt(make_body(), timeout_ns, drain)
            if ok:
                self._note_success()
                return
            attempts += 1
            if attempts > self.max_retries:
                self.fault_stats.io_errors += 1
                raise IoError(
                    f"{self.name}: {kind} on stripe {stripe} failed after "
                    f"{attempts} attempts"
                )
            remaining = self._deadline_remaining(deadline_ns)
            if remaining is not None and remaining <= 0:
                self._deadline_spent(kind, stripe)
            self._charge_retry(kind, stripe)
            self.stats.retries += 1
            self.fault_stats.retries += 1
            pause = self.backoff.backoff_ns(attempts, self._retry_rng)
            if remaining is not None:
                pause = min(pause, remaining)
            if pause:
                yield from self._backoff_pause(pause, ctx)

    # -- end-to-end integrity: verification and read-repair ---------------------
    #
    # Active only when an IntegrityStore is attached to the cluster.
    # Checksum verification itself is charged no host CPU: production
    # T10-DIF verification runs in NIC/controller hardware on the wire
    # (DESIGN.md §10); only the parity math of an actual repair costs CPU.

    def _verify_read(self, extents, buffer, io_base: int, take_locks: bool):
        """Post-read verification: every chunk a read touched must match
        its expectation; a mismatch triggers parity read-repair and a
        re-read of the extent."""
        store = self.integrity
        drives = self.cluster.drives()
        for ext in extents:
            for _ in range(3):
                failed = self.failed_in_stripe(ext.stripe)
                seg_drives = {s.drive for s in ext.segments}
                if seg_drives & failed:
                    # a segment was reconstructed: its bytes were derived
                    # from every surviving member, so verify the whole
                    # stripe (a corrupt survivor poisons the result)
                    check = set(self._stripe_members(ext.stripe))
                else:
                    check = seg_drives
                members = sorted(check - failed)
                self.integrity_stats.chunks_verified += len(members)
                bad = store.verify_members(drives, ext.stripe, members)
                if not bad:
                    break
                self.integrity_stats.read_repairs += 1
                ok = yield from self._read_repair(
                    ext.stripe, bad, locked=not take_locks
                )
                if not ok:
                    raise ChecksumError(
                        f"{self.name}: stripe {ext.stripe} corruption on "
                        f"drives {bad} is beyond parity"
                    )
                yield from self._read_extent(ext, buffer, io_base, take_locks)
            else:
                raise ChecksumError(
                    f"{self.name}: stripe {ext.stripe} still dirty after "
                    f"repeated read-repair"
                )

    def _verify_stripe_before_write(self, ext: StripeExtent):
        """Pre-write verification (caller holds the stripe lock).

        RMW/RCW/degraded dispatch folds *old* chunk content into the new
        parity; writing over a silently-corrupt stripe would launder the
        corruption into freshly-written parity, beyond checksum reach.
        Repair the stripe first.
        """
        store = self.integrity
        drives = self.cluster.drives()
        for _ in range(3):
            failed = self.failed_in_stripe(ext.stripe)
            members = [d for d in self._stripe_members(ext.stripe) if d not in failed]
            self.integrity_stats.chunks_verified += len(members)
            bad = store.verify_members(drives, ext.stripe, members)
            if not bad:
                return
            self.integrity_stats.write_repairs += 1
            ok = yield from self._read_repair(ext.stripe, bad, locked=True)
            if not ok:
                raise ChecksumError(
                    f"{self.name}: stripe {ext.stripe} corruption on "
                    f"drives {bad} is beyond parity"
                )
        raise ChecksumError(
            f"{self.name}: stripe {ext.stripe} still dirty after repeated "
            f"pre-write repair"
        )

    def _await_repair_io(self, gathered):
        """Race a repair-I/O condition against the array's deadline.

        Repair member I/O runs outside the §5.4 retry loop, so it needs
        its own deadline: a member going silent mid-repair would otherwise
        park the repair — and the stripe lock it holds — forever.  Returns
        the outcome dict, or None on member error or expiry (fencing
        stragglers exactly like the resilient datapath does).
        """
        deadline = self.env.timeout(self.timeout_ns)
        try:
            yield AnyOf(self.env, [gathered, deadline])
        except IoError:
            return None
        if not gathered.triggered:
            self.fault_stats.timeouts += 1
            self._fence_stragglers(self.timeout_ns)
            return None
        return gathered._value

    def _read_repair(self, stripe: int, bad_drives, locked: bool = False):
        """Reconstruct checksum-bad chunks from parity and rewrite them.

        Returns True once every reported chunk verifies clean, False when
        the stripe's erasures (bad chunks + failed members) exceed parity
        or repeated repair attempts keep failing.  Detection/repair
        accounting happens here, under the stripe lock, exactly once per
        corruption episode (``store.known_bad`` dedupes).
        """
        store = self.integrity
        g = self.geometry
        chunk = g.chunk_bytes
        drives = self.cluster.drives()
        if not locked:
            yield self.locks.acquire(stripe)
        try:
            # Re-verify under the lock (a concurrent repair may have won)
            # and widen to the whole stripe: repair sources must be clean,
            # so any bad chunk the caller didn't check is repaired too.
            failed = self.failed_in_stripe(stripe)
            bad = sorted(store.verify_members(
                drives, stripe,
                (d for d in self._stripe_members(stripe) if d not in failed),
            ))
            if not bad:
                return True
            kinds_of = {d: store.bad_kinds(drives[d], stripe) for d in bad}
            for d in bad:
                key = (d, stripe)
                if key not in store.known_bad:
                    store.known_bad.add(key)
                    first = store.first_poison_ns(drives[d], stripe)
                    latency = None if first is None else self.env.now - first
                    self.integrity_stats.record_detected(kinds_of[d], latency)
            if len(set(bad) | failed) > self.fault_tolerance:
                for d in bad:
                    self.integrity_stats.record_unrecoverable(kinds_of[d])
                return False
            for _ in range(3):
                erasures = set(bad) | self.failed_in_stripe(stripe)
                if len(erasures) > self.fault_tolerance:
                    break
                sources = [
                    d for d in self._stripe_members(stripe) if d not in erasures
                ]
                reads = [
                    self.env.process(self._member_read(d, stripe * chunk, chunk))
                    for d in sources
                ]
                gathered = AllOf(self.env, reads)
                gathered.callbacks.append(_defuse_on_failure)
                outcome = yield from self._await_repair_io(gathered)
                if outcome is None:
                    continue
                blocks = [outcome[e] for e in reads]
                yield self._charge_xor(len(sources) + 1, chunk)
                if self.code.gf_pass:
                    yield self._charge_gf(len(sources), chunk)
                repaired = None
                if self.functional:
                    repaired = self._repair_stripe_blocks(
                        stripe, dict(zip(sources, blocks)), bad
                    )
                writes = [
                    self.env.process(
                        self._member_write(
                            d,
                            stripe * chunk,
                            chunk,
                            None if repaired is None else repaired[d],
                        )
                    )
                    for d in bad
                ]
                gathered = AllOf(self.env, writes)
                gathered.callbacks.append(_defuse_on_failure)
                if (yield from self._await_repair_io(gathered)) is None:
                    continue
                # re-verify: an armed corruption may have eaten the repair
                # write itself — if so, go around again
                still_bad = store.verify_members(drives, stripe, bad)
                for d in bad:
                    if d not in still_bad:
                        self.integrity_stats.record_repaired(kinds_of[d])
                if not still_bad:
                    return True
                bad = still_bad
            for d in bad:
                self.integrity_stats.record_unrecoverable(kinds_of[d])
            return False
        finally:
            if not locked:
                self.locks.release(stripe)

    def _shard_drives(self, stripe: int) -> List[int]:
        """Member drive of every shard of ``stripe`` in the code's order:
        data chunks ``0..k-1``, then the parity rows."""
        g = self.geometry
        return [
            g.data_drive(stripe, d) for d in range(g.data_per_stripe)
        ] + list(g.parity_drives(stripe))

    def _repair_members(self, stripe: int, lost_index: int) -> List[Tuple[int, int]]:
        """``(member drive, shard index)`` of every chunk the code reads to
        rebuild data chunk ``lost_index``, given ``stripe``'s failed members."""
        drives = self._shard_drives(stripe)
        failed = self.failed_in_stripe(stripe)
        erased = [i for i, drive in enumerate(drives) if drive in failed]
        return [(drives[s], s) for s in self.code.repair_sources(erased, lost_index)]

    def _repair_stripe_blocks(
        self, stripe: int, present: Dict[int, np.ndarray], bad
    ) -> Dict[int, np.ndarray]:
        """Decode replacement blocks for ``bad`` drives from ``present``
        (drive -> chunk bytes of every other member).  Functional mode."""
        shard_of = {drive: i for i, drive in enumerate(self._shard_drives(stripe))}
        shards = {shard_of[drive]: blk for drive, blk in present.items()}
        chunk = self.geometry.chunk_bytes
        return {d: self.code.decode_one(shard_of[d], shards, chunk) for d in bad}

    def _bdev_read(self, drive: int, offset: int, length: int, ctx=None,
                   deadline_ns=None):
        """Member read, stamping the deadline on the wire command when set.

        The kwarg is only forwarded when armed so transports whose proxies
        predate the deadline field (e.g. the offload engine's) keep
        working unmodified.
        """
        if deadline_ns is None:
            return self.bdevs[drive].read(offset, length, ctx=ctx)
        return self.bdevs[drive].read(
            offset, length, ctx=ctx, deadline_ns=deadline_ns
        )

    def _bdev_write(self, drive: int, offset: int, length: int, data=None,
                    ctx=None, deadline_ns=None):
        """Member write; deadline stamping as in :meth:`_bdev_read`."""
        if deadline_ns is None:
            return self.bdevs[drive].write(offset, length, data, ctx=ctx)
        return self.bdevs[drive].write(
            offset, length, data, ctx=ctx, deadline_ns=deadline_ns
        )

    def _member_read(self, drive: int, offset: int, nbytes: int):
        """Raw read of one member chunk region (integrity/scrub path)."""
        data = yield self.bdevs[drive].read(offset, nbytes)
        return data

    def _member_write(self, drive: int, offset: int, nbytes: int, data):
        """Raw write of one member chunk region (integrity/scrub path)."""
        yield self.bdevs[drive].write(offset, nbytes, data)

    # -- public block interface -----------------------------------------------

    def read(
        self, offset: int, nbytes: int, ctx=None, deadline_ns=None,
        priority: str = PRIORITY_FOREGROUND,
    ) -> Event:
        """Read; event value is the data in functional mode, else None.

        ``ctx`` is an optional :class:`repro.obs.TraceContext` the spans of
        this I/O are parented to (None = untraced).  ``deadline_ns`` is an
        optional absolute sim-time deadline; with overload control armed an
        unset deadline defaults to ``now + default_deadline_ns``.
        ``priority`` selects the admission class (foreground vs
        background) when an admission bound is armed.
        """
        if self.qos is not None:
            return self.env.process(
                self._admitted(
                    self._read(
                        offset, nbytes, ctx=ctx,
                        deadline_ns=self._qos_deadline(deadline_ns),
                    ),
                    priority,
                ),
                name=f"{self.name}.read",
            )
        return self.env.process(
            self._read(offset, nbytes, ctx=ctx, deadline_ns=deadline_ns),
            name=f"{self.name}.read",
        )

    def read_unlocked(self, offset: int, nbytes: int) -> Event:
        """Read without taking stripe locks.

        For callers that already hold the stripe lock (e.g. the online
        rebuild job, which reads under the lock to serialize with writers).
        """
        return self.env.process(
            self._read(offset, nbytes, take_locks=False), name=f"{self.name}.read"
        )

    def write(
        self, offset: int, nbytes: int, data=None, ctx=None, deadline_ns=None,
        priority: str = PRIORITY_FOREGROUND,
    ) -> Event:
        """Write; ``data`` (bytes/ndarray) is required in functional mode.

        ``ctx`` is an optional :class:`repro.obs.TraceContext` the spans of
        this I/O are parented to (None = untraced).  ``deadline_ns`` and
        ``priority`` behave exactly as on :meth:`read`.
        """
        if self.functional and data is None:
            raise ValueError("functional mode requires write data")
        if data is not None:
            data = np.frombuffer(data, dtype=np.uint8) if isinstance(data, (bytes, bytearray)) else np.asarray(data, dtype=np.uint8)
            if len(data) != nbytes:
                raise ValueError(f"data length {len(data)} != nbytes {nbytes}")
        if self.qos is not None:
            return self.env.process(
                self._admitted(
                    self._write(
                        offset, nbytes, data, ctx=ctx,
                        deadline_ns=self._qos_deadline(deadline_ns),
                    ),
                    priority,
                ),
                name=f"{self.name}.write",
            )
        return self.env.process(
            self._write(offset, nbytes, data, ctx=ctx, deadline_ns=deadline_ns),
            name=f"{self.name}.write",
        )

    # -- CPU cost hooks (overridden by MdRaid) ---------------------------------

    def _charge_submit(self):
        core = self.cluster.host.pick_core()
        return core.execute(self.submit_ns)

    def _charge_write_staging(self, staged_bytes: int, ext: StripeExtent):
        """Extra per-write CPU beyond parity math (MD stripe cache)."""
        return self.env.timeout(0)

    def _charge_reconstruct_staging(self, source_bytes: int, ext: StripeExtent):
        """Extra per-reconstruction CPU (MD stripe cache)."""
        return self.env.timeout(0)

    def _charge_degraded_read_staging(self, nbytes: int, ext: StripeExtent):
        """Extra CPU for *normal* reads while the array is degraded.

        Linux MD disables its read fast path on a degraded array: every
        read goes through the stripe cache.  No-op for user-space systems.
        """
        return self.env.timeout(0)

    def _charge_xor(self, num_sources: int, nbytes: int):
        core = self.cluster.host.pick_core()
        work = self.cluster.host.cpu_profile.xor_ns(nbytes) * max(0, num_sources - 1)
        return core.execute(work)

    def _charge_gf(self, num_sources: int, nbytes: int):
        core = self.cluster.host.pick_core()
        work = self.cluster.host.cpu_profile.gf_ns(nbytes) * num_sources
        return core.execute(work)

    # -- top-level read/write processes ----------------------------------------

    def _read(
        self, offset: int, nbytes: int, take_locks: bool = True, ctx=None,
        deadline_ns=None,
    ):
        yield from self._span_wait(self._charge_submit(), ctx, "submit")
        extents = self.geometry.map_extent(offset, nbytes)
        buffer = np.zeros(nbytes, dtype=np.uint8) if self.functional else None
        done = [
            self.env.process(
                self._read_extent(
                    ext, buffer, offset, take_locks, ctx, deadline_ns=deadline_ns
                )
            )
            for ext in extents
        ]
        yield AllOf(self.env, done)
        if self.integrity is not None:
            yield from self._verify_read(extents, buffer, offset, take_locks)
        self.stats.reads += 1
        return buffer

    def _write(self, offset: int, nbytes: int, data, ctx=None, deadline_ns=None):
        yield from self._span_wait(self._charge_submit(), ctx, "submit")
        extents = self.geometry.map_extent(offset, nbytes)
        done = [
            self.env.process(
                self._write_extent(ext, data, ctx, deadline_ns=deadline_ns)
            )
            for ext in extents
        ]
        yield AllOf(self.env, done)
        self.stats.writes += 1

    # -- read paths ---------------------------------------------------------------

    def _read_extent(
        self, ext: StripeExtent, buffer, io_base: int, take_locks: bool = True,
        ctx=None, deadline_ns=None,
    ):
        lock = self.lock_reads and take_locks
        if lock:
            yield from self._lock_wait(ext.stripe, ctx)
        try:
            if self.resilient:
                # reads are idempotent: on timeout or member error, retry
                # with an escalated deadline (reconstructing around any
                # member that has been fenced in the meantime)
                yield from self._retry_loop(
                    lambda: self._read_extent_once(
                        ext, buffer, ctx, deadline_ns=deadline_ns
                    ),
                    ext.stripe,
                    "read",
                    drain=False,
                    ctx=ctx,
                    deadline_ns=deadline_ns,
                )
            else:
                yield from self._read_extent_once(
                    ext, buffer, ctx, deadline_ns=deadline_ns
                )
        finally:
            if lock:
                self.locks.release(ext.stripe)

    def _read_extent_once(self, ext: StripeExtent, buffer, ctx=None,
                          deadline_ns=None):
        failed = self.failed_in_stripe(ext.stripe)
        healthy = [s for s in ext.segments if s.drive not in failed]
        lost = [s for s in ext.segments if s.drive in failed]
        events = [
            self._bdev_read(s.drive, s.drive_offset, s.length, ctx=ctx,
                            deadline_ns=deadline_ns)
            for s in healthy
        ]
        if lost:
            events += [
                self.env.process(
                    self._reconstruct_segment(ext, s, ctx, deadline_ns=deadline_ns)
                )
                for s in lost
            ]
        # subscribe before the staging charge so an error completion
        # arriving mid-charge is handled, not an unhandled failed event
        gathered = self._subscribe_early(events)
        if self.degraded and healthy:
            yield from self._span_wait(
                self._charge_degraded_read_staging(
                    sum(s.length for s in healthy), ext
                ),
                ctx,
                "staging",
            )
        if gathered is not None:
            outcome = yield gathered
            results = [outcome[event] for event in events]
        else:
            results = yield from self._gather(events)
        if buffer is not None:
            for seg, data in zip(list(healthy) + list(lost), results):
                buffer[seg.io_offset : seg.io_offset + seg.length] = data

    def _reconstruct_segment(self, ext: StripeExtent, seg: ChunkSegment, ctx=None,
                             deadline_ns=None):
        """Rebuild one lost data segment on the host from the survivors the
        code asks for."""
        self.stats.degraded_reads += 1
        sources = self._repair_members(ext.stripe, seg.data_index)
        offset = ext.stripe * self.geometry.chunk_bytes + seg.chunk_offset
        events = [
            self._bdev_read(drive, offset, seg.length, ctx=ctx,
                            deadline_ns=deadline_ns)
            for drive, _ in sources
        ]
        blocks = yield from self._gather(events)
        yield from self._span_wait(
            self._charge_reconstruct_staging(seg.length * len(events), ext),
            ctx, "staging",
        )
        yield from self._span_wait(
            self._charge_xor(len(events), seg.length), ctx, "xor"
        )
        if not self.functional:
            return None
        shards = {shard: block for (_, shard), block in zip(sources, blocks)}
        return self.code.decode_one(seg.data_index, shards, seg.length)

    # -- write paths -----------------------------------------------------------

    def _write_extent(self, ext: StripeExtent, io_data, ctx=None, deadline_ns=None):
        self.bitmap.mark(ext.stripe)
        yield from self._lock_wait(ext.stripe, ctx)
        try:
            if self.integrity is not None:
                yield from self._verify_stripe_before_write(ext)
            if self.resilient:
                yield from self._write_resilient(
                    ext, io_data, ctx, deadline_ns=deadline_ns
                )
            else:
                yield from self._write_stripe_once(
                    ext, io_data, ctx, deadline_ns=deadline_ns
                )
        finally:
            self.locks.release(ext.stripe)
            self.bitmap.clear(ext.stripe)

    def _write_stripe_once(self, ext: StripeExtent, io_data, ctx=None,
                           deadline_ns=None):
        """One pass of the normal write dispatch (caller holds the lock)."""
        failed = self.failed_in_stripe(ext.stripe)
        failed_parities = [p for p in ext.parity_drives if p in failed]
        failed_touched = [s for s in ext.segments if s.drive in failed]
        failed_untouched_data = [
            d for d in failed
            if d not in ext.parity_drives
            and d not in {s.drive for s in ext.segments}
        ]
        mode = classify_write(self.geometry, ext)
        if failed_touched:
            self.stats.degraded_writes += 1
            only_failed_chunk = (
                len(failed_touched) == len(ext.segments) == 1
                and len(failed - set(ext.parity_drives)) == 1
            )
            if only_failed_chunk:
                yield from self._write_degraded_region(
                    ext, io_data, failed_touched[0], ctx, deadline_ns=deadline_ns
                )
            else:
                yield from self._write_degraded_data(
                    ext, io_data, failed_touched, ctx, deadline_ns=deadline_ns
                )
        elif mode is WriteMode.FULL_STRIPE:
            self.stats.full_stripe_writes += 1
            yield from self._write_full(ext, io_data, ctx, deadline_ns=deadline_ns)
        elif mode is WriteMode.RECONSTRUCT_WRITE and not failed_untouched_data:
            self.stats.rcw_writes += 1
            yield from self._write_rcw(ext, io_data, ctx, deadline_ns=deadline_ns)
        else:
            # RMW; also the fallback when an untouched data drive is
            # failed (its chunk cannot be read for RCW).
            self.stats.rmw_writes += 1
            if failed_untouched_data or failed_parities:
                self.stats.degraded_writes += 1
            yield from self._write_rmw(ext, io_data, ctx, deadline_ns=deadline_ns)

    # resilient write path (§5.4) --------------------------------------------

    def _data_drives_in(self, stripe: int, members) -> bool:
        g = self.geometry
        return any(
            g.data_drive(stripe, d) in members for d in range(g.data_per_stripe)
        )

    def _write_resilient(self, ext: StripeExtent, io_data, ctx=None,
                         deadline_ns=None):
        """Timeout/retry write with the §5.4 idempotent-retry invariant.

        The first attempt on a stripe with no failed data member uses the
        normal dispatch.  Every retry — and every attempt on a degraded
        stripe — writes from a *pinned* full-stripe image whose gap
        regions were read exactly once, before any mutation, so replays
        are idempotent no matter which of a previous attempt's writes
        landed.
        """
        g = self.geometry
        pinned = None
        failed = self.failed_in_stripe(ext.stripe)
        if self._data_drives_in(ext.stripe, failed):
            self._check_tolerance(ext.stripe)
            self.stats.degraded_writes += 1
            pinned = yield from self._pin_with_retries(
                ext, ctx, deadline_ns=deadline_ns
            )
        attempts = 0
        while True:
            self._check_tolerance(ext.stripe)
            remaining = self._deadline_remaining(deadline_ns)
            if remaining is not None and remaining <= 0:
                self._deadline_spent("write", ext.stripe)
            if pinned is None and attempts > 0:
                failed = self.failed_in_stripe(ext.stripe)
                gaps = self._stripe_gaps(ext)
                if any(g.data_drive(ext.stripe, d) in failed for d, _, _ in gaps):
                    # Write hole: the first attempt may have torn parity,
                    # and a gap chunk now lives on a failed member — its
                    # content cannot be trusted from parity.  Surface a
                    # terminal error; the stripe is repaired by resync
                    # once the member returns.
                    self.fault_stats.io_errors += 1
                    raise IoError(
                        f"{self.name}: write hole on stripe {ext.stripe}"
                    )
                pinned = yield from self._pin_with_retries(
                    ext, ctx, deadline_ns=deadline_ns
                )
            if pinned is None:
                body = self._write_stripe_once(
                    ext, io_data, ctx, deadline_ns=deadline_ns
                )
            else:
                body = self._write_pinned(
                    ext, io_data, *pinned, ctx=ctx, deadline_ns=deadline_ns
                )
            timeout_ns = self.backoff.timeout_for(
                attempts, self.timeout_ns, remaining_ns=remaining
            )
            ok = yield from self._run_attempt(body, timeout_ns, drain=True)
            if ok:
                self._note_success()
                return
            attempts += 1
            if attempts > self.max_retries:
                self.fault_stats.io_errors += 1
                raise IoError(
                    f"{self.name}: write to stripe {ext.stripe} failed after "
                    f"{attempts} attempts"
                )
            remaining = self._deadline_remaining(deadline_ns)
            if remaining is not None and remaining <= 0:
                self._deadline_spent("write", ext.stripe)
            self._charge_retry("write", ext.stripe)
            self.stats.retries += 1
            self.fault_stats.retries += 1
            pause = self.backoff.backoff_ns(attempts, self._retry_rng)
            if remaining is not None:
                pause = min(pause, remaining)
            if pause:
                yield from self._backoff_pause(pause, ctx)

    def _pin_with_retries(self, ext: StripeExtent, ctx=None, deadline_ns=None):
        """Degraded-aware read of every stripe region the write will not
        cover, retried like any read; returns ``(gaps, blocks)``."""
        out = {}
        yield from self._retry_loop(
            lambda: self._pin_stripe_image(ext, out, ctx, deadline_ns=deadline_ns),
            ext.stripe,
            "stripe pre-read",
            drain=False,
            ctx=ctx,
            deadline_ns=deadline_ns,
        )
        return out["gaps"], out["blocks"]

    def _pin_stripe_image(self, ext: StripeExtent, out: dict, ctx=None,
                          deadline_ns=None):
        g = self.geometry
        gaps = self._stripe_gaps(ext)
        stripe_base = ext.stripe * g.stripe_data_bytes
        blocks = []
        for d, off, length in gaps:
            buffer = np.zeros(length, dtype=np.uint8) if self.functional else None
            gap_ext, = g.map_extent(stripe_base + d * g.chunk_bytes + off, length)
            yield from self._read_extent_once(
                gap_ext, buffer, ctx, deadline_ns=deadline_ns
            )
            blocks.append(buffer)
        out["gaps"] = gaps
        out["blocks"] = blocks

    def _write_pinned(self, ext: StripeExtent, io_data, gaps, gap_blocks, ctx=None,
                      deadline_ns=None):
        """Write the stripe from the pinned image: touched segments from
        the user data, full parity recomputed from image + user data."""
        chunk = self.geometry.chunk_bytes
        parity_blocks = yield from self._encode_parities(
            self._assemble_stripe(ext, io_data, gaps, gap_blocks), ctx
        )
        staged = ext.touched_bytes + len(ext.parity_drives) * chunk
        yield from self._span_wait(
            self._charge_write_staging(staged, ext), ctx, "staging"
        )
        failed = self.failed_in_stripe(ext.stripe)
        events = [
            self._bdev_write(
                s.drive, s.drive_offset, s.length, self._seg_data(io_data, s),
                ctx=ctx, deadline_ns=deadline_ns,
            )
            for s in ext.segments
            if s.drive not in failed
        ]
        events += self._parity_writes(ext, parity_blocks, ctx, deadline_ns)
        if events:
            yield AllOf(self.env, events)

    # data helpers -----------------------------------------------------------

    def _seg_data(self, io_data, seg: ChunkSegment):
        if io_data is None:
            return None
        return io_data[seg.io_offset : seg.io_offset + seg.length]

    def _alive_parities(self, ext: StripeExtent) -> List[int]:
        failed = self.failed_in_stripe(ext.stripe)
        return [p for p in ext.parity_drives if p not in failed]

    def _parity_index(self, ext: StripeExtent, drive: int) -> int:
        """The code's parity row ``drive`` holds (0 for P, 1 for Q)."""
        return ext.parity_drives.index(drive)

    def _encode_parities(self, image, ctx=None):
        """The parity stage every full-image write shares: pay the code's
        encode price list on the host CPU, then encode.

        ``image`` is the stripe's ``k`` data chunks; returns the ``m``
        parity chunks (``None`` each in timing mode).
        """
        chunk = self.geometry.chunk_bytes
        for kind, sources in self.code.encode_charges:
            charge = self._charge_xor if kind == "xor" else self._charge_gf
            yield from self._span_wait(charge(sources, chunk), ctx, kind)
        if not self.functional:
            return [None] * self.code.m
        return self.code.encode(image)

    def _parity_writes(self, ext: StripeExtent, parity_blocks, ctx, deadline_ns):
        """Whole-chunk writes of ``parity_blocks`` to the surviving parities."""
        return [
            self._bdev_write(
                p, ext.parity_offset, self.geometry.chunk_bytes,
                parity_blocks[self._parity_index(ext, p)],
                ctx=ctx, deadline_ns=deadline_ns,
            )
            for p in self._alive_parities(ext)
        ]

    def _write_full(self, ext: StripeExtent, io_data, ctx=None, deadline_ns=None):
        """Full-stripe write: host computes parity, writes every member."""
        parity_blocks = yield from self._encode_parities(
            [self._seg_data(io_data, s) for s in ext.segments], ctx
        )
        staged = ext.touched_bytes + len(ext.parity_drives) * self.geometry.chunk_bytes
        yield from self._span_wait(
            self._charge_write_staging(staged, ext), ctx, "staging"
        )
        failed = self.failed_in_stripe(ext.stripe)
        events = [
            self._bdev_write(
                s.drive, s.drive_offset, s.length, self._seg_data(io_data, s),
                ctx=ctx, deadline_ns=deadline_ns,
            )
            for s in ext.segments
            if s.drive not in failed
        ]
        events += self._parity_writes(ext, parity_blocks, ctx, deadline_ns)
        yield AllOf(self.env, events)

    def _write_rmw(self, ext: StripeExtent, io_data, ctx=None, deadline_ns=None):
        """Read-modify-write: 2 reads + 2 writes of the touched extent
        through the host NIC (3 + 3 for RAID-6)."""
        span_off, span_len = ext.parity_span()
        parities = self._alive_parities(ext)
        # phase 1: read old data segments and old parity spans
        read_events = [
            self._bdev_read(s.drive, s.drive_offset, s.length, ctx=ctx,
                            deadline_ns=deadline_ns)
            for s in ext.segments
        ]
        for p in parities:
            read_events.append(
                self._bdev_read(p, ext.parity_offset + span_off, span_len,
                                ctx=ctx, deadline_ns=deadline_ns)
            )
        old_blocks = yield from self._gather(read_events)
        old_data = old_blocks[: len(ext.segments)]
        old_parity = old_blocks[len(ext.segments):]
        # phase 2: compute deltas and new parities
        yield from self._span_wait(
            self._charge_xor(2 * len(ext.segments), span_len), ctx, "xor"
        )
        new_parities: Dict[int, Optional[np.ndarray]] = {p: None for p in parities}
        if self.functional:
            # each segment's delta, weighted for every parity row
            partials = [
                self.code.partial_parity(
                    seg.data_index, old ^ self._seg_data(io_data, seg)
                )
                for seg, old in zip(ext.segments, old_data)
            ]
            for order, p in enumerate(parities):
                row = self._parity_index(ext, p)
                block = old_parity[order].copy()
                for seg, partial in zip(ext.segments, partials):
                    rel = seg.chunk_offset - span_off
                    block[rel : rel + seg.length] ^= partial[row]
                new_parities[p] = block
        if self.code.gf_pass and len(parities) > 1:
            yield from self._span_wait(
                self._charge_gf(len(ext.segments), span_len), ctx, "gf"
            )
        staged = 2 * ext.touched_bytes + 2 * len(parities) * span_len
        yield from self._span_wait(
            self._charge_write_staging(staged, ext), ctx, "staging"
        )
        # phase 3: write new data and new parities
        write_events = [
            self._bdev_write(
                s.drive, s.drive_offset, s.length, self._seg_data(io_data, s),
                ctx=ctx, deadline_ns=deadline_ns,
            )
            for s in ext.segments
        ]
        for p in parities:
            write_events.append(
                self._bdev_write(
                    p, ext.parity_offset + span_off, span_len, new_parities[p],
                    ctx=ctx, deadline_ns=deadline_ns,
                )
            )
        yield AllOf(self.env, write_events)

    def _write_rcw(self, ext: StripeExtent, io_data, ctx=None, deadline_ns=None):
        """Reconstruct-write: read untouched data, recompute parity fully."""
        g = self.geometry
        chunk = g.chunk_bytes
        # Build the full new stripe image: read whatever the write does not
        # cover (untouched chunks and partial-chunk complements).
        gaps = self._stripe_gaps(ext)
        read_events = [
            self._bdev_read(
                g.data_drive(ext.stripe, d), ext.stripe * chunk + off, length,
                ctx=ctx, deadline_ns=deadline_ns,
            )
            for d, off, length in gaps
        ]
        gap_blocks = yield from self._gather(read_events)
        parity_blocks = yield from self._encode_parities(
            self._assemble_stripe(ext, io_data, gaps, gap_blocks), ctx
        )
        gap_bytes = sum(length for _, _, length in gaps)
        staged = ext.touched_bytes + gap_bytes + len(self._alive_parities(ext)) * chunk
        yield from self._span_wait(
            self._charge_write_staging(staged, ext), ctx, "staging"
        )
        write_events = [
            self._bdev_write(
                s.drive, s.drive_offset, s.length, self._seg_data(io_data, s),
                ctx=ctx, deadline_ns=deadline_ns,
            )
            for s in ext.segments
        ]
        write_events += self._parity_writes(ext, parity_blocks, ctx, deadline_ns)
        yield AllOf(self.env, write_events)

    def _write_degraded_region(
        self, ext: StripeExtent, io_data, seg: ChunkSegment, ctx=None,
        deadline_ns=None,
    ):
        """Write covering only a failed data chunk: region-scoped parity rebuild.

        Since parity is the (weighted) sum of all data chunks, the new
        parity over the written region is simply the sum of the *other*
        chunks' same region with the new data — no reconstruction of the
        failed chunk's old content and no old-parity read are needed, and
        the cost is proportional to the I/O size, keeping the degraded
        write penalty small (Fig. 18/30: ~5-11% drop).
        """
        g = self.geometry
        failed_index = g.data_index_of_drive(ext.stripe, seg.drive)
        region_offset, region_len = seg.chunk_offset, seg.length
        failed = self.failed_in_stripe(ext.stripe)
        survivors = [
            d for d in range(g.data_per_stripe)
            if d != failed_index and g.data_drive(ext.stripe, d) not in failed
        ]
        read_events = [
            self._bdev_read(
                g.data_drive(ext.stripe, d),
                ext.stripe * g.chunk_bytes + region_offset, region_len,
                ctx=ctx, deadline_ns=deadline_ns,
            )
            for d in survivors
        ]
        blocks = yield from self._gather(read_events)
        yield from self._span_wait(
            self._charge_reconstruct_staging(region_len * len(blocks), ext),
            ctx,
            "staging",
        )
        yield from self._span_wait(
            self._charge_xor(len(blocks) + 1, region_len), ctx, "xor"
        )
        parity_blocks = [None] * self.code.m
        if self.functional:
            # the region's full data image: survivors plus the new data
            image = dict(zip(survivors, blocks))
            image[failed_index] = self._seg_data(io_data, seg)
            parity_blocks = self.code.encode(
                [image[d] for d in range(g.data_per_stripe)]
            )
        write_events = [
            self._bdev_write(
                p, ext.parity_offset + region_offset, region_len,
                parity_blocks[self._parity_index(ext, p)],
                ctx=ctx, deadline_ns=deadline_ns,
            )
            for p in self._alive_parities(ext)
        ]
        finish = self._subscribe_early(write_events)
        if self.code.gf_pass and len(write_events) > 1:
            yield from self._span_wait(
                self._charge_gf(len(survivors) + 1, region_len), ctx, "gf"
            )
        yield finish if finish is not None else AllOf(self.env, write_events)

    def _write_degraded_data(self, ext: StripeExtent, io_data, failed_touched,
                             ctx=None, deadline_ns=None):
        """Write when a touched data chunk lives on a failed drive.

        Reconstructs the failed chunk's old content when the write only
        partially covers it, merges the new data, recomputes parity from
        the full stripe image and writes all survivors.
        """
        g = self.geometry
        chunk = g.chunk_bytes
        touched_by_index = {s.data_index: s for s in ext.segments}
        failed_indices = {
            g.data_index_of_drive(ext.stripe, s.drive) for s in failed_touched
        }
        partial_failed = [
            i for i in failed_indices if touched_by_index[i].length < chunk
        ]
        # read every surviving data chunk in full
        failed = self.failed_in_stripe(ext.stripe)
        survivors = [
            d for d in range(g.data_per_stripe)
            if g.data_drive(ext.stripe, d) not in failed
        ]
        read_events = [
            self._bdev_read(
                g.data_drive(ext.stripe, d), ext.stripe * chunk, chunk,
                ctx=ctx, deadline_ns=deadline_ns,
            )
            for d in survivors
        ]
        # if the failed chunk is partially covered we need its old content:
        # read parity too so it can be reconstructed
        parity_blocks: Dict[int, Optional[np.ndarray]] = {}
        parities_to_read = self._alive_parities(ext)[: len(failed_indices)] if partial_failed else []
        for p in parities_to_read:
            read_events.append(
                self._bdev_read(p, ext.parity_offset, chunk, ctx=ctx,
                                deadline_ns=deadline_ns)
            )
        blocks = yield from self._gather(read_events)
        survivor_blocks = blocks[: len(survivors)]
        for p, blk in zip(parities_to_read, blocks[len(survivors):]):
            parity_blocks[p] = blk
        source_bytes = chunk * len(blocks)
        yield from self._span_wait(
            self._charge_reconstruct_staging(source_bytes, ext), ctx, "staging"
        )
        yield from self._span_wait(
            self._charge_xor(len(blocks), chunk), ctx, "xor"
        )
        stripe_img: Optional[List[np.ndarray]] = None
        if self.functional:
            present = dict(zip(survivors, survivor_blocks))
            if partial_failed:
                shards = dict(present)
                for p, blk in parity_blocks.items():
                    shards[g.data_per_stripe + self._parity_index(ext, p)] = blk
                for i in failed_indices:
                    present[i] = self.code.decode_one(i, shards, chunk)
            else:
                for i in failed_indices:
                    present[i] = np.zeros(chunk, dtype=np.uint8)
            # merge new data over the old image
            stripe_img = []
            for d in range(g.data_per_stripe):
                base = present.get(d)
                if base is None:
                    base = np.zeros(chunk, dtype=np.uint8)
                base = base.copy()
                seg = touched_by_index.get(d)
                if seg is not None:
                    base[seg.chunk_offset : seg.chunk_end] = self._seg_data(io_data, seg)
                stripe_img.append(base)
        new_parity = yield from self._encode_parities(stripe_img, ctx)
        staged = chunk * (len(survivors) + len(self._alive_parities(ext)))
        yield from self._span_wait(
            self._charge_write_staging(staged, ext), ctx, "staging"
        )
        write_events = [
            self._bdev_write(
                s.drive, s.drive_offset, s.length, self._seg_data(io_data, s),
                ctx=ctx, deadline_ns=deadline_ns,
            )
            for s in ext.segments
            if s.drive not in self.failed
        ]
        write_events += self._parity_writes(ext, new_parity, ctx, deadline_ns)
        yield AllOf(self.env, write_events)

    # stripe assembly helpers -----------------------------------------------

    def _stripe_gaps(self, ext: StripeExtent) -> List[Tuple[int, int, int]]:
        """(data_index, chunk_offset, length) of stripe regions not written."""
        g = self.geometry
        covered: Dict[int, List[Tuple[int, int]]] = {}
        for s in ext.segments:
            covered.setdefault(s.data_index, []).append((s.chunk_offset, s.chunk_end))
        gaps: List[Tuple[int, int, int]] = []
        for d in range(g.data_per_stripe):
            intervals = sorted(covered.get(d, []))
            cursor = 0
            for start, end in intervals:
                if start > cursor:
                    gaps.append((d, cursor, start - cursor))
                cursor = max(cursor, end)
            if cursor < g.chunk_bytes:
                gaps.append((d, cursor, g.chunk_bytes - cursor))
        return gaps

    def _assemble_stripe(
        self, ext: StripeExtent, io_data, gaps, gap_blocks
    ) -> List[Optional[np.ndarray]]:
        """Full new data image of the stripe: its ``k`` data chunks (``None``
        each in timing mode)."""
        g = self.geometry
        if not self.functional:
            return [None] * g.data_per_stripe
        image = [np.zeros(g.chunk_bytes, dtype=np.uint8) for _ in range(g.data_per_stripe)]
        for (d, off, length), block in zip(gaps, gap_blocks):
            image[d][off : off + length] = block
        for s in ext.segments:
            image[s.data_index][s.chunk_offset : s.chunk_end] = self._seg_data(io_data, s)
        return image
