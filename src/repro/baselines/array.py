"""The array frame every RAID controller is built on.

:class:`RaidArray` owns what an array is regardless of how it moves bytes:
the member table, failure bookkeeping and the fence rule, stripe locks and
the write-intent bitmap, the counted write plan, the overload entry
(admission, deadlines, retry budget, breaker), end-to-end integrity
(verify + parity read-repair), the public ``read``/``write`` block
interface and the stripe-image helpers.

A *datapath* subclass supplies the transport and the per-stripe I/O — the
abstract hooks at the bottom of the class.  The two datapaths are siblings
on this frame: :class:`~repro.baselines.base.HostCentricRaid` (plain
NVMe-oF, all parity math on the host) and
:class:`~repro.draid.host.DraidArray` (the paper's disaggregated
protocol), so measured differences come from their data-path structure.

The controller runs in *functional mode* when the underlying drives carry
real bytes: parity is then actually computed with :mod:`repro.ec` and all
reconstructions are bit-exact, which the whole-array tests verify.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.builder import Cluster
from repro.faults.backoff import backoff_ns
from repro.metrics.faults import FaultStats
from repro.metrics.integrity import IntegrityStats
from repro.nvmeof.messages import IoError
from repro.qos.admission import PRIORITY_BACKGROUND, PRIORITY_FOREGROUND
from repro.qos.errors import Busy, DeadlineExceeded
from repro.raid.bitmap import WriteIntentBitmap
from repro.raid.geometry import ChunkSegment, RaidGeometry, StripeExtent
from repro.raid.locks import StripeLockManager
from repro.raid.modes import WriteMode, WritePlan, plan_write
from repro.storage.integrity import ChecksumError
from repro.sim.core import AllOf, AnyOf, Environment, Event, _defuse_on_failure


#: :meth:`RaidArray.failed_in_stripe` on an array with no failed member
_NONE_FAILED: AbstractSet[int] = frozenset()


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
    #: retries after timeout/error (§5.4), every datapath
    retries: int = 0
    #: reconstructions delegated to a remote reducer (dRAID, §6.1)
    remote_reconstructions: int = 0

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0)


class ArrayFailureError(RuntimeError):
    """More drives failed than the RAID level tolerates."""


class RaidArray(ABC):
    """A parity RAID array over a cluster's storage servers (the frame)."""

    #: CPU charged on a controller core per user I/O submitted (software
    #: stack cost).
    submit_ns = 2_000
    #: Retry budget per extent operation on the resilient datapath (§5.4).
    max_retries = 3
    #: After a write attempt times out, wait ``drain_factor x timeout`` for
    #: its straggling mutations to land before fencing and retrying.
    drain_factor = 10

    def __init__(
        self,
        cluster: Cluster,
        geometry: RaidGeometry,
        name: str = "raid",
    ) -> None:
        # how many members the topology hook can place on this cluster
        slots = sum(
            self._server_of(m) < cluster.num_servers
            for m in range(cluster.num_servers)
        )
        if geometry.num_drives != slots:
            raise ValueError(
                f"geometry wants {geometry.num_drives} drives, cluster has "
                f"{slots} member servers"
            )
        self.env: Environment = cluster.env
        self.cluster = cluster
        self.geometry = geometry
        #: the member table: member index -> storage server / drive.  Every
        #: member-indexed lookup goes through it; server indices appear only
        #: where the wire needs them (:meth:`_server_of`).
        self.servers = [
            cluster.servers[self._server_of(m)] for m in range(geometry.num_drives)
        ]
        self.drives = [server.drive for server in self.servers]
        #: the machine whose CPU the controller's own work is charged to
        self.machine = cluster.host
        #: the erasure code every parity computation, partial-parity forward,
        #: decode and CPU charge goes through (P+Q for RAID-5/6 geometries;
        #: the dRAID controllers accept any :class:`~repro.ec.LinearCode`)
        self.code = geometry.default_code()
        self.name = name
        #: process names, built once (a name is read only by ``repr``, error
        #: messages and the sanitizer's reports)
        self._read_name = f"{name}.read"
        self._write_name = f"{name}.write"
        self.locks = StripeLockManager(self.env)
        #: §5.4 host-failure recovery: stripes with in-flight writes
        self.bitmap = WriteIntentBitmap()
        self.stats = RaidIoStats()
        self.failed: set = set()
        #: drive -> stripes already rebuilt onto it (see :meth:`drive_failed`):
        #: the one record of rebuild progress, written by every restore path
        #: of :mod:`repro.raid.rebuild` and :mod:`repro.raid.recovery`.  An
        #: entry exists only while a rebuild is in flight, so healthy arrays
        #: never pay the extra lookup.
        self.rebuilt_stripes: Dict[int, set] = {}
        self.functional = cluster.config.functional_capacity > 0
        #: §5.4 hardening: I/O deadline (escalates per retry attempt) and
        #: fault bookkeeping.  ``timeout_ns`` (the cluster's
        #: ``io_timeout_ns``) may be reassigned on the instance (tests do);
        #: everything reads it at use time.
        self.timeout_ns = cluster.config.io_timeout_ns
        self.fault_stats = FaultStats()
        self.integrity_stats = IntegrityStats()
        self.failslow_detector = None
        self._retry_rng = random.Random(f"repro.backoff:{name}")
        #: whether the timeout/retry datapath runs: set by the
        #: :class:`repro.faults.FaultInjector` that attaches to the array
        #: (or directly); off keeps the healthy paths' exact event sequence
        self.resilient = False
        #: Observability (repro.obs): the cluster tracer, or None when the
        #: cluster was built without an observability config.  The cores,
        #: drives and links record their own spans; the array arms its stripe
        #: locks and keeps the tracer for its retry backoff.
        self._tracer = None if cluster.obs is None else cluster.obs.tracer
        self.locks.tracer = self._tracer
        #: Verification (repro.verify): the cluster's Verifier hub, or None
        #: when the cluster was built without a verify config.  Every
        #: checked branch short-circuits on these being None, exactly like
        #: the tracer above.
        self._verifier = cluster.verify
        self._protocol_verifier = (
            None if cluster.verify is None else cluster.verify.protocol
        )
        #: Overload control (repro.qos): the cluster's QosControl hub, or
        #: None when the cluster was built without an overload config, and
        #: its optional parts, read once (each None unless its knob is set).
        #: Every overload branch short-circuits on these, like the tracer.
        qos = self.qos = cluster.qos
        self._admission = None if qos is None else qos.admission
        self._retry_budget = None if qos is None else qos.retry_budget
        self._breaker = None if qos is None else qos.breaker
        self._target_depth = None if qos is None else qos.config.target_queue_depth
        if self._verifier is not None:
            self._verifier.watch_array(self)
        self._attach_transport()

    def _server_of(self, member: int) -> int:
        """Server index hosting ``member`` — the one topology hook.

        Identity for the normal topology; the offloaded-controller variant
        (§7) skips the controller's own server slot.
        """
        return member

    def _drive_of(self, server: int) -> int:
        """Member hosted on server ``server`` — the inverse of
        :meth:`_server_of`, read off the member table.  Raises ValueError
        for a server that hosts no member (an offloaded controller's own)."""
        machine = self.cluster.servers[server]
        for member, member_server in enumerate(self.servers):
            if member_server is machine:
                return member
        raise ValueError(f"{self.name}: server {server} hosts no member drive")

    # -- failure management ---------------------------------------------------

    def fail_drive(self, index: int) -> None:
        """Mark a member faulty; the array enters degraded state.

        Any rebuild progress recorded for the member is invalidated: a
        drive that fails again mid-rebuild restarts from scratch — resuming
        stale progress would serve reads from a replacement that never
        received those stripes' content.
        """
        self.failed.add(index)
        self.rebuilt_stripes.pop(index, None)
        self.drives[index].fail()
        if len(self.failed) > self.fault_tolerance:
            raise ArrayFailureError(
                f"{self.name}: {len(self.failed)} failures exceed "
                f"{self._tolerance_name()} tolerance"
            )

    def repair_drive(self, index: int) -> None:
        self.failed.discard(index)
        self.rebuilt_stripes.pop(index, None)
        self.drives[index].repair()
        if self.failslow_detector is not None:
            self.failslow_detector.forget(index)

    def _fence(self, member: int, prolonged: bool = False) -> bool:
        """Transition ``member`` to failed by a *decision* of the controller
        (breaker trip, fail-slow ejection, straggler/unresponsive fence).

        The one rule every such decision obeys: an already-failed member is
        a no-op, and a member is never fenced past redundancy — that would
        convert a stall or sickness into data loss, so the member stays in
        and the retry budget bounds the operation instead.  ``prolonged``
        additionally declares the drive dead (§5.4 prolonged failure) so
        its queued mutations can never race a retry.  Returns whether the
        member was fenced; real (injected) failures may legitimately exceed
        tolerance, a fencing decision must never be what crosses the line
        (``check_fence``).
        """
        if member in self.failed or len(self.failed) >= self.fault_tolerance:
            return False
        self.failed.add(member)
        if prolonged:
            self.drives[member].fail()
            self.fault_stats.prolonged_failures += 1
        self.fault_stats.degraded_transitions += 1
        if self._verifier is not None:
            self._verifier.check_fence(self)
        return True

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
    def integrity(self):
        """The cluster's :class:`~repro.storage.integrity.IntegrityStore`.

        ``None`` unless a store was attached — unarmed arrays skip every
        verification branch, keeping the seed's exact event sequence.
        """
        return self.cluster.integrity

    def drive_failed(self, drive: int, stripe: int) -> bool:
        """Whether ``drive`` should be treated as failed for ``stripe``.

        During an online rebuild the stripes in the drive's
        :attr:`rebuilt_stripes` record have already been reconstructed, so
        the drive is healthy *for those stripes* while still failed for
        the rest.
        """
        if drive not in self.failed:
            return False
        rebuilt = self.rebuilt_stripes.get(drive)
        return rebuilt is None or stripe not in rebuilt

    def failed_in_stripe(self, stripe: int) -> AbstractSet[int]:
        """The member drives to treat as failed for ``stripe`` (read-only).

        Declustered layouts narrow this to the stripe's member set: a
        failed drive that holds no chunk of ``stripe`` does not degrade
        it (the fan-out property rebuild exploits).
        """
        failed = self.failed
        if not failed:
            return _NONE_FAILED
        if self.rebuilt_stripes:
            failed = {d for d in failed if self.drive_failed(d, stripe)}
        else:
            failed = set(failed)
        if failed and not self.geometry.full_width:
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
        if self.geometry.full_width:
            return range(self.geometry.num_drives)
        return sorted(self.geometry.stripe_drives(stripe))

    # -- §5.4 attempts: one loop, one expiry race -----------------------------

    def _attempts(self, attempt, kind: str, stripe: int, deadline_ns=None, ctx=None,
                  retries: Optional[int] = None, pause: bool = True):
        """Run ``attempt(n)`` for ``n = 0, 1, ...`` until one succeeds.

        ``attempt(n)`` is the datapath's part: a generator that runs attempt
        ``n`` — for ``n >= 1`` after its own between-attempts step (re-route,
        pin, host fallback) — and returns whether it succeeded.  The rest is
        the one retry rule every datapath shares: after ``retries`` failed
        retries (default :attr:`max_retries`) a terminal :class:`IoError`;
        before each retry the gate (:meth:`_admit_retry`), the counters and,
        on a resilient array, the backoff pause.  A reconstruction retries
        without one (``pause=False``): the members its failed attempt hit
        are marked, so the retry routes around them at once.  A success
        deposits a retry-budget token.
        """
        limit = self.max_retries if retries is None else retries
        n = 0
        while not (yield from attempt(n)):
            n += 1
            if n > limit:
                if self.resilient:
                    self.fault_stats.io_errors += 1
                raise IoError(
                    f"{self.name}: {kind} on stripe {stripe} failed after {n} attempts"
                )
            remaining = self._admit_retry(kind, stripe, deadline_ns)
            self.stats.retries += 1
            if self.resilient:
                self.fault_stats.retries += 1
                if pause:
                    yield from self._backoff_pause(n, remaining, ctx)
        if self._retry_budget is not None:
            self._retry_budget.note_success()

    def _backoff_pause(self, attempts: int, remaining, ctx):
        """Sleep the jittered backoff before retry ``attempts`` (never past
        the ``remaining`` deadline budget), recording its span when traced."""
        pause_ns = backoff_ns(attempts, self._retry_rng)
        if remaining is not None:
            pause_ns = min(pause_ns, remaining)
        if pause_ns:
            if ctx is not None and self._tracer is not None:
                now = self.env.now
                self._tracer.record(ctx, "retry-backoff", "backoff",
                                    self.machine.cpu.track, now, now + pause_ns)
            yield self.env.timeout(pause_ns)

    def _race(self, event: Event, timeout_ns: int, drain: bool = False):
        """Race ``event`` against its §5.4 guard timer; whether it won.

        A lost race counts a timeout.  A ``drain``-ing caller (a mutation)
        then gives ``event`` ``drain_factor x timeout_ns`` more to land — a
        retry must never race the attempt it replaces.  If ``event`` is
        still pending on return, the caller fences whoever stayed silent.
        A failed ``event`` raises here.
        """
        yield AnyOf(self.env, [event, self.env.timeout(timeout_ns)])
        if event.triggered:
            return True
        self.fault_stats.timeouts += 1
        if drain:
            yield AnyOf(
                self.env, [event, self.env.timeout(self.drain_factor * timeout_ns)]
            )
        return False

    # -- overload control (repro.qos) -------------------------------------------
    #
    # The array owns the deadline decision: :meth:`_qos_deadline` gives a
    # request none unless overload control is armed, so every helper below
    # short-circuits on an unarmed array (or an unset knob), which keeps
    # the seed's exact event sequence.

    def _qos_deadline(self, deadline_ns):
        """The effective absolute deadline (ns) for a new request.

        None on an array with no overload config (a caller's deadline is
        ignored there); else an explicit caller deadline wins, then the
        armed config's ``default_deadline_ns`` added to *now*, then None.
        """
        qos = self.qos
        if qos is None:
            return None
        if deadline_ns is not None:
            return deadline_ns
        default = qos.config.default_deadline_ns
        return None if default is None else self.env.now + default

    def _deadline_remaining(self, deadline_ns):
        """Budget (ns) left before ``deadline_ns``; None when undeadlined."""
        if deadline_ns is None:
            return None
        return deadline_ns - self.env.now

    def _deadline_left(self, kind: str, stripe: int, deadline_ns):
        """Budget (ns) left before ``deadline_ns`` (None when undeadlined);
        a spent budget abandons the request: terminal
        :class:`DeadlineExceeded`."""
        remaining = self._deadline_remaining(deadline_ns)
        if remaining is not None and remaining <= 0:
            self.qos.stats.deadline_exceeded += 1
            self.fault_stats.io_errors += 1
            raise DeadlineExceeded(
                f"{self.name}: {kind} on stripe {stripe} exceeded its deadline"
            )
        return remaining

    def _admit_retry(self, kind: str, stripe: int, deadline_ns):
        """Gate one retry: terminal when the request's deadline budget is
        spent or the retry budget denies it.  Returns the budget left (ns;
        None when undeadlined).

        The retry budget caps retry amplification under overload (the SRE
        retry-budget rule): when the whole array is failing, retries stop
        being free.
        """
        remaining = self._deadline_left(kind, stripe, deadline_ns)
        budget = self._retry_budget
        if budget is not None and not budget.try_spend():
            self.qos.stats.retries_denied += 1
            self.fault_stats.io_errors += 1
            raise IoError(
                f"{self.name}: {kind} on stripe {stripe}: retry budget exhausted"
            )
        return remaining

    def _admitted(self, body, priority: str):
        """Run a top-level I/O under the bounded admission queue.

        Only reached when an admission bound is armed.  A refused
        admission is a typed :class:`Busy` fast-reject — no datapath work,
        no queueing.
        """
        adm = self._admission
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
        is fenced (reads route around it through reconstruction) — but,
        like every fence, never past tolerance.
        """
        breaker = self._breaker
        breaker.record(member, ok)
        if ok or not breaker.should_trip(member, self.env.now):
            return
        if self._fence(member):
            breaker.note_trip(member, self.env.now)
            self.qos.stats.breaker_trips += 1

    # -- §5.4 guards shared by both datapaths ------------------------------------

    def _check_tolerance(self, stripe: int) -> None:
        if len(self.failed_in_stripe(stripe)) > self.fault_tolerance:
            self.fault_stats.io_errors += 1
            raise IoError(
                f"{self.name}: stripe {stripe} has more failures than "
                f"{self._tolerance_name()} tolerates"
            )

    def _plan(self, ext: StripeExtent) -> WritePlan:
        """Plan the write of ``ext`` on its stripe's current failures and
        membership.  A plan lives for one attempt: a retry plans again."""
        return plan_write(self.geometry, ext, self.failed_in_stripe(ext.stripe))

    def _plan_write(self, ext: StripeExtent) -> WritePlan:
        """:meth:`_plan` and count it — the one place the write-mode
        counters move: the mode's counter unless degraded-mode,
        ``degraded_writes`` iff a data member of the stripe has failed."""
        plan = self._plan(ext)
        stats = self.stats
        mode = plan.mode
        if mode is WriteMode.READ_MODIFY_WRITE:
            stats.rmw_writes += 1
        elif mode is WriteMode.RECONSTRUCT_WRITE:
            stats.rcw_writes += 1
        elif mode is WriteMode.FULL_STRIPE:
            stats.full_stripe_writes += 1
        if plan.degraded:
            stats.degraded_writes += 1
        return plan

    def _check_write_hole(self, ext: StripeExtent) -> None:
        """Refuse to retry a partial write whose gap now sits on a failed
        member.

        Write hole: the failed attempt may have torn parity, and a gap
        chunk now lives on a failed member — its content cannot be trusted
        from parity (reconstructing it would launder garbage into the new
        parity).  Surface a terminal error; the stripe is repaired by
        resync once the member returns.
        """
        g = self.geometry
        failed = self.failed_in_stripe(ext.stripe)
        if any(
            g.data_drive(ext.stripe, d) in failed for d, _, _ in self._stripe_gaps(ext)
        ):
            if self.resilient:
                self.fault_stats.io_errors += 1
            raise IoError(f"{self.name}: write hole on stripe {ext.stripe}")

    # -- end-to-end integrity: verification and read-repair ---------------------
    #
    # Active only when an IntegrityStore is attached to the cluster.
    # Checksum verification itself is charged no host CPU: production
    # T10-DIF verification runs in NIC/controller hardware on the wire
    # (DESIGN.md §10); only the parity math of an actual repair costs CPU.

    def _verify_read(self, extents, buffer, take_locks: bool):
        """Post-read verification: every chunk a read touched must match
        its expectation; a mismatch triggers parity read-repair and a
        re-read of the extent."""
        store = self.integrity
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
                bad = store.verify_members(self.drives, ext.stripe, members)
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
                yield from self._read_extent(ext, buffer, take_locks)
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
        for _ in range(3):
            failed = self.failed_in_stripe(ext.stripe)
            members = [d for d in self._stripe_members(ext.stripe) if d not in failed]
            self.integrity_stats.chunks_verified += len(members)
            bad = store.verify_members(self.drives, ext.stripe, members)
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
        drives = self.drives
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
                # the store's key (``record_write`` clears it): the drive's
                # index, which is not the member's on an offloaded controller
                key = (drives[d]._integrity_index, stripe)
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
                blocks = yield from self._repair_io(
                    self._member_read(d, stripe * chunk, chunk) for d in sources
                )
                if blocks is None:
                    continue
                yield self._charge_xor(len(sources) + 1, chunk)
                if self.code.gf_pass:
                    yield self._charge_gf(len(sources), chunk)
                repaired = None
                if self.functional:
                    repaired = self._repair_stripe_blocks(
                        stripe, dict(zip(sources, blocks)), bad
                    )
                written = yield from self._repair_io(
                    self._member_write(
                        d, stripe * chunk, chunk,
                        None if repaired is None else repaired[d],
                    )
                    for d in bad
                )
                if written is None:
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

    def _repair_io(self, member_ios):
        """Run member I/O generators (:meth:`_member_read` /
        :meth:`_member_write`) concurrently outside the §5.4 retry loop.

        Returns their values in order, or None on member error or expiry —
        the datapath's :meth:`_await_repair_io` sees to it that a silent
        member never parks the caller (and the stripe lock it holds).
        """
        ios = [self.env.process(io) for io in member_ios]
        gathered = AllOf(self.env, ios)
        gathered.callbacks.append(_defuse_on_failure)
        outcome = yield from self._await_repair_io(gathered)
        return None if outcome is None else [outcome[io] for io in ios]

    def _shard_drives(self, stripe: int) -> List[int]:
        """Member drive of every shard of ``stripe`` in the code's order:
        data chunks ``0..k-1``, then the parity rows."""
        layout = self.geometry.layout
        return [*layout.data_drives(stripe), *layout.parity_drives(stripe)]

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

    # -- public block interface -----------------------------------------------

    def read(
        self, offset: int, nbytes: int, ctx=None, deadline_ns=None,
        priority: str = PRIORITY_FOREGROUND,
    ) -> Event:
        """Read; event value is the data in functional mode, else None.

        ``ctx`` is an optional :class:`repro.obs.TraceContext` the spans of
        this I/O are parented to (None = untraced).  ``deadline_ns`` is an
        optional absolute sim-time deadline, honoured only with overload
        control armed, where an unset one defaults to
        ``now + default_deadline_ns``.
        ``priority`` selects the admission class (foreground vs
        background) when an admission bound is armed.
        """
        return self.env.process(
            self.read_body(offset, nbytes, ctx, deadline_ns, priority),
            name=self._read_name,
        )

    def read_body(
        self, offset: int, nbytes: int, ctx=None, deadline_ns=None,
        priority: str = PRIORITY_FOREGROUND,
    ):
        """:meth:`read` as the generator its process runs, for a process
        that awaits the read at once: ``yield from
        env.call(array.read_body(...))``."""
        return self._admit(
            self._read(offset, nbytes, ctx=ctx, deadline_ns=self._qos_deadline(deadline_ns)),
            priority,
        )

    def read_unlocked(self, offset: int, nbytes: int) -> Event:
        """Read without taking stripe locks.

        For callers that already hold the stripe lock (e.g. the online
        rebuild job, which reads under the lock to serialize with writers).
        """
        return self.env.process(
            self._read(offset, nbytes, take_locks=False), name=self._read_name
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
        return self.env.process(
            self.write_body(offset, nbytes, data, ctx, deadline_ns, priority),
            name=self._write_name,
        )

    def write_body(
        self, offset: int, nbytes: int, data=None, ctx=None, deadline_ns=None,
        priority: str = PRIORITY_FOREGROUND,
    ):
        """:meth:`write` as the generator its process runs (see
        :meth:`read_body`)."""
        return self._admit(
            self._write(
                offset, nbytes, self._payload(data, nbytes), ctx=ctx,
                deadline_ns=self._qos_deadline(deadline_ns),
            ),
            priority,
        )

    def _admit(self, body, priority: str):
        """A top-level I/O ``body`` through the admission gate, when one is
        armed: the one entry every public read and write takes."""
        if self._admission is not None:
            return self._admitted(body, priority)
        return body

    def _payload(self, data, nbytes: int):
        """A write's ``data`` as a ``uint8`` array of ``nbytes`` (None in
        timing mode); ``ValueError`` when missing or of the wrong length."""
        if self.functional and data is None:
            raise ValueError("functional mode requires write data")
        if data is not None:
            data = np.frombuffer(data, dtype=np.uint8) if isinstance(data, (bytes, bytearray)) else np.asarray(data, dtype=np.uint8)
            if len(data) != nbytes:
                raise ValueError(f"data length {len(data)} != nbytes {nbytes}")
        return data

    # -- CPU cost hooks: the controller's own work, on ``self.machine`` --------
    #
    # ``ctx`` parents the compute span the charged core records when traced.

    def _charge_submit(self, ctx=None):
        return self.machine.pick_core().execute(self.submit_ns, ctx=ctx, span="submit")

    def _charge_xor(self, num_sources: int, nbytes: int, ctx=None):
        core = self.machine.pick_core()
        work = self.machine.cpu_profile.xor_ns(nbytes) * max(0, num_sources - 1)
        return core.execute(work, ctx=ctx, span="xor")

    def _charge_gf(self, num_sources: int, nbytes: int, ctx=None):
        core = self.machine.pick_core()
        work = self.machine.cpu_profile.gf_ns(nbytes) * num_sources
        return core.execute(work, ctx=ctx, span="gf")

    # -- top-level read/write processes ----------------------------------------

    def _read(
        self, offset: int, nbytes: int, take_locks: bool = True, ctx=None,
        deadline_ns=None,
    ):
        yield self._charge_submit(ctx)
        extents = self.geometry.map_extent(offset, nbytes)
        buffer = np.zeros(nbytes, dtype=np.uint8) if self.functional else None
        yield from self._fan_out([
            self._read_extent(ext, buffer, take_locks, ctx, deadline_ns=deadline_ns)
            for ext in extents
        ])
        if self.integrity is not None:
            yield from self._verify_read(extents, buffer, take_locks)
        self.stats.reads += 1
        return buffer

    def _write(self, offset: int, nbytes: int, data, ctx=None, deadline_ns=None):
        yield self._charge_submit(ctx)
        extents = self.geometry.map_extent(offset, nbytes)
        yield from self._fan_out([
            self._write_extent(ext, data, ctx, deadline_ns=deadline_ns) for ext in extents
        ])
        self.stats.writes += 1

    def _fan_out(self, bodies):
        """Run one op's per-extent ``bodies`` at once: several through
        ``gather``, a lone one in this process (``env.call``)."""
        if len(bodies) == 1:
            yield from self.env.call(bodies[0], fan_out=True)
        else:
            yield self.env.gather(bodies)

    def _write_extent(self, ext: StripeExtent, io_data, ctx=None, deadline_ns=None):
        """The write admission every datapath shares: mark the stripe in the
        write-intent bitmap, take the stripe lock (§3: one write per stripe),
        repair silent corruption first, then run the datapath's write."""
        self.bitmap.mark(ext.stripe)
        yield self.locks.acquire(ext.stripe, ctx)
        try:
            if self.integrity is not None:
                yield from self._verify_stripe_before_write(ext)
            yield from self._write_stripe(ext, io_data, ctx, deadline_ns=deadline_ns)
        finally:
            self.locks.release(ext.stripe)
            self.bitmap.clear(ext.stripe)

    # -- stripe-image helpers -----------------------------------------------------

    def _seg_data(self, io_data, seg: ChunkSegment):
        if io_data is None:
            return None
        return io_data[seg.io_offset : seg.io_offset + seg.length]

    def _encode_parities(self, image, ctx=None):
        """The parity stage every full-image write shares: pay the code's
        encode price list on the controller CPU, then encode.

        ``image`` is the stripe's ``k`` data chunks; returns the ``m``
        parity chunks (``None`` each in timing mode).
        """
        chunk = self.geometry.chunk_bytes
        for kind, sources in self.code.encode_charges:
            charge = self._charge_xor if kind == "xor" else self._charge_gf
            yield charge(sources, chunk, ctx)
        if not self.functional:
            return [None] * self.code.m
        return self.code.encode(image)

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

    def _read_gaps(self, ext: StripeExtent, read):
        """Read every region :meth:`_stripe_gaps` lists, one after another,
        each through the datapath's degraded-aware reader, a generator
        ``read(gap_ext, buffer)``.  Returns ``(gaps, blocks)``
        (each block ``None`` in timing mode), what :meth:`_assemble_stripe`
        takes."""
        g = self.geometry
        gaps = self._stripe_gaps(ext)
        stripe_base = ext.stripe * g.stripe_data_bytes
        blocks: List[Optional[np.ndarray]] = []
        for d, off, length in gaps:
            user_offset = stripe_base + d * g.chunk_bytes + off
            gap_ext, = g.map_extent(user_offset, length)
            buffer = np.zeros(length, dtype=np.uint8) if self.functional else None
            yield from read(gap_ext, buffer)
            blocks.append(buffer)
        return gaps, blocks

    def _stripe_writes(
        self, ext: StripeExtent, io_data, plan: WritePlan, parity_blocks, span
    ) -> List[Tuple[int, int, int, Optional[np.ndarray]]]:
        """The member writes of one stripe write, a ``(member, drive offset,
        length, block)`` each: the touched segments on the plan's surviving
        members, then ``parity_blocks[row]`` to every surviving ``(row,
        member)`` parity over ``span`` (``(chunk offset, length)``)."""
        span_off, span_len = span
        return [
            (s.drive, s.drive_offset, s.length, self._seg_data(io_data, s))
            for s in ext.segments
            if s.drive not in plan.failed
        ] + [
            (p, ext.parity_offset + span_off, span_len, parity_blocks[row])
            for row, p in plan.parities
        ]

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

    # -- the datapath: what a subclass supplies ------------------------------------

    @abstractmethod
    def _attach_transport(self) -> None:
        """Wire up the remote-storage transport to ``self.servers`` and list
        each member's crashable server-side controller (NVMe-oF target or
        dRAID bdev server) in ``self.server_sides``."""

    @abstractmethod
    def _read_extent(
        self, ext: StripeExtent, buffer, take_locks: bool = True, ctx=None,
        deadline_ns=None,
    ):
        """Read one stripe extent into ``buffer`` (degraded-aware, retried
        on the resilient path); a generator."""

    @abstractmethod
    def _write_stripe(self, ext: StripeExtent, io_data, ctx=None, deadline_ns=None):
        """Write one stripe extent, retries included; a generator that
        :meth:`_write_extent` runs under the stripe lock."""

    @abstractmethod
    def _member_read(self, drive: int, offset: int, nbytes: int):
        """Raw read of one member chunk region (integrity/scrub path)."""

    @abstractmethod
    def _member_write(self, drive: int, offset: int, nbytes: int, data):
        """Raw write of one member chunk region (integrity/scrub path)."""

    @abstractmethod
    def _await_repair_io(self, gathered):
        """Wait for a repair-I/O condition without ever parking the stripe
        lock: the outcome dict, or None on member error or expiry."""
