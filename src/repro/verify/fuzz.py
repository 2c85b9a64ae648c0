"""One seeded fault-schedule harness: a shadow-model differential check of
the whole datapath under §5.4 failures.

FoundationDB-style deterministic simulation testing, scoped to this
repository.  A :class:`FuzzSchedule` is a tiny functional-mode array (one
of the controllers, on any layout/code axis) plus a workload of
:class:`FuzzOp` steps.  Two generators make schedules:

* :func:`make_schedule` — the differential fuzzer: writes, reads, member
  fails, rebuild-heals and bit rot as literal ops whose payloads derive
  from ``payload_seed``, so a shrunk schedule replays its surviving ops
  bit-identically;
* :func:`chaos_schedule` — a paced read/write workload (the
  ``repro.chaos:<system>:<seed>`` stream, payload bytes included) through
  a seeded :func:`~repro.faults.plan.chaos_plan` storm armed by a
  :class:`~repro.faults.injector.FaultInjector`, optionally with silent
  corruption, an online scrub daemon, correlated and gray faults.

:func:`run_schedule` runs either kind with the kernel sanitizer and
protocol checker armed, recovers with one playbook, and diffs the end
state byte-for-byte against a trivial sequential shadow array.  Any
divergence — a read or end-state diff, a dirty parity scrub, a chunk
still corrupt after recovery, or an :class:`~repro.verify.InvariantViolation`
raised mid-run — is a *failing schedule*, which :func:`shrink_schedule`
reduces to a minimal reproducer and :func:`emit_reproducer` turns into a
ready-to-commit regression test (see ``tests/test_fuzz_regressions.py``).

Everything — op offsets, payloads, fault times, retry backoff — keys off
the schedule and the sim clock, so a schedule replays bit-identically
whether it runs serially or in a parallel worker process; the smoke
goldens rely on exactly that.  The CLI entry point
(``python -m repro.verify.fuzz``) derives per-iteration seeds from a base
seed by SHA-256, so nightly runs are reproducible from their logged
command line alone.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Set, Tuple

import numpy as np

from repro.faults.events import BitRot, LostWrite, MisdirectedWrite, TornWrite
from repro.faults.plan import FaultPlan, chaos_plan
from repro.verify import InvariantViolation, VerifyConfig

KB = 1024
MS = 1_000_000

#: every schedule wants fast failure detection; production default is 50 ms
FUZZ_TIMEOUT_NS = 2 * MS

#: the controllers both generators rotate through
FUZZ_SYSTEMS = ("md", "spdk", "draid")

#: :func:`make_schedule`'s array: members, stripes, chunk bytes
FUZZ_DRIVES = 4
FUZZ_STRIPES = 8
FUZZ_CHUNK = 4 * KB

#: :func:`chaos_schedule`'s chunk bytes and fault-storm horizon
CHAOS_CHUNK = 16 * KB
CHAOS_HORIZON_NS = 60 * MS

#: plan events that silently corrupt (they arm the integrity store)
CORRUPTION_EVENTS = (BitRot, LostWrite, MisdirectedWrite, TornWrite)


@dataclass(frozen=True)
class FuzzOp:
    """One step of a schedule.  Frozen and literal-emittable: a shrunk
    schedule's reproducer source is just ``repr`` of these.

    Kinds:

    * ``"write"`` — write ``nbytes`` at ``offset``; the payload is derived
      from ``payload_seed`` (pinned at generation time so shrinking never
      changes surviving ops' bytes), or comes from the schedule's literal
      ``payloads``.
    * ``"read"`` — read ``nbytes`` at ``offset`` and diff against the
      shadow array.
    * ``"fail"`` — fail member ``drive`` (skipped when the array is
      already at its parity tolerance).
    * ``"heal"`` — heal member ``drive`` and rebuild it (no-op when the
      member is not failed).
    * ``"rot"`` — silently corrupt ``nbytes`` of member ``drive`` at
      ``offset`` (arms the integrity store for the whole schedule).

    Every op waits ``gap_ns`` of simulated time before executing, so
    background machinery (timeouts, rebuilds, injected faults)
    interleaves with the workload.
    """

    kind: str
    offset: int = 0
    nbytes: int = 0
    drive: int = 0
    gap_ns: int = 0
    payload_seed: int = 0


@dataclass(frozen=True)
class FuzzSchedule:
    """A complete, self-contained input: replaying it needs nothing but
    this object (see :func:`replay_schedule`).

    The design-space axes (``layout``, ``code`` and friends) default to
    the historic configuration — rotating RAID-5 — so every schedule
    generated or pinned before the axes existed replays byte-identically.
    ``system`` additionally accepts ``"draid-st"`` (stateless-target
    controller); ``code`` is ``""`` for RAID-5, ``"raid6"`` for RAID-6,
    or ``"rs"``/``"lrc"`` for the generalized dRAID arrays.

    A chaos schedule also carries its fault ``plan``, the literal bytes of
    its writes (``payloads``, one per write op in order: they come from
    the same RNG as the offsets, so no ``payload_seed`` reproduces them)
    and, optionally, the pace of a scrub daemon running through the storm.
    """

    system: str
    seed: int
    drives: int = FUZZ_DRIVES
    stripes: int = FUZZ_STRIPES
    chunk: int = FUZZ_CHUNK
    ops: Tuple[FuzzOp, ...] = ()
    layout: str = "rotating"
    layout_seed: int = 0
    code: str = ""
    ec_parity: int = 2
    local_groups: int = 1
    plan: Optional[FaultPlan] = None
    payloads: Tuple[bytes, ...] = ()
    scrub_pace_ns: Optional[int] = None

    def describe(self) -> str:
        axes = ""
        if self.layout != "rotating" or self.code:
            axes = f" layout={self.layout} code={self.code or 'raid5'}"
        return (
            f"{self.system} seed={self.seed} "
            f"{self.drives}x{self.stripes}x{self.chunk} ops={len(self.ops)}{axes}"
        )


@dataclass(frozen=True)
class FuzzOutcome:
    """Result of one schedule run (deterministic for a given schedule)."""

    system: str
    seed: int
    ops: int
    op_errors: int  #: ops and recovery rebuilds that ended in IoError/ChecksumError
    torn_stripes: int  #: stripes the recovery resync rewrote and adopted
    #: "" when clean; "invariant:<name>", "diff", "scrub-dirty",
    #: "unrecoverable" or "exception:<Type>" otherwise
    failure: str
    detail: str  #: human-readable description of the failure ("" if ok)
    verified: bool  #: every non-torn byte matched the shadow array
    scrub_clean: bool  #: the post-recovery parity scrub found nothing
    data_sha256: str  #: digest of the final image ("" if the run stopped)
    checked_messages: int  #: messages the protocol checker followed
    rebuilds: int  #: rebuild jobs completed (injector heals, heal ops, recovery)
    plan_events: int  #: events in the fault plan (0 without one)
    applied: int  #: plan events the injector applied
    fault_summary: str  #: ``FaultStats.summary()`` of the array
    corruption_events: int  #: corrupting plan events and ``rot`` ops
    detected: int  #: corruption-detection episodes (checksum mismatches)
    repaired: int  #: chunks repaired from parity across all episodes
    #: chunks *still* failing checksum verification after the full
    #: recovery playbook — genuine silent data loss.  Transient
    #: beyond-parity read errors during the run are episode telemetry in
    #: ``integrity_summary``, not data loss.
    unrecoverable: int
    integrity_summary: str  #: ``IntegrityStats.summary()`` ("" if unarmed)

    @property
    def ok(self) -> bool:
        # every failure kind clears ``verified`` or ``scrub_clean`` or
        # leaves unrecoverable chunks
        return self.verified and self.scrub_clean and self.unrecoverable == 0

    def row(self) -> str:
        """One deterministic log/golden line."""
        return (
            f"{self.system:>5s} seed={self.seed:<6d} ops={self.ops} "
            f"errors={self.op_errors} torn={self.torn_stripes} "
            f"msgs={self.checked_messages} "
            f"result={'ok' if self.ok else self.failure} "
            f"sha={self.data_sha256[:12]}"
        )


# -- schedule generation ----------------------------------------------------


def _testbed(schedule: FuzzSchedule):
    """``(env, cluster, array)`` for ``schedule``, sanitizer armed."""
    from repro import ClusterConfig, RaidLevel, build_testbed

    raid6 = schedule.code == "raid6"
    config = ClusterConfig(
        num_servers=schedule.drives,
        functional_capacity=schedule.stripes * schedule.chunk,
        io_timeout_ns=FUZZ_TIMEOUT_NS,
        verify=VerifyConfig(),
    )
    return build_testbed(
        schedule.system,
        level=RaidLevel.RAID6 if raid6 else RaidLevel.RAID5,
        chunk_bytes=schedule.chunk,
        config=config,
        layout=schedule.layout,
        layout_seed=schedule.layout_seed,
        code=None if raid6 else schedule.code or None,
        parity=schedule.ec_parity,
        local_groups=schedule.local_groups,
    )


def make_schedule(
    system: str, seed: int, num_ops: int = 10, axes: bool = False
) -> FuzzSchedule:
    """Generate one seeded fuzz schedule.  Deterministic in its arguments.

    ``axes=True`` additionally draws the design-space axes (layout, and —
    on dRAID controllers — erasure code) from a *child* RNG
    (``repro.fuzz.axes:<system>:<seed>``), so axis sampling never
    perturbs the op stream of the default configuration and every
    pre-axes ``(system, seed)`` schedule stays byte-identical.
    """
    rng = random.Random(f"repro.fuzz:{system}:{seed}")
    schedule = FuzzSchedule(system=system, seed=seed)
    if axes:
        axes_rng = random.Random(f"repro.fuzz.axes:{system}:{seed}")
        layout = axes_rng.choice(("rotating", "declustered"))
        layout_seed = axes_rng.randrange(1 << 16)
        code = ""
        if system in ("draid", "draid-st"):
            code = axes_rng.choice(("", "rs", "lrc"))
        schedule = replace(
            schedule,
            # EC variants need k >= 2 even on the narrower declustered width
            drives=max(FUZZ_DRIVES, 6) if code else FUZZ_DRIVES,
            layout=layout,
            layout_seed=layout_seed,
            code=code,
        )
    stripe_bytes = _testbed(schedule)[2].geometry.stripe_data_bytes
    capacity = FUZZ_STRIPES * stripe_bytes
    member_bytes = FUZZ_STRIPES * FUZZ_CHUNK
    kinds = ["write", "write", "write", "write", "read", "read", "fail", "heal", "rot"]
    ops: List[FuzzOp] = []
    for _ in range(num_ops):
        kind = rng.choice(kinds)
        gap = rng.randint(50_000, 1 * MS)
        if kind in ("write", "read"):
            size = rng.randint(1, 2 * stripe_bytes)
            ops.append(
                FuzzOp(
                    kind,
                    offset=rng.randrange(0, capacity - size),
                    nbytes=size,
                    gap_ns=gap,
                    payload_seed=rng.randrange(1 << 30) if kind == "write" else 0,
                )
            )
        elif kind in ("fail", "heal"):
            ops.append(FuzzOp(kind, drive=rng.randrange(schedule.drives), gap_ns=gap))
        else:  # rot
            length = rng.randint(1, FUZZ_CHUNK)
            ops.append(
                FuzzOp(
                    "rot",
                    drive=rng.randrange(schedule.drives),
                    offset=rng.randrange(0, member_bytes - length),
                    nbytes=length,
                    gap_ns=gap,
                    payload_seed=rng.randrange(1 << 30),
                )
            )
    return replace(schedule, ops=tuple(ops))


def chaos_schedule(
    system: str,
    seed: int,
    drives: int = 5,
    stripes: int = 12,
    ops: int = 18,
    corruption_events: int = 0,
    scrub_pace_ns: Optional[int] = None,
    correlated_events: int = 0,
    gray_events: int = 0,
    layout: Optional[str] = None,
    layout_seed: int = 0,
    code: str = "",
    ec_parity: int = 2,
    local_groups: int = 1,
) -> FuzzSchedule:
    """A seeded fault storm against ``system``: ``ops`` paced reads and
    writes through a :func:`~repro.faults.plan.chaos_plan` over
    :data:`CHAOS_HORIZON_NS`.  Deterministic in its arguments.

    ``corruption_events > 0`` adds silent-corruption events (bit rot,
    lost / torn / misdirected writes) to the plan, which arms the
    cluster's :class:`~repro.storage.integrity.IntegrityStore`, so every
    read verifies checksums and repairs from parity.  ``scrub_pace_ns``
    additionally runs an online :class:`~repro.raid.scrubber.ScrubDaemon`
    *during* the storm at that pace.

    ``correlated_events > 0`` adds domain-shaped hard faults (enclosure
    outages, shared-batch failure storms) budgeted against the array's
    tolerance, and ``gray_events > 0`` adds sub-ejection-threshold NIC
    flaps and drive stutters; plan and injector both resolve domains on
    the default :class:`~repro.faults.domains.DomainTopology`.

    The design-space axes: ``layout`` picks a registered stripe layout
    (``None``/``"rotating"`` is the stock rotation, ``"declustered"``
    the seeded distributed-spare organization keyed by ``layout_seed``);
    ``code`` is a :class:`FuzzSchedule` code — ``"raid6"`` for a RAID-6
    geometry (required for multi-member correlated storms: RAID-5 has no
    budget for them), or ``"rs"``/``"lrc"`` with ``ec_parity`` parities,
    LRC splitting them into ``local_groups`` local + rest global.  The
    fault budget follows the *code's* tolerance (``g`` for LRC, not the
    parity count).
    """
    schedule = FuzzSchedule(
        system=system, seed=seed, drives=drives, stripes=stripes, chunk=CHAOS_CHUNK,
        layout=layout or "rotating", layout_seed=layout_seed, code=code,
        ec_parity=ec_parity, local_groups=local_groups, scrub_pace_ns=scrub_pace_ns,
    )
    array = _testbed(schedule)[2]
    plan = chaos_plan(
        seed,
        CHAOS_HORIZON_NS,
        drives,
        array.fault_tolerance,
        corruption_events=corruption_events,
        chunk_bytes=CHAOS_CHUNK,
        num_stripes=stripes,
        correlated_events=correlated_events,
        gray_events=gray_events,
    )
    stripe_bytes = array.geometry.stripe_data_bytes
    capacity = stripes * stripe_bytes
    rng = random.Random(f"repro.chaos:{system}:{seed}")
    steps: List[FuzzOp] = []
    payloads: List[bytes] = []
    for _ in range(ops):
        gap = rng.randint(
            CHAOS_HORIZON_NS // (2 * ops), (3 * CHAOS_HORIZON_NS) // (2 * ops)
        )
        size = rng.randint(1, 3 * stripe_bytes)
        offset = rng.randrange(0, capacity - size)
        kind = "read" if rng.random() < 0.35 else "write"
        steps.append(FuzzOp(kind, offset=offset, nbytes=size, gap_ns=gap))
        if kind == "write":
            payloads.append(rng.randbytes(size))
    return replace(schedule, ops=tuple(steps), plan=plan, payloads=tuple(payloads))


def chaos_point(system: str, seed: int, **knobs) -> FuzzOutcome:
    """Sweep-point form of :func:`chaos_schedule`: the schedule is made
    and run inside the worker, so only the arguments cross processes."""
    return run_schedule(chaos_schedule(system, seed, **knobs))


def _payload(op: FuzzOp) -> bytes:
    return random.Random(f"repro.fuzz.data:{op.payload_seed}").randbytes(op.nbytes)


# -- execution --------------------------------------------------------------


def run_schedule(schedule: FuzzSchedule) -> FuzzOutcome:
    """Run one schedule and diff its end state against the shadow array.

    The kernel sanitizer and protocol checker are armed, so an invariant
    violation fails the schedule even when the bytes happen to survive.
    A write that ends in ``IoError``/``ChecksumError`` leaves its stripes
    torn (the §5.4 write hole); a read that does stops verifying them; a
    read that returns bytes other than the shadow's is a ``diff``.

    Recovery is one playbook.  A schedule with a fault plan first drains
    the injector and outlasts every self-clearing fault window, then stops
    its scrub daemon.  Each failed member is rebuilt; a rebuild that
    errors falls back to an in-place rejoin with every stripe torn.  With
    integrity armed, a scrub-repair pass cures surviving corruption and
    stripes still corrupt beyond parity are adopted like torn ones.  Torn
    stripes are resynchronized and their surviving bytes adopted into the
    shadow.  A plan with integrity armed can corrupt future writes, which
    rebuild and resync writes would trip, so there every casualty rejoins
    in place and a final scrub-repair pass follows the resync.
    """
    from repro.faults.injector import FaultInjector
    from repro.nvmeof.messages import IoError
    from repro.raid.rebuild import RebuildJob
    from repro.raid.scrub import scrub_array
    from repro.raid.scrubber import ScrubDaemon
    from repro.storage.integrity import ChecksumError, IntegrityStore

    env, cluster, array = _testbed(schedule)
    stripes, plan = schedule.stripes, schedule.plan
    corruption = sum(op.kind == "rot" for op in schedule.ops)
    if plan is not None:
        corruption += sum(isinstance(event, CORRUPTION_EVENTS) for event in plan)
    if corruption or schedule.scrub_pace_ns is not None:
        IntegrityStore(schedule.chunk).attach(cluster)
    store = cluster.integrity
    # the timeout/retry datapath runs even when ops, not an injector,
    # drive the faults
    array.resilient = True
    injector = None
    if plan is not None:
        injector = FaultInjector(array, plan, num_stripes=stripes)
    daemon = None
    if schedule.scrub_pace_ns is not None:
        daemon = ScrubDaemon(array, stripes, pace_ns=schedule.scrub_pace_ns, repeat=True)

    stripe_bytes = array.geometry.stripe_data_bytes
    shadow = np.zeros(stripes * stripe_bytes, dtype=np.uint8)
    every_stripe = set(range(stripes))
    torn: Set[int] = set()
    op_errors = rebuilds = 0
    payloads = iter(schedule.payloads)

    def stripes_of(offset: int, nbytes: int) -> Set[int]:
        return set(
            range(offset // stripe_bytes, (offset + nbytes - 1) // stripe_bytes + 1)
        )

    def scrub_repair() -> None:
        env.run(until=ScrubDaemon(array, stripes, pace_ns=0).process)

    def outcome(failure, detail, verified=False, scrub_clean=False, final=None,
                unrecoverable=0) -> FuzzOutcome:
        istats = array.integrity_stats
        return FuzzOutcome(
            system=schedule.system,
            seed=schedule.seed,
            ops=len(schedule.ops),
            op_errors=op_errors,
            torn_stripes=len(torn),
            failure=failure,
            detail=detail,
            verified=verified,
            scrub_clean=scrub_clean,
            data_sha256=(
                "" if final is None
                else hashlib.sha256(np.ascontiguousarray(final).tobytes()).hexdigest()
            ),
            checked_messages=cluster.verify.protocol.checked_messages,
            rebuilds=rebuilds + (injector.rebuilds if injector is not None else 0),
            plan_events=len(plan) if plan is not None else 0,
            applied=injector.applied if injector is not None else 0,
            fault_summary=array.fault_stats.summary(),
            corruption_events=corruption,
            detected=istats.total_detected,
            repaired=istats.total_repaired,
            unrecoverable=unrecoverable,
            integrity_summary=istats.summary() if store is not None else "",
        )

    try:
        for op in schedule.ops:
            if op.gap_ns:
                env.run(until=env.now + op.gap_ns)
            try:
                if op.kind == "write":
                    data = next(payloads) if schedule.payloads else _payload(op)
                    payload = np.frombuffer(data, dtype=np.uint8).copy()
                    env.run(until=array.write(op.offset, op.nbytes, payload))
                    shadow[op.offset : op.offset + op.nbytes] = payload
                elif op.kind == "read":
                    data = env.run(until=array.read(op.offset, op.nbytes))
                    if not stripes_of(op.offset, op.nbytes) & torn and not np.array_equal(
                        data, shadow[op.offset : op.offset + op.nbytes]
                    ):
                        return outcome(
                            "diff",
                            f"read at {op.offset}+{op.nbytes} diverged from "
                            f"the shadow array",
                        )
                elif op.kind == "fail":
                    if (
                        op.drive not in array.failed
                        and len(array.failed) < array.fault_tolerance
                    ):
                        array.fail_drive(op.drive)
                elif op.kind == "heal":
                    if op.drive in array.failed:
                        # RebuildJob swaps in a fresh (healed) drive itself
                        env.run(until=RebuildJob(array, op.drive, stripes).start())
                        rebuilds += 1
                elif op.kind == "rot":
                    array.drives[op.drive].corrupt(
                        "bitrot",
                        offset=op.offset,
                        length=op.nbytes,
                        seed=op.payload_seed,
                    )
                else:
                    raise ValueError(f"unknown fuzz op kind {op.kind!r}")
            except (IoError, ChecksumError):
                op_errors += 1
                if op.kind in ("write", "read"):
                    torn |= stripes_of(op.offset, op.nbytes)
                elif op.kind == "heal":
                    # rebuild hit rot on a survivor (two erasures): the
                    # member stays failed; later heals may still cure it
                    torn |= every_stripe

        # -- recovery: restore redundancy so the end state is checkable ----
        if injector is not None:
            # let the plan and its helpers (heals, restores) run out, and
            # outlast every self-clearing window (fail-slow, bursts, NIC)
            env.run(until=injector.drain())
            env.run(until=max(env.now, plan.horizon_ns) + 60 * MS)
            if daemon is not None:
                daemon.stop()
        # a plan can arm corruption against future writes, which rebuild
        # writes would trip: there every casualty rejoins in place
        rejoin_in_place = injector is not None and store is not None
        for member in sorted(array.failed):
            if rejoin_in_place:
                array.drives[member].heal()
            else:
                try:
                    env.run(until=RebuildJob(array, member, stripes).start())
                    rebuilds += 1
                    continue
                except (IoError, ChecksumError):
                    op_errors += 1
            array.repair_drive(member)
            torn |= every_stripe  # trust nothing unverified
        if store is not None:
            # scrub-repair cures surviving corruption (notably on parity
            # chunks, which foreground reads never verify); corruption
            # beyond parity is data loss, not a controller bug, so those
            # stripes are adopted like torn ones
            scrub_repair()
            members = range(len(array.drives))
            torn |= {
                s for s in every_stripe if store.verify_members(array.drives, s, members)
            }
        _resync_and_adopt(array, torn, shadow)
        if rejoin_in_place:
            # recovery writes may themselves have tripped armed corruption
            scrub_repair()

        # -- differential verification -------------------------------------
        final, verified = _read_final_image(array, shadow)
        cluster.verify.check_quiescent()
    except Exception as exc:  # noqa: BLE001 — any escape fails the schedule
        if isinstance(exc, InvariantViolation):
            return outcome(f"invariant:{exc.invariant}", str(exc))
        return outcome(f"exception:{type(exc).__name__}", str(exc))

    report = scrub_array(array.drives, array.geometry, stripes, code=array.code)
    unrecoverable = 0
    if store is not None:
        # a stripe's own chunks only: a declustered spare slot holds no data
        unrecoverable = sum(
            len(store.verify_members(array.drives, s, array.geometry.stripe_drives(s)))
            for s in every_stripe
        )
    failure = detail = ""
    if not verified:
        failure, detail = "diff", "end state diverged from the shadow array"
    elif not report.clean:
        failure, detail = "scrub-dirty", "post-run parity scrub found mismatches"
    elif unrecoverable:
        failure = "unrecoverable"
        detail = f"{unrecoverable} chunks still fail verification after recovery"
    return outcome(failure, detail, verified, report.clean, final, unrecoverable)


def _resync_and_adopt(array, torn: Set[int], model: np.ndarray) -> None:
    """Recovery for torn stripes: resync each one — a full-stripe rewrite
    regenerates parity — then adopt its (now self-consistent) surviving
    bytes into the shadow ``model``."""
    from repro.raid.resync import resync_stripes
    from repro.storage.integrity import ChecksumError

    env, cluster = array.env, array.cluster
    stripe_bytes = array.geometry.stripe_data_bytes
    for stripe in sorted(torn):
        try:
            env.run(until=resync_stripes(array, [stripe]))
        except ChecksumError:
            # corruption beyond parity on a torn stripe: nothing is
            # reconstructable, so — as with stale in-place rejoins — the
            # surviving bytes become the stripe's truth.  Read them
            # unarmed and regenerate parity with a full-stripe rewrite;
            # the drives still record the write, so the store re-trusts
            # the adopted content and clears its poison.
            offset = stripe * stripe_bytes
            saved, cluster.integrity = cluster.integrity, None
            try:
                data = env.run(until=array.read(offset, stripe_bytes))
                env.run(until=array.write(offset, stripe_bytes, data))
            finally:
                cluster.integrity = saved
    for stripe in sorted(torn):
        offset = stripe * stripe_bytes
        data = env.run(until=array.read(offset, stripe_bytes))
        model[offset : offset + stripe_bytes] = data


def _read_final_image(array, model: np.ndarray):
    """Read the whole device back; returns ``(image, image == model)``."""
    from repro.storage.integrity import ChecksumError

    env, cluster = array.env, array.cluster
    try:
        final = env.run(until=array.read(0, len(model)))
        return final, bool(np.array_equal(final, model))
    except ChecksumError:
        # corruption beyond repair: grab the raw (corrupt) image unarmed
        # so the digest still reflects the end state
        saved, cluster.integrity = cluster.integrity, None
        final = env.run(until=array.read(0, len(model)))
        cluster.integrity = saved
        return final, False


#: the name committed reproducers (``emit_reproducer``'s tests) call
replay_schedule = run_schedule


# -- shrinking --------------------------------------------------------------


def shrink_schedule(
    schedule: FuzzSchedule,
    still_fails: Optional[Callable[[FuzzSchedule], bool]] = None,
) -> FuzzSchedule:
    """Greedy delta-debugging: drop op chunks while the failure persists.

    ``still_fails`` defaults to "running the candidate yields any
    failure"; tests inject their own predicate to shrink against a
    specific invariant.  Worst case ``O(n^2)`` runs; schedules are
    ~10 ops, so shrinking is cheap.  Only :func:`make_schedule` schedules
    shrink: a chaos schedule's literal payloads pair with its writes.
    """
    if still_fails is None:
        still_fails = lambda cand: not run_schedule(cand).ok  # noqa: E731
    ops = list(schedule.ops)
    chunk = max(1, len(ops) // 2)
    while chunk >= 1:
        i = 0
        while i < len(ops):
            trial = ops[:i] + ops[i + chunk :]
            candidate = replace(schedule, ops=tuple(trial))
            if still_fails(candidate):
                ops = trial
            else:
                i += chunk
        chunk //= 2
    return replace(schedule, ops=tuple(ops))
def emit_reproducer(schedule: FuzzSchedule, outcome: FuzzOutcome) -> str:
    """Source of a self-contained regression test for ``schedule``.

    The emitted test replays the schedule through :func:`replay_schedule`
    and asserts a clean outcome, so it fails until the underlying bug is
    fixed and guards against regression forever after.  Output format is
    pinned by ``tests/test_fuzz_regressions.py``.
    """
    op_lines = ",\n".join(f"        {op!r}" for op in schedule.ops)
    ops_literal = f"(\n{op_lines},\n    )" if schedule.ops else "()"
    # design-space axes are emitted only when non-default, so pre-axes
    # reproducers (and their pinned goldens) stay byte-identical
    axis_lines = ""
    if schedule.layout != "rotating":
        axis_lines += f"\n        layout={schedule.layout!r},"
        axis_lines += f"\n        layout_seed={schedule.layout_seed},"
    if schedule.code:
        axis_lines += f"\n        code={schedule.code!r},"
        axis_lines += f"\n        ec_parity={schedule.ec_parity},"
        axis_lines += f"\n        local_groups={schedule.local_groups},"
    return f'''def test_fuzz_{_ident(schedule.system)}_seed{schedule.seed}():
    """Shrunk reproducer ({len(schedule.ops)} ops): {outcome.failure or "clean"}.

    {outcome.detail or "Replays clean; pins the schedule against regression."}
    """
    from repro.verify.fuzz import FuzzOp, FuzzSchedule, replay_schedule

    schedule = FuzzSchedule(
        system={schedule.system!r},
        seed={schedule.seed},
        drives={schedule.drives},
        stripes={schedule.stripes},
        chunk={schedule.chunk},
        ops={ops_literal},{axis_lines}
    )
    outcome = replay_schedule(schedule)
    assert outcome.ok, f"{{outcome.failure}}: {{outcome.detail}}"
'''


def _ident(system: str) -> str:
    """``system`` as a test-name fragment (``draid-st`` -> ``draid_st``)."""
    return system.replace("-", "_")


# -- CLI --------------------------------------------------------------------


def derive_seed(base_seed: int, index: int) -> int:
    """Deterministic per-iteration seed: SHA-256 of ``base:index``."""
    digest = hashlib.sha256(f"repro.fuzz:{base_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 1_000_000


def fuzz_many(
    seeds: int,
    base_seed: int = 0,
    budget_s: Optional[float] = None,
    systems: Tuple[str, ...] = FUZZ_SYSTEMS,
    num_ops: int = 10,
    on_row: Optional[Callable[[str], None]] = None,
    axes: bool = False,
) -> List[Tuple[FuzzSchedule, FuzzOutcome]]:
    """Run ``seeds`` schedules round-robin over ``systems``; returns every
    ``(schedule, outcome)`` run.  Stops early when ``budget_s`` wall
    seconds elapse."""
    t0 = time.monotonic()
    results: List[Tuple[FuzzSchedule, FuzzOutcome]] = []
    for i in range(seeds):
        if budget_s is not None and time.monotonic() - t0 > budget_s:
            if on_row is not None:
                on_row(f"# budget exhausted after {i} seeds")
            break
        system = systems[i % len(systems)]
        schedule = make_schedule(
            system, derive_seed(base_seed, i), num_ops=num_ops, axes=axes
        )
        outcome = run_schedule(schedule)
        if on_row is not None:
            on_row(outcome.row())
        results.append((schedule, outcome))
    return results


def main(argv: Optional[List[str]] = None) -> int:
    import argparse
    import os

    parser = argparse.ArgumentParser(
        prog="python -m repro.verify.fuzz",
        description="shadow-model differential fuzzer (nightly entry point)",
    )
    parser.add_argument("--seeds", type=int, default=60, help="schedules to run")
    parser.add_argument(
        "--budget-s", type=float, default=None, help="wall-clock budget in seconds"
    )
    parser.add_argument(
        "--base-seed", type=int, default=0,
        help="base seed; per-iteration seeds are SHA-256 derived from it",
    )
    parser.add_argument(
        "--systems", default=",".join(FUZZ_SYSTEMS),
        help="comma-separated controller subset (md,spdk,draid)",
    )
    parser.add_argument("--ops", type=int, default=10, help="ops per schedule")
    parser.add_argument(
        "--axes", action="store_true",
        help="draw design-space axes (layout/code) from seeded child RNGs",
    )
    parser.add_argument(
        "--out", default="fuzz_failures",
        help="directory for shrunk reproducers of failing schedules",
    )
    args = parser.parse_args(argv)
    systems = tuple(s.strip() for s in args.systems.split(",") if s.strip())
    known = FUZZ_SYSTEMS + ("draid-st",)
    if not systems:
        parser.error(f"--systems names no system (choose from {known})")
    for system in systems:
        if system not in known:
            parser.error(f"unknown system {system!r} (choose from {known})")
    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")
    if args.ops < 1:
        parser.error(f"--ops must be >= 1, got {args.ops}")
    if args.budget_s is not None and args.budget_s <= 0:
        parser.error(f"--budget-s must be > 0, got {args.budget_s}")

    results = fuzz_many(
        args.seeds,
        base_seed=args.base_seed,
        budget_s=args.budget_s,
        systems=systems,
        num_ops=args.ops,
        on_row=print,
        axes=args.axes,
    )
    failures = [(schedule, outcome) for schedule, outcome in results if not outcome.ok]
    if not failures:
        print(f"# {len(results)} schedules clean")
        return 0
    os.makedirs(args.out, exist_ok=True)
    for schedule, outcome in failures:
        shrunk = shrink_schedule(schedule)
        final = run_schedule(shrunk)
        path = os.path.join(
            args.out, f"repro_{shrunk.system}_seed{shrunk.seed}.py"
        )
        with open(path, "w") as fh:
            fh.write(emit_reproducer(shrunk, final))
        print(
            f"# FAIL {schedule.describe()} -> shrunk to {len(shrunk.ops)} ops, "
            f"reproducer at {path}"
        )
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
