"""Shadow-model differential fuzzer for the whole datapath.

FoundationDB-style deterministic simulation testing, scoped to this
repository: a seeded schedule of workload ops, member faults and silent
corruption runs against one of the three controllers (MD, SPDK POC,
dRAID) on a tiny functional-mode array with the sanitizer and protocol
checker armed, and the end state is diffed byte-for-byte against a
trivial sequential shadow array.  Any divergence — a data diff, a dirty
parity scrub, or an :class:`~repro.verify.InvariantViolation` raised
mid-run — is a *failing schedule*, which :func:`shrink_schedule` reduces
to a minimal reproducer and :func:`emit_reproducer` turns into a
ready-to-commit regression test (see ``tests/test_fuzz_regressions.py``).

Everything keys off the schedule: op offsets, sizes and payload seeds
are frozen into :class:`FuzzOp` literals at generation time, so a
shrunk schedule replays the surviving ops bit-identically.  The CLI
entry point (``python -m repro.verify.fuzz``) derives per-iteration
seeds from a base seed by SHA-256, so nightly runs are reproducible
from their logged command line alone.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Set, Tuple

import numpy as np

from repro.verify import InvariantViolation, VerifyConfig

KB = 1024
MS = 1_000_000

#: fuzz schedules want fast failure detection, like the chaos harness
FUZZ_TIMEOUT_NS = 2 * MS

#: systems the fuzzer rotates through (same trio as the chaos harness)
FUZZ_SYSTEMS = ("md", "spdk", "draid")


@dataclass(frozen=True)
class FuzzOp:
    """One step of a schedule.  Frozen and literal-emittable: a shrunk
    schedule's reproducer source is just ``repr`` of these.

    Kinds:

    * ``"write"`` — write ``nbytes`` at ``offset``; the payload is derived
      from ``payload_seed`` (pinned at generation time so shrinking never
      changes surviving ops' bytes).
    * ``"read"`` — read ``nbytes`` at ``offset`` and diff against the
      shadow array.
    * ``"fail"`` — fail member ``drive`` (skipped when the array is
      already at its parity tolerance).
    * ``"heal"`` — heal member ``drive`` and rebuild it (no-op when the
      member is not failed).
    * ``"rot"`` — silently corrupt ``nbytes`` of member ``drive`` at
      ``offset`` (arms the integrity store for the whole schedule).

    Every op waits ``gap_ns`` of simulated time before executing, so
    background machinery (timeouts, rebuilds) interleaves with the
    workload.
    """

    kind: str
    offset: int = 0
    nbytes: int = 0
    drive: int = 0
    gap_ns: int = 0
    payload_seed: int = 0


@dataclass(frozen=True)
class FuzzSchedule:
    """A complete, self-contained fuzz input: replaying it needs nothing
    but this object (see :func:`replay_schedule`).

    The design-space axes (``layout``, ``code`` and friends) default to
    the historic configuration — rotating RAID-5 — so every schedule
    generated or pinned before the axes existed replays byte-identically.
    ``system`` additionally accepts ``"draid-st"`` (stateless-target
    controller); ``code`` is ``""`` for RAID-5, or ``"rs"``/``"lrc"``
    for the generalized dRAID arrays.
    """

    system: str
    seed: int
    drives: int = 4
    stripes: int = 8
    chunk: int = 4 * KB
    ops: Tuple[FuzzOp, ...] = ()
    layout: str = "rotating"
    layout_seed: int = 0
    code: str = ""
    ec_parity: int = 2
    local_groups: int = 1

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
    executed: int  #: ops actually run (a violation stops the schedule)
    op_errors: int  #: ops that ended in terminal IoError/ChecksumError
    torn_stripes: int
    #: "" when clean; "invariant:<name>", "diff", "scrub-dirty", or
    #: "exception:<Type>" otherwise
    failure: str
    detail: str  #: human-readable description of the failure ("" if ok)
    verified: bool
    scrub_clean: bool
    data_sha256: str
    checked_messages: int = 0

    @property
    def ok(self) -> bool:
        return not self.failure

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


def make_schedule(
    system: str,
    seed: int,
    drives: int = 4,
    stripes: int = 8,
    chunk: int = 4 * KB,
    num_ops: int = 10,
    corruption: bool = True,
    axes: bool = False,
) -> FuzzSchedule:
    """Generate one seeded schedule.  Deterministic in its arguments.

    ``axes=True`` additionally draws the design-space axes (layout, and —
    on dRAID controllers — erasure code) from a *child* RNG
    (``repro.fuzz.axes:<system>:<seed>``), so axis sampling never
    perturbs the op stream of the default configuration and every
    pre-axes ``(system, seed)`` schedule stays byte-identical.
    """
    rng = random.Random(f"repro.fuzz:{system}:{seed}")
    layout, layout_seed, code, ec_parity, local_groups = "rotating", 0, "", 2, 1
    if axes:
        axes_rng = random.Random(f"repro.fuzz.axes:{system}:{seed}")
        layout = axes_rng.choice(("rotating", "declustered"))
        layout_seed = axes_rng.randrange(1 << 16)
        if system in ("draid", "draid-st"):
            code = axes_rng.choice(("", "rs", "lrc"))
        if code:
            # EC variants need k >= 2 even on the narrower declustered width
            drives = max(drives, 6)
    if code:
        width = drives - 1 if layout == "declustered" else drives
        data_per_stripe = width - ec_parity
    elif layout == "declustered":
        data_per_stripe = (drives - 1) - 1
    else:
        from repro.raid.geometry import RaidGeometry, RaidLevel

        geometry = RaidGeometry(RaidLevel.RAID5, drives, chunk)
        data_per_stripe = geometry.data_per_stripe
    stripe_bytes = data_per_stripe * chunk
    capacity = stripes * stripe_bytes
    member_bytes = stripes * chunk
    kinds = ["write", "write", "write", "write", "read", "read", "fail", "heal"]
    if corruption:
        kinds.append("rot")
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
            ops.append(FuzzOp(kind, drive=rng.randrange(drives), gap_ns=gap))
        else:  # rot
            length = rng.randint(1, chunk)
            ops.append(
                FuzzOp(
                    "rot",
                    drive=rng.randrange(drives),
                    offset=rng.randrange(0, member_bytes - length),
                    nbytes=length,
                    gap_ns=gap,
                    payload_seed=rng.randrange(1 << 30),
                )
            )
    return FuzzSchedule(
        system=system, seed=seed, drives=drives, stripes=stripes, chunk=chunk,
        ops=tuple(ops), layout=layout, layout_seed=layout_seed, code=code,
        ec_parity=ec_parity, local_groups=local_groups,
    )


def _payload(op: FuzzOp) -> np.ndarray:
    data = random.Random(f"repro.fuzz.data:{op.payload_seed}").randbytes(op.nbytes)
    return np.frombuffer(data, dtype=np.uint8).copy()


# -- execution --------------------------------------------------------------


def run_schedule(schedule: FuzzSchedule, verify: bool = True) -> FuzzOutcome:
    """Run one schedule; differential end-state check against the shadow.

    ``verify=True`` (the default, and what :func:`replay_schedule` pins)
    arms the kernel sanitizer and protocol checker, so an invariant
    violation fails the schedule even when the bytes happen to survive.
    """
    from repro import ClusterConfig, build_testbed
    from repro.faults.chaos import read_final_image, resync_and_adopt
    from repro.nvmeof.messages import IoError
    from repro.raid.rebuild import RebuildJob
    from repro.raid.scrub import scrub_array
    from repro.raid.scrubber import ScrubDaemon
    from repro.storage.integrity import ChecksumError, IntegrityStore

    config = ClusterConfig(
        num_servers=schedule.drives,
        functional_capacity=schedule.stripes * schedule.chunk,
        io_timeout_ns=FUZZ_TIMEOUT_NS,
        verify=VerifyConfig() if verify else None,
    )
    env, cluster, array = build_testbed(
        schedule.system,
        chunk_bytes=schedule.chunk,
        config=config,
        layout=schedule.layout or None,
        layout_seed=schedule.layout_seed,
        code=schedule.code or None,
        parity=schedule.ec_parity,
        local_groups=schedule.local_groups,
    )
    geometry = array.geometry
    has_rot = any(op.kind == "rot" for op in schedule.ops)
    if has_rot:
        IntegrityStore(schedule.chunk).attach(cluster)
    # arm the timeout/retry datapath without a FaultInjector: the fuzzer
    # drives faults itself, op by op
    array._force_resilient = True

    stripe_bytes = geometry.stripe_data_bytes
    capacity = schedule.stripes * stripe_bytes
    shadow = np.zeros(capacity, dtype=np.uint8)
    torn: Set[int] = set()
    op_errors = 0
    executed = 0

    def stripes_of(offset: int, nbytes: int) -> Set[int]:
        return set(
            range(offset // stripe_bytes, (offset + nbytes - 1) // stripe_bytes + 1)
        )

    def fault_failure(exc: BaseException) -> FuzzOutcome:
        if isinstance(exc, InvariantViolation):
            failure, detail = f"invariant:{exc.invariant}", str(exc)
        else:
            failure, detail = f"exception:{type(exc).__name__}", str(exc)
        return FuzzOutcome(
            system=schedule.system,
            seed=schedule.seed,
            ops=len(schedule.ops),
            executed=executed,
            op_errors=op_errors,
            torn_stripes=len(torn),
            failure=failure,
            detail=detail,
            verified=False,
            scrub_clean=False,
            data_sha256="",
            checked_messages=_checked_messages(cluster),
        )

    try:
        for op in schedule.ops:
            if op.gap_ns:
                env.run(until=env.now + op.gap_ns)
            try:
                if op.kind == "write":
                    payload = _payload(op)
                    env.run(until=array.write(op.offset, op.nbytes, payload))
                    shadow[op.offset : op.offset + op.nbytes] = payload
                elif op.kind == "read":
                    data = env.run(until=array.read(op.offset, op.nbytes))
                    if not stripes_of(op.offset, op.nbytes) & torn:
                        if not np.array_equal(
                            data, shadow[op.offset : op.offset + op.nbytes]
                        ):
                            return _diff_outcome(
                                schedule, executed, op_errors, torn,
                                f"read at {op.offset}+{op.nbytes} diverged from "
                                f"the shadow array", cluster,
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
                        job = RebuildJob(array, op.drive, schedule.stripes)
                        env.run(until=job.start())
                elif op.kind == "rot":
                    array.drives[op.drive].corrupt(
                        "bitrot",
                        offset=op.offset,
                        length=op.nbytes,
                        seed=op.payload_seed,
                    )
                else:
                    raise ValueError(f"unknown fuzz op kind {op.kind!r}")
            except (IoError, ChecksumError) as exc:
                op_errors += 1
                if op.kind == "write":
                    # terminal write failure: touched stripes may be torn
                    torn |= stripes_of(op.offset, op.nbytes)
                elif op.kind == "read":
                    # unreadable (e.g. rot beyond parity): stop verifying
                    torn |= stripes_of(op.offset, op.nbytes)
                elif op.kind == "heal":
                    # rebuild hit rot on a survivor (two erasures): the
                    # member stays failed; later heals may still cure it
                    torn |= set(range(schedule.stripes))
            executed += 1

        # -- recovery: restore redundancy so the end state is checkable ----
        for member in sorted(array.failed):
            try:
                env.run(until=RebuildJob(array, member, schedule.stripes).start())
            except (IoError, ChecksumError):
                op_errors += 1
                array.repair_drive(member)
                torn |= set(range(schedule.stripes))
        if has_rot:
            # scrub-repair cures surviving rot (notably on parity chunks,
            # which foreground reads never verify)
            env.run(until=ScrubDaemon(array, schedule.stripes, pace_ns=0).process)
            # rot beyond parity is genuine data loss, not a controller
            # bug: adopt those stripes like torn ones (the resync below
            # rewrites them from the surviving bytes, clearing the poison)
            store = cluster.integrity
            drives = array.drives
            for stripe in range(schedule.stripes):
                if store.verify_members(drives, stripe, range(len(drives))):
                    torn.add(stripe)
        resync_and_adopt(array, torn, shadow)

        # -- differential verification -------------------------------------
        final, verified = read_final_image(array, shadow)
        if verify and cluster.verify is not None:
            cluster.verify.check_quiescent()
    except Exception as exc:  # noqa: BLE001 — any escape fails the schedule
        return fault_failure(exc)

    report = scrub_array(
        array.drives, geometry, schedule.stripes,
        code=array.code,
    )
    failure = ""
    detail = ""
    if not verified:
        failure, detail = "diff", "end state diverged from the shadow array"
    elif not report.clean:
        failure, detail = "scrub-dirty", "post-run parity scrub found mismatches"
    return FuzzOutcome(
        system=schedule.system,
        seed=schedule.seed,
        ops=len(schedule.ops),
        executed=executed,
        op_errors=op_errors,
        torn_stripes=len(torn),
        failure=failure,
        detail=detail,
        verified=verified,
        scrub_clean=report.clean,
        data_sha256=hashlib.sha256(np.ascontiguousarray(final).tobytes()).hexdigest(),
        checked_messages=_checked_messages(cluster),
    )


def _checked_messages(cluster) -> int:
    if cluster.verify is not None and cluster.verify.protocol is not None:
        return cluster.verify.protocol.checked_messages
    return 0


def _diff_outcome(schedule, executed, op_errors, torn, detail, cluster) -> FuzzOutcome:
    return FuzzOutcome(
        system=schedule.system,
        seed=schedule.seed,
        ops=len(schedule.ops),
        executed=executed,
        op_errors=op_errors,
        torn_stripes=len(torn),
        failure="diff",
        detail=detail,
        verified=False,
        scrub_clean=False,
        data_sha256="",
        checked_messages=_checked_messages(cluster),
    )


def replay_schedule(schedule: FuzzSchedule) -> FuzzOutcome:
    """Replay a (possibly shrunk) schedule with the sanitizer armed.

    This is the API reproducers pin: ``emit_reproducer`` generates tests
    that call exactly this.
    """
    return run_schedule(schedule, verify=True)


# -- shrinking --------------------------------------------------------------


def shrink_schedule(
    schedule: FuzzSchedule,
    still_fails: Optional[Callable[[FuzzSchedule], bool]] = None,
) -> FuzzSchedule:
    """Greedy delta-debugging: drop op chunks while the failure persists.

    ``still_fails`` defaults to "replaying the candidate yields any
    failure"; tests inject their own predicate to shrink against a
    specific invariant.  Worst case ``O(n^2)`` replays; schedules are
    ~10 ops, so shrinking is cheap.
    """
    if still_fails is None:
        still_fails = lambda cand: not replay_schedule(cand).ok  # noqa: E731
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
    """Run ``seeds`` schedules round-robin over ``systems``; returns the
    failures (schedule, outcome).  Stops early when ``budget_s`` wall
    seconds elapse."""
    import time

    t0 = time.monotonic()
    failures: List[Tuple[FuzzSchedule, FuzzOutcome]] = []
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
        if not outcome.ok:
            failures.append((schedule, outcome))
    return failures


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
    for system in systems:
        if system not in known:
            parser.error(f"unknown system {system!r} (choose from {known})")

    failures = fuzz_many(
        args.seeds,
        base_seed=args.base_seed,
        budget_s=args.budget_s,
        systems=systems,
        num_ops=args.ops,
        on_row=print,
        axes=args.axes,
    )
    if not failures:
        print(f"# {args.seeds} schedules clean")
        return 0
    os.makedirs(args.out, exist_ok=True)
    for schedule, outcome in failures:
        shrunk = shrink_schedule(schedule)
        final = replay_schedule(shrunk)
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
