"""Chaos schedules: seeded fault storms with model-checked verification.

:func:`run_chaos_schedule` builds a small functional-mode array, arms a
:class:`~repro.faults.injector.FaultInjector` with a :func:`chaos_plan`,
drives a seeded workload *through* the fault storm, then runs the
recovery playbook a production operator would (heal, rebuild, resync)
and verifies the end state:

* every byte the workload successfully wrote reads back exactly;
* stripes torn by terminal ``IoError`` (the §5.4 write hole) are
  resynchronized and their bytes adopted — self-consistent, not lost;
* a full parity scrub comes back clean.

Everything — fault times, workload offsets, retry backoff — keys off the
seed and the sim clock, so the same ``(system, seed)`` replays
bit-identically whether schedules run serially or in parallel worker
processes.  The CI golden file and the determinism-guard test rely on
exactly that.

The module lives under ``src`` (not ``tests``) so the experiments
runner and the smoke table (:mod:`repro.experiments.smoke`) can import
it; it is deliberately *not* re-exported from :mod:`repro.faults` to keep
controller imports lazy.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Set

import numpy as np

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, chaos_plan

KB = 1024
MS = 1_000_000

#: Chaos runs want fast failure detection; production default is 50 ms.
CHAOS_TIMEOUT_NS = 2 * MS

CHAOS_SYSTEMS = ("md", "spdk", "draid")


@dataclass(frozen=True)
class ChaosOutcome:
    """Picklable result of one chaos schedule (one parallel-sweep row)."""

    system: str
    seed: int
    plan_events: int
    applied: int
    ops: int
    op_errors: int  #: workload ops that ended in terminal IoError
    torn_stripes: int  #: stripes repaired by the recovery resync
    rebuilds: int  #: rebuild jobs run (injector heals + recovery)
    verified: bool  #: every non-torn byte matched the shadow model
    scrub_clean: bool  #: post-recovery parity scrub found nothing
    data_sha256: str  #: digest of the final virtual-device image
    fault_summary: str  #: ``FaultStats.summary()`` of the array
    # silent-corruption accounting (defaults keep pre-integrity pickles
    # and call sites working; all zero when the schedule had no corruption)
    corruption_events: int = 0  #: corruption events in the plan
    detected: int = 0  #: corruption-detection episodes (checksum mismatches)
    repaired: int = 0  #: chunks repaired from parity across all episodes
    #: chunks *still* failing checksum verification after the full
    #: recovery playbook — genuine silent data loss (must be 0).  Transient
    #: beyond-parity read errors during the storm are episode telemetry in
    #: ``integrity_summary``, not data loss: the member heals and the
    #: scrub-repair passes cure the chunk.
    unrecoverable: int = 0
    integrity_summary: str = ""  #: ``IntegrityStats.summary()`` of the array

    @property
    def ok(self) -> bool:
        return self.verified and self.scrub_clean and self.unrecoverable == 0

    def row(self) -> str:
        """One deterministic log/golden line."""
        return (
            f"{self.system:>5s} seed={self.seed:<4d} events={self.applied} "
            f"ops={self.ops} errors={self.op_errors} torn={self.torn_stripes} "
            f"rebuilds={self.rebuilds} scrub={'clean' if self.scrub_clean else 'DIRTY'} "
            f"verified={'yes' if self.verified else 'NO'} "
            f"sha={self.data_sha256[:12]}"
        )

    def integrity_row(self) -> str:
        """One deterministic corruption-accounting line (integrity golden)."""
        return (
            f"{self.system:>5s} seed={self.seed:<4d} corrupt={self.corruption_events} "
            f"detected={self.detected} repaired={self.repaired} "
            f"unrecoverable={self.unrecoverable} "
            f"scrub={'clean' if self.scrub_clean else 'DIRTY'} "
            f"verified={'yes' if self.verified else 'NO'} "
            f"sha={self.data_sha256[:12]}"
        )


def resync_and_adopt(array, torn: Set[int], model: np.ndarray) -> None:
    """Recovery for stripes torn by a terminal write error (the §5.4 write
    hole), shared with the differential fuzzer: resync each one — a
    full-stripe rewrite regenerates parity — then adopt its (now
    self-consistent) surviving bytes into the shadow ``model``."""
    from repro.raid.resync import resync_stripes
    from repro.storage.integrity import ChecksumError

    env, cluster = array.env, array.cluster
    stripe_bytes = array.geometry.stripe_data_bytes
    for stripe in sorted(torn):
        try:
            env.run(until=resync_stripes(array, [stripe]))
        except ChecksumError:
            # corruption beyond parity on a torn stripe: nothing is
            # reconstructable (the scrub pass before this already recorded
            # the unrecoverable episode), so — as with stale in-place
            # rejoins — the surviving bytes become the stripe's truth.  Read
            # them unarmed and regenerate parity with a full-stripe
            # rewrite; the drives still record the write, so the store
            # re-trusts the adopted content and clears its poison.
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


def read_final_image(array, model: np.ndarray):
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


def run_chaos_schedule(
    system: str,
    seed: int,
    drives: int = 5,
    stripes: int = 12,
    chunk: int = 16 * KB,
    ops: int = 18,
    horizon_ns: int = 60 * MS,
    timeout_ns: int = CHAOS_TIMEOUT_NS,
    plan: Optional[FaultPlan] = None,
    corruption_events: int = 0,
    scrub_pace_ns: Optional[int] = None,
    integrity_eager: bool = False,
    raid6: bool = False,
    correlated_events: int = 0,
    gray_events: int = 0,
    layout: Optional[str] = None,
    layout_seed: int = 0,
    code: Optional[str] = None,
    ec_parity: int = 2,
    local_groups: int = 1,
) -> ChaosOutcome:
    """Run one seeded fault storm against ``system`` and verify recovery.

    ``corruption_events > 0`` adds silent-corruption events (bit rot,
    lost / torn / misdirected writes) to the generated plan and arms the
    cluster's :class:`~repro.storage.integrity.IntegrityStore`, so every
    read verifies checksums and repairs from parity.  ``scrub_pace_ns``
    additionally runs an online :class:`~repro.raid.scrubber.ScrubDaemon`
    *during* the storm at that pace.  The recovery playbook then gains
    scrub-repair passes so the schedule must end with zero unrecoverable
    chunks, a clean parity scrub and byte-exact shadow-model data.

    ``correlated_events > 0`` adds domain-shaped hard faults (enclosure
    outages, shared-batch failure storms) budgeted against the array's
    parity, and ``gray_events > 0`` adds sub-ejection-threshold NIC flaps
    and drive stutters; both attach the default
    :class:`~repro.faults.domains.DomainTopology` to the cluster config so
    the injector resolves domains exactly as the plan budgeted them.
    ``raid6=True`` runs the schedule on a RAID-6 geometry (required for
    multi-member correlated storms — RAID-5 has no budget for them).

    The design-space axes: ``layout`` picks a registered stripe layout
    (``None``/``"rotating"`` is the stock rotation, ``"declustered"``
    the seeded distributed-spare organization keyed by ``layout_seed``),
    ``code`` swaps the RAID-5/6 parity math for a generalized erasure
    code (``"rs"``/``"lrc"`` with ``ec_parity`` parities, LRC splitting
    them into ``local_groups`` local + rest global), and ``system``
    additionally accepts ``"draid-st"``, the stateless-target controller.
    The fault budget follows the *code's* tolerance (``g`` for LRC, not
    the parity count).  All defaults keep existing ``(system, seed)``
    outcomes byte-identical.
    """
    import random

    from repro import ClusterConfig, RaidLevel, build_testbed
    from repro.faults.events import BitRot, LostWrite, MisdirectedWrite, TornWrite
    from repro.nvmeof.messages import IoError
    from repro.raid.rebuild import RebuildJob
    from repro.raid.scrub import scrub_array
    from repro.raid.scrubber import ScrubDaemon
    from repro.storage.integrity import ChecksumError, IntegrityStore

    if code is not None and raid6:
        raise ValueError("raid6 and an explicit erasure code are exclusive")
    config = ClusterConfig(
        num_servers=drives,
        functional_capacity=stripes * chunk,
        io_timeout_ns=timeout_ns,
    )
    if correlated_events or gray_events:
        from repro.faults.domains import default_topology

        config.domains = default_topology(drives)
    env, cluster, array = build_testbed(
        system,
        level=RaidLevel.RAID6 if raid6 else RaidLevel.RAID5,
        chunk_bytes=chunk,
        config=config,
        layout=layout,
        layout_seed=layout_seed,
        code=code,
        parity=ec_parity,
        local_groups=local_groups,
    )
    geometry = array.geometry
    # the hard-fault budget follows the code's tolerance, not parity count
    tolerance = array.fault_tolerance
    if plan is None:
        plan = chaos_plan(
            seed,
            horizon_ns,
            drives,
            tolerance,
            corruption_events=corruption_events,
            chunk_bytes=chunk,
            num_stripes=stripes,
            correlated_events=correlated_events,
            gray_events=gray_events,
            topology=config.domains,
        )
    n_corrupt = sum(
        1
        for e in plan
        if isinstance(e, (BitRot, LostWrite, MisdirectedWrite, TornWrite))
    )
    if n_corrupt or scrub_pace_ns is not None:
        IntegrityStore(chunk, eager=integrity_eager).attach(cluster)
    injector = FaultInjector(array, plan, num_stripes=stripes)
    daemon = (
        ScrubDaemon(array, stripes, pace_ns=scrub_pace_ns, repeat=True)
        if scrub_pace_ns is not None
        else None
    )

    def scrub_repair_pass() -> None:
        """One paced-at-zero offline-style pass through the online scrubber."""
        env.run(until=ScrubDaemon(array, stripes, pace_ns=0).process)

    capacity = stripes * geometry.stripe_data_bytes
    model = np.zeros(capacity, dtype=np.uint8)
    rng = random.Random(f"repro.chaos:{system}:{seed}")
    stripe_bytes = geometry.stripe_data_bytes

    torn: Set[int] = set()
    #: members in discovery order — recovery rebuilds the earliest failures
    #: (most stale) and, past redundancy, heals the latest in place
    fail_order: List[int] = []
    op_errors = 0

    def note_failures() -> None:
        for member in sorted(array.failed):
            if member not in fail_order:
                fail_order.append(member)

    def stripes_of(offset: int, nbytes: int) -> Set[int]:
        return set(range(offset // stripe_bytes, (offset + nbytes - 1) // stripe_bytes + 1))

    # -- the storm: a paced, model-checked workload under injection --------
    for _ in range(ops):
        gap = rng.randint(horizon_ns // (2 * ops), (3 * horizon_ns) // (2 * ops))
        env.run(until=env.now + gap)
        size = rng.randint(1, 3 * stripe_bytes)
        offset = rng.randrange(0, capacity - size)
        is_read = rng.random() < 0.35
        try:
            if is_read:
                data = env.run(until=array.read(offset, size))
                if not stripes_of(offset, size) & torn:
                    assert np.array_equal(
                        data, model[offset : offset + size]
                    ), f"{system} seed {seed}: read mismatch at {offset}+{size}"
            else:
                payload = np.frombuffer(
                    rng.randbytes(size), dtype=np.uint8
                ).copy()
                env.run(until=array.write(offset, size, payload))
                model[offset : offset + size] = payload
        except (IoError, ChecksumError):
            op_errors += 1
            if not is_read:
                # terminal write failure: the touched stripes may hold a
                # torn mix of old and new data (§5.4 write hole)
                torn |= stripes_of(offset, size)
        note_failures()

    # -- recovery playbook -------------------------------------------------
    # 1. let the plan and its helpers (heals, restores) run out ...
    env.run(until=injector.drain())
    # ... and outlast every self-clearing window (fail-slow, bursts, NIC)
    env.run(until=max(env.now, plan.horizon_ns) + 60 * MS)
    note_failures()
    if daemon is not None:
        daemon.stop()

    # 2. replace failed members.  Past redundancy nothing is reconstructable,
    #    so the *latest* casualties (stale only on torn stripes, which are
    #    adopted anyway) rejoin in place; the rest get a real rebuild.
    #    With integrity armed, *every* casualty rejoins in place: a degraded
    #    rebuild read of a stripe that also carries a corrupt chunk is two
    #    erasures — the classic unrecoverable-during-rebuild loss — so the
    #    playbook restores full redundancy first and lets the resync +
    #    scrub-repair passes below re-verify everything.
    still_failed = [m for m in fail_order if m in array.failed]
    while still_failed and (
        array.integrity is not None or len(still_failed) > tolerance
    ):
        member = still_failed.pop()
        array.drives[member].heal()
        array.repair_drive(member)
        torn |= set(range(stripes))  # conservative: trust nothing unverified
    rebuilds = injector.rebuilds
    for member in still_failed:
        job = RebuildJob(array, member, stripes)
        env.run(until=job.start())
        rebuilds += 1

    # 2.5 with integrity armed: a scrub-repair pass cures surviving
    #     corruption (notably on parity chunks, which foreground reads
    #     never verify) before the resync below re-reads those stripes
    if array.integrity is not None:
        scrub_repair_pass()

    # 3-4. resync torn stripes and adopt their surviving bytes
    resync_and_adopt(array, torn, model)

    # 4.5 a final scrub-repair pass: recovery writes may themselves have
    #     tripped still-armed corruption events
    if array.integrity is not None:
        scrub_repair_pass()

    # -- verification ------------------------------------------------------
    final, verified = read_final_image(array, model)
    report = scrub_array(array.drives, geometry, stripes, code=array.code)
    istats = array.integrity_stats
    store = array.integrity
    drives = array.drives
    residual_bad = (
        sum(
            len(store.verify_members(drives, c, range(len(drives))))
            for c in range(stripes)
        )
        if store is not None
        else 0
    )
    return ChaosOutcome(
        system=system,
        seed=seed,
        plan_events=len(plan),
        applied=injector.applied,
        ops=ops,
        op_errors=op_errors,
        torn_stripes=len(torn),
        rebuilds=rebuilds,
        verified=verified,
        scrub_clean=report.clean,
        data_sha256=hashlib.sha256(np.ascontiguousarray(final).tobytes()).hexdigest(),
        fault_summary=array.fault_stats.summary(),
        corruption_events=n_corrupt,
        detected=istats.total_detected,
        repaired=istats.total_repaired,
        unrecoverable=residual_bad,
        integrity_summary=istats.summary() if store is not None else "",
    )
