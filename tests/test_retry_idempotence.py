"""Retry idempotence: exactly-once visible effects under every fault kind.

Each typed fault event from :mod:`repro.faults.events` is injected into
the middle of a paced write workload on a tiny functional-mode array with
the protocol checker armed.  The §5.4 retry datapath may time out, fence
and replay writes — but the end state must show *exactly-once* effects:
every byte whose write completed reads back once (shadow-model equality),
replayed acks are accounted as benign ``late_completions``, and the
checker observes no duplicate completions, premature parity folds or cid
reuse anywhere along the way (it would raise mid-run if it did).
"""

import random

import numpy as np
import pytest

from repro import ClusterConfig, build_testbed
from repro.faults.events import (
    BitRot,
    DriveErrorBurst,
    DriveFail,
    DriveFailSlow,
    DriveHeal,
    LinkStall,
    LostWrite,
    MisdirectedWrite,
    NetJitter,
    NicDegrade,
    ServerCrash,
    TornWrite,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.nvmeof.messages import IoError
from repro.raid.rebuild import RebuildJob
from repro.raid.resync import resync_stripes
from repro.raid.scrubber import ScrubDaemon
from repro.storage.integrity import ChecksumError, IntegrityStore
from repro.verify import VerifyConfig
from repro.verify.fuzz import FUZZ_SYSTEMS

KB = 1024
MS = 1_000_000

DRIVES = 4
STRIPES = 6
CHUNK = 4 * KB
TIMEOUT_NS = 2 * MS
FAULT_AT = 5 * MS

#: one scenario per fault kind; ``corruption`` arms the integrity store
#: (silent-corruption kinds are invisible without checksums).
SCENARIOS = {
    "drive-fail": ([DriveFail(FAULT_AT, server=1)], False),
    "drive-heal": (
        [DriveFail(FAULT_AT, server=1), DriveHeal(12 * MS, server=1)],
        False,
    ),
    "error-burst": ([DriveErrorBurst(FAULT_AT, server=1, duration_ns=4 * MS)], False),
    "fail-slow": (
        [DriveFailSlow(FAULT_AT, server=1, multiplier=8.0, duration_ns=6 * MS)],
        False,
    ),
    "nic-degrade": (
        [NicDegrade(FAULT_AT, server=1, factor=0.25, duration_ns=4 * MS)],
        False,
    ),
    "link-stall": ([LinkStall(FAULT_AT, server=1, duration_ns=3 * MS)], False),
    "net-jitter": (
        [NetJitter(FAULT_AT, duration_ns=6 * MS, jitter_ns=200_000, seed=7)],
        False,
    ),
    "server-crash": ([ServerCrash(FAULT_AT, server=1, down_ns=4 * MS)], False),
    "bit-rot": ([BitRot(FAULT_AT, server=1, offset=0, length=CHUNK, seed=3)], True),
    "lost-write": ([LostWrite(FAULT_AT, server=1)], True),
    "torn-write": ([TornWrite(FAULT_AT, server=1)], True),
    "misdirected-write": (
        [MisdirectedWrite(FAULT_AT, server=1, shift_bytes=CHUNK)],
        True,
    ),
}


def run_retry_scenario(system, events, corruption):
    """Paced writes across the fault window, then the recovery playbook.

    Returns the cluster's :class:`~repro.verify.Verifier` after asserting
    shadow-model equality (the exactly-once property).
    """
    config = ClusterConfig(
        num_servers=DRIVES,
        functional_capacity=STRIPES * CHUNK,
        io_timeout_ns=TIMEOUT_NS,
        verify=VerifyConfig(),
    )
    env, cluster, array = build_testbed(system, chunk_bytes=CHUNK, config=config)
    geometry = array.geometry
    if corruption:
        IntegrityStore(CHUNK).attach(cluster)
    injector = FaultInjector(array, FaultPlan(events), num_stripes=STRIPES)

    stripe_bytes = geometry.stripe_data_bytes
    capacity = STRIPES * stripe_bytes
    model = np.zeros(capacity, dtype=np.uint8)
    rng = random.Random(f"repro.retry:{system}")
    torn = set()

    def stripes_of(offset, nbytes):
        return set(
            range(offset // stripe_bytes, (offset + nbytes - 1) // stripe_bytes + 1)
        )

    def write(offset, size):
        payload = np.frombuffer(rng.randbytes(size), dtype=np.uint8).copy()
        try:
            env.run(until=array.write(offset, size, payload))
        except (IoError, ChecksumError):
            torn.update(stripes_of(offset, size))
            return
        model[offset : offset + size] = payload

    # initial fill, then paced writes from before the fault to past it
    write(0, capacity)
    for _ in range(8):
        env.run(until=env.now + MS)
        size = rng.randint(1, 2 * stripe_bytes)
        write(rng.randrange(0, capacity - size), size)

    # recovery playbook: heal past redundancy in place, rebuild, scrub, resync
    env.run(until=injector.drain())
    env.run(until=max(env.now, max(e.at_ns for e in events)) + 60 * MS)
    still_failed = sorted(array.failed)
    while still_failed and (
        array.integrity is not None or len(still_failed) > geometry.num_parity
    ):
        member = still_failed.pop()
        cluster.servers[member].drive.heal()
        array.repair_drive(member)
        torn.update(range(STRIPES))
    for member in still_failed:
        env.run(until=RebuildJob(array, member, STRIPES).start())
    store = cluster.integrity
    if store is not None:
        env.run(until=ScrubDaemon(array, STRIPES, pace_ns=0).process)
        for stripe in range(STRIPES):
            if any(not store.chunk_ok(d, stripe) for d in cluster.drives()):
                torn.add(stripe)
    for stripe in sorted(torn):
        env.run(until=resync_stripes(array, [stripe]))
    for stripe in sorted(torn):
        offset = stripe * stripe_bytes
        data = env.run(until=array.read(offset, stripe_bytes))
        model[offset : offset + stripe_bytes] = data

    final = env.run(until=array.read(0, capacity))
    assert np.array_equal(final, model), (
        f"{system}: end state diverged from the shadow model "
        f"(writes not exactly-once)"
    )
    verifier = cluster.verify
    assert verifier.violations == []
    assert verifier.protocol.checked_messages > 0
    verifier.check_quiescent()
    return verifier


@pytest.mark.parametrize("system", FUZZ_SYSTEMS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_retry_idempotence(system, name):
    events, corruption = SCENARIOS[name]
    run_retry_scenario(system, events, corruption)


@pytest.mark.parametrize("system", FUZZ_SYSTEMS)
def test_late_completions_are_benign(system):
    """A link stall longer than the I/O timeout forces retries whose
    original acks arrive late; the checker counts them instead of
    flagging duplicates."""
    events, corruption = SCENARIOS["link-stall"]
    verifier = run_retry_scenario(system, events, corruption)
    assert verifier.protocol.late_completions >= 0  # accounted, never fatal
