"""Pins what every member sees for each host-centric write mode.

For SPDK and Linux MD, RAID-5 and RAID-6, timing and functional mode, one
write (or degraded read) per case on an idle 5-member array records:

* the ordered ``(member, opcode, drive offset, length)`` of every plain
  NVMe-oF command the host sends its member bdevs;
* the MD raid thread's ``busy_ns`` (the stripe-cache staging charge;
  ``None`` for SPDK, which has no such thread);
* the simulated time the op took and the calendar entries it made
  (``env.now`` and ``env._eid`` deltas).

The values live in ``tests/golden/host_write_tail.json``; they are exact
and deterministic, so any change to a write mode's member I/O, its staging
charge or its event order shows up here.  Regenerate deliberately with
``PYTHONPATH=src python -m tests.test_host_write_tail --write-golden``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import MdRaid, SpdkRaid
from repro.cluster import ClusterConfig, build_cluster
from repro.raid.geometry import RaidGeometry, RaidLevel
from repro.sim import Environment

KB = 1024
CHUNK = 16 * KB
DRIVES = 5
GOLDEN = Path(__file__).parent / "golden" / "host_write_tail.json"

#: case -> (failed data chunks of stripe 0, op, offset, size, resilient,
#: the write-mode counters the op must move: rmw, rcw, full, degraded)
CASES = {
    "rmw": ((), "write", 0, 4 * KB, False, (1, 0, 0, 0)),
    "rcw": ((), "write", 0, None, False, (0, 1, 0, 0)),
    "full": ((), "write", 0, None, False, (0, 0, 1, 0)),
    "degraded-region": ((0,), "write", 4 * KB, 4 * KB, False, (0, 0, 0, 1)),
    "degraded-stripe": ((0,), "write", CHUNK - 4 * KB, 8 * KB, False, (0, 0, 0, 1)),
    "degraded-stripe-2": ((0, 1), "write", CHUNK - 4 * KB, 8 * KB, False, (0, 0, 0, 1)),
    "degraded-read": ((0,), "read", CHUNK - 4 * KB, 8 * KB, False, (0, 0, 0, 0)),
    "pinned": ((0,), "write", CHUNK + 4 * KB, 4 * KB, True, (1, 0, 0, 1)),
}
CONTROLLERS = {"SpdkRaid": SpdkRaid, "MdRaid": MdRaid}
LEVELS = {"RAID5": RaidLevel.RAID5, "RAID6": RaidLevel.RAID6}


def run_case(cls, level, case: str, functional: bool) -> dict:
    failed_chunks, op, offset, size, resilient, counters = CASES[case]
    env = Environment()
    geometry = RaidGeometry(level, DRIVES, CHUNK)
    k = geometry.data_per_stripe
    size = {"rcw": (k - 1) * CHUNK, "full": k * CHUNK}.get(case, size)
    capacity = 4 * CHUNK if functional else 0
    cluster = build_cluster(
        env, ClusterConfig(num_servers=DRIVES, functional_capacity=capacity)
    )
    array = cls(cluster, geometry)
    rng = np.random.default_rng(7)
    stripe = geometry.stripe_data_bytes
    # stripe 0 holds known bytes before any member fails
    env.run(until=array.write(0, stripe, rng.integers(0, 256, stripe, dtype=np.uint8)))
    for d in failed_chunks:
        array.fail_drive(geometry.data_drive(0, d))
    array.resilient = resilient
    array.stats.reset()
    log = []
    for member, bdev in enumerate(array.bdevs):
        _record(bdev, member, log)
    thread = getattr(array, "md_thread", None)
    busy0 = None if thread is None else thread.busy_ns
    now0, eid0 = env.now, env._eid
    if op == "write":
        data = rng.integers(0, 256, size, dtype=np.uint8) if functional else None
        env.run(until=array.write(offset, size, data))
    else:
        env.run(until=array.read(offset, size))
    row = {
        "io": [list(entry) for entry in log],
        "busy_ns": None if thread is None else thread.busy_ns - busy0,
        "now": env.now - now0,
        "eid": env._eid - eid0,
    }
    s = array.stats
    assert (s.rmw_writes, s.rcw_writes, s.full_stripe_writes, s.degraded_writes) == counters
    if functional and op == "write":
        got = env.run(until=array.read(offset, size))
        assert np.array_equal(got, data)
    return row


def _record(bdev, member: int, log: list) -> None:
    """Log every command the host sends ``bdev`` (the simulation is
    untouched: the original method still issues it)."""
    read, write = bdev.read, bdev.write

    def logged_read(offset, nbytes, *args, **kwargs):
        log.append((member, "read", offset, nbytes))
        return read(offset, nbytes, *args, **kwargs)

    def logged_write(offset, nbytes, *args, **kwargs):
        log.append((member, "write", offset, nbytes))
        return write(offset, nbytes, *args, **kwargs)

    bdev.read, bdev.write = logged_read, logged_write


def _key(controller: str, level: str, case: str, functional: bool) -> str:
    return f"{controller}/{level}/{case}/{'functional' if functional else 'timing'}"


def _keys():
    for controller in CONTROLLERS:
        for level in LEVELS:
            for case in CASES:
                if case == "degraded-stripe-2" and level == "RAID5":
                    continue  # RAID-5 tolerates one failure
                for functional in (False, True):
                    yield controller, level, case, functional


def _run(controller, level, case, functional) -> dict:
    return run_case(CONTROLLERS[controller], LEVELS[level], case, functional)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "controller, level, case, functional", list(_keys()),
    ids=[_key(*key) for key in _keys()],
)
def test_member_io_matches_golden(golden, controller, level, case, functional):
    assert _run(controller, level, case, functional) == golden[
        _key(controller, level, case, functional)
    ]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(*key) for key in _keys())


if __name__ == "__main__" and "--write-golden" in sys.argv:
    rows = sorted((_key(*key), _run(*key)) for key in _keys())
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(row, sort_keys=True)}" for key, row in rows
    ) + "\n}\n")
