"""Deadline x retry chaos: typed failures under faults, on every controller.

Satellite coverage for the overload subsystem's two hard promises under
fault storms, checked on all three controllers with the protocol checker
armed (``VerifyConfig`` — a §4 / NVMe-oF state-machine violation crashes
the sim, so a passing run *is* the protocol assertion):

* **no retry past the deadline** — once an I/O's absolute deadline budget
  is spent, the retry loop abandons it with a terminal typed
  :class:`~repro.qos.errors.DeadlineExceeded`; attempt timeouts are
  clamped to the remaining budget, so the op resolves within
  deadline + one (clamped) drain window, never retrying into the void;
* **retry-budget exhaustion is a terminal IoError** — with a dry budget
  the retry loop sheds the op instead of amplifying the storm, and the
  denial is visible in ``qos.stats.retries_denied``.
"""

import random

import pytest

from repro import ClusterConfig, build_testbed
from repro.faults.events import DriveErrorBurst, DriveFailSlow, ServerCrash
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.nvmeof.messages import IoError
from repro.qos import Busy, DeadlineExceeded, OverloadConfig
from repro.verify import VerifyConfig
from repro.verify.fuzz import FUZZ_SYSTEMS

KB = 1024
MS = 1_000_000

DRIVES = 5
CHUNK = 16 * KB
STRIPES = 12
TIMEOUT_NS = 2 * MS
DEADLINE_NS = 6 * MS

#: one representative fault per failure mode: erroring member, fail-slow
#: member (timeouts, not errors), crashed server (lost capsules)
FAULT_PLANS = {
    "error_burst": lambda horizon: [DriveErrorBurst(0, server=1, duration_ns=horizon)],
    "fail_slow": lambda horizon: [DriveFailSlow(0, server=1, multiplier=80.0)],
    "crash": lambda horizon: [ServerCrash(0, server=1, down_ns=horizon)],
}


def build_faulted_array(system, fault, overload):
    config = ClusterConfig(
        num_servers=DRIVES,
        functional_capacity=STRIPES * CHUNK,
        io_timeout_ns=TIMEOUT_NS,
        overload=overload,
        verify=VerifyConfig(),
    )
    env, _, array = build_testbed(system, chunk_bytes=CHUNK, config=config)
    plan = FaultPlan(FAULT_PLANS[fault](200 * MS))
    FaultInjector(array, plan, num_stripes=STRIPES)
    return env, array


@pytest.mark.parametrize("system", FUZZ_SYSTEMS)
@pytest.mark.parametrize("fault", sorted(FAULT_PLANS))
def test_no_retry_past_deadline(system, fault):
    """Every deadlined op resolves — success or typed error — within its
    budget plus one clamped attempt's drain window."""
    env, array = build_faulted_array(
        system,
        fault,
        OverloadConfig(default_deadline_ns=None, retry_deposit_ratio=0.5),
    )
    rng = random.Random(1234)
    stripe_bytes = array.geometry.stripe_data_bytes
    resolved = []

    def one(i):
        offset = (i % STRIPES) * stripe_bytes
        start = env.now
        deadline = start + DEADLINE_NS
        payload = bytes(rng.randrange(256) for _ in range(CHUNK))
        try:
            if i % 2:
                yield array.read(offset, CHUNK, deadline_ns=deadline)
            else:
                yield array.write(offset, CHUNK, payload, deadline_ns=deadline)
        except DeadlineExceeded:
            kind = "deadline"
        except Busy:
            kind = "busy"
        except IoError:
            kind = "ioerror"
        else:
            kind = "ok"
        resolved.append((kind, env.now - start))

    def driver():
        for i in range(10):
            env.process(one(i), name=f"io{i}")
            yield env.timeout(500_000)

    env.process(driver(), name="driver")
    env.run()
    assert len(resolved) == 10
    # the drain window of the attempt in flight when the budget expires is
    # itself clamped to the remaining budget, so worst case is roughly
    # deadline + one full drain (drain_factor * clamped timeout)
    slack = array.drain_factor * TIMEOUT_NS if hasattr(array, "drain_factor") else 2 * TIMEOUT_NS
    for kind, elapsed in resolved:
        assert elapsed <= DEADLINE_NS + slack + TIMEOUT_NS, (kind, elapsed)
    # the fault actually bit: not everything sailed through cleanly
    assert any(kind != "ok" for kind, _ in resolved), resolved


@pytest.mark.parametrize("system", FUZZ_SYSTEMS)
def test_deadline_failures_are_typed_and_terminal(system):
    """A tight budget under an error burst surfaces as DeadlineExceeded
    (never a bare timeout hang) and bumps the deadline counter."""
    env, array = build_faulted_array(
        system, "error_burst", OverloadConfig(default_deadline_ns=3 * MS)
    )
    stripe_bytes = array.geometry.stripe_data_bytes
    kinds = []

    def one(i):
        try:
            # member 1 serves errors: reads across it must retry/reconstruct
            yield array.read((i % STRIPES) * stripe_bytes, stripe_bytes)
        except DeadlineExceeded:
            kinds.append("deadline")
        except IoError:
            kinds.append("ioerror")
        else:
            kinds.append("ok")

    def driver():
        for i in range(6):
            env.process(one(i), name=f"io{i}")
            yield env.timeout(1 * MS)

    env.process(driver(), name="driver")
    env.run()
    assert len(kinds) == 6
    assert env.now < 100 * MS  # nothing hung waiting on the sick member


@pytest.mark.parametrize("system", FUZZ_SYSTEMS)
def test_retry_budget_exhaustion_is_terminal_ioerror(system):
    """With a dry retry budget the retry loop sheds instead of amplifying:
    ops fail with terminal IoError and the denial counter records it."""
    env, array = build_faulted_array(
        system,
        "fail_slow",
        OverloadConfig(retry_deposit_ratio=0.0, retry_burst=1.0),
    )
    stripe_bytes = array.geometry.stripe_data_bytes
    kinds = []

    def one(i):
        try:
            yield array.read((i % STRIPES) * stripe_bytes, CHUNK)
        except (Busy, DeadlineExceeded):
            kinds.append("typed")
        except IoError:
            kinds.append("ioerror")
        else:
            kinds.append("ok")

    def driver():
        for i in range(8):
            env.process(one(i), name=f"io{i}")
            yield env.timeout(1 * MS)

    env.process(driver(), name="driver")
    env.run()
    assert len(kinds) == 8
    # the 80x fail-slow member forces timeouts and retries; with only one
    # token in the bucket and nothing deposited, denials must occur
    assert array.qos.stats.retries_denied > 0
    assert "ioerror" in kinds


@pytest.mark.parametrize("system", FUZZ_SYSTEMS)
def test_generous_budget_still_completes_under_faults(system):
    """Protection must not break correctness: with sane knobs and a
    transient burst, deadlined I/O completes once the fault clears."""
    env, array = build_faulted_array(
        system, "error_burst", OverloadConfig(retry_deposit_ratio=0.5)
    )
    # heal the burst early so post-fault ops have a healthy array
    stripe_bytes = array.geometry.stripe_data_bytes
    done = []

    def driver():
        yield env.timeout(250 * MS)  # burst (200 ms) is over
        payload = bytes(CHUNK)
        yield array.write(0, CHUNK, payload, deadline_ns=env.now + 50 * MS)
        data = yield array.read(0, CHUNK, deadline_ns=env.now + 50 * MS)
        done.append(bytes(data))

    env.process(driver(), name="driver")
    env.run()
    assert done == [bytes(CHUNK)]
