"""The §5.4 attempt loop and expiry race the array frame owns.

Every retry, on every datapath, runs through ``RaidArray._attempts``, and
every timed wait through ``RaidArray._race``.  These tests pin the one rule
from outside: a retry counts once in both counters, and an I/O that runs
out of retries ends in the same terminal error on every controller.
"""

import pytest

from repro import ClusterConfig, build_testbed
from repro.baselines.array import RaidArray
from repro.nvmeof.messages import IoError

KB = 1024
TIMEOUT_NS = 200_000

#: (system, lose the chunk read first): the host-centric attempt, dRAID's
#: plain-read round and reconstruction broadcast, and the stateless decode
DATAPATHS = [
    (system, degraded)
    for system in ("Linux", "SPDK", "dRAID", "dRAID-ST")
    for degraded in (False, True)
]


def resilient_array(system, degraded):
    env, cluster, array = build_testbed(
        system, chunk_bytes=16 * KB,
        config=ClusterConfig(num_servers=5, io_timeout_ns=TIMEOUT_NS),
    )
    array.resilient = True
    if degraded:
        array.fail_drive(array.geometry.data_drive(0, 0))
    return env, array


@pytest.mark.parametrize("op", ["read", "write"])
@pytest.mark.parametrize("system, degraded", DATAPATHS)
def test_a_retry_counts_once_in_both_counters(system, degraded, op):
    """Every server drops what it gets for half a timeout: the first
    attempt is lost, a retry lands.  (The write covers its stripe, so the
    member its drain window fences leaves no write hole.)"""
    env, array = resilient_array(system, degraded)
    for side in array.server_sides:
        side.crash(TIMEOUT_NS // 2)
    if op == "read":
        io = array.read(0, 4 * KB)
    else:
        io = array.write(0, array.geometry.stripe_data_bytes)
    env.run(until=io)
    assert array.stats.retries == array.fault_stats.retries >= 1
    assert array.fault_stats.timeouts >= 1
    assert array.fault_stats.io_errors == 0


@pytest.mark.parametrize("system, degraded", DATAPATHS)
def test_out_of_retries_is_one_terminal_error(system, degraded):
    """Servers down for a second outlast every attempt: one terminal
    ``IoError``, counted once, worded the same on every datapath."""
    env, array = resilient_array(system, degraded)
    for side in array.server_sides:
        side.crash(1_000_000_000)
    with pytest.raises(IoError, match=r"read on stripe 0 failed after \d attempts"):
        env.run(until=array.read(0, 4 * KB))
    assert array.fault_stats.io_errors == 1


@pytest.mark.parametrize("system, retries", [
    ("Linux", RaidArray.max_retries),
    ("SPDK", RaidArray.max_retries),
    ("dRAID", 1),  # the reconstruction broadcast is re-sent once
    ("dRAID-ST", RaidArray.max_retries),
])
def test_out_of_retries_counts_only_the_retries_that_ran(system, retries):
    """A degraded read through one loop: no retry follows the attempt that
    gives up, so that attempt counts no retry."""
    env, array = resilient_array(system, degraded=True)
    for side in array.server_sides:
        side.crash(1_000_000_000)
    with pytest.raises(IoError, match=f"failed after {retries + 1} attempts"):
        env.run(until=array.read(0, 4 * KB))
    assert array.fault_stats.retries == array.stats.retries == retries


class TestRace:
    def race(self, lands_ns, drain=False):
        """Race an event landing at ``lands_ns`` (None: never) against the
        array's guard; returns (won, when the race returned, timeouts)."""
        env, array = resilient_array("SPDK", False)
        event = env.event()
        if lands_ns is not None:
            env.timeout(lands_ns).callbacks.append(lambda _: event.succeed())
        out = []

        def racer():
            won = yield from array._race(event, TIMEOUT_NS, drain)
            out.append((won, env.now, array.fault_stats.timeouts))

        env.run(until=env.process(racer()))
        return out[0]

    def test_an_event_in_time_wins_and_counts_nothing(self):
        assert self.race(TIMEOUT_NS // 2) == (True, TIMEOUT_NS // 2, 0)

    def test_a_late_event_loses_at_the_timeout(self):
        assert self.race(2 * TIMEOUT_NS) == (False, TIMEOUT_NS, 1)

    def test_a_drain_waits_for_a_late_mutation(self):
        assert self.race(2 * TIMEOUT_NS, drain=True) == (False, 2 * TIMEOUT_NS, 1)

    def test_a_drain_ends_after_its_window(self):
        window = (1 + RaidArray.drain_factor) * TIMEOUT_NS
        assert self.race(None, drain=True) == (False, window, 1)
