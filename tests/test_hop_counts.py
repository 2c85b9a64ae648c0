"""Pins the calendar events one idle I/O schedules (PR 18 satellite).

The numbers are DESIGN.md §7's hop table: what a 4 KiB read and a 4 KiB
RMW write cost in ``env._eid`` ticks on an idle 8-target RAID-5 array, the
caller waiting on the op.  They are exact and deterministic; a relay event
that comes back (a per-capsule mailbox wake, a handler ``Initialize``, a
process end, a condition release, a free-lock grant, the op's own start)
moves them, and so does a new timed step — either way the table and this
test change together.  Each tick is also classified: a *timer* advances the
clock (the model), anything else is a relay — and neither op has one left:
dRAID's forward fork on an RMW write (started, then raced against the
drive write, not yielded) starts in place, SPDK's free write staging
(``env.timeout(0)``) is a wake taken in place, and an unarmed dRAID array
arms no §5.4 guard timer.
"""

import pytest

from repro.baselines import MdRaid, SpdkRaid
from repro.cluster import ClusterConfig, build_cluster
from repro.draid import DraidArray
from repro.nvmeof import NvmeOfTarget, RemoteBdev
from repro.raid.geometry import RaidGeometry, RaidLevel
from repro.sim import Environment

KB = 1024
CHUNK = 512 * KB


def events_of(env, make_op):
    """``(env._eid ticks, timers among them)`` from issuing ``make_op()`` to
    resuming on it."""
    timers = 0
    make_timeout = env.timeout

    def counting_timeout(delay, value=None, then=None):
        nonlocal timers
        timers += delay > 0  # (a zero-delay timer is a wake)
        return make_timeout(delay, value, then)

    def caller():
        before = env._eid
        yield make_op()
        return env._eid - before

    env.timeout = counting_timeout  # every timer of the model is made here
    try:
        return env.run(until=env.process(caller())), timers
    finally:
        del env.timeout


@pytest.mark.parametrize(
    "controller_cls, read_events, rmw_write_events",
    [(MdRaid, 6, 25), (SpdkRaid, 6, 24), (DraidArray, 6, 20)],
    ids=["MdRaid", "SpdkRaid", "DraidArray"],  # not the pins: they move
)
def test_events_of_one_idle_4k_op(controller_cls, read_events, rmw_write_events):
    env = Environment()
    cluster = build_cluster(env, ClusterConfig(num_servers=8))
    array = controller_cls(cluster, RaidGeometry(RaidLevel.RAID5, 8, CHUNK))
    offset = 8 * CHUNK + 4 * KB  # inside one chunk of the second stripe
    events, timers = events_of(env, lambda: array.read(offset, 4 * KB))
    assert events == read_events
    assert events == timers  # the caller yields the op it starts: no Initialize
    assert not env._queue  # idle again: nothing outlives the op
    events, timers = events_of(env, lambda: array.write(offset, 4 * KB))
    assert events == rmw_write_events
    assert events == timers  # timers only
    assert array.stats.rmw_writes == 1


def test_events_of_one_nvmeof_read():
    """Capsule, parse, drive, completion charge, response: the five timed
    steps of the model and nothing else."""
    env = Environment()
    cluster = build_cluster(env, ClusterConfig(num_servers=2))
    NvmeOfTarget(cluster.servers[1], cluster.server_end(1))
    bdev = RemoteBdev(cluster.host, cluster.host_end(1))
    assert events_of(env, lambda: bdev.read(0, 4 * KB)) == (5, 5)
