"""Pins the calendar events one idle I/O schedules (PR 18 satellite).

The numbers are DESIGN.md §7's hop table: what a 4 KiB read and a 4 KiB
RMW write cost in ``env._eid`` ticks on an idle 8-target RAID-5 array, the
caller waiting on the op.  They are exact and deterministic; a relay event
that comes back (a per-capsule mailbox wake, a handler ``Initialize``, an
unobserved process end) moves them, and so does a new timed step — either
way the table and this test change together.
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
    """``env._eid`` ticks from issuing ``make_op()`` to resuming on it."""

    def caller():
        before = env._eid
        yield make_op()
        return env._eid - before

    return env.run(until=env.process(caller()))


@pytest.mark.parametrize(
    "controller_cls, read_events, rmw_write_events",
    [(MdRaid, 11, 32), (SpdkRaid, 12, 32), (DraidArray, 13, 29)],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_events_of_one_idle_4k_op(controller_cls, read_events, rmw_write_events):
    env = Environment()
    cluster = build_cluster(env, ClusterConfig(num_servers=8))
    array = controller_cls(cluster, RaidGeometry(RaidLevel.RAID5, 8, CHUNK))
    offset = 8 * CHUNK + 4 * KB  # inside one chunk of the second stripe
    assert events_of(env, lambda: array.read(offset, 4 * KB)) == read_events
    env.run()  # idle again (drains dRAID's deadline timer)
    assert events_of(env, lambda: array.write(offset, 4 * KB)) == rmw_write_events
    assert array.stats.rmw_writes == 1


def test_events_of_one_nvmeof_read():
    """Capsule, parse, drive, completion charge, response: the five timed
    steps of the model and nothing else."""
    env = Environment()
    cluster = build_cluster(env, ClusterConfig(num_servers=2))
    NvmeOfTarget(cluster.servers[1], cluster.server_end(1))
    bdev = RemoteBdev(cluster.host, cluster.host_end(1))
    assert events_of(env, lambda: bdev.read(0, 4 * KB)) == 5
