"""Cross-controller equivalence: every RAID implementation in this
repository must expose byte-identical block-device semantics.

Property: for any randomized operation sequence, all controllers (Linux-MD
model, SPDK-POC model, dRAID, log-structured, offloaded dRAID, and the
dRAID / stateless-target controllers over RAID-6, RS and LRC codes) end
with the same user-visible data — each checked against the same shadow
model, including after a drive failure.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import LogStructuredRaid, MdRaid, SpdkRaid
from repro.cluster import ClusterConfig, build_cluster
from repro.draid import DraidArray, EcDraidArray, EcGeometry
from repro.draid.ec_array import LrcDraidArray
from repro.draid.offload import OffloadedDraidArray
from repro.draid.stateless import StatelessTargetDraid
from repro.ec import code_for
from repro.raid.geometry import RaidGeometry, RaidLevel
from repro.raid.rebuild import RebuildJob
from repro.raid.scrub import scrub_array
from repro.sim import Environment

KB = 1024
CHUNK = 16 * KB
STRIPES = 10
DRIVES = 5


def build_controller(kind: str):
    env = Environment()
    if kind == "offloaded":
        cluster = build_cluster(
            env,
            ClusterConfig(num_servers=DRIVES + 1, functional_capacity=STRIPES * CHUNK),
        )
        geometry = RaidGeometry(RaidLevel.RAID5, DRIVES, CHUNK)
        return env, OffloadedDraidArray(cluster, geometry), geometry
    cluster = build_cluster(
        env, ClusterConfig(num_servers=DRIVES, functional_capacity=STRIPES * CHUNK)
    )
    if kind in CODED:
        geometry = EcGeometry(DRIVES, CHUNK, num_parity=2)
        return env, CODED[kind](cluster, geometry), geometry
    level = RaidLevel.RAID6 if kind.endswith("6") else RaidLevel.RAID5
    geometry = RaidGeometry(level, DRIVES, CHUNK)
    cls = {
        "md": MdRaid,
        "spdk": SpdkRaid,
        "spdk6": SpdkRaid,
        "draid": DraidArray,
        "draid6": DraidArray,
        "draid-st": StatelessTargetDraid,
        "draid-st6": StatelessTargetDraid,
        "log": LogStructuredRaid,
    }[kind]
    return env, cls(cluster, geometry), geometry


#: two-parity cells over an EcGeometry: RS(3,2) and LRC(3,1,1), on the
#: stateful and the stateless-target controller
CODED = {
    "ec": EcDraidArray,
    "lrc": lambda cluster, g: LrcDraidArray(cluster, g, local_groups=1),
    "ec-st": lambda cluster, g: StatelessTargetDraid(
        cluster, g, code=code_for(("rs", g.data_per_stripe, 2))),
    "lrc-st": lambda cluster, g: StatelessTargetDraid(
        cluster, g, code=code_for(("lrc", g.data_per_stripe, 1, 1))),
}

CONTROLLERS = [
    "md", "spdk", "spdk6", "draid", "draid6", "draid-st", "draid-st6", "log",
    "offloaded", *CODED,
]


def apply_ops(kind: str, ops, fail_at: int):
    """Run the op sequence; returns (final_device_image, model_image).

    Member 1 fails before op ``fail_at`` (none when negative); on a
    controller that tolerates two failures member 2 follows one op later.
    """
    env, array, geometry = build_controller(kind)
    # the offloaded proxy forwards block I/O; its controller is the array
    tolerance = getattr(array, "controller", array).fault_tolerance
    capacity = STRIPES * geometry.stripe_data_bytes
    model = np.zeros(capacity, dtype=np.uint8)
    rng = np.random.default_rng(999)
    for index, (offset_frac, size_frac) in enumerate(ops):
        if index == fail_at:
            array.fail_drive(1)
        elif fail_at >= 0 and index == fail_at + 1 and tolerance >= 2:
            array.fail_drive(2)
        size = 1 + int(size_frac * (geometry.stripe_data_bytes * 2 - 1))
        offset = int(offset_frac * (capacity - size))
        payload = rng.integers(0, 256, size, dtype=np.uint8)
        env.run(until=array.write(offset, size, payload))
        model[offset : offset + size] = payload
    data = env.run(until=array.read(0, capacity))
    return np.asarray(data), model


op_lists = st.lists(
    st.tuples(st.floats(0, 1), st.floats(0, 1)),
    min_size=1,
    max_size=6,
)


@pytest.mark.parametrize("kind", CONTROLLERS)
@given(ops=op_lists, fail_at=st.integers(-1, 5))
@settings(max_examples=8, deadline=None)
def test_controller_matches_model(kind, ops, fail_at):
    if kind == "log" and fail_at >= 0:
        # the log-structured baseline models §2.3's write path; its
        # degraded-mode flushes reuse the shared full-stripe machinery and
        # are covered by its own suite without mid-sequence failures
        fail_at = -1
    data, model = apply_ops(kind, ops, fail_at)
    assert np.array_equal(data, model)


def test_all_controllers_agree_on_one_sequence():
    """One fixed mixed sequence: every implementation returns the same bytes."""
    ops = [(0.0, 0.9), (0.3, 0.2), (0.05, 0.02), (0.6, 0.5), (0.31, 0.01)]
    images = {}
    for kind in CONTROLLERS:
        data, model = apply_ops(kind, ops, fail_at=3)
        assert np.array_equal(data, model), kind
        images[kind] = data
    # two-parity cells have a smaller capacity, so the fractional offsets
    # resolve differently: compare within each parity count
    for reference, kinds in (
        ("draid", ("md", "spdk", "draid-st", "log", "offloaded")),
        ("draid6", ("spdk6", "draid-st6", *CODED)),
    ):
        for kind in kinds:
            assert np.array_equal(images[kind], images[reference]), f"{kind} diverged"


@pytest.mark.parametrize(
    # the log-structured array places blocks through its remap table, not
    # the geometry, so a member-chunk rebuild sweep does not describe it
    "kind", [kind for kind in CONTROLLERS if kind != "log"]
)
def test_rebuild_after_degraded_overwrite(kind):
    """Fail a member, overwrite while degraded, rebuild: the read-back
    equals the model and the rebuilt member's parity is consistent."""
    env, array, geometry = build_controller(kind)
    # the offloaded proxy forwards block I/O; its controller is the array
    core = getattr(array, "controller", array)
    capacity = STRIPES * geometry.stripe_data_bytes
    rng = np.random.default_rng(7)
    model = rng.integers(0, 256, capacity, dtype=np.uint8)
    env.run(until=array.write(0, capacity, model.copy()))
    array.fail_drive(0)
    patch = rng.integers(0, 256, capacity // 2, dtype=np.uint8)
    env.run(until=array.write(1234, len(patch), patch))
    model[1234 : 1234 + len(patch)] = patch
    env.run(until=RebuildJob(core, 0, STRIPES).start())
    assert not core.failed
    data = env.run(until=array.read(0, capacity))
    assert np.array_equal(np.asarray(data), model)
    assert scrub_array(core.drives, geometry, STRIPES, code=core.code).clean


@pytest.mark.parametrize(
    "cls", [MdRaid, SpdkRaid, DraidArray, StatelessTargetDraid],
    ids=lambda cls: cls.__name__,
)
@pytest.mark.parametrize("offset, size", [(0, CHUNK), (KB, 4 * KB)],
                         ids=["whole-chunk", "inside-chunk"])
def test_raid6_write_onto_one_of_two_failed_data_chunks(cls, offset, size):
    """RAID-6 with data chunks 0 and 1 of stripe 0 failed: a write to
    chunk 0 keeps chunk 1's content.  A whole-chunk write still needs
    chunk 1's old bytes for the new parity; a write inside the chunk
    decodes chunk 0 from both parities."""
    env = Environment()
    geometry = RaidGeometry(RaidLevel.RAID6, 6, CHUNK)
    array = cls(build_cluster(env, ClusterConfig(
        num_servers=6, functional_capacity=STRIPES * CHUNK)), geometry)
    capacity = STRIPES * geometry.stripe_data_bytes
    rng = np.random.default_rng(11)
    model = rng.integers(0, 256, capacity, dtype=np.uint8)
    env.run(until=array.write(0, capacity, model.copy()))
    array.fail_drive(geometry.data_drive(0, 0))
    array.fail_drive(geometry.data_drive(0, 1))
    patch = rng.integers(0, 256, size, dtype=np.uint8)
    env.run(until=array.write(offset, size, patch))
    model[offset : offset + size] = patch
    data = env.run(until=array.read(0, capacity))
    assert np.array_equal(np.asarray(data), model)


#: ``(rmw, rcw, full_stripe, degraded)_writes`` of one write on an idle
#: array, by (failed member, write shape): the mode's counter unless a
#: touched chunk failed, ``degraded`` iff a data member failed — an RCW
#: that cannot read a failed untouched chunk is an RMW
WRITE_COUNTERS = {
    ("none", "rmw"): (1, 0, 0, 0),
    ("none", "rcw"): (0, 1, 0, 0),
    ("none", "full"): (0, 0, 1, 0),
    ("parity", "rmw"): (1, 0, 0, 0),
    ("parity", "rcw"): (0, 1, 0, 0),
    ("parity", "full"): (0, 0, 1, 0),
    ("untouched data", "rmw"): (1, 0, 0, 1),
    ("untouched data", "rcw"): (1, 0, 0, 1),
    ("touched data", "rmw"): (0, 0, 0, 1),
    ("touched data", "rcw"): (0, 0, 0, 1),
    ("touched data", "full"): (0, 0, 0, 1),
}


@pytest.mark.parametrize("level", list(RaidLevel), ids=lambda level: level.name)
@pytest.mark.parametrize("failed, shape", list(WRITE_COUNTERS))
def test_controllers_count_writes_the_same_way(level, failed, shape):
    """One write to one stripe of an idle 6-target array: every controller
    ends with the same write-mode counters."""
    geometry = RaidGeometry(level, 6, CHUNK)
    k = geometry.data_per_stripe
    # 4 KiB in chunk 0; chunks 0..k-2 (chunk k-1 untouched); the stripe
    offset, size = {"rmw": (0, 4 * KB), "rcw": (0, (k - 1) * CHUNK),
                    "full": (0, k * CHUNK)}[shape]
    member = {
        "none": None,
        "parity": geometry.parity_drives(0)[0],
        "untouched data": geometry.data_drive(0, k - 1),
        "touched data": geometry.data_drive(0, 0),
    }[failed]
    for cls in (MdRaid, SpdkRaid, DraidArray, StatelessTargetDraid):
        env = Environment()
        array = cls(build_cluster(env, ClusterConfig(num_servers=6)), geometry)
        if member is not None:
            array.fail_drive(member)
        env.run(until=array.write(offset, size))
        s = array.stats
        counters = (s.rmw_writes, s.rcw_writes, s.full_stripe_writes, s.degraded_writes)
        assert counters == WRITE_COUNTERS[failed, shape], cls.__name__


#: the NVMe-oF datapath: methods only a host-centric array runs
HOST_CENTRIC_ONLY = (
    "_guarded", "_gather", "_subscribe_early", "_fence_stragglers",
    "_retry_loop", "_charge_staging", "_read_members", "_send_writes",
    "_write_members", "_write_image", "_read_extent_once", "_reconstruct_segment",
    "_write_resilient", "_pin_with_retries", "_write_full",
    "_write_rmw", "_write_rcw", "_write_degraded_region", "_write_degraded_data",
)
DATAPATH_HOOKS = (
    "_attach_transport", "_read_extent", "_write_stripe", "_member_read",
    "_member_write", "_await_repair_io",
)


def test_frame_and_datapaths_are_siblings():
    """``RaidArray`` is the frame; the host-centric and the dRAID datapath
    both sit on it and neither inherits the other."""
    from repro.baselines.array import RaidArray
    from repro.baselines.base import HostCentricRaid
    from repro.draid.offload import OffloadedController

    assert issubclass(HostCentricRaid, RaidArray) and issubclass(DraidArray, RaidArray)
    assert HostCentricRaid not in DraidArray.__mro__
    assert DraidArray not in HostCentricRaid.__mro__
    env, array, geometry = build_controller("draid")
    assert len(HOST_CENTRIC_ONLY) == 19
    for name in HOST_CENTRIC_ONLY:
        assert hasattr(HostCentricRaid, name), f"HostCentricRaid lacks {name}"
    for name in (*HOST_CENTRIC_ONLY, "bdevs", "targets"):
        assert not hasattr(array, name), f"DraidArray still carries {name}"
    # a frame without a datapath is a typed error up front, naming the
    # hooks, not an AttributeError mid-I/O
    with pytest.raises(TypeError) as raised:
        RaidArray(array.cluster, geometry)
    for hook in DATAPATH_HOOKS:
        assert hook in str(raised.value)
    # the offloaded controller is topology + command ends, nothing copied
    for name in ("fail_drive", "repair_drive", "_mark_prolonged_failures",
                 "_charge_submit", "_charge_xor", "_charge_gf",
                 "_attach_transport", "_receive_controller"):
        assert name not in vars(OffloadedController), name
