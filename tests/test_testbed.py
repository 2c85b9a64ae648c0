"""``repro.build_testbed``: the one place a system name becomes a controller."""

import pytest

from repro import (
    ALIASES,
    SYSTEMS,
    VARIANTS,
    ClusterConfig,
    DraidArray,
    Environment,
    MdRaid,
    RaidLevel,
    SpdkRaid,
    build_testbed,
    system_class,
)
from repro.draid import EcGeometry
from repro.draid.stateless import StatelessTargetDraid
from repro.raid.layout import DeclusteredLayout, RotatingLayout

KB = 1024

#: every accepted spelling -> (controller class, the array's default name)
SPELLINGS = {
    "Linux": (MdRaid, "md"),
    "linux": (MdRaid, "md"),
    "md": (MdRaid, "md"),
    "SPDK": (SpdkRaid, "raid"),
    "spdk": (SpdkRaid, "raid"),
    "dRAID": (DraidArray, "draid"),
    "draid": (DraidArray, "draid"),
    "dRAID-ST": (StatelessTargetDraid, "draid-st"),
    "draid-st": (StatelessTargetDraid, "draid-st"),
}


def test_spellings_cover_the_registry():
    assert set(SPELLINGS) == {*SYSTEMS, *VARIANTS, *ALIASES}
    assert set(ALIASES.values()) == {*SYSTEMS, *VARIANTS}


@pytest.mark.parametrize("system", SPELLINGS)
def test_every_spelling_resolves_to_its_class_and_default_name(system):
    cls, name = SPELLINGS[system]
    assert system_class(system) is cls
    env, cluster, array = build_testbed(system, servers=4)
    assert type(array) is cls
    # the name seeds the retry-backoff RNG (``repro.backoff:<name>``): a
    # changed default would move every chaos, integrity and fuzz golden
    assert array.name == name
    assert array.env is env and array.cluster is cluster


@pytest.mark.parametrize("system", ["draid", "dRAID", "draid-st", "dRAID-ST"])
@pytest.mark.parametrize("code, prefix", [("rs", "ec"), ("lrc", "lrc")])
def test_coded_arrays_keep_their_historic_names(system, code, prefix):
    _, _, array = build_testbed(
        system, servers=8, chunk_bytes=16 * KB, code=code, parity=3, local_groups=2
    )
    assert array.name == f"{prefix}-{system.lower()}"
    assert isinstance(array.geometry, EcGeometry)
    k = array.geometry.data_per_stripe
    assert array.code.spec == (("rs", k, 3) if code == "rs" else ("lrc", k, 2, 1))


def test_call_forms_the_benchmark_workloads_use():
    env, cluster, array = build_testbed("SPDK", servers=6, chunk_bytes=64 * KB)
    assert (cluster.num_servers, array.geometry.chunk_bytes) == (6, 64 * KB)
    env, cluster, array = build_testbed("dRAID", servers=8)
    assert isinstance(array, DraidArray) and array.geometry.level is RaidLevel.RAID5
    assert not array.functional
    assert build_testbed("Linux", 4, RaidLevel.RAID6, 16 * KB, 1 << 20)[2].functional


def test_config_layout_env_and_controller_kwargs():
    shared = Environment()
    config = ClusterConfig(num_servers=6, io_timeout_ns=123_000, name="a0")
    env, cluster, array = build_testbed(
        "md", servers=99, config=config, layout="declustered", layout_seed=3,
        env=shared, name="a0.raid",
    )
    assert env is shared and cluster.config is config
    assert array.name == "a0.raid" and array.timeout_ns == 123_000
    layout = array.geometry.layout
    assert isinstance(layout, DeclusteredLayout) and layout.num_drives == 6
    ready = DeclusteredLayout(6, 1, seed=3)
    assert build_testbed("md", servers=6, layout=ready)[2].geometry.layout is ready
    rotating = build_testbed("md", servers=6, layout="rotating")[2].geometry.layout
    assert isinstance(rotating, RotatingLayout)


@pytest.mark.parametrize(
    "kwargs, names",
    [
        (dict(system="ZFS"), ("'ZFS'", "Linux", "SPDK", "dRAID", "dRAID-ST", "draid-st", "md")),
        (dict(system="md", code="rs"), ("code 'rs' does not run on system 'md'", "lrc")),
        (dict(system="draid", code="xor"), ("code 'xor'", "rs", "lrc")),
        (dict(system="draid", layout="spiral"), ("'spiral'", "declustered", "rotating")),
        (dict(system="draid", servers=6, layout=DeclusteredLayout(8, 1)), ("does not match",)),
        (dict(system="draid", level=RaidLevel.RAID6, layout=DeclusteredLayout(8, 1)),
         ("does not match",)),
    ],
    ids=["system", "code-on-host-centric", "code", "layout", "layout-drives", "layout-parity"],
)
def test_bad_input_raises_value_error_naming_the_choices(kwargs, names):
    with pytest.raises(ValueError) as exc:
        build_testbed(**kwargs)
    for name in names:
        assert name in str(exc.value)
