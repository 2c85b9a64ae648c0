"""repro — a simulation-fidelity reproduction of dRAID (ASPLOS 2023).

dRAID is a disaggregated RAID architecture that offloads parity generation,
parity reduction and data reconstruction to storage servers exchanging
partial results peer-to-peer, eliminating the host-NIC bandwidth
amplification of host-centric remote RAID.

This package contains a deterministic discrete-event simulation of the
paper's entire testbed (NICs, RDMA fabric, NVMe drives, poll-mode CPUs),
real GF(2^8) erasure coding, three RAID controllers (Linux-MD model,
SPDK-POC model and dRAID itself), workload generators (FIO-style, YCSB)
and application layers (object store, BlobFS, LSM KV store), plus
experiment harnesses regenerating every table and figure of the paper.

Quick start::

    from repro import build_testbed

    env, cluster, array = build_testbed("dRAID", servers=8)
    env.run(until=array.write(0, 128 * 1024))

See ``examples/`` for complete scenarios and ``benchmarks/`` for the
paper's evaluation.
"""

from importlib import import_module
from typing import Dict, Optional, Tuple, Union

from repro.baselines import MdRaid, SpdkRaid
from repro.cluster import ClusterConfig, build_cluster
from repro.draid import BandwidthAwareSelector, DraidArray, EcGeometry, RandomReducerSelector
from repro.ec import code_for
from repro.raid.geometry import RaidGeometry, RaidLevel
from repro.raid.layout import Layout, make_layout
from repro.sim import Environment

__version__ = "1.0.0"

__all__ = [
    "BandwidthAwareSelector",
    "ClusterConfig",
    "DraidArray",
    "Environment",
    "MdRaid",
    "RaidGeometry",
    "RaidLevel",
    "RandomReducerSelector",
    "SYSTEMS",
    "SpdkRaid",
    "build_cluster",
    "build_testbed",
    "system_class",
]

#: The one name -> controller table: the paper's comparison systems, named
#: as in its figures.  Everything that stands a system up resolves its name
#: through :func:`system_class`, which also knows the spellings below.
SYSTEMS: Dict[str, type] = {"Linux": MdRaid, "SPDK": SpdkRaid, "dRAID": DraidArray}
#: Controller variants beyond the paper's three, imported on first use so
#: that ``import repro`` stays light: figure-style name -> (module, class).
VARIANTS: Dict[str, Tuple[str, str]] = {
    "dRAID-ST": ("repro.draid.stateless", "StatelessTargetDraid"),
}
#: The lower-case spelling chaos/fuzz schedules and CLIs use -> figure name.
ALIASES: Dict[str, str] = {
    "md": "Linux",
    "linux": "Linux",
    "spdk": "SPDK",
    "draid": "dRAID",
    "draid-st": "dRAID-ST",
}
#: Erasure codes a dRAID controller can run instead of its level's P+Q.
CODES = ("rs", "lrc")


def system_class(system: str) -> type:
    """Resolve either spelling of a system name to its controller class."""
    label = ALIASES.get(system, system)
    if label in SYSTEMS:
        return SYSTEMS[label]
    if label in VARIANTS:
        module, name = VARIANTS[label]
        return getattr(import_module(module), name)
    raise ValueError(
        f"unknown system {system!r}; pick from "
        f"{[*SYSTEMS, *VARIANTS]} or {sorted(ALIASES)}"
    )


def build_testbed(
    system: str = "dRAID",
    servers: int = 8,
    level: RaidLevel = RaidLevel.RAID5,
    chunk_bytes: int = 512 * 1024,
    functional_capacity: int = 0,
    *,
    config: Optional[ClusterConfig] = None,
    layout: Union[None, str, Layout] = None,
    layout_seed: int = 0,
    code: Optional[str] = None,
    parity: int = 2,
    local_groups: int = 1,
    env: Optional[Environment] = None,
    **array_kwargs,
):
    """One-call testbed: returns ``(env, cluster, array)``.

    The only place in the package where a system name becomes a controller
    and, outside :mod:`repro.sim`, where an :class:`~repro.sim.Environment`
    is created: every experiment point, chaos and fuzz schedule, rack array
    and benchmark workload stands its system up here, on the same substrate.

    * ``system`` — ``"Linux"`` (aliases ``"linux"``, ``"md"``), ``"SPDK"``
      (``"spdk"``), ``"dRAID"`` (``"draid"``) or the stateless-target
      variant ``"dRAID-ST"`` (``"draid-st"``).
    * ``servers``, ``functional_capacity`` (bytes per drive; nonzero carries
      real data through the simulation) — the cluster, unless ``config``
      gives a ready :class:`~repro.cluster.ClusterConfig` (timeouts,
      observability, verification, fault domains, overload control, NIC
      rates, ...), whose ``num_servers`` then replaces ``servers``.
    * ``level``, ``chunk_bytes`` — the RAID-5/6 geometry.
    * ``layout`` — ``None``/``"rotating"`` (the stock parity rotation),
      another :data:`repro.raid.layout.LAYOUTS` name (``"declustered"``,
      seeded by ``layout_seed``) or a ready :class:`~repro.raid.layout.Layout`.
    * ``code`` — ``None`` (the level's P+Q parity), or ``"rs"`` / ``"lrc"``
      on a dRAID controller: an :class:`~repro.draid.EcGeometry` replaces the
      level, with ``parity`` parity chunks per stripe, which LRC splits into
      ``local_groups`` local and the rest global.
    * ``env`` — an existing environment to build into (a rack shares one
      among its arrays); a fresh one by default.

    Other keyword arguments go to the controller (``name=``, ``timeout_ns=``,
    ``failslow_detector=``, ...).  By default the array keeps its class's
    name — ``md`` / ``raid`` / ``draid`` / ``draid-st``, ``ec-<name>`` /
    ``lrc-<name>`` when coded — which seeds its retry-backoff RNG.
    """
    cls = system_class(system)
    if config is None:
        config = ClusterConfig(
            num_servers=servers, functional_capacity=functional_capacity
        )
    servers = config.num_servers
    if code is not None and (code not in CODES or not issubclass(cls, DraidArray)):
        raise ValueError(
            f"code {code!r} does not run on system {system!r}; "
            f"codes {CODES} run on dRAID and dRAID-ST"
        )
    num_parity = level.num_parity if code is None else parity
    if layout == "rotating":
        layout = None  # the geometries' default; takes no seed
    elif isinstance(layout, str):
        layout = make_layout(layout, servers, num_parity, seed=layout_seed)
    if code is None:
        geometry = RaidGeometry(level, servers, chunk_bytes, layout=layout)
    else:
        geometry = EcGeometry(servers, chunk_bytes, num_parity, layout=layout)
        k = geometry.data_per_stripe
        array_kwargs["code"] = code_for(
            ("rs", k, num_parity)
            if code == "rs"
            else ("lrc", k, local_groups, num_parity - local_groups)
        )
        prefix = "ec" if code == "rs" else "lrc"
        array_kwargs.setdefault("name", f"{prefix}-{ALIASES.get(system, system).lower()}")
    if env is None:
        env = Environment()
    cluster = build_cluster(env, config)
    return env, cluster, cls(cluster, geometry, **array_kwargs)
