"""Rack topology: many arrays (each its own cluster) in one simulation.

Every :class:`ArraySpec` builds one complete testbed — host machine,
storage servers, RDMA fabric, controller — exactly as
:func:`repro.cluster.build_cluster` always has, but all the clusters of a
rack share one :class:`~repro.sim.core.Environment`, so their events
interleave on a single deterministic clock.  Machine/NIC/drive names are
prefixed per array (``a0.server3.nvme``) via ``ClusterConfig.name``; a
rack with a single unnamed array keeps the historic unprefixed names and
is byte-identical to a directly-built cluster.

The modeling choice mirrors DRackSim-style rack composition: arrays are
*failure- and bandwidth-isolated* from each other (separate fabrics —
inter-array traffic exists only as volume-migration streams issued by the
:class:`~repro.rack.volumes.VolumeManager`), while *tenants* contend at
each array's front door, which is where the rack-level QoS
(:class:`RackQosConfig`) arbitrates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

from repro import build_testbed
from repro.cluster import Cluster, ClusterConfig
from repro.qos.fair import WeightedFairQueue
from repro.raid.geometry import RaidLevel
from repro.sim.core import Environment

KB = 1024
MB = 1_000_000


@dataclass
class ArraySpec:
    """One array of a rack: controller kind, geometry and exported capacity.

    ``name`` prefixes every machine of the array's cluster (``None`` means
    ``a<i>`` in a multi-array rack, or the historic unprefixed names when
    the rack has exactly one array).  ``export_bytes`` is the logical
    capacity the array offers to the volume manager — placement accounting
    only; it is independent of ``cluster.functional_capacity``.  Pass a
    ``cluster`` :class:`~repro.cluster.ClusterConfig` to override NIC
    rates, drive profiles, overload control etc.; its ``num_servers`` and
    ``name`` fields are overwritten from this spec.
    """

    system: str = "dRAID"
    servers: int = 8
    level: RaidLevel = RaidLevel.RAID5
    chunk_bytes: int = 512 * KB
    export_bytes: int = 1 << 30
    name: Optional[str] = None
    cluster: Optional[ClusterConfig] = None


@dataclass
class RackQosConfig:
    """Per-tenant QoS knobs applied at every array's front door.

    ``slots`` bounds concurrently in-service I/Os per array (the shared
    submission-queue depth the fair queue arbitrates);
    ``default_queue_limit`` bounds each tenant's private backlog before
    typed ``Busy`` fast-rejects; ``shaping_horizon_ns`` (ns) caps how long
    a token-bucket rate limit may delay an I/O that carries no explicit
    deadline before policing it instead.
    """

    slots: int = 64
    default_queue_limit: int = 32
    shaping_horizon_ns: int = 2_000_000


@dataclass
class RackConfig:
    """Declarative rack: the array list, placement policy and tenant QoS.

    ``placement`` names a :data:`repro.rack.volumes.PLACEMENT_POLICIES`
    entry; ``qos=None`` (the default) leaves tenant QoS entirely unarmed —
    volumes become transparent pass-throughs and the datapath is
    byte-identical to driving the arrays directly.
    """

    arrays: Sequence[ArraySpec] = field(default_factory=lambda: [ArraySpec()])
    placement: str = "least-loaded"
    qos: Optional[RackQosConfig] = None


class RackArray:
    """One placed array: spec + cluster + controller + front-door state."""

    def __init__(
        self,
        name: str,
        spec: ArraySpec,
        cluster: Cluster,
        array,
        wfq: Optional[WeightedFairQueue],
    ) -> None:
        self.name = name
        self.spec = spec
        self.cluster = cluster
        self.array = array
        #: armed by ``RackConfig.qos``: the weighted-fair front door
        self.wfq = wfq
        #: placement accounting (bump allocator; see VolumeManager)
        self.allocated_bytes = 0
        self.next_offset = 0
        self.placed_demand_mb_s = 0.0
        self.volumes: List = []

    @property
    def free_bytes(self) -> int:
        """Exported capacity not yet allocated to volumes."""
        return self.spec.export_bytes - self.allocated_bytes

    def allocate(self, nbytes: int) -> int:
        """Claim ``nbytes``; returns the volume's base offset on the array."""
        if nbytes > self.free_bytes:
            raise ValueError(
                f"{self.name}: cannot allocate {nbytes} bytes "
                f"({self.free_bytes} free of {self.spec.export_bytes})"
            )
        base = self.next_offset
        self.next_offset += nbytes
        self.allocated_bytes += nbytes
        return base

    def deallocate(self, nbytes: int) -> None:
        """Return capacity (arena-style: the address range is not reused)."""
        self.allocated_bytes -= nbytes


class Rack:
    """A built rack: shared environment, arrays, and the volume manager."""

    def __init__(self, env: Environment, config: RackConfig, arrays: List[RackArray]) -> None:
        from repro.rack.volumes import VolumeManager  # circular at import time only

        self.env = env
        self.config = config
        self.arrays = arrays
        self.volumes = VolumeManager(self, policy=config.placement)

    def array(self, name: str) -> RackArray:
        """Look up an array by its resolved name."""
        for entry in self.arrays:
            if entry.name == name:
                return entry
        raise KeyError(f"no array named {name!r}; have {[a.name for a in self.arrays]}")


def build_rack(env: Optional[Environment], config: Optional[RackConfig] = None) -> Rack:
    """Build every array of ``config`` into one shared environment.

    Pass ``env=None`` to create a fresh :class:`~repro.sim.core.Environment`.
    A single-array rack with no explicit ``name`` builds the historic
    unprefixed testbed byte-for-byte.
    """
    config = config or RackConfig()
    if not config.arrays:
        raise ValueError("a rack needs at least one array")
    arrays: List[RackArray] = []
    seen = set()
    for i, spec in enumerate(config.arrays):
        name = spec.name
        if name is None:
            name = "" if len(config.arrays) == 1 else f"a{i}"
        if name in seen:
            raise ValueError(f"duplicate array name {name!r}")
        seen.add(name)
        base = spec.cluster if spec.cluster is not None else ClusterConfig()
        # the first array creates the environment the rest are built into
        env, cluster, array = build_testbed(
            spec.system,
            level=spec.level,
            chunk_bytes=spec.chunk_bytes,
            config=replace(base, num_servers=spec.servers, name=name),
            env=env,
            name=f"{name}.raid" if name else "raid",
        )
        wfq = None
        if config.qos is not None:
            wfq = WeightedFairQueue(env, slots=config.qos.slots)
        arrays.append(RackArray(name or f"a{i}", spec, cluster, array, wfq))
    return Rack(env, config, arrays)
