"""Topology builder.

:func:`build_cluster` assembles the paper's testbed shape: one host, N
storage servers, a single switch, host-to-server RDMA connections and a
full mesh of server-to-server connections (used only by dRAID).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # annotation only: a hub loads when a config arms it
    from repro.faults.domains import DomainTopology
    from repro.obs import ObservabilityConfig
    from repro.qos import OverloadConfig
    from repro.verify import VerifyConfig

from repro.cluster.machines import HostMachine, StorageServer
from repro.cluster.profiles import DEFAULT_CPU, CpuProfile
from repro.net.fabric import Fabric, RdmaConnection
from repro.net.nic import GOODPUT_100G, Nic
from repro.sim.core import Environment
from repro.storage.drive import NvmeDrive
from repro.storage.profiles import DELL_AGN_MU, DriveProfile


@dataclass
class ClusterConfig:
    """Parameters of a simulated testbed."""

    num_servers: int = 8
    #: Topology name prefixed (as ``"<name>."``) onto every machine, NIC,
    #: drive and connection name, so several clusters can share one
    #: :class:`~repro.sim.core.Environment` (rack-scale composition,
    #: :mod:`repro.rack`) without colliding in traces and process names.
    #: The default empty string reproduces the historic unprefixed names
    #: byte-for-byte.
    name: str = ""
    host_nic_rate: float = GOODPUT_100G
    #: One rate per server; None means every server gets ``server_nic_rate``.
    server_nic_rates: Optional[Sequence[float]] = None
    server_nic_rate: float = GOODPUT_100G
    #: NICs per storage server (§5.5 network sharing: connections are
    #: placed on the least-used NIC at connect time).
    nics_per_server: int = 1
    drive_profile: DriveProfile = DELL_AGN_MU
    cpu_profile: CpuProfile = DEFAULT_CPU
    host_cores: int = 4
    server_cores: int = 1
    #: 0 = timing-only mode; otherwise per-drive functional capacity (bytes).
    functional_capacity: int = 0
    propagation_ns: int = 1_500
    rdma_op_ns: int = 3_000
    #: Per-attempt I/O timeout for the RAID controllers built on this
    #: cluster (§5.4 prolonged-failure detection): each array's
    #: ``timeout_ns``, which may be reassigned on the instance.
    io_timeout_ns: int = 50_000_000
    #: None (the default) leaves tracing/utilization sampling entirely
    #: unarmed — runs are byte-identical to an unobserved simulation.  Set
    #: an :class:`repro.obs.ObservabilityConfig` to attach a
    #: :class:`repro.obs.Observability` hub at ``cluster.obs``.
    observability: Optional["ObservabilityConfig"] = None
    #: None (the default) leaves the sanitizer/protocol checker entirely
    #: unarmed — runs are byte-identical to an unverified simulation.  Set
    #: a :class:`repro.verify.VerifyConfig` to attach a
    #: :class:`repro.verify.Verifier` hub at ``cluster.verify``.
    verify: Optional["VerifyConfig"] = None
    #: None (the default) gives faults no shape — every fault event is
    #: independent, exactly as before.  Set a
    #: :class:`repro.faults.domains.DomainTopology` to give correlated
    #: events (``DomainOutage``, ``BatchFailureStorm``) and the
    #: domain-aware chaos budget a blast-radius map.  Pure bookkeeping:
    #: attaching a topology changes nothing until an event references it.
    domains: Optional["DomainTopology"] = None
    #: None (the default) leaves overload control entirely unarmed — queues
    #: stay unbounded and runs are byte-identical to the historic datapath.
    #: Set a :class:`repro.qos.OverloadConfig` to attach a
    #: :class:`repro.qos.QosControl` hub at ``cluster.qos`` (admission
    #: bounds, deadlines, retry budget, circuit breaker).
    overload: Optional["OverloadConfig"] = None


class Cluster:
    """A wired-up testbed: host + servers + connections."""

    def __init__(
        self,
        env: Environment,
        fabric: Fabric,
        host: HostMachine,
        servers: List[StorageServer],
        host_connections: List[RdmaConnection],
        peer_connections: Dict[Tuple[int, int], RdmaConnection],
        config: ClusterConfig,
    ) -> None:
        self.env = env
        self.fabric = fabric
        self.host = host
        self.servers = servers
        self.host_connections = host_connections
        self._peer_connections = peer_connections
        self.config = config
        #: Armed by :class:`repro.storage.integrity.IntegrityStore.attach`;
        #: when set, the RAID controllers verify chunk checksums on reads
        #: and repair mismatches from parity.
        self.integrity = None
        #: Armed by :func:`build_cluster` when
        #: ``config.observability`` is set: a :class:`repro.obs.Observability`
        #: hub (tracer + utilization sampler).  None keeps every
        #: instrumentation site on its zero-cost short-circuit path.
        self.obs = None
        #: Armed by :func:`build_cluster` when ``config.verify`` is set: a
        #: :class:`repro.verify.Verifier` hub (kernel sanitizer + protocol
        #: checker).  None keeps every check site on its zero-cost
        #: short-circuit path.
        self.verify = None
        #: Armed by :class:`repro.raid.recovery.RecoveryOrchestrator`; when
        #: set, the fault injector routes heal-triggered rebuilds through
        #: the orchestrator (risk-ordered, SLO-paced) instead of kicking
        #: off a plain sequential :class:`~repro.raid.rebuild.RebuildJob`.
        self.recovery = None
        #: Armed by :func:`build_cluster` when ``config.overload`` is set: a
        #: :class:`repro.qos.QosControl` hub (admission queue, retry budget,
        #: circuit breaker, shared stats).  None keeps every overload check
        #: on its zero-cost short-circuit path.
        self.qos = None

    @property
    def num_servers(self) -> int:
        return len(self.servers)

    def host_connection(self, server_index: int) -> RdmaConnection:
        """The host <-> server ``server_index`` queue pair."""
        return self.host_connections[server_index]

    def peer_connection(self, i: int, j: int) -> RdmaConnection:
        """The server ``i`` <-> server ``j`` queue pair (order-insensitive)."""
        if i == j:
            raise ValueError("no peer connection to self")
        return self._peer_connections[(min(i, j), max(i, j))]

    def _end_of(self, connection: RdmaConnection, machine) -> "ConnectionEnd":
        """The connection end belonging to one of ``machine``'s NICs."""
        for end in (connection.a, connection.b):
            if end.nic in machine.nics:
                return end
        raise ValueError(f"{machine!r} owns neither end of {connection.name}")

    def host_end(self, server_index: int):
        """The host's end of its queue pair to ``server_index``."""
        return self._end_of(self.host_connections[server_index], self.host)

    def server_end(self, server_index: int):
        """Server ``server_index``'s end of its host queue pair."""
        return self._end_of(
            self.host_connections[server_index], self.servers[server_index]
        )

    def peer_end(self, i: int, j: int):
        """Server ``i``'s end of the i <-> j peer queue pair."""
        return self._end_of(self.peer_connection(i, j), self.servers[i])

    def drives(self) -> List[NvmeDrive]:
        return [s.drive for s in self.servers]

    def reset_accounting(self) -> None:
        """Zero every NIC/drive/CPU counter (used between warmup and measure)."""
        for server in self.servers:
            for nic in server.nics:
                nic.reset_accounting()
            server.drive.stats.reset()
            for core in server.cores:
                core.reset_accounting()
        for nic in self.host.nics:
            nic.reset_accounting()
        for core in self.host.cores:
            core.reset_accounting()


def build_cluster(env: Environment, config: Optional[ClusterConfig] = None) -> Cluster:
    """Build a cluster according to ``config`` (paper defaults if omitted)."""
    config = config or ClusterConfig()
    if config.num_servers < 1:
        raise ValueError("need at least one server")
    if config.io_timeout_ns <= 0:
        raise ValueError(f"io_timeout_ns must be positive, got {config.io_timeout_ns}")
    rates = config.server_nic_rates
    if rates is not None and len(rates) != config.num_servers:
        raise ValueError(
            f"server_nic_rates has {len(rates)} entries for {config.num_servers} servers"
        )
    fabric = Fabric(
        env, propagation_ns=config.propagation_ns, rdma_op_ns=config.rdma_op_ns
    )
    # "" for the historic single-cluster testbed; "<name>." under a rack
    prefix = f"{config.name}." if config.name else ""
    host = HostMachine(
        env,
        f"{prefix}host",
        [Nic(env, config.host_nic_rate, name=f"{prefix}host.nic")],
        num_cores=config.host_cores,
        cpu_profile=config.cpu_profile,
    )
    if config.nics_per_server < 1:
        raise ValueError("need at least one NIC per server")
    servers: List[StorageServer] = []
    for i in range(config.num_servers):
        rate = rates[i] if rates is not None else config.server_nic_rate
        nics = [
            Nic(env, rate, name=f"{prefix}server{i}.nic{n}")
            for n in range(config.nics_per_server)
        ]
        drive = NvmeDrive(
            env,
            config.drive_profile,
            name=f"{prefix}server{i}.nvme",
            functional_capacity=config.functional_capacity,
        )
        servers.append(
            StorageServer(
                env,
                f"{prefix}server{i}",
                nics,
                [drive],
                num_cores=config.server_cores,
                cpu_profile=config.cpu_profile,
            )
        )

    def pick_nic(server: StorageServer) -> "Nic":
        # §5.5: "new connections are created on the least used NIC";
        # at build time usage = number of connections already placed.
        nic = min(server.nics, key=lambda n: placement_counts[id(n)])
        placement_counts[id(nic)] += 1
        return nic

    placement_counts: Dict[int, int] = {
        id(nic): 0 for server in servers for nic in server.nics
    }
    host_connections = [
        fabric.connect(host.nic, pick_nic(server), name=f"{prefix}host-s{i}")
        for i, server in enumerate(servers)
    ]
    peer_connections: Dict[Tuple[int, int], RdmaConnection] = {}
    for i in range(config.num_servers):
        for j in range(i + 1, config.num_servers):
            peer_connections[(i, j)] = fabric.connect(
                pick_nic(servers[i]), pick_nic(servers[j]), name=f"{prefix}s{i}-s{j}"
            )
    cluster = Cluster(
        env, fabric, host, servers, host_connections, peer_connections, config
    )
    # each hub is imported only when its config arms it
    if config.observability is not None:
        from repro.obs import Observability

        cluster.obs = Observability(cluster)
    if config.verify is not None:
        from repro.verify import Verifier

        cluster.verify = Verifier(cluster, config.verify)
    if config.overload is not None:
        from repro.qos.control import QosControl

        cluster.qos = QosControl(config.overload)
    return cluster
