"""The fault injector: executes a :class:`FaultPlan` against one array.

The injector is a simulation process.  Creating one *arms* the cluster
(``cluster.fault_injection``), which switches the RAID controllers onto
their resilient timeout/retry datapaths; arrays built without an injector
keep the exact event sequence of the healthy paths, so all committed
figures are unchanged.

Every fault keys off sim time and the plan's own seeds — never wall
clock — so identical plans replay bit-identically, serial or parallel.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.faults.events import (
    BatchFailureStorm,
    BitRot,
    DomainOutage,
    DriveErrorBurst,
    DriveFail,
    DriveFailSlow,
    DriveHeal,
    FaultEvent,
    GrayDriveStutter,
    GrayNicFlap,
    LinkStall,
    LostWrite,
    MisdirectedWrite,
    NetJitter,
    NicDegrade,
    ServerCrash,
    TornWrite,
)
from repro.faults.domains import DomainTopology, default_topology
from repro.faults.plan import FaultPlan
from repro.nvmeof.messages import IoError
from repro.raid.rebuild import RebuildJob
from repro.sim.core import Environment, Event


class FaultInjector:
    """Applies ``plan`` to ``array`` on the simulation clock."""

    def __init__(
        self,
        array,
        plan: FaultPlan,
        num_stripes: Optional[int] = None,
        arm: bool = True,
    ) -> None:
        self.array = array
        self.plan = plan
        self.env: Environment = array.env
        self.cluster = array.cluster
        self._num_stripes = num_stripes
        self.applied = 0
        self.rebuilds = 0
        self.rebuild_failures = 0
        self._helpers: List[Event] = []
        self._nic_degrades = {i: 0 for i in range(self.cluster.num_servers)}
        self._default_topology = None
        if arm:
            self.cluster.fault_injection = self
        self.process = self.env.process(self._run(), name=f"{array.name}.faults")

    # -- lifecycle ---------------------------------------------------------

    def _run(self):
        for event in self.plan:
            delay = event.at_ns - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            self._apply(event)

    def drain(self) -> Event:
        """Event firing once every plan event and helper has finished
        (rebuilds kicked off by heals, NIC restores, jitter windows)."""
        return self.env.process(self._drain(), name=f"{self.array.name}.faults-drain")

    def _drain(self):
        yield self.process
        for helper in list(self._helpers):
            yield helper

    def _spawn(self, generator, name: str) -> None:
        self._helpers.append(self.env.process(generator, name=name))

    # -- event application -------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        array = self.array
        if isinstance(event, DriveFail):
            self._fail_member(event.server)
        elif isinstance(event, DriveHeal):
            self._spawn(self._heal(event.server), f"{array.name}.heal{event.server}")
        elif isinstance(event, DriveErrorBurst):
            self._drive(event.server).inject_error_burst(event.duration_ns)
        elif isinstance(event, DriveFailSlow):
            self._drive(event.server).set_fail_slow(
                event.multiplier, event.duration_ns or None
            )
        elif isinstance(event, NicDegrade):
            server = self.cluster.servers[event.server]
            for nic in server.nics:
                nic.degrade(event.factor)
            self._nic_degrades[event.server] += 1
            self._spawn(
                self._nic_restore(event.server, event.duration_ns),
                f"{array.name}.nic-restore{event.server}",
            )
        elif isinstance(event, LinkStall):
            self.cluster.host_connection(event.server).stall(event.duration_ns)
        elif isinstance(event, NetJitter):
            rng = random.Random(event.seed)
            fn = lambda: rng.randint(0, event.jitter_ns)  # noqa: E731
            self.cluster.fabric.jitter_ns_fn = fn
            self._spawn(
                self._jitter_clear(fn, event.duration_ns), f"{array.name}.jitter-clear"
            )
        elif isinstance(event, ServerCrash):
            array.server_sides[event.server].crash(event.down_ns)
        elif isinstance(event, DomainOutage):
            for server in self.topology.members(event.kind_name, event.domain_id):
                array.server_sides[server].crash(event.down_ns)
        elif isinstance(event, BatchFailureStorm):
            self._spawn(
                self._batch_storm(event), f"{array.name}.batch-storm{event.batch_id}"
            )
        elif isinstance(event, GrayNicFlap):
            self._spawn(
                self._gray_nic_flap(event), f"{array.name}.gray-nic{event.server}"
            )
        elif isinstance(event, GrayDriveStutter):
            self._spawn(
                self._gray_stutter(event), f"{array.name}.gray-drive{event.server}"
            )
        elif isinstance(event, BitRot):
            self._drive(event.server).corrupt(
                "bitrot", offset=event.offset, length=event.length, seed=event.seed
            )
        elif isinstance(event, LostWrite):
            self._drive(event.server).corrupt("lost")
        elif isinstance(event, TornWrite):
            self._drive(event.server).corrupt("torn")
        elif isinstance(event, MisdirectedWrite):
            self._drive(event.server).corrupt(
                "misdirected", shift_bytes=event.shift_bytes
            )
        else:
            raise TypeError(f"unknown fault event {event!r}")
        self.applied += 1
        array.fault_stats.record_injected(event.kind)

    def _fail_member(self, server: int) -> None:
        """Hard-fail one member (idempotent; tolerance overruns are kept
        as marked failures and surface as datapath ``IoError``)."""
        array = self.array
        if server in array.failed:
            return
        from repro.baselines.array import ArrayFailureError

        try:
            array.fail_drive(server)
        except ArrayFailureError:
            pass  # still marked failed; the datapath surfaces IoError
        array.fault_stats.degraded_transitions += 1

    @property
    def topology(self) -> DomainTopology:
        """The cluster's failure-domain map (``ClusterConfig.domains``),
        or the default blast-radius shape when none was configured."""
        topology = self.cluster.config.domains
        if topology is None:
            topology = self._default_topology
            if topology is None:
                topology = default_topology(self.cluster.num_servers)
                self._default_topology = topology
        return topology

    def _drive(self, server: int):
        return self.cluster.servers[server].drive

    # -- helpers -----------------------------------------------------------

    def _heal(self, server: int):
        array = self.array
        if server in array.failed:
            orchestrator = self.cluster.recovery
            if orchestrator is not None and orchestrator.array is array:
                # availability-aware path: the orchestrator owns spare
                # allocation, risk-ordered stripe scheduling and pacing
                try:
                    yield orchestrator.request_rebuild(server)
                    self.rebuilds += 1
                except (IoError, RuntimeError):
                    self.rebuild_failures += 1
                return
            num_stripes = self._num_stripes
            if num_stripes is None:
                num_stripes = (
                    self.cluster.config.functional_capacity
                    // array.geometry.chunk_bytes
                )
            job = RebuildJob(array, server, num_stripes)
            try:
                yield job.start()
                self.rebuilds += 1
            except (IoError, RuntimeError):
                # rebuild interrupted by a newer fault; a later heal (or the
                # harness's recovery pass) will retry
                self.rebuild_failures += 1
        else:
            self._drive(server).heal()

    def _batch_storm(self, event: BatchFailureStorm):
        """Stagger ``count`` correlated deaths over a seeded hazard curve."""
        from repro.faults.domains import batch_storm_victims

        for victim, fail_at in batch_storm_victims(self.topology, event):
            wait = fail_at - self.env.now
            if wait > 0:
                yield self.env.timeout(wait)
            self._fail_member(victim)

    def _gray_nic_flap(self, event: GrayNicFlap):
        """Periodic short NIC dips (refcounted against overlapping
        ``NicDegrade`` windows so restores never race)."""
        server = self.cluster.servers[event.server]
        for flap in range(event.flaps):
            for nic in server.nics:
                nic.degrade(event.factor)
            self._nic_degrades[event.server] += 1
            yield self.env.timeout(event.up_ns)
            self._nic_degrades[event.server] -= 1
            if self._nic_degrades[event.server] == 0:
                for nic in server.nics:
                    nic.restore()
            rest = event.period_ns - event.up_ns
            if rest > 0 and flap + 1 < event.flaps:
                yield self.env.timeout(rest)

    def _gray_stutter(self, event: GrayDriveStutter):
        """Periodic sub-ejection-threshold latency stutters."""
        drive = self._drive(event.server)
        for repeat in range(event.repeats):
            drive.set_fail_slow(event.multiplier, event.up_ns)
            if repeat + 1 < event.repeats:
                yield self.env.timeout(event.period_ns)

    def _nic_restore(self, server: int, duration_ns: int):
        yield self.env.timeout(duration_ns)
        self._nic_degrades[server] -= 1
        if self._nic_degrades[server] == 0:
            for nic in self.cluster.servers[server].nics:
                nic.restore()

    def _jitter_clear(self, fn, duration_ns: int):
        yield self.env.timeout(duration_ns)
        if self.cluster.fabric.jitter_ns_fn is fn:
            self.cluster.fabric.jitter_ns_fn = None
