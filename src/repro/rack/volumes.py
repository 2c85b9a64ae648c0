"""Tenant volumes: placement, QoS-gated routing, and live migration.

A :class:`Volume` is the block device a tenant actually holds: a named,
fixed-size slice of one array's address space.  Tenants never see arrays —
they issue ``read``/``write`` against the volume and the
:class:`VolumeManager` decides (and may *change*, live) which array serves
them.  The life of a tenant I/O under an armed rack:

1. **rate limit** — the volume's token bucket shapes short overshoots and
   polices sustained ones (an I/O whose bucket wait alone would blow its
   latency budget is ``Busy``-rejected without consuming budget);
2. **fair share** — the home array's
   :class:`~repro.qos.fair.WeightedFairQueue` queues the I/O on the
   tenant's private lane and dispatches by weight when a shared service
   slot frees (full lane → typed ``Busy``, the noisy tenant bounces off
   its *own* backlog);
3. **the array** — the I/O enters the controller at the volume's base
   offset plus the tenant-relative offset, exactly as a directly-issued
   I/O would.

With rack QoS unarmed every step above short-circuits to a plain
pass-through call, and a tenant's deadline stays the workload's goodput
yardstick: the volume drops it before the array sees it.

Placement is capacity- and load-aware (:data:`PLACEMENT_POLICIES`), and
:meth:`VolumeManager.migrate` re-homes a volume while the tenant keeps
issuing I/O: a background copy stream drains the volume extent-by-extent
to the destination (dual-writing foreground writes in functional mode so
no acknowledged byte is lost), then a cutover atomically switches the
routing.  Every decision tie-breaks on stable (index, name) order, so two
runs with the same seeds place and migrate identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.nvmeof.messages import IoError
from repro.qos.admission import PRIORITY_BACKGROUND
from repro.qos.errors import Busy
from repro.qos.tokens import TokenBucket
from repro.raid.rebuild import PRESSURE_PAUSE_NS
from repro.sim.core import Environment, Event

if TYPE_CHECKING:  # annotation only
    from repro.rack.topology import Rack, RackArray

MB = 1_000_000


@dataclass
class VolumeSpec:
    """Declarative tenant volume: size, expected demand and QoS knobs.

    ``size_bytes`` is the allocated capacity; ``demand_mb_s`` the expected
    offered load (MB/s) the load-aware placement policies balance on.
    ``rate_limit_mb_s`` arms a token-bucket byte budget (MB/s; ``None`` =
    uncapped) with burst depth ``burst_bytes``; ``weight`` is the tenant's
    fair-share weight and ``queue_limit`` its private backlog bound at the
    array front door (``None`` = the rack default).  QoS knobs take effect
    only when the rack itself is built with a
    :class:`~repro.rack.topology.RackQosConfig`.
    """

    name: str
    size_bytes: int
    demand_mb_s: float = 0.0
    weight: float = 1.0
    rate_limit_mb_s: Optional[float] = None
    burst_bytes: int = 1 << 20
    queue_limit: Optional[int] = None


@dataclass(frozen=True)
class MigrationRecord:
    """One completed volume migration (all times in ns of sim time)."""

    volume: str
    source: str
    destination: str
    started_ns: int
    finished_ns: int
    moved_bytes: int


class Volume:
    """A tenant's block device: a placed, QoS-gated slice of one array.

    Exposes the same ``read(offset, nbytes, ctx=None, deadline_ns=None)``
    / ``write(offset, nbytes, data=None, ctx=None, deadline_ns=None)``
    event interface as an array, plus the attributes workloads expect
    (``env``, ``geometry``), so any workload generator drives a volume
    unchanged.
    """

    def __init__(
        self,
        manager: "VolumeManager",
        spec: VolumeSpec,
        home: "RackArray",
        base: int,
        bucket: Optional[TokenBucket],
    ) -> None:
        self.manager = manager
        self.spec = spec
        self.name = spec.name
        self.size_bytes = spec.size_bytes
        self.env: Environment = manager.rack.env
        self.home = home
        self.base = base
        self.bucket = bucket
        #: non-None while a migration copy stream is running: (dst, dst_base)
        self._migrating_to = None
        #: arrivals/bytes since the balancer's last scan (hotness signal)
        self.window_ops = 0
        self.window_bytes = 0
        #: tenant-facing Busy rejects issued by the volume's own QoS gates
        self.qos_rejections = 0

    # -- attributes workload generators expect -----------------------------

    @property
    def geometry(self):
        """The home array's RAID geometry (tracks migrations)."""
        return self.home.array.geometry

    # -- block interface ----------------------------------------------------

    def read(self, offset: int, nbytes: int, ctx=None, deadline_ns=None) -> Event:
        """Read ``nbytes`` at tenant-relative ``offset`` (event interface)."""
        self._check_bounds(offset, nbytes)
        return self.env.process(
            self._io(True, offset, nbytes, None, ctx, deadline_ns),
            name=f"vol.{self.name}.read",
        )

    def write(self, offset: int, nbytes: int, data=None, ctx=None, deadline_ns=None) -> Event:
        """Write ``nbytes`` at tenant-relative ``offset`` (event interface)."""
        self._check_bounds(offset, nbytes)
        return self.env.process(
            self._io(False, offset, nbytes, data, ctx, deadline_ns),
            name=f"vol.{self.name}.write",
        )

    def _check_bounds(self, offset: int, nbytes: int) -> None:
        if nbytes <= 0 or offset < 0 or offset + nbytes > self.size_bytes:
            raise ValueError(
                f"volume {self.name}: I/O [{offset}, {offset + nbytes}) outside "
                f"[0, {self.size_bytes})"
            )

    def _io(self, is_read: bool, offset: int, nbytes: int, data, ctx, deadline_ns):
        self.window_ops += 1
        self.window_bytes += nbytes
        if self.manager.rack.config.qos is None:
            # unarmed rack: the deadline only judges goodput, never the wire
            deadline_ns = None
        if self.bucket is not None:
            horizon = self._shaping_horizon(deadline_ns)
            grant = self.bucket.acquire_within(nbytes, horizon)
            if grant is None:
                self.qos_rejections += 1
                raise Busy(f"volume {self.name}: over its rate limit")
            yield grant
        home = self.home  # re-read after the bucket wait: cutover may have run
        if home.wfq is not None:
            try:
                slot = home.wfq.acquire(self.name, nbytes)
            except Busy:
                self.qos_rejections += 1
                if self.bucket is not None:
                    self.bucket.refund(nbytes)
                raise
            yield slot
        try:
            result = yield self._forward(home, is_read, offset, nbytes, data, ctx, deadline_ns)
        finally:
            if home.wfq is not None:
                home.wfq.release()
        return result

    def _forward(self, home, is_read, offset, nbytes, data, ctx, deadline_ns):
        if is_read:
            return home.array.read(self.base + offset, nbytes, ctx=ctx, deadline_ns=deadline_ns)
        # during a functional-mode migration, mirror writes to the copy
        # target so no acknowledged byte is left behind by the cutover
        if self._migrating_to is not None and self.manager.functional:
            dst, dst_base = self._migrating_to
            from repro.sim.core import AllOf

            return AllOf(
                self.env,
                [
                    home.array.write(self.base + offset, nbytes, data, ctx=ctx,
                                     deadline_ns=deadline_ns),
                    dst.array.write(dst_base + offset, nbytes, data, ctx=ctx,
                                    deadline_ns=deadline_ns),
                ],
            )
        return home.array.write(
            self.base + offset, nbytes, data, ctx=ctx, deadline_ns=deadline_ns
        )

    def _shaping_horizon(self, deadline_ns: Optional[int]) -> int:
        if deadline_ns is not None:
            return max(0, deadline_ns - self.env.now)
        return self.manager.rack.config.qos.shaping_horizon_ns

    def reset_window(self) -> None:
        """Zero the hotness counters (called by the balancer each scan)."""
        self.window_ops = 0
        self.window_bytes = 0


# -- placement policies -----------------------------------------------------


def _fits(array: "RackArray", spec: VolumeSpec) -> bool:
    return array.free_bytes >= spec.size_bytes


def _first_fit(arrays: Sequence["RackArray"], spec: VolumeSpec):
    """First array (in rack order) with enough free capacity."""
    for array in arrays:
        if _fits(array, spec):
            return array
    return None


def _best_fit(arrays: Sequence["RackArray"], spec: VolumeSpec):
    """Tightest capacity fit: the feasible array with least free space."""
    feasible = [a for a in arrays if _fits(a, spec)]
    if not feasible:
        return None
    return min(feasible, key=lambda a: (a.free_bytes, a.name))


def _least_loaded(arrays: Sequence["RackArray"], spec: VolumeSpec):
    """Load-aware: the feasible array with least placed demand (MB/s)."""
    feasible = [a for a in arrays if _fits(a, spec)]
    if not feasible:
        return None
    return min(feasible, key=lambda a: (a.placed_demand_mb_s, a.name))


#: Placement policy registry: name -> ``policy(arrays, spec) -> array|None``.
PLACEMENT_POLICIES: Dict[str, Callable] = {
    "first-fit": _first_fit,
    "best-fit": _best_fit,
    "least-loaded": _least_loaded,
}


class VolumeManager:
    """Places tenant volumes onto a rack's arrays and migrates them live.

    The control plane of the rack: :meth:`create` runs the configured
    placement policy and wires up the volume's QoS state (token bucket,
    fair-queue lane); :meth:`migrate` re-homes a volume with a paced
    background copy stream and an atomic cutover, appending a
    :class:`MigrationRecord` per completed move.  All state transitions
    happen on the simulation clock — two identical runs place and migrate
    at identical instants.
    """

    def __init__(self, rack: "Rack", policy: str = "least-loaded") -> None:
        if policy not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement policy {policy!r}; pick from "
                f"{sorted(PLACEMENT_POLICIES)}"
            )
        self.rack = rack
        self.policy = policy
        self.volumes: Dict[str, Volume] = {}
        self.migrations: List[MigrationRecord] = []

    @property
    def functional(self) -> bool:
        """True when every array of the rack carries real bytes."""
        return all(a.array.functional for a in self.rack.arrays)

    def create(self, spec: VolumeSpec, on: Optional[str] = None) -> Volume:
        """Place a new volume (policy-chosen array, or ``on`` to pin it)."""
        if spec.name in self.volumes:
            raise ValueError(f"volume {spec.name!r} already exists")
        if spec.size_bytes <= 0:
            raise ValueError(f"volume size must be positive, got {spec.size_bytes}")
        if on is not None:
            home = self.rack.array(on)
            if not _fits(home, spec):
                raise ValueError(
                    f"array {on!r} lacks capacity for volume {spec.name!r}"
                )
        else:
            home = PLACEMENT_POLICIES[self.policy](self.rack.arrays, spec)
            if home is None:
                raise ValueError(
                    f"no array can host volume {spec.name!r} "
                    f"({spec.size_bytes} bytes)"
                )
        base = home.allocate(spec.size_bytes)
        bucket = None
        qos = self.rack.config.qos
        if qos is not None and spec.rate_limit_mb_s is not None:
            bucket = TokenBucket(
                self.rack.env,
                rate_bytes_per_s=spec.rate_limit_mb_s * MB,
                burst_bytes=spec.burst_bytes,
            )
        volume = Volume(self, spec, home, base, bucket)
        self._register_lane(home, spec)
        home.volumes.append(volume)
        home.placed_demand_mb_s += spec.demand_mb_s
        self.volumes[spec.name] = volume
        return volume

    def _register_lane(self, array: "RackArray", spec: VolumeSpec) -> None:
        """Give ``spec``'s tenant its private lane in ``array``'s fair queue
        (rack QoS armed only)."""
        qos = self.rack.config.qos
        if qos is not None:
            array.wfq.register(
                spec.name,
                weight=spec.weight,
                queue_limit=spec.queue_limit or qos.default_queue_limit,
            )

    def migrate(
        self,
        volume: Volume,
        destination: "RackArray",
        extent_bytes: int = 1 << 20,
        pace_ns: int = 0,
    ) -> Event:
        """Re-home ``volume`` onto ``destination``; returns the completion
        event of the copy-and-cutover process.

        The copy stream reads the volume extent-by-extent from the source
        and writes it to the destination at background priority, pausing
        ``pace_ns`` between extents; tenant I/O keeps flowing to the
        source until the cutover at the end.
        """
        if destination is volume.home:
            raise ValueError(f"volume {volume.name!r} already lives on "
                             f"{destination.name!r}")
        if volume._migrating_to is not None:
            raise RuntimeError(f"volume {volume.name!r} is already migrating")
        if extent_bytes <= 0:
            raise ValueError(f"extent_bytes must be positive, got {extent_bytes}")
        return self.rack.env.process(
            self._migrate(volume, destination, extent_bytes, pace_ns),
            name=f"rack.migrate.{volume.name}",
        )

    def _migrate(self, volume: Volume, dst: "RackArray", extent_bytes: int, pace_ns: int):
        env = self.rack.env
        src = volume.home
        started = env.now
        dst_base = dst.allocate(volume.size_bytes)
        self._register_lane(dst, volume.spec)
        volume._migrating_to = (dst, dst_base)
        copied = 0
        try:
            while copied < volume.size_bytes:
                nbytes = min(extent_bytes, volume.size_bytes - copied)
                try:
                    data = yield src.array.read(
                        volume.base + copied, nbytes, priority=PRIORITY_BACKGROUND
                    )
                    yield dst.array.write(
                        dst_base + copied, nbytes, data, priority=PRIORITY_BACKGROUND
                    )
                except Busy:
                    # shed at a pressed array's admission gate: give the
                    # tenants room, then copy the same extent again
                    yield env.timeout(max(pace_ns, PRESSURE_PAUSE_NS))
                    continue
                copied += nbytes
                if pace_ns:
                    yield env.timeout(pace_ns)
        except IoError:
            # terminal: the volume stays on its source, nothing is leaked
            volume._migrating_to = None
            dst.deallocate(volume.size_bytes)
            if dst.wfq is not None:
                dst.wfq.unregister(volume.name)
            raise
        # cutover: atomic within one event — no tenant I/O observes a half-move
        volume.home = dst
        volume.base = dst_base
        volume._migrating_to = None
        src.volumes.remove(volume)
        dst.volumes.append(volume)
        src.deallocate(volume.size_bytes)
        src.placed_demand_mb_s -= volume.spec.demand_mb_s
        dst.placed_demand_mb_s += volume.spec.demand_mb_s
        self.migrations.append(
            MigrationRecord(
                volume=volume.name,
                source=src.name,
                destination=dst.name,
                started_ns=started,
                finished_ns=env.now,
                moved_bytes=volume.size_bytes,
            )
        )

    def describe(self) -> str:
        """One deterministic line per array: capacity, demand, volumes."""
        lines = []
        for array in self.rack.arrays:
            names = ",".join(v.name for v in array.volumes) or "-"
            lines.append(
                f"{array.name or 'array'}: {array.spec.system} "
                f"x{array.spec.servers} alloc={array.allocated_bytes} "
                f"free={array.free_bytes} demand={array.placed_demand_mb_s:.1f}MB/s "
                f"volumes=[{names}]"
            )
        return "\n".join(lines)
