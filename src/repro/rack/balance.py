"""Hot-spot detection and automatic volume rebalancing.

Placement happens once, at volume-create time, against *expected* demand;
real tenants drift.  :class:`HotSpotBalancer` is the feedback loop: a
periodic control process samples every array's front-door pressure (the
weighted-fair queue's backlog — requests admitted by tenants' buckets but
not yet in service), and when one array is persistently hot while another
is cool it migrates the hottest migratable volume across.  One migration
is in flight at a time, trailed by a cooldown, so the balancer converges
instead of thrashing.

The pressure signal deliberately lives at the QoS layer rather than on
raw NIC/drive counters: backlog at the fair queue *is* the tenant-visible
symptom (queueing delay, then ``Busy`` rejects), so reacting to it reacts
to SLO damage directly.  The balancer therefore requires a rack built
with :class:`~repro.rack.topology.RackQosConfig`.

Scans, picks and migrations all run on the simulation clock with stable
tie-breaks, so two runs of the same scenario rebalance identically —
asserted by the ``rack-smoke`` CI golden.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # annotation only
    from repro.rack.topology import Rack, RackArray
    from repro.rack.volumes import Volume

MS = 1_000_000
#: sleep after each migration before the next scan
COOLDOWN_NS = 2 * MS


class HotSpotBalancer:
    """Periodic rebalancing control loop over a QoS-armed rack.

    ``interval_ns`` is the scan period; an array is *hot* when its
    front-door backlog is at least ``high_backlog`` and a migration target
    must be at or below ``low_backlog``.  After each migration the
    balancer sleeps :data:`COOLDOWN_NS` before scanning again;
    ``max_migrations`` (``None`` = unlimited) caps the total number of
    moves.  Construction arms the loop immediately (it lives at
    ``.process``); :meth:`stop` disarms it at the next scan.
    """

    def __init__(
        self,
        rack: "Rack",
        interval_ns: int = 1 * MS,
        high_backlog: int = 24,
        low_backlog: int = 8,
        max_migrations: Optional[int] = None,
        extent_bytes: int = 1 << 20,
    ) -> None:
        if rack.config.qos is None:
            raise ValueError(
                "HotSpotBalancer needs a QoS-armed rack (RackConfig.qos): its "
                "pressure signal is the weighted-fair queue backlog"
            )
        if interval_ns <= 0:
            raise ValueError(f"interval_ns must be positive, got {interval_ns}")
        if low_backlog >= high_backlog:
            raise ValueError(
                f"low_backlog ({low_backlog}) must be below high_backlog "
                f"({high_backlog})"
            )
        self.rack = rack
        self.interval_ns = interval_ns
        self.high_backlog = high_backlog
        self.low_backlog = low_backlog
        self.max_migrations = max_migrations
        self.extent_bytes = extent_bytes
        self.scans = 0
        self.migrations_started = 0
        self._stopped = False
        self.process = rack.env.process(self._run(), name="rack.balancer")

    def stop(self) -> None:
        """Disarm the loop; takes effect at its next wake-up."""
        self._stopped = True

    # -- control loop --------------------------------------------------------

    def _run(self):
        env = self.rack.env
        while not self._stopped:
            yield env.timeout(self.interval_ns)
            if self._stopped:
                return
            self.scans += 1
            move = self._pick_move()
            for array in self.rack.arrays:
                for volume in array.volumes:
                    volume.reset_window()
            if move is None:
                continue
            volume, destination = move
            self.migrations_started += 1
            yield self.rack.volumes.migrate(
                volume, destination, extent_bytes=self.extent_bytes
            )
            if self.max_migrations is not None and (
                self.migrations_started >= self.max_migrations
            ):
                return
            yield env.timeout(COOLDOWN_NS)

    def _pick_move(self):
        """The (volume, destination) to migrate now, or None."""
        arrays = self.rack.arrays
        if len(arrays) < 2:
            return None
        hot = max(arrays, key=lambda a: (a.wfq.backlog + a.wfq.inflight, a.name))
        cool = min(arrays, key=lambda a: (a.wfq.backlog + a.wfq.inflight, a.name))
        if hot is cool:
            return None
        if hot.wfq.backlog < self.high_backlog or cool.wfq.backlog > self.low_backlog:
            return None
        candidates = [
            v
            for v in hot.volumes
            if v._migrating_to is None and cool.free_bytes >= v.size_bytes
        ]
        if not candidates:
            return None
        # hottest volume by offered bytes since the last scan, stable tie-break
        hottest = max(candidates, key=lambda v: (v.window_bytes, v.name))
        if hottest.window_bytes == 0:
            return None
        return hottest, cool
