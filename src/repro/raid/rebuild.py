"""Online drive rebuild: one restore step, two sweeps (§1 hot spares, §6).

With disaggregated storage a replacement drive comes from the shared pool;
the array must reconstruct the failed member's contents onto it while
staying online.  :func:`rebuild_member_stripe` is the one per-stripe
restore step, shared by both sweeps here and by the risk-ordered workers
of :mod:`repro.raid.recovery`:

* the failed member's *data* chunk is rebuilt through the array's degraded
  read path (which for dRAID is the §6.1 peer-to-peer reconstruction);
* the failed member's *parity* chunk is recomputed from the stripe's data.

:class:`RebuildJob` sweeps the stripes in order onto the replacement;
:class:`SpareRebuildJob` sweeps onto a declustered layout's distributed
spares.  Each finished stripe joins the controller's per-member
``rebuilt_stripes`` record, which makes the member healthy again *for that
stripe*, so concurrent writes update the replacement directly and nothing
goes stale — the array serves I/O during the whole rebuild.  Each stripe
is processed under the stripe lock to serialize with writers.

:func:`background_pause` is the one pause between two steps of a
background walker (the recovery orchestrator's workers, the scrub daemon).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.core import Environment, Event

#: back-off per step of a background walker while foreground admission
#: pressure is high (overload control armed only; see :func:`background_pause`)
PRESSURE_PAUSE_NS = 500_000


@dataclass
class RebuildStats:
    """Progress counters of one rebuild job: chunk/stripe counts,
    ``bytes_written`` in bytes, ``started_ns``/``finished_ns`` in simulated
    nanoseconds."""

    stripes_rebuilt: int = 0
    data_chunks_rebuilt: int = 0
    parity_chunks_rebuilt: int = 0
    bytes_written: int = 0
    started_ns: int = 0
    finished_ns: int = 0

    @property
    def elapsed_ns(self) -> int:
        return max(0, self.finished_ns - self.started_ns)

    def rate_mb_s(self) -> float:
        if self.elapsed_ns == 0:
            return 0.0
        return self.bytes_written * 1e9 / self.elapsed_ns / 1e6


class RebuildJob:
    """Rebuild the contents of failed member ``drive`` onto its replacement.

    The replacement is modeled as the repaired physical drive on the same
    server slot (the pool-allocation itself is outside the data path).
    ``throttle_ns`` adds an inter-stripe delay so production deployments
    can bound rebuild interference with foreground traffic.  Bad input is
    rejected here, before anything is installed: a negative count or
    delay, and in functional mode more stripes than the drives hold.
    """

    def __init__(self, array, drive: int, num_stripes: int, throttle_ns: int = 0):
        if drive not in array.failed:
            raise ValueError(f"drive {drive} is not failed")
        if num_stripes < 0 or throttle_ns < 0:
            raise ValueError(f"negative stripes {num_stripes} or throttle {throttle_ns}")
        capacity = array.cluster.config.functional_capacity // array.geometry.chunk_bytes
        if array.functional and num_stripes > capacity:
            raise ValueError(f"{num_stripes} stripes exceed the drives' {capacity}")
        self.array = array
        self.drive = drive
        self.num_stripes = num_stripes
        self.throttle_ns = throttle_ns
        self.env: Environment = array.env
        self.stats = RebuildStats()

    def start(self) -> Event:
        """Begin the rebuild; the returned event fires on completion."""
        return self.env.process(self._run(), name=f"{self.array.name}.rebuild")

    @property
    def progress(self) -> float:
        """Fraction of stripes rebuilt so far."""
        if self.num_stripes == 0:
            return 1.0
        return self.stats.stripes_rebuilt / self.num_stripes

    def _run(self):
        array = self.array
        # physically replace the drive; the controller still treats it as
        # failed for every stripe not yet in its rebuilt record.  heal()
        # (not just repair()) so the replacement carries no queued-channel,
        # GC or fail-slow residue from its previous life.
        replacement = array.drives[self.drive]
        replacement.heal()
        rebuilt = array.rebuilt_stripes[self.drive] = set()
        self.stats.started_ns = self.env.now
        try:
            for stripe in range(self.num_stripes):
                yield from self._restore(stripe, rebuilt)
        except BaseException:
            if replacement.failed:
                # the replacement itself died mid-rebuild: nothing written
                # so far survives, so the next rebuild must restart from
                # stripe 0 — stale progress would serve reads from a dead
                # (or re-replaced, still-empty) drive
                array.rebuilt_stripes.pop(self.drive, None)
            raise
        array.repair_drive(self.drive)
        self.stats.finished_ns = self.env.now
        return self.stats

    def _restore(self, stripe: int, rebuilt: set, destination=None):
        """Restore one stripe under its lock, add it to ``rebuilt``, then
        throttle.  ``rebuilt`` is the set this job installed: once a re-fail
        drops it from the array, nothing this job does re-installs it."""
        array = self.array
        yield array.locks.acquire(stripe)
        try:
            yield from rebuild_member_stripe(
                array, self.drive, stripe, destination, self.stats
            )
            rebuilt.add(stripe)
        finally:
            array.locks.release(stripe)
        if self.throttle_ns:
            yield self.env.timeout(self.throttle_ns)
        self.stats.stripes_rebuilt += 1


class SpareRebuildJob(RebuildJob):
    """Rebuild a failed member onto *distributed spares* (declustered).

    Requires a :class:`~repro.raid.layout.DeclusteredLayout` geometry:
    only the ``stripe_width / num_drives`` fraction of stripes that hold
    a chunk of the failed member need work, and each reconstructed chunk
    lands on that stripe's own spare drive (role-preserving
    ``remap_to_spare``), so rebuild *writes* fan out across the whole
    array instead of funnelling into one replacement — the declustering
    speed-up the ``geometries`` figure measures against
    :class:`RebuildJob` on the stock rotation.  Once a stripe is
    remapped it is served from the spare and no longer degraded; after
    the sweep the dead member holds no chunks and is dropped from the
    failed set (the physical drive stays dead — no replacement is
    allocated).
    """

    def __init__(self, array, drive: int, num_stripes: int, throttle_ns: int = 0):
        super().__init__(array, drive, num_stripes, throttle_ns)
        layout = array.geometry.layout
        if not hasattr(layout, "remap_to_spare"):
            raise ValueError(f"layout {layout.describe()} has no distributed spares")

    def _run(self):
        array = self.array
        geometry = array.geometry
        spare = geometry.layout.remap_to_spare
        rebuilt = array.rebuilt_stripes[self.drive] = set()
        self.stats.started_ns = self.env.now
        for stripe in range(self.num_stripes):
            if self.drive in geometry.stripe_drives(stripe):
                yield from self._restore(stripe, rebuilt, lambda s: spare(s, self.drive))
        array.failed.discard(self.drive)
        array.rebuilt_stripes.pop(self.drive, None)
        self.stats.finished_ns = self.env.now
        return self.stats


def rebuild_member_stripe(
    array, member: int, stripe: int, destination=None, stats=None
):
    """Restore ``member``'s chunk of ``stripe`` (a generator; the caller
    must hold the stripe lock) — the one per-stripe step of every rebuild.

    The chunk is reconstructed first: a *data* chunk through the array's
    degraded read path (dRAID reconstructs peer-to-peer, the baselines
    pull the surviving chunks through the host), a *parity* chunk
    re-encoded from the stripe's data.  Only then is the destination
    resolved — ``destination(stripe)``, a drive index, or the member's own
    (replaced) slot when None — because a distributed spare must not be a
    read source for its stripe.
    """
    geometry = array.geometry
    chunk = geometry.chunk_bytes
    if not geometry.full_width and member not in geometry.stripe_drives(stripe):
        # declustered layout: this stripe holds no chunk of the member
        return
    parity_drives = geometry.parity_drives(stripe)
    offset = stripe * geometry.stripe_data_bytes
    is_parity = member in parity_drives
    # the reads are unlocked: the caller already holds the stripe lock
    if is_parity:
        data = yield array.read_unlocked(offset, geometry.stripe_data_bytes)
        if data is not None:
            chunks = [data[d * chunk : (d + 1) * chunk]
                      for d in range(geometry.data_per_stripe)]
            data = array.code.encode_row(parity_drives.index(member), chunks)
    else:
        offset += geometry.data_index_of_drive(stripe, member) * chunk
        data = yield array.read_unlocked(offset, chunk)
    target = member if destination is None else destination(stripe)
    yield array.drives[target].write(stripe * chunk, chunk, data)
    if stats is not None:
        if is_parity:
            stats.parity_chunks_rebuilt += 1
        else:
            stats.data_chunks_rebuilt += 1
        stats.bytes_written += chunk


def background_pause(array, pace_ns: int):
    """The pause after one step of a background walker (a generator that
    returns whether it shed): a full :data:`PRESSURE_PAUSE_NS` while the
    admission queue sits at or above its background watermark, so the
    foreground drains first; otherwise the walker's own ``pace_ns``.
    """
    qos = array.qos
    if qos is not None and qos.under_pressure:
        qos.stats.shed_background += 1
        yield array.env.timeout(max(pace_ns, PRESSURE_PAUSE_NS))
        return True
    if pace_ns:
        yield array.env.timeout(pace_ns)
    return False
