"""Online drive rebuild onto a replacement (§1 hot spares, §6 context).

With disaggregated storage a replacement drive comes from the shared pool;
the array must reconstruct the failed member's contents onto it while
staying online.  :class:`RebuildJob` sweeps the stripes in order:

* the failed member's *data* chunk is rebuilt through the array's degraded
  read path (which for dRAID is the §6.1 peer-to-peer reconstruction) and
  written to the replacement;
* the failed member's *parity* chunk is recomputed from the stripe's data.

A per-drive *rebuild watermark* on the controller makes rebuilt stripes
treat the member as healthy again, so concurrent writes update the
replacement directly and nothing goes stale — the array serves I/O during
the whole rebuild.  Each stripe is processed under the stripe lock to
serialize with writers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.sim.core import Environment, Event


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
    can bound rebuild interference with foreground traffic.
    """

    def __init__(
        self,
        array,
        drive: int,
        num_stripes: int,
        throttle_ns: int = 0,
    ) -> None:
        if drive not in array.failed:
            raise ValueError(f"drive {drive} is not failed")
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
        # failed beyond the (initially zero) watermark.  heal() (not just
        # repair()) so the replacement carries no queued-channel, GC or
        # fail-slow residue from its previous life.
        replacement = array.drives[self.drive]
        replacement.heal()
        array.rebuild_watermark[self.drive] = 0
        self.stats.started_ns = self.env.now
        try:
            for stripe in range(self.num_stripes):
                yield array.locks.acquire(stripe)
                try:
                    yield from rebuild_member_stripe(
                        array, self.drive, stripe, replacement, self.stats
                    )
                    array.rebuild_watermark[self.drive] = stripe + 1
                finally:
                    array.locks.release(stripe)
                if self.throttle_ns:
                    yield self.env.timeout(self.throttle_ns)
                self.stats.stripes_rebuilt += 1
        except BaseException:
            if replacement.failed:
                # the replacement itself died mid-rebuild: nothing written
                # so far survives, so the next rebuild must restart from
                # stripe 0 — a stale watermark would serve reads from a
                # dead (or re-replaced, still-empty) drive
                array.rebuild_watermark.pop(self.drive, None)
                array.rebuilt_stripes.pop(self.drive, None)
            raise
        array.repair_drive(self.drive)
        self.stats.finished_ns = self.env.now
        return self.stats


def rebuild_member_stripe(array, member: int, stripe: int, drive, stats=None):
    """Reconstruct ``member``'s chunk of ``stripe`` onto replacement
    ``drive`` (a generator; the caller must hold the stripe lock).

    Shared by the sequential :class:`RebuildJob` sweep and the
    risk-ordered scheduler in :mod:`repro.raid.recovery`: the failed
    member's *data* chunk is rebuilt through the array's degraded read
    path (for dRAID the §6.1 peer-to-peer reconstruction), its *parity*
    chunk is recomputed from the stripe's data.
    """
    geometry = array.geometry
    chunk = geometry.chunk_bytes
    if not geometry.full_width and member not in geometry.stripe_drives(stripe):
        # declustered layout: this stripe holds no chunk of the member
        return
    parity_drives = geometry.parity_drives(stripe)
    if member in parity_drives:
        yield from _rebuild_parity_chunk(
            array, stripe, parity_drives.index(member), drive
        )
        if stats is not None:
            stats.parity_chunks_rebuilt += 1
    else:
        data_index = geometry.data_index_of_drive(stripe, member)
        offset = stripe * geometry.stripe_data_bytes + data_index * chunk
        # degraded read: dRAID reconstructs peer-to-peer, the baselines
        # pull width-1 chunks through the host (unlocked: the stripe
        # lock is already held by the caller)
        data = yield array.read_unlocked(offset, chunk)
        yield drive.write(stripe * chunk, chunk, data)
        if stats is not None:
            stats.data_chunks_rebuilt += 1
    if stats is not None:
        stats.bytes_written += chunk


class SpareRebuildJob:
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

    def __init__(
        self,
        array,
        drive: int,
        num_stripes: int,
        throttle_ns: int = 0,
    ) -> None:
        if drive not in array.failed:
            raise ValueError(f"drive {drive} is not failed")
        layout = array.geometry.layout
        if not hasattr(layout, "remap_to_spare"):
            raise ValueError(
                f"layout {layout.describe()} has no distributed spares"
            )
        self.array = array
        self.drive = drive
        self.num_stripes = num_stripes
        self.throttle_ns = throttle_ns
        self.env: Environment = array.env
        self.stats = RebuildStats()

    def start(self) -> Event:
        """Begin the rebuild; the returned event fires on completion."""
        return self.env.process(
            self._run(), name=f"{self.array.name}.spare-rebuild"
        )

    def _run(self):
        array = self.array
        geometry = array.geometry
        layout = geometry.layout
        chunk = geometry.chunk_bytes
        drives = array.drives
        self.stats.started_ns = self.env.now
        for stripe in range(self.num_stripes):
            if self.drive not in geometry.stripe_drives(stripe):
                continue
            yield array.locks.acquire(stripe)
            try:
                yield from self._rebuild_stripe(
                    stripe, geometry, layout, chunk, drives
                )
            finally:
                array.locks.release(stripe)
            if self.throttle_ns:
                yield self.env.timeout(self.throttle_ns)
            self.stats.stripes_rebuilt += 1
        array.failed.discard(self.drive)
        array.rebuild_watermark.pop(self.drive, None)
        array.rebuilt_stripes.pop(self.drive, None)
        self.stats.finished_ns = self.env.now
        return self.stats

    def _rebuild_stripe(self, stripe, geometry, layout, chunk, drives):
        array = self.array
        parity_drives = geometry.parity_drives(stripe)
        if self.drive in parity_drives:
            parity_index = parity_drives.index(self.drive)
            spare = layout.remap_to_spare(stripe, self.drive)
            yield from _rebuild_parity_chunk(
                array, stripe, parity_index, drives[spare]
            )
            self.stats.parity_chunks_rebuilt += 1
        else:
            data_index = geometry.data_index_of_drive(stripe, self.drive)
            offset = stripe * geometry.stripe_data_bytes + data_index * chunk
            # reconstruct through the degraded read path *before* the
            # remap (the spare must not be a read source for this stripe)
            data = yield array.read_unlocked(offset, chunk)
            spare = layout.remap_to_spare(stripe, self.drive)
            yield drives[spare].write(stripe * chunk, chunk, data)
            self.stats.data_chunks_rebuilt += 1
        self.stats.bytes_written += chunk


def _rebuild_parity_chunk(array, stripe: int, parity_index: int, drive):
    geometry = array.geometry
    chunk = geometry.chunk_bytes
    offset = stripe * geometry.stripe_data_bytes
    data = yield array.read_unlocked(offset, geometry.stripe_data_bytes)
    block: Optional[np.ndarray] = None
    if data is not None:
        chunks = [data[d * chunk : (d + 1) * chunk] for d in range(geometry.data_per_stripe)]
        block = array.code.encode(chunks)[parity_index]
    yield drive.write(stripe * chunk, chunk, block)
