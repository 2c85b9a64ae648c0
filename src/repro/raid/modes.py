"""Write-mode classification.

Parity RAID has three ways to execute a write (§2.1):

* **read-modify-write (RMW)** — read old data + old parity, XOR the deltas
  in.  Cheapest when few chunks change.
* **reconstruct-write (RCW)** — read the *untouched* chunks and recompute
  parity from scratch.  Cheaper once most of the stripe changes.
* **full-stripe write** — no reads at all; parity from the new data.

The classifier compares the read cost of RMW and RCW in bytes (the Linux MD
heuristic, generalized from its 4 KiB-page granularity to byte extents) and
ties go to RCW.  With the paper's default geometry (8 drives, 512 KiB
chunks, RAID-5) this reproduces §9.3's boundaries exactly: I/O < 1536 KiB →
RMW, 1536–3583 KiB → RCW, 3584 KiB → full stripe.

:func:`plan_write` is the failure-aware decision every controller executes
(§3): it adds the two degraded modes and the survivors a write must keep
consistent.  :func:`split_segments` is the same survivor split for reads.
"""

from __future__ import annotations

from enum import Enum
from typing import AbstractSet, NamedTuple, Tuple

from repro.raid.geometry import ChunkSegment, RaidGeometry, StripeExtent


class WriteMode(Enum):
    """How a stripe write produces its new parity: read-modify-write (read
    old data + old parity), reconstruct-write (read the untouched
    complement), full-stripe (no reads at all) — or, once a touched chunk
    has failed, a degraded write over that chunk's region alone or over
    the whole stripe."""

    READ_MODIFY_WRITE = "rmw"
    RECONSTRUCT_WRITE = "rcw"
    FULL_STRIPE = "full"
    #: the write covers only the stripe's one failed data chunk
    DEGRADED_REGION = "degraded-region"
    #: any other write touching a failed chunk
    DEGRADED_STRIPE = "degraded-stripe"


class WritePlan(NamedTuple):
    """What one stripe write does, decided once per attempt for every
    datapath: the executors read it and derive none of it again."""

    mode: WriteMode
    #: surviving ``(row, member)`` parities, in row order
    parities: Tuple[Tuple[int, int], ...]
    #: touched segments whose member has failed
    lost: Tuple[ChunkSegment, ...]
    #: whether a data member of the stripe has failed
    degraded: bool
    #: the stripe's failed members when the plan was made
    failed: AbstractSet[int]
    #: the member of every data chunk, in logical chunk order, when the
    #: plan was made (declustered membership moves onto spares over time)
    data_drives: Tuple[int, ...]


def classify_write(geometry: RaidGeometry, extent: StripeExtent) -> WriteMode:
    """Pick the cheapest write mode for one stripe extent.

    RMW reads the old data under the write plus every parity's span; RCW
    reads everything in the stripe the write does not cover.
    """
    touched = extent.touched_bytes
    stripe_bytes = geometry.stripe_data_bytes
    if touched == stripe_bytes:
        return WriteMode.FULL_STRIPE
    rmw_reads = touched + geometry.num_parity * extent.span[1]
    if stripe_bytes - touched <= rmw_reads:
        return WriteMode.RECONSTRUCT_WRITE
    return WriteMode.READ_MODIFY_WRITE


def split_segments(
    extent: StripeExtent, failed: AbstractSet[int]
) -> Tuple[Tuple[ChunkSegment, ...], Tuple[ChunkSegment, ...]]:
    """``(healthy, lost)``: ``extent``'s segments on surviving members and
    on ``failed`` ones, each in segment order."""
    segments = extent.segments
    if not failed:
        return segments, ()
    return (
        tuple(s for s in segments if s.drive not in failed),
        tuple(s for s in segments if s.drive in failed),
    )


def plan_write(
    geometry: RaidGeometry, extent: StripeExtent, failed: AbstractSet[int]
) -> WritePlan:
    """The write plan for ``extent`` given its stripe's failed members
    (``RaidArray.failed_in_stripe``).

    A write touching a failed chunk is degraded — region-scoped when it
    covers only the stripe's one failed data chunk.  Otherwise the mode is
    :func:`classify_write`'s, except that RCW cannot read a failed
    untouched chunk and becomes RMW.  A stripe with no failed member
    takes the classifier's mode with every parity alive.
    """
    parity_drives = extent.parity_drives
    data_drives = geometry.layout.data_drives(extent.stripe)
    if not failed:
        return WritePlan(
            classify_write(geometry, extent), tuple(enumerate(parity_drives)),
            (), False, failed, data_drives,
        )
    parities = tuple((row, p) for row, p in enumerate(parity_drives) if p not in failed)
    lost = tuple(s for s in extent.segments if s.drive in failed)
    failed_data = len(failed) - (len(parity_drives) - len(parities))
    if lost:
        region = len(extent.segments) == 1 and failed_data == 1
        mode = WriteMode.DEGRADED_REGION if region else WriteMode.DEGRADED_STRIPE
    else:
        mode = classify_write(geometry, extent)
        if mode is WriteMode.RECONSTRUCT_WRITE and failed_data:
            mode = WriteMode.READ_MODIFY_WRITE
    return WritePlan(mode, parities, lost, failed_data > 0, failed, data_drives)
