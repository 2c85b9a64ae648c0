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
consistent.
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
    """What one stripe write does, decided once for every datapath."""

    mode: WriteMode
    #: surviving ``(row, member)`` parities, in row order
    parities: Tuple[Tuple[int, int], ...]
    #: touched segments whose member has failed
    lost: Tuple[ChunkSegment, ...]
    #: whether a data member of the stripe has failed
    degraded: bool


def rmw_read_bytes(geometry: RaidGeometry, extent: StripeExtent) -> int:
    """Bytes RMW must read: old data under the write + old parity span."""
    span_off, span_len = extent.parity_span()
    return extent.touched_bytes + geometry.num_parity * span_len


def rcw_read_bytes(geometry: RaidGeometry, extent: StripeExtent) -> int:
    """Bytes RCW must read: everything in the stripe not being written."""
    return geometry.stripe_data_bytes - extent.touched_bytes


def classify_write(geometry: RaidGeometry, extent: StripeExtent) -> WriteMode:
    """Pick the cheapest write mode for one stripe extent."""
    if extent.touched_bytes == geometry.stripe_data_bytes:
        return WriteMode.FULL_STRIPE
    if rcw_read_bytes(geometry, extent) <= rmw_read_bytes(geometry, extent):
        return WriteMode.RECONSTRUCT_WRITE
    return WriteMode.READ_MODIFY_WRITE


def plan_write(
    geometry: RaidGeometry, extent: StripeExtent, failed: AbstractSet[int]
) -> WritePlan:
    """The write plan for ``extent`` given its stripe's failed members
    (``RaidArray.failed_in_stripe``).

    A write touching a failed chunk is degraded — region-scoped when it
    covers only the stripe's one failed data chunk.  Otherwise the mode is
    :func:`classify_write`'s, except that RCW cannot read a failed
    untouched chunk and becomes RMW.
    """
    parity_drives = extent.parity_drives
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
    return WritePlan(mode, parities, lost, failed_data > 0)
