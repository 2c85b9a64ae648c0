"""Reference extent mapping and write planning: the frozen-dataclass
records, the per-segment ``map_extent`` loop and the generator-expression
``plan_write`` that used to live in ``repro.raid.geometry`` and
``repro.raid.modes``.  Kept as the oracle the one-pass mapper and the
O(1) healthy-stripe plan are differentially tested against
(``tests/test_raid_geometry.py``)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, List, NamedTuple, Tuple

from repro.raid.modes import WriteMode


@dataclass(frozen=True)
class ChunkSegment:
    data_index: int
    drive: int
    drive_offset: int
    chunk_offset: int
    length: int
    io_offset: int

    @property
    def chunk_end(self) -> int:
        return self.chunk_offset + self.length


@dataclass(frozen=True)
class StripeExtent:
    stripe: int
    segments: Tuple[ChunkSegment, ...]
    parity_drives: Tuple[int, ...]
    parity_offset: int

    @property
    def touched_bytes(self) -> int:
        return sum(s.length for s in self.segments)

    def parity_span(self) -> Tuple[int, int]:
        start = min(s.chunk_offset for s in self.segments)
        end = max(s.chunk_end for s in self.segments)
        return start, end - start


class WritePlan(NamedTuple):
    mode: WriteMode
    parities: Tuple[Tuple[int, int], ...]
    lost: Tuple[ChunkSegment, ...]
    degraded: bool


def map_extent(geometry, offset: int, length: int) -> List[StripeExtent]:
    if offset < 0 or length <= 0:
        raise ValueError(f"invalid extent offset={offset} length={length}")
    extents: List[StripeExtent] = []
    end = offset + length
    pos = offset
    while pos < end:
        stripe = pos // geometry.stripe_data_bytes
        stripe_start = stripe * geometry.stripe_data_bytes
        local = pos - stripe_start
        local_end = min(end - stripe_start, geometry.stripe_data_bytes)
        data_drives = geometry.layout.data_drives(stripe)
        segments: List[ChunkSegment] = []
        while local < local_end:
            data_index = local // geometry.chunk_bytes
            chunk_offset = local % geometry.chunk_bytes
            seg_len = min(geometry.chunk_bytes - chunk_offset, local_end - local)
            segments.append(
                ChunkSegment(
                    data_index=data_index,
                    drive=data_drives[data_index],
                    drive_offset=stripe * geometry.chunk_bytes + chunk_offset,
                    chunk_offset=chunk_offset,
                    length=seg_len,
                    io_offset=(stripe_start + local) - offset,
                )
            )
            local += seg_len
        extents.append(
            StripeExtent(
                stripe=stripe,
                segments=tuple(segments),
                parity_drives=geometry.parity_drives(stripe),
                parity_offset=geometry.chunk_offset_on_drive(stripe),
            )
        )
        pos = stripe_start + local_end
    return extents


def classify_write(geometry, extent: StripeExtent) -> WriteMode:
    if extent.touched_bytes == geometry.stripe_data_bytes:
        return WriteMode.FULL_STRIPE
    span_off, span_len = extent.parity_span()
    rmw = extent.touched_bytes + geometry.num_parity * span_len
    rcw = geometry.stripe_data_bytes - extent.touched_bytes
    if rcw <= rmw:
        return WriteMode.RECONSTRUCT_WRITE
    return WriteMode.READ_MODIFY_WRITE


def plan_write(geometry, extent: StripeExtent, failed: AbstractSet[int]) -> WritePlan:
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


def failed_in_stripe(geometry, failed, rebuilt, stripe: int) -> set:
    """The members to treat as failed for ``stripe``: ``failed`` less the
    drives whose ``rebuilt`` stripe set holds it, narrowed to the stripe's
    members."""
    out = set()
    for d in failed:
        done = rebuilt.get(d)
        if done is not None and stripe in done:
            continue
        out.add(d)
    if out and not geometry.full_width:
        out &= set(geometry.stripe_drives(stripe))
    return out
