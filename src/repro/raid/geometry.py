"""RAID address geometry.

Maps the linear user address space of the virtual block device onto
(stripe, chunk, drive) coordinates with rotating parity:

* RAID-5 uses the *left-symmetric* layout (the Linux MD default): parity of
  stripe ``s`` lives on drive ``n-1 - (s mod n)`` and data chunks follow it
  cyclically.
* RAID-6 places Q on the drive after P (Linux "left-symmetric-6"-style
  rotation) so both parities rotate and the read load is balanced across
  all members — the property §6 relies on ("parity chunks are evenly
  distributed among all member drives").
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

from repro.ec import LinearCode, code_for
from repro.raid.layout import Layout, RotatingLayout


class RaidLevel(Enum):
    """Parity-based RAID levels supported by every controller here."""

    RAID5 = 5
    RAID6 = 6

    @property
    def num_parity(self) -> int:
        return 1 if self is RaidLevel.RAID5 else 2


@dataclass(frozen=True)
class ChunkSegment:
    """A contiguous byte range of one data chunk touched by a user I/O."""

    data_index: int  #: logical data-chunk index within the stripe (0..k-1)
    drive: int  #: physical member-drive index
    drive_offset: int  #: byte offset of the segment on that drive
    chunk_offset: int  #: offset of the segment within its chunk
    length: int
    io_offset: int  #: offset of this segment inside the user buffer

    @property
    def chunk_end(self) -> int:
        return self.chunk_offset + self.length


@dataclass(frozen=True)
class StripeExtent:
    """The portion of a user I/O that falls into one stripe."""

    stripe: int
    segments: Tuple[ChunkSegment, ...]
    parity_drives: Tuple[int, ...]  #: (P,) for RAID-5, (P, Q) for RAID-6
    parity_offset: int  #: byte offset of the parity chunk on its drive

    @property
    def touched_bytes(self) -> int:
        return sum(s.length for s in self.segments)

    @property
    def touched_data_indices(self) -> Tuple[int, ...]:
        return tuple(s.data_index for s in self.segments)

    def parity_span(self) -> Tuple[int, int]:
        """(offset, length) of the union of per-chunk intervals touched.

        This is the region of the parity chunk that must be updated: the
        dRAID protocol's ``fwd-offset`` / ``fwd-length`` (§5.1).
        """
        start = min(s.chunk_offset for s in self.segments)
        end = max(s.chunk_end for s in self.segments)
        return start, end - start


class RaidGeometry:
    """Address arithmetic for a parity-RAID array.

    ``num_drives`` counts every member (data + parity); ``chunk_bytes`` is
    the striping unit (the paper's default is 512 KiB, the Linux MD
    default).  ``layout`` selects the placement policy; the default
    :class:`~repro.raid.layout.RotatingLayout` reproduces the historical
    left-symmetric rotation byte-identically, while a
    :class:`~repro.raid.layout.DeclusteredLayout` narrows each stripe to
    a ``stripe_width``-drive member set with distributed spares.
    """

    def __init__(
        self,
        level: RaidLevel,
        num_drives: int,
        chunk_bytes: int,
        layout: Optional[Layout] = None,
    ) -> None:
        min_drives = 3 if level is RaidLevel.RAID5 else 4
        if num_drives < min_drives:
            raise ValueError(f"{level.name} needs >= {min_drives} drives, got {num_drives}")
        if chunk_bytes <= 0 or chunk_bytes % 4096:
            raise ValueError(f"chunk size must be a positive multiple of 4096, got {chunk_bytes}")
        if layout is None:
            layout = RotatingLayout(num_drives, level.num_parity)
        elif layout.num_drives != num_drives or layout.num_parity != level.num_parity:
            raise ValueError(
                f"layout {layout.describe()} does not match "
                f"{level.name} over {num_drives} drives"
            )
        self.level = level
        self.layout = layout
        self.num_drives = num_drives
        self.chunk_bytes = chunk_bytes
        self.num_parity = level.num_parity
        self.data_per_stripe = layout.data_per_stripe
        self.stripe_data_bytes = self.data_per_stripe * chunk_bytes
        #: True when every drive is a member of every stripe (rotating)
        self.full_width = layout.stripe_width == num_drives

    def __repr__(self) -> str:
        return (
            f"<RaidGeometry {self.level.name} drives={self.num_drives} "
            f"chunk={self.chunk_bytes // 1024}KiB>"
        )

    def default_code(self) -> LinearCode:
        """The erasure code of an array over this geometry unless its
        controller is told otherwise: RAID-5/6 P+Q parity."""
        return code_for(("pq", self.data_per_stripe, self.num_parity))

    # -- parity / data placement -------------------------------------------

    def parity_drives(self, stripe: int) -> Tuple[int, ...]:
        """Physical drives holding P (and Q) for ``stripe``."""
        return self.layout.parity_drives(stripe)

    def data_drive(self, stripe: int, data_index: int) -> int:
        """Physical drive of logical data chunk ``data_index`` in ``stripe``."""
        if not 0 <= data_index < self.data_per_stripe:
            raise ValueError(f"data index {data_index} out of range")
        return self.layout.data_drive(stripe, data_index)

    def data_index_of_drive(self, stripe: int, drive: int) -> int:
        """Inverse of :meth:`data_drive`; raises if ``drive`` holds parity."""
        return self.layout.data_index_of_drive(stripe, drive)

    def stripe_drives(self, stripe: int) -> Tuple[int, ...]:
        """All member drives of ``stripe`` (parity first, then data)."""
        return self.layout.stripe_drives(stripe)

    def spare_drives(self, stripe: int) -> Tuple[int, ...]:
        """Distributed-spare drives of ``stripe`` (empty when rotating)."""
        return self.layout.spare_drives(stripe)

    def chunk_offset_on_drive(self, stripe: int) -> int:
        """Every member stores one chunk per stripe at the same drive offset."""
        return stripe * self.chunk_bytes

    # -- extent mapping -------------------------------------------------------

    def map_extent(self, offset: int, length: int) -> List[StripeExtent]:
        """Split the user extent ``[offset, offset+length)`` into stripes."""
        if offset < 0 or length <= 0:
            raise ValueError(f"invalid extent offset={offset} length={length}")
        extents: List[StripeExtent] = []
        end = offset + length
        pos = offset
        while pos < end:
            stripe = pos // self.stripe_data_bytes
            stripe_start = stripe * self.stripe_data_bytes
            local = pos - stripe_start
            local_end = min(end - stripe_start, self.stripe_data_bytes)
            data_drives = self.layout.data_drives(stripe)
            segments: List[ChunkSegment] = []
            while local < local_end:
                data_index = local // self.chunk_bytes
                chunk_offset = local % self.chunk_bytes
                seg_len = min(self.chunk_bytes - chunk_offset, local_end - local)
                segments.append(
                    ChunkSegment(
                        data_index=data_index,
                        drive=data_drives[data_index],
                        drive_offset=stripe * self.chunk_bytes + chunk_offset,
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
                    parity_drives=self.parity_drives(stripe),
                    parity_offset=self.chunk_offset_on_drive(stripe),
                )
            )
            pos = stripe_start + local_end
        return extents

    def capacity_bytes(self, drive_capacity: int) -> int:
        """Usable capacity of the virtual device."""
        stripes = drive_capacity // self.chunk_bytes
        return stripes * self.stripe_data_bytes
