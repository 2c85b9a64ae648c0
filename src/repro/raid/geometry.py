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

from enum import Enum
from typing import List, NamedTuple, Optional, Tuple

from repro.ec import LinearCode, code_for
from repro.raid.layout import Layout, RotatingLayout


class RaidLevel(Enum):
    """Parity-based RAID levels supported by every controller here."""

    RAID5 = 5
    RAID6 = 6

    @property
    def num_parity(self) -> int:
        return 1 if self is RaidLevel.RAID5 else 2


class ChunkSegment(NamedTuple):
    """A contiguous byte range of one data chunk touched by a user I/O.

    A light positional record: :meth:`RaidGeometry.map_extent` builds one
    per chunk an I/O touches, on every op of every controller.
    """

    data_index: int  #: logical data-chunk index within the stripe (0..k-1)
    drive: int  #: physical member-drive index
    drive_offset: int  #: byte offset of the segment on that drive
    chunk_offset: int  #: offset of the segment within its chunk
    length: int
    io_offset: int  #: offset of this segment inside the user buffer

    @property
    def chunk_end(self) -> int:
        return self.chunk_offset + self.length


class StripeExtent(NamedTuple):
    """The portion of a user I/O that falls into one stripe.

    Built once per stripe by :meth:`RaidGeometry.map_extent`, with the
    sums every write plan reads stored rather than recomputed.
    """

    stripe: int
    segments: Tuple[ChunkSegment, ...]
    parity_drives: Tuple[int, ...]  #: (P,) for RAID-5, (P, Q) for RAID-6
    parity_offset: int  #: byte offset of the parity chunk on its drive
    touched_bytes: int  #: user bytes in the stripe (the segments' lengths)
    #: (offset, length) of the union of the segments' chunk intervals
    span: Tuple[int, int]

    def parity_span(self) -> Tuple[int, int]:
        """(offset, length) of the union of per-chunk intervals touched.

        This is the region of the parity chunk that must be updated: the
        dRAID protocol's ``fwd-offset`` / ``fwd-length`` (§5.1).
        """
        return self.span


class RaidGeometry:
    """Address arithmetic for a parity array.

    ``num_drives`` counts every member (data + parity); ``chunk_bytes`` is
    the striping unit (the paper's default is 512 KiB, the Linux MD
    default).  ``level`` fixes the parity count and the default code:
    RAID-5/6 P+Q.  A geometry with no level is erasure-coded —
    :class:`~repro.draid.ec_array.EcGeometry`, which sets ``num_parity``
    before this constructor runs — and defaults to Reed-Solomon.
    ``layout`` selects the placement policy; the default
    :class:`~repro.raid.layout.RotatingLayout` reproduces the historical
    left-symmetric rotation byte-identically, while a
    :class:`~repro.raid.layout.DeclusteredLayout` narrows each stripe to
    a ``stripe_width``-drive member set with distributed spares.
    """

    #: parity chunks per stripe (set from ``level`` when there is one)
    num_parity: int

    def __init__(
        self,
        level: Optional[RaidLevel],
        num_drives: int,
        chunk_bytes: int,
        layout: Optional[Layout] = None,
    ) -> None:
        if level is not None:
            self.num_parity = level.num_parity
        num_parity = self.num_parity
        scheme = f"{num_parity}-parity" if level is None else level.name
        if num_parity < 1:
            raise ValueError(f"need at least one parity, got {num_parity}")
        if num_drives < num_parity + 2:
            raise ValueError(
                f"{scheme} needs >= {num_parity + 2} drives, got {num_drives}"
            )
        if chunk_bytes <= 0 or chunk_bytes % 4096:
            raise ValueError(f"chunk size must be a positive multiple of 4096, got {chunk_bytes}")
        if layout is None:
            layout = RotatingLayout(num_drives, num_parity)
        elif layout.num_drives != num_drives or layout.num_parity != num_parity:
            raise ValueError(
                f"layout {layout.describe()} does not match "
                f"{scheme} over {num_drives} drives"
            )
        self.level = level
        self.layout = layout
        self.num_drives = num_drives
        self.chunk_bytes = chunk_bytes
        self.data_per_stripe = layout.data_per_stripe
        self.stripe_data_bytes = self.data_per_stripe * chunk_bytes
        #: True when every drive is a member of every stripe (rotating)
        self.full_width = layout.stripe_width == num_drives

    def __repr__(self) -> str:
        scheme = (
            f"RS({self.data_per_stripe}+{self.num_parity})"
            if self.level is None else self.level.name
        )
        return (
            f"<{type(self).__name__} {scheme} drives={self.num_drives} "
            f"chunk={self.chunk_bytes // 1024}KiB>"
        )

    def default_code(self) -> LinearCode:
        """The erasure code of an array over this geometry unless its
        controller is told otherwise: RAID-5/6 P+Q parity, or systematic
        Reed-Solomon over the stripe's k data + m parity with no level."""
        kind = "rs" if self.level is None else "pq"
        return code_for((kind, self.data_per_stripe, self.num_parity))

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
        """Split the user extent ``[offset, offset+length)`` into stripes.

        One pass: each stripe's placement is read once, and its segments,
        touched bytes and parity span are built together.  A stripe's
        segments are consecutive chunks, so the span is the one segment's
        own interval, or the whole chunk once two or more are touched (the
        first runs to its chunk's end, the next starts at 0).
        """
        if offset < 0 or length <= 0:
            raise ValueError(f"invalid extent offset={offset} length={length}")
        chunk = self.chunk_bytes
        stripe_bytes = self.stripe_data_bytes
        layout = self.layout
        end = offset + length
        stripe, local = divmod(offset, stripe_bytes)
        extents: List[StripeExtent] = []
        while True:
            stripe_start = stripe * stripe_bytes
            local_end = min(end - stripe_start, stripe_bytes)
            data_drives = layout.data_drives(stripe)
            chunk_base = stripe * chunk
            io_base = stripe_start - offset
            data_index, chunk_offset = divmod(local, chunk)
            seg_len = min(chunk - chunk_offset, local_end - local)
            first = ChunkSegment(
                data_index, data_drives[data_index], chunk_base + chunk_offset,
                chunk_offset, seg_len, io_base + local,
            )
            touched = local_end - local
            if seg_len == touched:
                segments: Tuple[ChunkSegment, ...] = (first,)
                span = (chunk_offset, seg_len)
            else:
                more = [first]
                local += seg_len
                while local < local_end:
                    data_index += 1
                    seg_len = min(chunk, local_end - local)
                    more.append(ChunkSegment(
                        data_index, data_drives[data_index],
                        chunk_base, 0, seg_len, io_base + local,
                    ))
                    local += seg_len
                segments = tuple(more)
                span = (0, chunk)
            extents.append(StripeExtent(
                stripe, segments, layout.parity_drives(stripe), chunk_base,
                touched, span,
            ))
            if stripe_start + stripe_bytes >= end:
                return extents
            stripe += 1
            local = 0

    def capacity_bytes(self, drive_capacity: int) -> int:
        """Usable capacity of the virtual device."""
        stripes = drive_capacity // self.chunk_bytes
        return stripes * self.stripe_data_bytes
