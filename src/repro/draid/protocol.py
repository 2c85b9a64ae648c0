"""The dRAID protocol: a compatible extension of NVMe-oF (§4).

Four opcodes are added to standard read/write:

* ``PartialWrite`` — host -> data bdev: write a segment and produce a
  partial parity.
* ``Parity`` — host -> parity bdev: expect ``wait_num`` partial parities,
  reduce them and persist the result.
* ``Reconstruction`` — host -> surviving bdev: contribute a region of your
  chunk to a designated reducer (optionally serving a normal read at the
  same time, subtype ``AlsoRead``).
* ``Peer`` — bdev -> bdev: partial result available for fetching.

Subtypes change behaviour per opcode (§5.1): ``RMW`` (read old data, XOR
delta), ``RW_WRITE`` (reconstruct-write for a chunk being written: read the
chunk complement, forward the full new chunk image), ``RW_READ``
(reconstruct-write for an untouched chunk: read and forward it),
``ALSO_READ`` / ``NO_READ`` for reconstruction participants.

The dataclasses below carry the fields Figure 5 lists (offset, length,
fwd-offset, fwd-length, subtype, next-dest, wait-num, data-idx).  Parity
destinations travel as one ``dests`` tuple of ``(server, coefficient)``
pairs, one per surviving parity: ``dests[0]`` and ``dests[1]`` are Figure
5's next-dest and next-dest2, and a wider code (§7) simply carries more.
A bdev stays unaware of the RAID configuration — which partials to weight
and which code a reducer decodes with are spelled out in the command, and
a chunk's position in the stripe travels as its shard index in that code.
A reduction is named by its command id: the Parity or Reconstruction
command and every Peer partial meant for it carry the same ``cid``, which
is never reused (a §5.4 retry takes a fresh one).  Nothing the bdev can
derive travels: a segment's drive offset is its chunk's
``chunk_drive_offset`` plus its ``chunk_offset``.
Payload arrays are a functional-mode convenience and are not charged to the
network (payload bytes are moved by explicit one-sided reads/writes).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional, Tuple


class Subtype(Enum):
    RMW = "rmw"
    RW_WRITE = "rw-write"
    RW_READ = "rw-read"
    ALSO_READ = "also-read"
    NO_READ = "no-read"


@dataclass
class PartialWriteCmd:
    """Host -> data bdev: write ``length`` bytes and forward a partial parity."""

    cid: int
    subtype: Subtype
    #: drive offset of this bdev's chunk in the stripe (the write lands at
    #: ``chunk_drive_offset + chunk_offset``)
    chunk_drive_offset: int
    length: int
    #: offset of the segment within its chunk
    chunk_offset: int
    #: logical data-chunk index, which is also its shard index (the
    #: forwarded partial's ``source``)
    data_index: int
    #: region of the chunk the forwarded partial covers
    fwd_offset: int
    fwd_length: int
    #: one (server index, GF coefficient) pair per parity reducer, chosen by
    #: the array's code: coefficient ``None`` forwards the partial raw and
    #: uncharged (RAID-5/6 P), anything else costs the bdev one GF pass
    #: (RAID-6 Q = g^data_index, §4 "other command data")
    dests: Tuple[Tuple[int, Optional[int]], ...]
    #: new data (functional mode)
    data: Optional[Any] = None
    #: observability: trace context of the host request (None untraced)
    trace: Optional[Any] = None
    #: overload control: absolute sim-time deadline in ns — a bdev that
    #: dequeues the command after this instant fast-fails it (None = none)
    deadline_ns: Optional[int] = None


@dataclass
class ParityCmd:
    """Host -> parity bdev: collect partials, reduce, persist (§5.2)."""

    cid: int
    subtype: Subtype
    #: drive offset of the parity chunk in the stripe
    chunk_drive_offset: int
    #: region of the parity chunk being updated
    fwd_offset: int
    fwd_length: int
    #: how many peer partials to expect under this ``cid``
    wait_num: int
    #: observability: trace context of the host request (None untraced)
    trace: Optional[Any] = None
    #: overload control: absolute sim-time deadline in ns (None = none)
    deadline_ns: Optional[int] = None


@dataclass
class PeerMsg:
    """bdev -> bdev signal: a partial result is ready to be fetched (§5.1).

    The receiving bdev folds it into the reduction named by ``cid``.
    """

    cid: int
    fwd_offset: int
    fwd_length: int
    #: shard index of the partial's chunk in the code (``0..k-1`` data,
    #: ``k..k+m-1`` parity rows) — keys a reconstruction reducer's decode;
    #: plain XOR reductions ignore it.
    source: int
    #: the partial result (functional mode)
    data: Optional[Any] = None
    #: observability: trace context of the host request (None untraced)
    trace: Optional[Any] = None


@dataclass
class ReconstructionCmd:
    """Host -> surviving bdev: participate in rebuilding a lost region (§6.1)."""

    cid: int
    subtype: Subtype  #: ALSO_READ or NO_READ
    #: drive offset of this bdev's chunk in the stripe
    chunk_drive_offset: int
    #: region of the chunk to contribute (same for every participant)
    region_offset: int
    region_length: int
    #: shard index of this bdev's chunk in the code (``0..k-1`` data,
    #: ``k..k+m-1`` parity rows)
    source: int
    #: server index of the reducer
    reducer: int
    #: reducer only: number of peer partials to expect under this ``cid``
    wait_num: int = 0
    #: reducer only: shard index of the lost chunk
    lost: Optional[int] = None
    #: reducer only: ``spec`` of the erasure code to decode with
    #: (``repro.ec.code_for``), e.g. ``("pq", k, 2)`` for RAID-6
    code: Optional[Tuple] = None
    #: ALSO_READ only: normal-read segment (chunk_offset, length, io_offset)
    read_segment: Optional[Tuple[int, int, int]] = None
    #: reducer only: where the rebuilt region lands in the user I/O buffer
    lost_io_offset: int = 0
    #: observability: trace context of the host request (None untraced)
    trace: Optional[Any] = None
    #: overload control: absolute sim-time deadline in ns (None = none)
    deadline_ns: Optional[int] = None
