"""End-to-end data integrity: per-chunk checksums and poisoned extents.

Production arrays pair parity with block checksums (T10-DIF / ZFS-style)
because parity alone cannot *detect* silent corruption — bit rot, lost,
torn and misdirected writes leave every drive answering happily with the
wrong bytes.  This module provides the detection layer:

* :func:`crc32c` / :func:`crc32c_many` — the Castagnoli CRC used by
  T10-DIF and iSCSI, as a block-parallel numpy kernel: a CRC without its
  init/final XOR is linear over GF(2), so one table gather gives the CRC
  of every 64-byte block and further gathers fold neighbouring blocks
  together (the byte-serial reference lives in ``tests/crc32c_oracle.py``).
* :class:`PoisonedExtent` — a record of silently corrupted bytes kept by
  :class:`~repro.storage.drive.NvmeDrive`.  In timing-only mode it *is*
  the detection mechanism (there are no bytes to checksum); in functional
  mode it additionally attributes a mismatch to the fault that caused it
  and carries the injection time for detection-latency accounting.
* :class:`IntegrityStore` — the array-wide per-chunk checksum store.
  Attaching one to a cluster *arms* the integrity layer: every controller
  verifies chunks on read and repairs mismatches from parity.  Unarmed
  clusters take none of these paths, so committed goldens are unchanged.
* :class:`ChecksumError` — raised when a chunk's content does not match
  its expectation (or overlaps a poisoned extent).

The store is *lazy* by default: a write marks the touched chunks as
"trusted" (no CRC is computed), and a CRC expectation is only pinned —
from the intended bytes — at the moment a corruption primitive mutates
them behind the array's back.  This keeps the hot write path free of
per-chunk CRC cost while remaining byte-accurate: the only chunks that
ever need CRC verification are exactly the ones a fault touched.
``eager=True`` computes and verifies true CRCs on every write/read and is
used by the unit tests to validate the checksum math end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

#: Reflected Castagnoli polynomial (CRC-32C, as used by T10-DIF / iSCSI).
_CRC32C_POLY = 0x82F63B78
#: Bytes folded per gather.  A per-position table holds 256 uint32
#: entries per byte position, so 64 positions keep it at 64 KiB.
_WIDTH = 64
_OFFSETS = np.arange(_WIDTH, dtype=np.uint16) * 256


def _fold(table: np.ndarray, msg: np.ndarray) -> np.ndarray:
    """XOR the per-position ``table`` entries of every group of bytes.

    ``msg`` is ``(n, length)`` uint8 and ``table`` a flat ``(width * 256,)``
    array whose entry ``[p * 256 + b]`` is the contribution of byte ``b`` at
    position ``p`` of a ``width``-byte group.  Groups are right-aligned: a
    short leading group is zero-padded in front, which contributes nothing
    because every table maps byte 0 to 0.  Returns ``(n, groups)`` words.
    """
    width = len(table) >> 8
    n, length = msg.shape
    groups = -(-length // width)
    pad = groups * width - length
    if pad:
        msg = np.concatenate([np.zeros((n, pad), dtype=np.uint8), msg], axis=1)
    index = (msg.reshape(n, groups, width) + _OFFSETS[:width]).astype(np.intp)
    out = np.empty((n, groups), dtype="<u4")
    np.bitwise_xor.reduce(table.take(index, mode="wrap"), axis=2, out=out)
    return out


def _bytes_of(words: np.ndarray) -> np.ndarray:
    """Little-endian byte view ``(n, 4 * count)`` of ``(n, count)`` words."""
    return words.view(np.uint8).reshape(len(words), -1)


def _build_byte_table() -> np.ndarray:
    table = np.arange(256, dtype="<u4")
    for _ in range(8):
        table = (table >> 1) ^ ((table & 1) * np.uint32(_CRC32C_POLY))
    return table


#: the classic 256-entry table: register after one byte from state zero
_BYTE = _build_byte_table()
#: the four bytes of a register as words: the identity operator's table
_IDENTITY = (
    np.arange(256, dtype="<u4") << (8 * np.arange(4, dtype="<u4"))[:, None]
).ravel()
#: GF(2) operators "advance the register over 2**j zero bytes", as
#: 4-position tables; grown by squaring, so O(log n) for any distance
_ADVANCE = [(_IDENTITY >> 8) ^ _BYTE[_IDENTITY & 0xFF]]
#: _TABLES[0] is the per-position table of raw bytes, _TABLES[level] folds
#: 16 words that each cover ``64 * 16**(level - 1)`` bytes; built on demand
#: by :func:`_table`, one per level, so the cache grows with log(length)
_TABLES: List[np.ndarray] = []


def _advance_table(exponent: int) -> np.ndarray:
    while len(_ADVANCE) <= exponent:
        last = _ADVANCE[-1]
        _ADVANCE.append(_fold(last, _bytes_of(last[:, None])).ravel())
    return _ADVANCE[exponent]


def _table(level: int) -> np.ndarray:
    while len(_TABLES) <= level:
        built = len(_TABLES)
        if built == 0:
            row, step, rows = _BYTE, _ADVANCE[0], _WIDTH
        else:
            # words of this level sit 64 * 16**(built-1) = 2**(4*built+2)
            # bytes apart
            row, step, rows = _IDENTITY, _advance_table(4 * built + 2), _WIDTH // 4
        stack = [row]
        for _ in range(rows - 1):
            stack.append(_fold(step, _bytes_of(stack[-1][:, None])).ravel())
        _TABLES.append(np.concatenate(stack[::-1]))
    return _TABLES[level]


_table(0)


def _advance(register: int, nbytes: int) -> int:
    """The register after ``nbytes`` zero bytes (the affine part of a CRC)."""
    exponent = 0
    while nbytes:
        if nbytes & 1:
            table = _advance_table(exponent)
            register = int(
                table[register & 0xFF]
                ^ table[256 | (register >> 8) & 0xFF]
                ^ table[512 | (register >> 16) & 0xFF]
                ^ table[768 | register >> 24]
            )
        nbytes >>= 1
        exponent += 1
    return register


def _raw_crcs(msg: np.ndarray) -> np.ndarray:
    """Zero-init, no-final-XOR CRC of every row of ``(n, length > 0)`` bytes.

    That raw CRC is linear over GF(2), so one gather gives it for every
    64-byte block and each further gather folds 16 neighbours into one.
    """
    words = _fold(_table(0), msg)
    level = 1
    while words.shape[1] > 1:
        words = _fold(_table(level), _bytes_of(words))
        level += 1
    return words[:, 0]


def _as_bytes(data) -> np.ndarray:
    if isinstance(data, np.ndarray):
        return np.ascontiguousarray(data).reshape(-1).view(np.uint8)
    if not isinstance(data, (bytes, bytearray, memoryview)):
        data = bytes(data)
    return np.frombuffer(data, dtype=np.uint8)


def crc32c(data, crc: int = 0) -> int:
    """CRC-32C (Castagnoli) of ``data`` (bytes-like or ndarray), continuing
    from ``crc``: ``crc32c(b, crc32c(a)) == crc32c(a + b)``."""
    buf = _as_bytes(data)
    if not len(buf):
        return crc
    raw = int(_raw_crcs(buf[None, :])[0])
    return _advance(crc ^ 0xFFFFFFFF, len(buf)) ^ raw ^ 0xFFFFFFFF


def crc32c_many(blocks) -> np.ndarray:
    """CRC-32C of each row of ``blocks`` (``(n, length)`` uint8), one pass."""
    blocks = np.asarray(blocks, dtype=np.uint8)
    n, length = blocks.shape
    if not length:
        return np.zeros(n, dtype=np.uint32)
    return _raw_crcs(blocks) ^ _affine(length)


@lru_cache(maxsize=None)
def _affine(length: int) -> np.uint32:
    """What the pre- and post-inversion add to the CRC of ``length`` bytes;
    a process checks few distinct lengths."""
    return np.uint32(_advance(0xFFFFFFFF, length) ^ 0xFFFFFFFF)


class ChecksumError(RuntimeError):
    """A chunk's bytes do not match their checksum expectation."""


@dataclass(frozen=True)
class PoisonedExtent:
    """A byte range silently corrupted on a drive.

    ``kind`` names the fault class (matches the fault-event class name:
    ``BitRot``, ``LostWrite``, ``TornWrite``, ``MisdirectedWrite``) and
    ``at_ns`` is the sim time the corruption landed — the anchor for
    detection-latency accounting.
    """

    offset: int
    length: int
    kind: str
    at_ns: int

    @property
    def end(self) -> int:
        return self.offset + self.length


class IntegrityStore:
    """Array-wide per-chunk (T10-DIF-style) checksum expectations.

    One store serves every drive of a cluster; chunk expectations are
    keyed by ``(drive_index, chunk_index)`` where the chunk index equals
    the stripe number (every member stores one chunk per stripe at
    ``stripe * chunk_bytes``).
    """

    def __init__(self, chunk_bytes: int, eager: bool = False) -> None:
        if chunk_bytes <= 0:
            raise ValueError(f"chunk_bytes must be positive, got {chunk_bytes}")
        self.chunk_bytes = chunk_bytes
        #: eager mode computes a true CRC on every write (unit tests);
        #: lazy mode trusts writes and pins CRCs only at corruption time.
        self.eager = eager
        self.cluster = None
        #: finalized CRC expectations (the only chunks that cost a CRC)
        self._crc: Dict[Tuple[int, int], int] = {}
        #: chunks written since their last finalization: content trusted
        self._dirty: Set[Tuple[int, int]] = set()
        #: chunks currently known-bad (dedupes detection accounting)
        self.known_bad: Set[Tuple[int, int]] = set()

    # -- wiring ------------------------------------------------------------

    def attach(self, cluster) -> "IntegrityStore":
        """Arm ``cluster``: controllers on it verify reads and repair."""
        cluster.integrity = self
        for index, server in enumerate(cluster.servers):
            server.drive.attach_integrity(self, index)
        self.cluster = cluster
        return self

    # -- chunk bookkeeping -------------------------------------------------

    def _chunks(self, offset: int, nbytes: int) -> range:
        first = offset // self.chunk_bytes
        last = (offset + max(1, nbytes) - 1) // self.chunk_bytes
        return range(first, last + 1)

    def _chunk_bytes_of(self, drive, chunk: int) -> np.ndarray:
        lo = chunk * self.chunk_bytes
        hi = min(lo + self.chunk_bytes, len(drive._data))
        return drive._data[lo:hi]

    def record_write(self, drive, offset: int, nbytes: int) -> None:
        """A write landed: the chunk content is (again) what the array
        intended, superseding any previous expectation."""
        chunks = self._chunks(offset, nbytes)
        keys = [(drive._integrity_index, chunk) for chunk in chunks]
        self.known_bad.difference_update(keys)
        if self.eager and drive._data is not None:
            # one pass over the whole written range; only a chunk cut short
            # by the end of the drive has a different length
            size = self.chunk_bytes
            region = drive._data[chunks.start * size : chunks.stop * size]
            whole = len(region) // size
            crcs = crc32c_many(region[: whole * size].reshape(whole, size)).tolist()
            if whole < len(keys):
                crcs.append(crc32c(region[whole * size :]))
            self._crc.update(zip(keys, crcs))
            self._dirty.difference_update(keys)
        else:
            for key in keys:
                self._crc.pop(key, None)
            self._dirty.update(keys)

    def finalize(self, drive, offset: int, nbytes: int) -> None:
        """Pin CRC expectations for chunks about to be silently mutated.

        Called by the drive's corruption primitives *before* the mutation,
        so the expectation captures the intended bytes.  No-op for chunks
        that already carry a finalized expectation, and in timing-only
        mode (where poisoned extents carry the detection signal).
        """
        if drive._data is None:
            return
        for chunk in self._chunks(offset, nbytes):
            key = (drive._integrity_index, chunk)
            if key in self._crc and key not in self._dirty:
                continue
            self._crc[key] = crc32c(self._chunk_bytes_of(drive, chunk))
            self._dirty.discard(key)

    # -- verification ------------------------------------------------------

    def chunk_ok(self, drive, chunk: int, data=None) -> bool:
        """Whether ``chunk`` of ``drive`` matches its expectation.

        ``data`` optionally supplies already-read chunk bytes (the scrub
        daemon passes its own read-back) instead of peeking the drive.
        """
        lo = chunk * self.chunk_bytes
        if drive.poison_overlapping(lo, self.chunk_bytes):
            return False
        expected = self._crc.get((drive._integrity_index, chunk))
        if expected is None or drive._data is None:
            return True
        block = data if data is not None else self._chunk_bytes_of(drive, chunk)
        return crc32c(block) == expected

    def verify_members(self, drives, stripe: int, members, blocks=None) -> List[int]:
        """The ``members`` (indices into ``drives``) whose chunk ``stripe``
        fails :meth:`chunk_ok`, in the order given.

        Poison is checked per member; the members that carry a CRC
        expectation are then checksummed in one :func:`crc32c_many` pass.
        ``blocks`` optionally maps member -> already-read chunk bytes.
        """
        lo = stripe * self.chunk_bytes
        members = list(members)
        bad = set()
        pending = []
        for d in members:
            drive = drives[d]
            if drive.poison_overlapping(lo, self.chunk_bytes):
                bad.add(d)
                continue
            expected = self._crc.get((drive._integrity_index, stripe))
            if expected is None or drive._data is None:
                continue
            block = blocks.get(d) if blocks is not None else None
            if block is None:
                block = self._chunk_bytes_of(drive, stripe)
            pending.append((d, expected, block))
        if pending:
            crcs = crc32c_many(np.stack([block for _, _, block in pending]))
            bad.update(
                d for (d, expected, _), crc in zip(pending, crcs.tolist())
                if crc != expected
            )
        return [d for d in members if d in bad]

    def bad_kinds(self, drive, chunk: int) -> List[str]:
        """Fault kinds attributed to a bad chunk (sorted, deterministic)."""
        lo = chunk * self.chunk_bytes
        kinds = {rec.kind for rec in drive.poison_overlapping(lo, self.chunk_bytes)}
        return sorted(kinds) if kinds else ["Unknown"]

    def first_poison_ns(self, drive, chunk: int) -> Optional[int]:
        """Earliest injection time of poison overlapping ``chunk``."""
        lo = chunk * self.chunk_bytes
        records = drive.poison_overlapping(lo, self.chunk_bytes)
        if not records:
            return None
        return min(rec.at_ns for rec in records)
