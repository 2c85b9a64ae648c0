"""Reference CRC-32C: the byte-serial slice-by-8 loop that used to live in
``repro.storage.integrity``.  Kept as the oracle the vectorised kernel is
differentially tested against (``tests/test_integrity.py``)."""

from __future__ import annotations

from typing import List

import numpy as np

#: Reflected Castagnoli polynomial (CRC-32C, as used by T10-DIF / iSCSI).
_CRC32C_POLY = 0x82F63B78


def _build_crc32c_tables() -> List[List[int]]:
    t0 = np.zeros(256, dtype=np.uint32)
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ (_CRC32C_POLY if crc & 1 else 0)
        t0[i] = crc
    tables = [t0]
    for _ in range(7):
        prev = tables[-1]
        tables.append((prev >> 8) ^ t0[prev & 0xFF])
    # plain Python lists index faster than numpy scalars in the hot loop
    return [t.tolist() for t in tables]


_T = _build_crc32c_tables()


def crc32c_reference(data, crc: int = 0) -> int:
    """CRC-32C (Castagnoli) of ``data`` (bytes or uint8 ndarray)."""
    if isinstance(data, np.ndarray):
        buf = data.tobytes()
    else:
        buf = bytes(data)
    t0, t1, t2, t3, t4, t5, t6, t7 = _T
    crc ^= 0xFFFFFFFF
    n8 = len(buf) & ~7
    idx = 0
    while idx < n8:
        q = int.from_bytes(buf[idx : idx + 8], "little") ^ crc
        crc = (
            t7[q & 0xFF]
            ^ t6[(q >> 8) & 0xFF]
            ^ t5[(q >> 16) & 0xFF]
            ^ t4[(q >> 24) & 0xFF]
            ^ t3[(q >> 32) & 0xFF]
            ^ t2[(q >> 40) & 0xFF]
            ^ t1[(q >> 48) & 0xFF]
            ^ t0[(q >> 56) & 0xFF]
        )
        idx += 8
    for byte in buf[idx:]:
        crc = (crc >> 8) ^ t0[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF
