"""Erasure coding: GF(2^8) arithmetic, RAID-5/6 parity and Reed-Solomon.

Unlike the performance-simulation layers of this repository, this package
performs *real* computation on real bytes.  It mirrors what ISA-L provides
to the paper's prototype: XOR parity for RAID-5, P+Q parity for RAID-6
(H. P. Anvin, "The mathematics of RAID-6") and a generic systematic
Reed-Solomon code used to demonstrate the paper's §7 claim that dRAID
generalizes to other erasure-coding schemes.

Every array owns one :class:`LinearCode` value (``array.code``):
:class:`PQCode` for RAID-5/6, :class:`ReedSolomon` or
:class:`LocalReconstructionCode` for the §7 arrays.  :func:`code_for` maps
a code's hashable ``spec`` (what dRAID commands carry on the wire) back to
the shared instance.  The free functions of :mod:`repro.ec.parity` are the
independent oracle the differential tests compare the codes against.
"""

from functools import lru_cache
from typing import Tuple

from repro._lazy import lazy_exports
from repro.ec.gf import GF256
from repro.ec.parity import (
    raid5_parity,
    raid5_reconstruct,
    raid6_pq,
    raid6_reconstruct,
    xor_blocks,
)
from repro.ec.rs import LinearCode, PQCode, ReedSolomon, UnrecoverableErasureError

# LRC loads on first use: an array without local groups never reads it.
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".lrc": ("DecodePlan", "DecodeStep", "LocalReconstructionCode"),
})

_FAMILIES = {"pq": PQCode, "rs": ReedSolomon}


@lru_cache(maxsize=None)
def code_for(spec: Tuple) -> LinearCode:
    """The shared code instance for ``spec`` — ``("pq", k, m)``,
    ``("rs", k, m)`` or ``("lrc", k, l, g)``.

    Memoized: building a code is O(k^3) and every array, bdev and scrub
    pass over the same shape shares its decode-plan cache.  Codes are never
    mutated beyond that cache, and the distinct shapes of a process are few.
    """
    if spec[0] == "lrc":
        from repro.ec.lrc import LocalReconstructionCode

        return LocalReconstructionCode(*spec[1:])
    return _FAMILIES[spec[0]](*spec[1:])


__all__ = [
    "GF256",
    "DecodePlan",
    "DecodeStep",
    "LinearCode",
    "LocalReconstructionCode",
    "PQCode",
    "ReedSolomon",
    "UnrecoverableErasureError",
    "code_for",
    "raid5_parity",
    "raid5_reconstruct",
    "raid6_pq",
    "raid6_reconstruct",
    "xor_blocks",
]
