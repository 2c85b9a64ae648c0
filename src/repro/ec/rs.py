"""Systematic linear erasure codes over GF(2^8): P+Q and Reed-Solomon.

The paper (§7) argues that dRAID generalizes beyond RAID-5/6 to arbitrary
erasure codes because most codes are linear and thus their parities can be
generated as an order-independent sum of per-device partial results.  This
module provides that generalization: :class:`LinearCode` is the value every
array owns (``array.code``) and routes its parity math, partial-parity
forwards, decodes and CPU pricing through; :class:`PQCode` is RAID-5/6
(Anvin's P and Q rows) and :class:`ReedSolomon` a systematic (k+m, k) code
built from a Vandermonde matrix reduced so the first k rows form the
identity.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.ec.gf import GF
from repro.ec.parity import _as_block


class UnrecoverableErasureError(ValueError):
    """Raised when an erasure pattern exceeds what the code can decode.

    A :class:`ValueError` subclass so pre-existing handlers of the
    historical ``need at least k shards`` error keep working; shared by
    :class:`ReedSolomon` and
    :class:`~repro.ec.lrc.LocalReconstructionCode` so callers can treat
    beyond-reach patterns uniformly across codes.
    """


class LinearCode:
    """A systematic linear erasure code: ``k`` data shards, then ``m``
    parities that are each a GF(2^8)-weighted sum of the data shards.

    Subclasses supply the ``m x k`` ``parity_matrix``; encoding, the dRAID
    partial-parity split and Gaussian decoding are the same for every such
    code and live here, as does the CPU price list the controllers charge
    for them (DESIGN.md §15) — a controller never branches on code family.
    """

    def __init__(self, k: int, parity_matrix: np.ndarray, spec: Tuple) -> None:
        self.k = k
        self.m = len(parity_matrix)
        #: hashable wire descriptor; ``repro.ec.code_for(spec)`` is this code
        self.spec = spec
        #: guaranteed arbitrary-erasure tolerance (MDS: every parity counts)
        self.fault_tolerance = self.m
        #: CPU charges of one full-image encode, in order: ``(kind,
        #: sources)`` priced per chunk as ``xor`` or ``gf``.  A generic code
        #: is one GF pass over all ``k * m`` coefficients.
        self.encode_charges: Tuple[Tuple[str, int], ...] = (("gf", k * self.m),)
        #: whether XOR-priced delta / degraded-region / read-repair work on
        #: the host is followed by a separate GF pass over the same sources
        self.gf_pass = False
        #: m x k parity-generation coefficients
        self.parity_matrix = parity_matrix
        self.encode_matrix = np.vstack([np.eye(k, dtype=np.uint8), parity_matrix])
        #: surviving shard indices -> (the k shards read, one coefficient
        #: row over them per shard of the code); one entry per erasure
        #: pattern met, so elimination runs once per pattern
        self._decode_plans: Dict[Tuple[int, ...], Tuple[List[int], List[List[int]]]] = {}

    # -- encoding -----------------------------------------------------------

    def encode(self, data_shards: Sequence) -> List[np.ndarray]:
        """Compute the m parity shards for k equal-length data shards."""
        shards = [_as_block(s) for s in data_shards]
        if len(shards) != self.k:
            raise ValueError(f"expected {self.k} data shards, got {len(shards)}")
        length = len(shards[0])
        for s in shards:
            if len(s) != length:
                raise ValueError("data shards must have equal length")
        parities = []
        for coefficients in self.parity_matrix.tolist():
            acc = np.zeros(length, dtype=np.uint8)
            for coefficient, shard in zip(coefficients, shards):
                GF.mul_bytes_inplace_xor(acc, coefficient, shard)
            parities.append(acc)
        return parities

    def partial_parity(self, shard_index: int, block) -> List[np.ndarray]:
        """Per-device partial contribution of one data shard to every parity.

        XOR-ing the partial parities of all k data shards yields the full
        parity set — the dRAID reduce-phase generalized to m parities.  A
        parity that does not cover the shard (coefficient zero) receives an
        all-zero partial, keeping the reduce order-independent.
        """
        if not 0 <= shard_index < self.k:
            raise ValueError(f"shard index {shard_index} out of range")
        arr = _as_block(block)
        return [
            GF.mul_bytes(int(self.parity_matrix[row, shard_index]), arr)
            for row in range(self.m)
        ]

    # -- pricing of per-row partials (DESIGN.md §15) --------------------------

    def forward_coefficient(self, row: int, data_index: int) -> Optional[int]:
        """Weight a data bdev applies to the partial it forwards to parity
        ``row``: ``None`` ships it raw and uncharged, anything else costs
        one GF pass (a zero coefficient is charged and ships zeros)."""
        coefficient = int(self.parity_matrix[row, data_index])
        return None if coefficient == 1 else coefficient

    def partial_charged(self, row: int) -> bool:
        """Whether the host pays ``gf(1)`` to weight the partial it
        contributes to parity ``row`` in a degraded write."""
        return True

    # -- decoding -----------------------------------------------------------

    def repair_sources(
        self, erased: Iterable[int], target: Optional[int] = None
    ) -> List[int]:
        """Shards to read to repair shard ``target`` when ``erased`` are
        gone: every surviving data shard plus one surviving parity per lost
        data shard, first parities first.  ``target`` lets locality-aware
        codes narrow the read set."""
        erased = set(erased)
        data = [d for d in range(self.k) if d not in erased]
        parities = [p for p in range(self.k, self.k + self.m) if p not in erased]
        return data + parities[: self.k - len(data)]

    def _independent_rows(self, available: Sequence[int]) -> List[int]:
        """Pick k available shard indices whose encode rows are linearly
        independent; raises :class:`UnrecoverableErasureError` when the
        available rows do not span the data space."""
        basis: List[Tuple[int, np.ndarray]] = []  # (pivot column, reduced row)
        chosen: List[int] = []
        for i in available:
            row = self.encode_matrix[i].copy()
            for pivot, brow in basis:
                coeff = int(row[pivot])
                if coeff:
                    row ^= GF.mul_bytes(coeff, brow)
            nonzero = np.nonzero(row)[0]
            if len(nonzero) == 0:
                continue
            pivot = int(nonzero[0])
            row = GF.mul_bytes(GF.inv(int(row[pivot])), row)
            basis.append((pivot, row))
            chosen.append(i)
            if len(chosen) == self.k:
                return chosen
        raise UnrecoverableErasureError(
            f"erasure pattern beyond reach: {len(available)} surviving shards "
            f"span rank {len(chosen)} < {self.k}"
        )

    def _decode_plan(self, shards) -> Tuple[List[int], List[List[int]]]:
        if len(shards) < self.k:
            raise UnrecoverableErasureError(
                f"need at least {self.k} shards, got {len(shards)}"
            )
        survivors = tuple(sorted(shards))
        plan = self._decode_plans.get(survivors)
        if plan is None:
            sources = self._independent_rows(survivors)
            inverse = GF.mat_inv(self.encode_matrix[sources, :])
            plan = sources, GF.mat_mul(self.encode_matrix, inverse).tolist()
            self._decode_plans[survivors] = plan
        return plan

    def decode_one(self, index: int, shards: Dict[int, np.ndarray], length: int) -> np.ndarray:
        """Recover shard ``index`` (data or parity) alone from any decodable
        surviving subset: one cached coefficient row times the survivors."""
        sources, rows = self._decode_plan(shards)
        acc = np.zeros(length, dtype=np.uint8)
        for coefficient, source in zip(rows[index], sources):
            GF.mul_bytes_inplace_xor(acc, coefficient, _as_block(shards[source])[:length])
        return acc

    def decode(self, shards: Dict[int, np.ndarray], length: int) -> List[np.ndarray]:
        """Recover the k data shards from any decodable surviving subset.

        ``shards`` maps global shard index (0..k+m-1; parities start at k)
        to the surviving block.  Returns the k data shards in order; raises
        :class:`UnrecoverableErasureError` when the pattern is beyond reach.
        """
        return [self.decode_one(i, shards, length) for i in range(self.k)]


class PQCode(LinearCode):
    """RAID-5 (``m = 1``) and RAID-6 (``m = 2``) as a linear code.

    H. P. Anvin's construction: ``P`` is the all-ones row and ``Q`` the
    ``g^i`` row — *not* ``ReedSolomon(k, m)``, whose reduced-Vandermonde
    rows differ — so encode and decode are byte-equal to
    :mod:`repro.ec.parity`, Linux MD and ISA-L.  P is priced as XOR and Q
    as a separate GF pass, the way the RAID-5/6 controllers always have.
    """

    def __init__(self, k: int, m: int) -> None:
        if k < 1 or m not in (1, 2):
            raise ValueError(f"invalid P+Q parameters k={k}, m={m}")
        if k + m > 255:
            raise ValueError(f"k+m={k + m} exceeds GF(2^8) limit of 255 shards")
        matrix = np.ones((m, k), dtype=np.uint8)
        if m == 2:
            matrix[1] = [GF.gen_pow(i) for i in range(k)]
        super().__init__(k, matrix, ("pq", k, m))
        self.encode_charges = (("xor", k),) + (("gf", k),) * (m - 1)
        self.gf_pass = m == 2

    def forward_coefficient(self, row: int, data_index: int) -> Optional[int]:
        """P takes the raw delta; Q is always GF-weighted, ``g^0`` included."""
        return None if row == 0 else int(self.parity_matrix[row, data_index])

    def partial_charged(self, row: int) -> bool:
        """P takes the host's block as is; weighting it for Q costs ``gf(1)``."""
        return row != 0


class ReedSolomon(LinearCode):
    """A systematic (k+m, k) Reed-Solomon erasure code.

    ``k`` data shards, ``m`` parity shards; any ``k`` of the ``k+m`` shards
    reconstruct the original data.
    """

    def __init__(self, k: int, m: int) -> None:
        if k < 1 or m < 0:
            raise ValueError(f"invalid code parameters k={k}, m={m}")
        if k + m > 255:
            raise ValueError(f"k+m={k + m} exceeds GF(2^8) limit of 255 shards")
        # rows k..k+m-1 are the parity-generation coefficients
        super().__init__(k, self._systematic_matrix(k, m)[k:, :], ("rs", k, m))

    @staticmethod
    def _systematic_matrix(k: int, m: int) -> np.ndarray:
        """Vandermonde matrix reduced so the top k x k block is identity.

        Row-reducing preserves the MDS property (every k x k submatrix
        stays invertible) while making the code systematic.
        """
        v = GF.vandermonde(k + m, k)
        top_inv = GF.mat_inv(v[:k, :])
        return GF.mat_mul(v, top_inv)
