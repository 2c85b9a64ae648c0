"""GF(2^8) arithmetic with the RAID-6 polynomial.

The field is constructed over the primitive polynomial
``x^8 + x^4 + x^3 + x^2 + 1`` (0x11D) with generator ``g = 2`` — the same
field Linux software RAID and ISA-L use, so Q parities computed here match
those systems byte-for-byte.

Scalar operations use log/exp tables.  A block multiply by coefficient
``c`` is a byte translation through row ``c`` of the 256x256
multiplication table, kept as 256 ``bytes`` rows (64 KiB, built once per
field): the table-lookup multiply ISA-L's ``gf_vect_mul`` does with byte
shuffles, run by CPython's ``bytearray.translate`` loop at about 2.5x the
speed of ``ndarray.take`` over the same row (and about 2x
``bytes.translate``).  :meth:`GF256.mul_bytes` is the one block multiply;
:meth:`GF256.dot`, the multiply-accumulate every parity, decode and scrub
check is built from, seeds its sum with the first product and skips zero
coefficients.  Products by 0 and 1 never reach the table.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: The RAID-6 field polynomial (x^8 + x^4 + x^3 + x^2 + 1).
RAID6_POLY = 0x11D
FIELD_SIZE = 256


def _build_tables(poly: int):
    exp = np.zeros(512, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int16)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= poly
    # duplicate so exp[log_a + log_b] needs no modulo
    for i in range(255, 512):
        exp[i] = exp[i - 255]
    return exp, log


class GF256:
    """The Galois field GF(2^8).

    A module-level singleton (:data:`GF`) over the RAID-6 polynomial is what
    the rest of the repository uses; constructing other instances (e.g. for
    a different primitive polynomial) is supported for testing.
    """

    def __init__(self, poly: int = RAID6_POLY) -> None:
        if not (0x100 <= poly <= 0x1FF):
            raise ValueError(f"polynomial {poly:#x} is not degree 8")
        self.poly = poly
        self.exp, self.log = _build_tables(poly)
        if not self._generator_is_primitive():
            raise ValueError(f"polynomial {poly:#x} is not primitive for g=2")
        # mul_table[a, b] = a * b in the field; 64 KiB, built once.
        a = np.arange(256, dtype=np.int32)
        log_a = self.log[a][:, None]
        log_b = self.log[a][None, :]
        table = self.exp[(log_a + log_b) % 255].astype(np.uint8)
        table[0, :] = 0
        table[:, 0] = 0
        self.mul_table = table
        #: row c of ``mul_table``, the translation table of a product by c
        self._mul_rows = tuple(bytes(row) for row in table)
        inv = np.zeros(256, dtype=np.uint8)
        inv[1:] = self.exp[(255 - self.log[np.arange(1, 256)]) % 255]
        self.inv_table = inv

    def _generator_is_primitive(self) -> bool:
        seen = set()
        x = 1
        for _ in range(255):
            if x in seen:
                return False
            seen.add(x)
            x <<= 1
            if x & 0x100:
                x ^= self.poly
        return len(seen) == 255

    # -- scalar ops ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        """Addition (= subtraction) is XOR."""
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp[int(self.log[a]) + int(self.log[b])])

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(2^8)")
        if a == 0:
            return 0
        return int(self.exp[(int(self.log[a]) - int(self.log[b])) % 255])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in GF(2^8)")
        return int(self.inv_table[a])

    def pow(self, base: int, exponent: int) -> int:
        """``base ** exponent`` (exponent may be any integer, incl. negative)."""
        if base == 0:
            if exponent == 0:
                return 1
            if exponent < 0:
                raise ZeroDivisionError("0 ** negative in GF(2^8)")
            return 0
        e = (int(self.log[base]) * exponent) % 255
        return int(self.exp[e])

    def gen_pow(self, exponent: int) -> int:
        """``g ** exponent`` for the field generator g = 2."""
        return int(self.exp[exponent % 255])

    # -- block (vectorized) ops -------------------------------------------

    def mul_bytes(self, coefficient: int, data: np.ndarray) -> np.ndarray:
        """Multiply every byte of ``data`` by ``coefficient``.

        Returns a new writable uint8 array of ``data``'s shape, never a view
        of ``data``.
        """
        data = np.asarray(data, dtype=np.uint8)
        if coefficient == 0:
            return np.zeros(data.shape, dtype=np.uint8)
        if coefficient == 1:
            return data.copy()
        # a strided buffer would make bytearray() copy byte by byte
        flat = np.ascontiguousarray(data)
        product = bytearray(flat.data).translate(self._mul_rows[coefficient])
        return np.frombuffer(product, dtype=np.uint8).reshape(data.shape)

    def mul_bytes_inplace_xor(
        self, accumulator: np.ndarray, coefficient: int, data: np.ndarray
    ) -> None:
        """``accumulator ^= coefficient * data``, in place."""
        if coefficient == 0:
            return
        if coefficient != 1:
            data = self.mul_bytes(coefficient, data)
        np.bitwise_xor(accumulator, data, out=accumulator)

    def dot(self, coefficients: Sequence[int], blocks: Sequence) -> np.ndarray:
        """``sum(c * block)`` over the field: a new array of the blocks'
        shape.  The first nonzero product seeds the sum, and zero
        coefficients cost nothing."""
        acc = None
        for coefficient, block in zip(coefficients, blocks):
            if acc is None:
                if coefficient:
                    acc = self.mul_bytes(coefficient, block)
            else:
                self.mul_bytes_inplace_xor(acc, coefficient, block)
        if acc is None:
            return np.zeros(np.shape(blocks[0]), dtype=np.uint8)
        return acc

    # -- matrices over the field -------------------------------------------

    def mat_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product over GF(2^8) (shapes follow numpy conventions)."""
        a = np.asarray(a, dtype=np.uint8)
        b = np.asarray(b, dtype=np.uint8)
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
        out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
        for acc, coefficients in zip(out, a.tolist()):
            for coefficient, row in zip(coefficients, b):
                self.mul_bytes_inplace_xor(acc, coefficient, row)
        return out

    def mat_inv(self, matrix: np.ndarray) -> np.ndarray:
        """Invert a square matrix over GF(2^8) by Gauss-Jordan elimination."""
        m = np.asarray(matrix, dtype=np.uint8).copy()
        n, cols = m.shape
        if n != cols:
            raise ValueError(f"matrix is not square: {m.shape}")
        aug = np.concatenate([m, np.eye(n, dtype=np.uint8)], axis=1)
        for col in range(n):
            pivot = None
            for row in range(col, n):
                if aug[row, col] != 0:
                    pivot = row
                    break
            if pivot is None:
                raise np.linalg.LinAlgError("matrix is singular over GF(2^8)")
            if pivot != col:
                aug[[col, pivot]] = aug[[pivot, col]]
            inv_pivot = self.inv(int(aug[col, col]))
            aug[col] = self.mul_bytes(inv_pivot, aug[col])
            for row in range(n):
                if row != col and aug[row, col] != 0:
                    factor = int(aug[row, col])
                    aug[row] ^= self.mul_bytes(factor, aug[col])
        return aug[:, n:].copy()

    def vandermonde(self, rows: int, cols: int) -> np.ndarray:
        """Vandermonde matrix V[i, j] = (g^i)^j used to seed RS encoding."""
        out = np.zeros((rows, cols), dtype=np.uint8)
        for i in range(rows):
            for j in range(cols):
                out[i, j] = self.pow(self.gen_pow(i), j)
        return out


#: Module-level field instance over the RAID-6 polynomial.
GF = GF256()
