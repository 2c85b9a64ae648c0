"""Unit and property-based tests for GF(2^8) arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.gf import GF, GF256, RAID6_POLY

elements = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


def test_singleton_uses_raid6_polynomial():
    assert GF.poly == RAID6_POLY


def test_known_values():
    # g^1 = 2, g^8 = 0x1d (the reduction of x^8 mod the polynomial)
    assert GF.gen_pow(0) == 1
    assert GF.gen_pow(1) == 2
    assert GF.gen_pow(8) == 0x1D
    # a worked example from Anvin's paper: 0x8d * 2 = 0x07 under 0x11d
    assert GF.mul(0x8D, 2) == ((0x8D << 1) ^ 0x11D) & 0xFF


def test_non_primitive_polynomial_rejected():
    # x^8 + x^4 + x^3 + x + 1 (0x11B, the AES polynomial) is irreducible
    # but 2 is not a primitive element for it.
    with pytest.raises(ValueError):
        GF256(0x11B)


def test_bad_polynomial_degree_rejected():
    with pytest.raises(ValueError):
        GF256(0x1F)


@given(a=elements, b=elements)
def test_mul_commutative(a, b):
    assert GF.mul(a, b) == GF.mul(b, a)


@given(a=elements, b=elements, c=elements)
def test_mul_associative(a, b, c):
    assert GF.mul(GF.mul(a, b), c) == GF.mul(a, GF.mul(b, c))


@given(a=elements, b=elements, c=elements)
def test_distributive(a, b, c):
    assert GF.mul(a, b ^ c) == GF.mul(a, b) ^ GF.mul(a, c)


@given(a=elements)
def test_multiplicative_identity(a):
    assert GF.mul(a, 1) == a
    assert GF.mul(a, 0) == 0


@given(a=nonzero)
def test_inverse(a):
    assert GF.mul(a, GF.inv(a)) == 1


@given(a=elements, b=nonzero)
def test_div_inverts_mul(a, b):
    assert GF.div(GF.mul(a, b), b) == a


def test_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        GF.div(5, 0)
    with pytest.raises(ZeroDivisionError):
        GF.inv(0)


@given(base=nonzero, e1=st.integers(-300, 300), e2=st.integers(-300, 300))
def test_pow_laws(base, e1, e2):
    assert GF.mul(GF.pow(base, e1), GF.pow(base, e2)) == GF.pow(base, e1 + e2)


def test_pow_zero_base():
    assert GF.pow(0, 0) == 1
    assert GF.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        GF.pow(0, -1)


def test_generator_cycles_through_all_nonzero():
    seen = {GF.gen_pow(i) for i in range(255)}
    assert seen == set(range(1, 256))


@given(c=elements, data=st.binary(min_size=1, max_size=64))
def test_mul_bytes_matches_scalar(c, data):
    arr = np.frombuffer(data, dtype=np.uint8)
    out = GF.mul_bytes(c, arr)
    assert [GF.mul(c, int(b)) for b in arr] == out.tolist()


@given(c=elements, data=st.binary(min_size=1, max_size=64))
def test_mul_bytes_inplace_xor(c, data):
    arr = np.frombuffer(data, dtype=np.uint8)
    acc = np.zeros_like(arr)
    GF.mul_bytes_inplace_xor(acc, c, arr)
    assert np.array_equal(acc, GF.mul_bytes(c, arr))


class TestMatrices:
    def test_identity_inverse(self):
        eye = np.eye(4, dtype=np.uint8)
        assert np.array_equal(GF.mat_inv(eye), eye)

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_invertible_roundtrip(self, n, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        for _ in range(10):
            m = rng.integers(0, 256, size=(n, n), dtype=np.uint8)
            try:
                inv = GF.mat_inv(m)
            except np.linalg.LinAlgError:
                continue
            prod = GF.mat_mul(m, inv)
            assert np.array_equal(prod, np.eye(n, dtype=np.uint8))
            return
        # singular 10 times in a row is vanishingly unlikely but legal

    def test_singular_raises(self):
        m = np.array([[1, 1], [1, 1]], dtype=np.uint8)
        with pytest.raises(np.linalg.LinAlgError):
            GF.mat_inv(m)

    def test_mat_mul_shape_mismatch(self):
        with pytest.raises(ValueError):
            GF.mat_mul(np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8))

    def test_vandermonde_values(self):
        v = GF.vandermonde(3, 3)
        for i in range(3):
            for j in range(3):
                assert v[i, j] == GF.pow(GF.gen_pow(i), j)


class TestBlockKernel:
    """``mul_bytes`` / ``mul_bytes_inplace_xor`` against ``mul_table``, every
    coefficient over every byte value, on every shape a caller passes."""

    ALL_BYTES = np.arange(256, dtype=np.uint8)

    @pytest.mark.parametrize("c", range(256))
    def test_every_coefficient_over_every_byte(self, c):
        expected = GF.mul_table[c][self.ALL_BYTES]
        assert np.array_equal(GF.mul_bytes(c, self.ALL_BYTES), expected)
        acc = np.full(256, 0xA5, dtype=np.uint8)
        GF.mul_bytes_inplace_xor(acc, c, self.ALL_BYTES)
        assert np.array_equal(acc, expected ^ 0xA5)

    @staticmethod
    def _shapes():
        rng = np.random.default_rng(35)
        big = rng.integers(0, 256, 4096, dtype=np.uint8)
        return {
            "empty": np.zeros(0, dtype=np.uint8),
            # bytearray() of a 0-d array would read it as a length
            "0-d": np.array(7, dtype=np.uint8),
            "odd": rng.integers(0, 256, 1001, dtype=np.uint8),
            "2-D": rng.integers(0, 256, (7, 33), dtype=np.uint8),
            "slice": big[13:2013],
            "strided": big[1::3],
            "strided 2-D": big.reshape(64, 64)[::2, 1::2],
        }

    @pytest.mark.parametrize("c", [0, 1, 2, 29, 255])
    @pytest.mark.parametrize("shape", ["empty", "0-d", "odd", "2-D", "slice", "strided", "strided 2-D"])
    def test_shapes(self, c, shape):
        data = self._shapes()[shape]
        before = data.copy()
        expected = GF.mul_table[c][data]
        out = GF.mul_bytes(c, data)
        assert out.dtype == np.uint8 and out.shape == data.shape
        assert np.array_equal(out, expected)
        assert out.flags.writeable
        assert not np.shares_memory(out, data)
        out ^= 1  # the caller may XOR into the product
        assert np.array_equal(data, before)
        acc = np.zeros(data.shape, dtype=np.uint8)
        GF.mul_bytes_inplace_xor(acc, c, data)
        assert np.array_equal(acc, expected)
        assert np.array_equal(data, before)

    def test_dot_is_the_sum_of_products(self):
        rng = np.random.default_rng(7)
        blocks = [rng.integers(0, 256, 100, dtype=np.uint8) for _ in range(4)]
        coefficients = [0, 1, 29, 0]
        expected = np.zeros(100, dtype=np.uint8)
        for c, block in zip(coefficients, blocks):
            expected ^= GF.mul_table[c][block]
        out = GF.dot(coefficients, blocks)
        assert np.array_equal(out, expected)
        assert not any(np.shares_memory(out, b) for b in blocks)
        assert np.array_equal(GF.dot([0, 0], blocks), np.zeros(100, dtype=np.uint8))
