"""Tests for RAID-5/6 parity math and Reed-Solomon codes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import (
    PQCode,
    ReedSolomon,
    code_for,
    raid5_parity,
    raid5_reconstruct,
    raid6_pq,
    raid6_reconstruct,
    xor_blocks,
)
from repro.ec.parity import raid6_q_delta


def _stripe(seed, n, size=32):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size=size, dtype=np.uint8) for _ in range(n)]


stripes = st.tuples(st.integers(0, 2**31), st.integers(3, 10), st.integers(1, 128))


class TestXorBlocks:
    def test_simple(self):
        out = xor_blocks([b"\x01\x02", b"\x03\x04"])
        assert out.tolist() == [0x02, 0x06]

    def test_single_block_identity(self):
        out = xor_blocks([b"\xab\xcd"])
        assert out.tolist() == [0xAB, 0xCD]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_blocks([b"\x01", b"\x02\x03"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            xor_blocks([])

    @given(stripes)
    @settings(max_examples=30, deadline=None)
    def test_order_independent(self, params):
        """dRAID's reduce phase relies on XOR commutativity (§5)."""
        seed, n, size = params
        blocks = _stripe(seed, n, size)
        forward = xor_blocks(blocks)
        backward = xor_blocks(blocks[::-1])
        assert np.array_equal(forward, backward)

    @given(stripes)
    @settings(max_examples=30, deadline=None)
    def test_partial_reduction_associative(self, params):
        """Reducing partial parities in halves equals one-shot reduction."""
        seed, n, size = params
        blocks = _stripe(seed, n, size)
        mid = n // 2 or 1
        left = xor_blocks(blocks[:mid])
        right = xor_blocks(blocks[mid:]) if blocks[mid:] else np.zeros(size, dtype=np.uint8)
        assert np.array_equal(left ^ right, xor_blocks(blocks))


class TestRaid5:
    @given(stripes)
    @settings(max_examples=30, deadline=None)
    def test_any_single_erasure_recovers(self, params):
        seed, n, size = params
        data = _stripe(seed, n, size)
        p = raid5_parity(data)
        # lose each data block in turn
        for lost in range(n):
            survivors = [d for i, d in enumerate(data) if i != lost] + [p]
            assert np.array_equal(raid5_reconstruct(survivors), data[lost])
        # lose the parity block
        assert np.array_equal(raid5_reconstruct(data), p)

    def test_rmw_parity_update_identity(self):
        """new_P = old_P ^ old_D ^ new_D — the read-modify-write identity."""
        data = _stripe(7, 5)
        p_old = raid5_parity(data)
        new_block = np.frombuffer(bytes(range(32)), dtype=np.uint8)
        p_via_rmw = p_old ^ data[2] ^ new_block
        data[2] = new_block
        assert np.array_equal(p_via_rmw, raid5_parity(data))


class TestRaid6:
    @given(stripes)
    @settings(max_examples=20, deadline=None)
    def test_zero_and_single_erasures(self, params):
        seed, n, size = params
        data = _stripe(seed, n, size)
        p, q = raid6_pq(data)

        assert raid6_reconstruct({i: d for i, d in enumerate(data)}, n, p, q) == {}

        for lost in range(n):
            present = {i: d for i, d in enumerate(data) if i != lost}
            out = raid6_reconstruct(dict(present), n, p, q)
            assert np.array_equal(out[lost], data[lost])
            # also recover through Q alone (P erased too? no - P present here)
            out_q = raid6_reconstruct(dict(present), n, p=None, q=q)
            assert np.array_equal(out_q[lost], data[lost])

    @given(stripes)
    @settings(max_examples=20, deadline=None)
    def test_double_data_erasure(self, params):
        seed, n, size = params
        data = _stripe(seed, n, size)
        p, q = raid6_pq(data)
        for i in range(n):
            for j in range(i + 1, min(n, i + 3)):  # a few pairs per stripe
                present = {k: d for k, d in enumerate(data) if k not in (i, j)}
                out = raid6_reconstruct(present, n, p, q)
                assert np.array_equal(out[i], data[i])
                assert np.array_equal(out[j], data[j])

    def test_data_plus_parity_erasure(self):
        data = _stripe(3, 6)
        p, q = raid6_pq(data)
        # data + P lost -> recover data through Q
        present = {k: d for k, d in enumerate(data) if k != 2}
        out = raid6_reconstruct(dict(present), 6, p=None, q=q)
        assert np.array_equal(out[2], data[2])
        # data + Q lost -> recover data through P
        out = raid6_reconstruct(dict(present), 6, p=p, q=None)
        assert np.array_equal(out[2], data[2])

    def test_too_many_erasures_rejected(self):
        data = _stripe(11, 5)
        p, q = raid6_pq(data)
        present = {k: d for k, d in enumerate(data) if k not in (0, 1)}
        with pytest.raises(ValueError):
            raid6_reconstruct(dict(present), 5, p=None, q=q)
        with pytest.raises(ValueError):
            raid6_reconstruct(dict(present), 5, p=None, q=None)

    def test_two_data_without_both_parities_rejected(self):
        data = _stripe(12, 5)
        p, q = raid6_pq(data)
        present = {k: d for k, d in enumerate(data) if k not in (1, 3)}
        with pytest.raises(ValueError):
            raid6_reconstruct(dict(present), 5, p=p, q=None)

    @given(stripes, st.integers(0, 255))
    @settings(max_examples=20, deadline=None)
    def test_q_delta_rmw_identity(self, params, fill):
        """Q_new = Q_old ^ g^i (old ^ new): dRAID's per-bdev Q partial."""
        seed, n, size = params
        data = _stripe(seed, n, size)
        _, q_old = raid6_pq(data)
        idx = seed % n
        new_block = np.full(size, fill, dtype=np.uint8)
        delta = raid6_q_delta(idx, data[idx], new_block)
        data[idx] = new_block
        _, q_new = raid6_pq(data)
        assert np.array_equal(q_old ^ delta, q_new)


class TestPQCodeMatchesParityOracle:
    """RAID-5/6 as a :class:`LinearCode` is byte-equal to the free functions
    of ``repro.ec.parity`` (the oracle): the controllers' only parity math
    must not move a byte on any drive."""

    @given(st.integers(2, 12), st.integers(0, 2**31), st.integers(0, 150))
    @settings(max_examples=40, deadline=None)
    def test_encode_and_every_erasure_pattern(self, k, seed, half):
        import itertools

        length = 2 * half + 1  # odd lengths: no word-size assumption survives
        data = _stripe(seed, k, length)
        p, q = raid6_pq(data)
        for m, parities in ((1, [xor_blocks(data)]), (2, [p, q])):
            code = PQCode(k, m)
            for ours, oracle in zip(code.encode(data), parities):
                assert np.array_equal(ours, oracle)
            shards = dict(enumerate(data + parities))
            patterns = [
                e for r in range(1, m + 1)
                for e in itertools.combinations(range(k + m), r)
            ]
            for erased in patterns:
                survivors = {i: b for i, b in shards.items() if i not in erased}
                present = {i: b.copy() for i, b in survivors.items() if i < k}
                if m == 1:
                    oracle = {erased[0]: raid5_reconstruct(list(survivors.values()))}
                else:
                    oracle = raid6_reconstruct(
                        present, k, survivors.get(k), survivors.get(k + 1)
                    )
                    # the oracle recovers data only; parity follows from it
                    full = [present.get(i, oracle.get(i)) for i in range(k)]
                    oracle[k], oracle[k + 1] = raid6_pq(full)
                for target in erased:  # data and parity targets alike
                    got = code.decode_one(target, survivors, length)
                    assert np.array_equal(got, oracle[target]), (k, m, erased, target)

    def test_not_reed_solomon_rows(self):
        """Anvin's rows, not the reduced Vandermonde's: RS(k,1) would put
        different parity bytes on the drives."""
        assert PQCode(6, 2).parity_matrix.tolist() == [
            [1] * 6, [1, 2, 4, 8, 16, 32]
        ]
        assert ReedSolomon(6, 1).parity_matrix.tolist() != [[1] * 6]

    def test_pricing_is_the_raid_rule(self):
        r5, r6, rs = PQCode(4, 1), PQCode(4, 2), ReedSolomon(4, 2)
        assert r5.encode_charges == (("xor", 4),) and not r5.gf_pass
        assert r6.encode_charges == (("xor", 4), ("gf", 4)) and r6.gf_pass
        assert rs.encode_charges == (("gf", 8),) and not rs.gf_pass
        # P forwards raw; Q is GF-weighted even where g^0 == 1
        assert [r6.forward_coefficient(0, d) for d in range(4)] == [None] * 4
        assert [r6.forward_coefficient(1, d) for d in range(4)] == [1, 2, 4, 8]
        assert (r6.partial_charged(0), r6.partial_charged(1)) == (False, True)
        # a generic row is raw exactly where its coefficient is 1
        assert [rs.forward_coefficient(0, d) is None for d in range(4)] == [
            c == 1 for c in rs.parity_matrix[0].tolist()
        ]
        assert rs.partial_charged(0)

    def test_invalid_parameters(self):
        for k, m in ((0, 1), (4, 0), (4, 3), (254, 2)):
            with pytest.raises(ValueError):
                PQCode(k, m)

    def test_code_for_shares_one_instance_per_spec(self):
        assert code_for(("pq", 5, 2)) is code_for(("pq", 5, 2))
        assert code_for(("pq", 5, 2)).spec == ("pq", 5, 2)
        assert isinstance(code_for(("rs", 5, 2)), ReedSolomon)
        assert code_for(("lrc", 6, 2, 1)).spec == ("lrc", 6, 2, 1)


class TestReedSolomon:
    @given(st.integers(2, 8), st.integers(1, 4), st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_any_k_shards_decode(self, k, m, seed):
        rs = ReedSolomon(k, m)
        rng = np.random.default_rng(seed)
        data = [rng.integers(0, 256, size=24, dtype=np.uint8) for _ in range(k)]
        parity = rs.encode(data)
        everything = {i: s for i, s in enumerate(data + parity)}
        # erase m shards chosen by the rng
        erased = rng.choice(k + m, size=m, replace=False)
        survivors = {i: s for i, s in everything.items() if i not in erased}
        recovered = rs.decode(survivors, length=24)
        for i in range(k):
            assert np.array_equal(recovered[i], data[i])

    def test_partial_parities_sum_to_parity(self):
        """§7 generalization: RS parities are order-independent XOR sums."""
        rs = ReedSolomon(5, 3)
        rng = np.random.default_rng(0)
        data = [rng.integers(0, 256, size=16, dtype=np.uint8) for _ in range(5)]
        full = rs.encode(data)
        partials = [rs.partial_parity(i, d) for i, d in enumerate(data)]
        for row in range(3):
            acc = np.zeros(16, dtype=np.uint8)
            for i in range(5):
                acc ^= partials[i][row]
            assert np.array_equal(acc, full[row])

    def test_systematic_property(self):
        rs = ReedSolomon(4, 2)
        assert np.array_equal(rs.encode_matrix[:4, :], np.eye(4, dtype=np.uint8))

    def test_mds_property_every_submatrix_invertible(self):
        """Any k rows of the encode matrix must be invertible (MDS)."""
        import itertools

        from repro.ec.gf import GF

        rs = ReedSolomon(4, 2)
        for rows in itertools.combinations(range(6), 4):
            sub = rs.encode_matrix[list(rows), :]
            GF.mat_inv(sub)  # raises LinAlgError if singular

    def test_not_enough_shards(self):
        rs = ReedSolomon(3, 2)
        with pytest.raises(ValueError):
            rs.decode({0: np.zeros(4, dtype=np.uint8)}, length=4)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ReedSolomon(0, 1)
        with pytest.raises(ValueError):
            ReedSolomon(200, 100)
