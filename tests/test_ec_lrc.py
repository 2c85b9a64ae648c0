"""Property suite for the local-reconstruction code (design-space axis 2).

Hypothesis drives LRC(k, l, g) across parameters and payloads and pins:

* **byte-exact round trips** — encode, erase any pattern up to the
  global-parity reach ``g`` (data, local parity and global parity shards
  alike), decode, compare byte-for-byte;
* **local-first planning** — whenever an erased shard is the only
  erasure inside its group scope, the decode plan repairs it with a
  ``"local"`` XOR step reading only the group (``decode_one`` takes the
  same shortcut), and the plan says so introspectably;
* **typed failure** — patterns beyond reach raise the same
  :class:`~repro.ec.rs.UnrecoverableErasureError` Reed-Solomon raises,
  so callers handle both codes with one except clause;
* **single-shard decode** — ``decode_one`` (RS and LRC, data and parity
  shards, local and global paths) is byte-equal to a full Gaussian decode
  on every erasure pattern, and its plan is cached per survivor set.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ec.gf import GF
from repro.ec.lrc import LocalReconstructionCode
from repro.ec.rs import ReedSolomon, UnrecoverableErasureError


@st.composite
def lrc_cases(draw):
    k = draw(st.integers(min_value=2, max_value=10))
    l = draw(st.integers(min_value=1, max_value=min(3, k)))
    g = draw(st.integers(min_value=1, max_value=3))
    length = draw(st.integers(min_value=1, max_value=64))
    payload_seed = draw(st.integers(min_value=0, max_value=1 << 32))
    return k, l, g, length, payload_seed


def _encode_all(code: LocalReconstructionCode, length: int, payload_seed: int):
    rng = np.random.default_rng(payload_seed)
    data = [
        rng.integers(0, 256, size=length, dtype=np.uint8) for _ in range(code.k)
    ]
    parities = code.encode(data)
    shards = {i: s for i, s in enumerate(data)}
    shards.update({code.k + j: p for j, p in enumerate(parities)})
    return data, shards


@given(case=lrc_cases(), pattern_seed=st.integers(min_value=0, max_value=1 << 32))
@settings(max_examples=200, deadline=None)
def test_encode_erase_decode_roundtrip(case, pattern_seed):
    """Any erasure pattern up to size g decodes byte-exact."""
    k, l, g, length, payload_seed = case
    code = LocalReconstructionCode(k, l, g)
    assert code.fault_tolerance == g
    data, shards = _encode_all(code, length, payload_seed)
    rng = np.random.default_rng(pattern_seed)
    count = int(rng.integers(1, g + 1))
    erased = rng.choice(k + l + g, size=count, replace=False)
    survivors = {i: s for i, s in shards.items() if i not in set(int(e) for e in erased)}
    recovered = code.decode(survivors, length)
    for i in range(k):
        assert np.array_equal(recovered[i], data[i]), f"shard {i} mismatch"


@given(case=lrc_cases())
@settings(max_examples=200, deadline=None)
def test_single_in_group_erasure_plans_local(case):
    """One erasure per group -> the planner picks local repair everywhere."""
    k, l, g, length, payload_seed = case
    code = LocalReconstructionCode(k, l, g)
    data, shards = _encode_all(code, length, payload_seed)
    for lost in range(k):
        plan = code.plan_decode([lost])
        assert plan.local_only
        (step,) = plan.steps
        assert step.target == lost
        assert step.method == "local"
        group = code.group_of(lost)
        scope = set(code.groups[group]) | {code.k + group}
        assert set(step.sources) == scope - {lost}
        assert plan.read_count == len(scope) - 1 <= (k + l - 1) // l + 1
        survivors = {i: s for i, s in shards.items() if i != lost}
        assert np.array_equal(code.decode_one(lost, survivors, length), data[lost])
    # a lost *local parity* also repairs locally from its own group
    for j in range(l):
        plan = code.plan_decode([k + j])
        assert plan.local_only
        assert set(plan.steps[0].sources) == set(code.groups[j])


@given(case=lrc_cases(), pattern_seed=st.integers(min_value=0, max_value=1 << 32))
@settings(max_examples=200, deadline=None)
def test_plan_is_local_iff_sole_in_scope(case, pattern_seed):
    """Introspection: a step is local exactly when the erased shard is the
    sole erasure in its group scope; global steps read a decodable basis."""
    k, l, g, length, payload_seed = case
    code = LocalReconstructionCode(k, l, g)
    rng = np.random.default_rng(pattern_seed)
    count = int(rng.integers(1, g + 1))
    erased = sorted(int(e) for e in rng.choice(k + l + g, size=count, replace=False))
    plan = code.plan_decode(erased)
    assert [s.target for s in plan.steps] == erased
    for step in plan.steps:
        scope = code._group_scope(step.target)
        sole = scope is not None and not (set(erased) & scope - {step.target})
        assert (step.method == "local") == sole
        assert not set(step.sources) & set(erased)
        if step.method == "global":
            assert len(step.sources) == k


@given(case=lrc_cases(), pattern_seed=st.integers(min_value=0, max_value=1 << 32))
@settings(max_examples=200, deadline=None)
def test_beyond_reach_raises_same_typed_error_as_rs(case, pattern_seed):
    """Erasing a whole group scope plus all global parities is beyond any
    guarantee: both planner and decoder raise the RS-shared typed error."""
    k, l, g, length, payload_seed = case
    code = LocalReconstructionCode(k, l, g)
    data, shards = _encode_all(code, length, payload_seed)
    group = int(np.random.default_rng(pattern_seed).integers(0, l))
    erased = set(code.groups[group]) | {code.k + group}
    erased |= {k + l + j for j in range(g)}
    if len(erased - {code.k + group}) <= g:
        return  # tiny group: still within the global reach, decodable
    survivors = {i: s for i, s in shards.items() if i not in erased}
    with pytest.raises(UnrecoverableErasureError):
        code.plan_decode(sorted(erased))
    with pytest.raises(UnrecoverableErasureError):
        code.decode(survivors, length)
    # and Reed-Solomon raises the very same type beyond its reach
    rs = ReedSolomon(k, g)
    rs_shards = {i: s for i, s in enumerate(data)}
    rs_shards.update({k + j: p for j, p in enumerate(rs.encode(data))})
    rs_survivors = dict(sorted(rs_shards.items())[: k - 1])
    with pytest.raises(UnrecoverableErasureError):
        rs.decode(rs_survivors, length)


def test_parameter_validation():
    with pytest.raises(ValueError):
        LocalReconstructionCode(1, 1, 1)
    with pytest.raises(ValueError):
        LocalReconstructionCode(4, 5, 1)
    with pytest.raises(ValueError):
        LocalReconstructionCode(4, 2, 0)


def test_decode_one_prefers_local_sources():
    """decode_one touches only the group when the group scope survives."""
    code = LocalReconstructionCode(6, 2, 2)
    rng = np.random.default_rng(7)
    data = [rng.integers(0, 256, size=32, dtype=np.uint8) for _ in range(6)]
    parities = code.encode(data)
    lost = 1
    scope = set(code.groups[0]) | {code.k}
    survivors = {i: data[i] for i in code.groups[0] if i != lost}
    survivors[code.k] = parities[0]
    assert set(survivors) == scope - {lost}
    assert np.array_equal(code.decode_one(lost, survivors, 32), data[lost])


# -- single-shard decode (``decode_one``) against a full Gaussian decode ------


def _reference_decode(code, shards, length):
    """Every data shard by one k x k inversion and a full matrix product —
    the decode the codes ran before ``decode_one`` took one cached row."""
    chosen = code._independent_rows(sorted(shards))
    inverse = GF.mat_inv(code.encode_matrix[chosen, :])
    recovered = np.zeros((code.k, length), dtype=np.uint8)
    for col, source in enumerate(chosen):
        block = np.asarray(shards[source], dtype=np.uint8)[:length]
        recovered ^= GF.mul_table[inverse[:, col][:, None], block[None, :]]
    return list(recovered)


def _all_shards(code, length, seed):
    rng = np.random.default_rng(seed)
    data = [rng.integers(0, 256, size=length, dtype=np.uint8) for _ in range(code.k)]
    return data + code.encode(data)


@pytest.mark.parametrize(
    "code",
    [ReedSolomon(5, 3), ReedSolomon(3, 2), LocalReconstructionCode(5, 2, 1),
     LocalReconstructionCode(6, 2, 2), LocalReconstructionCode(4, 1, 2)],
    ids=["rs5+3", "rs3+2", "lrc5.2.1", "lrc6.2.2", "lrc4.1.2"],
)
def test_decode_one_equals_full_decode_on_every_pattern(code):
    """Exhaustive over erasure patterns: wherever the full decode succeeds,
    ``decode_one`` returns the same bytes for every shard of the code (data
    through the inverse row, parity through encode-row x inverse, LRC
    shards locally when their group survives); wherever it cannot, both
    raise the typed error."""
    length = 48
    everything = _all_shards(code, length, seed=code.k * 31 + code.m)
    total = code.k + code.m
    decodable = beyond = 0
    for lost in range(1, code.m + 2):
        for erased in itertools.combinations(range(total), lost):
            survivors = {i: everything[i] for i in range(total) if i not in erased}
            try:
                expected = _reference_decode(code, survivors, length)
            except UnrecoverableErasureError:
                beyond += 1
                with pytest.raises(UnrecoverableErasureError):
                    code.decode(survivors, length)
                for index in erased:
                    scope = getattr(code, "_group_scope", lambda _i: None)(index)
                    if scope is None or scope & set(erased) != {index}:
                        with pytest.raises(UnrecoverableErasureError):
                            code.decode_one(index, survivors, length)
                continue
            decodable += 1
            decoded = code.decode(survivors, length)
            for index in range(code.k):
                assert np.array_equal(expected[index], everything[index])
                assert np.array_equal(decoded[index], expected[index])
            for index in range(total):
                one = code.decode_one(index, survivors, length)
                assert np.array_equal(one, everything[index]), (erased, index)
    assert decodable and beyond


def test_lrc_decode_one_takes_local_and_global_paths():
    code = LocalReconstructionCode(6, 2, 2)
    length = 40
    everything = _all_shards(code, length, seed=11)
    full = dict(enumerate(everything))
    # sole loss in its group scope: local XOR, and no Gaussian plan is made
    survivors = {i: s for i, s in full.items() if i != 1}
    assert np.array_equal(code.decode_one(1, survivors, length), everything[1])
    assert not code._decode_plans
    # two losses in one group: the same call now needs the global row
    survivors = {i: s for i, s in full.items() if i not in (1, 2)}
    assert np.array_equal(code.decode_one(1, survivors, length), everything[1])
    assert list(code._decode_plans) == [tuple(sorted(survivors))]
    # a global parity has no local scope at all
    survivors = {i: s for i, s in full.items() if i != code.k + code.l}
    rebuilt = code.decode_one(code.k + code.l, survivors, length)
    assert np.array_equal(rebuilt, everything[code.k + code.l])


@pytest.mark.parametrize(
    "code", [ReedSolomon(5, 3), LocalReconstructionCode(6, 2, 2)], ids=["rs", "lrc"]
)
@given(order_seed=st.integers(0, 1 << 32))
@settings(max_examples=30, deadline=None)
def test_decode_plan_is_cached_per_survivor_set_not_dict_order(code, order_seed):
    length = 16
    everything = _all_shards(code, length, seed=3)
    survivors = {i: everything[i] for i in range(code.k + code.m) if i not in (0, 1)}
    first = code._decode_plan(survivors)
    keys = list(survivors)
    np.random.default_rng(order_seed).shuffle(keys)
    shuffled = {i: survivors[i] for i in keys}
    assert code._decode_plan(shuffled) is first  # one elimination per pattern
    assert np.array_equal(code.decode_one(0, shuffled, length), everything[0])
    assert np.array_equal(code.decode_one(1, shuffled, length), everything[1])
