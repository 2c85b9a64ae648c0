"""Property suite for the pluggable stripe layouts (design-space axis 1).

Hypothesis drives every registered layout across (drives, parity,
stripe width, seed, chunk size) and asserts the invariants the datapath
relies on:

* **address-map bijection** — ``data_drive`` and ``data_index_of_drive``
  are exact inverses, every (stripe, role) lands on exactly one member,
  and distinct logical chunks never share a physical (drive, stripe)
  slot;
* **no co-located chunks** — a stripe never places two of its chunks on
  the same drive, and spare capacity is disjoint from the member set;
* **balance within the declustering bound** — over any window of
  stripes each drive's member/parity/spare load is within the slot
  count of every other drive's, and over a full ``num_drives`` period
  placement is perfectly even;
* **role-preserving spare remap** — after ``remap_to_spare`` the spare
  answers exactly the failed member's placement queries and the stripe
  is still duplicate-free;
* **tables equal the closed forms** — the per-residue placement tables
  both layouts index answer every query exactly as the formulas they were
  built from, at any stripe, remapped stripes included.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.draid.ec_array import EcGeometry
from repro.raid.layout import (
    LAYOUTS,
    DeclusteredLayout,
    Layout,
    RotatingLayout,
    make_layout,
)

KB = 1024


@st.composite
def layout_cases(draw, names=tuple(sorted(LAYOUTS))):
    """(layout instance, num_drives, num_parity) for a registered layout."""
    name = draw(st.sampled_from(names))
    num_parity = draw(st.integers(min_value=1, max_value=3))
    num_drives = draw(st.integers(min_value=num_parity + 2, max_value=12))
    if name == "declustered":
        width = draw(
            st.integers(min_value=num_parity + 1, max_value=num_drives - 1)
        )
        seed = draw(st.integers(min_value=0, max_value=1 << 16))
        layout = make_layout(
            name, num_drives, num_parity, stripe_width=width, seed=seed
        )
    else:
        layout = make_layout(name, num_drives, num_parity)
    return layout, num_drives, num_parity


@given(case=layout_cases(), stripes=st.integers(min_value=1, max_value=48))
@settings(max_examples=200, deadline=None)
def test_address_map_bijection(case, stripes):
    layout, n, p = case
    w = layout.stripe_width
    k = layout.data_per_stripe
    assert k == w - p >= 1
    placements = set()
    for s in range(stripes):
        members = layout.stripe_drives(s)
        parity = layout.parity_drives(s)
        assert members[:p] == parity
        for j, drive in enumerate(members):
            assert 0 <= drive < n
            placements.add((s, j, drive))
        for i in range(k):
            drive = layout.data_drive(s, i)
            assert drive == members[p + i]
            assert layout.data_index_of_drive(s, drive) == i
        for drive in parity:
            with pytest.raises(ValueError):
                layout.data_index_of_drive(s, drive)
        for drive in set(range(n)) - set(members):
            with pytest.raises(ValueError):
                layout.data_index_of_drive(s, drive)
    # every (stripe, slot) maps to exactly one drive: full cardinality
    assert len(placements) == stripes * w


@given(case=layout_cases(), stripes=st.integers(min_value=1, max_value=48))
@settings(max_examples=200, deadline=None)
def test_no_stripe_colocates_chunks(case, stripes):
    layout, n, _ = case
    for s in range(stripes):
        members = layout.stripe_drives(s)
        assert len(set(members)) == layout.stripe_width
        spares = layout.spare_drives(s)
        assert len(set(spares)) == len(spares)
        assert not set(spares) & set(members)
        assert len(members) + len(spares) <= n


@given(case=layout_cases(), periods=st.integers(min_value=1, max_value=4),
       extra=st.integers(min_value=0, max_value=11))
@settings(max_examples=200, deadline=None)
def test_balance_within_declustering_bound(case, periods, extra):
    layout, n, p = case
    w = layout.stripe_width
    stripes = periods * n + min(extra, n - 1)
    member_load = {d: 0 for d in range(n)}
    parity_load = {d: 0 for d in range(n)}
    spare_load = {d: 0 for d in range(n)}
    for s in range(stripes):
        for d in layout.stripe_drives(s):
            member_load[d] += 1
        for d in layout.parity_drives(s):
            parity_load[d] += 1
        for d in layout.spare_drives(s):
            spare_load[d] += 1
    # over any window, per-drive load spread is bounded by the slot count
    # of the role (each drive holds a given window slot once per period)
    for load, slots in (
        (member_load, w),
        (parity_load, p),
        (spare_load, n - w),
    ):
        counts = sorted(load.values())
        assert counts[-1] - counts[0] <= slots
    if stripes % n == 0 and layout.name == "declustered":
        # full periods: the coprime stride makes placement perfectly even
        for load, slots in (
            (member_load, w),
            (parity_load, p),
            (spare_load, n - w),
        ):
            assert set(load.values()) == {stripes * slots // n}


@given(case=layout_cases(), chunk=st.sampled_from((4 * KB, 16 * KB, 128 * KB)),
       stripes=st.integers(min_value=1, max_value=24))
@settings(max_examples=200, deadline=None)
def test_geometry_address_map_uses_layout(case, chunk, stripes):
    """EcGeometry over any layout: logical chunk -> unique physical slot."""
    layout, n, p = case
    g = EcGeometry(n, chunk, p, layout=layout)
    assert g.data_per_stripe == layout.data_per_stripe
    assert g.stripe_data_bytes == layout.data_per_stripe * chunk
    physical = set()
    for offset in range(0, stripes * g.stripe_data_bytes, chunk):
        stripe = offset // g.stripe_data_bytes
        index = (offset % g.stripe_data_bytes) // chunk
        drive = g.data_drive(stripe, index)
        assert g.data_index_of_drive(stripe, drive) == index
        physical.add((drive, stripe * chunk))
    assert len(physical) == stripes * g.data_per_stripe


@given(
    num_parity=st.integers(min_value=1, max_value=3),
    num_drives=st.integers(min_value=4, max_value=16),
    stripes=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=200, deadline=None)
def test_rotating_matches_legacy_formula(num_parity, num_drives, stripes):
    """The default layout IS the historical hard-coded rotation."""
    if num_drives <= num_parity:
        num_drives = num_parity + 2
    layout = RotatingLayout(num_drives, num_parity)
    n = num_drives
    for s in range(stripes):
        first = (n - 1) - (s % n)
        expect = tuple((first + j) % n for j in range(num_parity))
        assert layout.parity_drives(s) == expect
        anchor = expect[-1]
        for i in range(layout.data_per_stripe):
            assert layout.data_drive(s, i) == (anchor + 1 + i) % n
        assert layout.spare_drives(s) == ()


@given(
    num_parity=st.integers(min_value=1, max_value=3),
    num_drives=st.integers(min_value=5, max_value=12),
    seed=st.integers(min_value=0, max_value=1 << 16),
    stripe=st.integers(min_value=0, max_value=63),
    victim_slot=st.integers(min_value=0, max_value=63),
)
@settings(max_examples=200, deadline=None)
def test_remap_to_spare_preserves_roles(
    num_parity, num_drives, seed, stripe, victim_slot
):
    layout = DeclusteredLayout(num_drives, num_parity, seed=seed)
    w = layout.stripe_width
    before = layout.stripe_drives(stripe)
    spares_before = layout.spare_drives(stripe)
    slot = victim_slot % w
    failed = before[slot]
    spare = layout.remap_to_spare(stripe, failed)
    assert spare in spares_before
    after = layout.stripe_drives(stripe)
    assert len(set(after)) == w
    assert failed not in after
    assert after[slot] == spare
    assert all(a == b for i, (a, b) in enumerate(zip(after, before)) if i != slot)
    assert spare not in layout.spare_drives(stripe)
    if slot >= num_parity:
        assert layout.data_drive(stripe, slot - num_parity) == spare
        assert layout.data_index_of_drive(stripe, spare) == slot - num_parity
    else:
        assert layout.parity_drives(stripe)[slot] == spare
    # other stripes are untouched unless they shared the (stripe, drive) key
    other = stripe + 1
    assert failed in layout.stripe_drives(other) or failed not in (
        layout._window(other)[:w]
    )


@given(
    case=layout_cases(),
    stripes=st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=8),
    remap_slots=st.lists(st.integers(min_value=0, max_value=63), max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_table_lookups_equal_the_closed_forms(case, stripes, remap_slots):
    layout, n, p = case
    w = layout.stripe_width
    remapped = {}  # (stripe, slot) -> spare, applied on top of the formula
    if layout.name == "declustered":
        for stripe, slot in zip(stripes, remap_slots):
            if layout.spare_drives(stripe):
                failed = layout.stripe_drives(stripe)[slot % w]
                remapped[stripe, slot % w] = layout.remap_to_spare(stripe, failed)
    for s in stripes + [s + n for s in stripes]:
        if layout.name == "rotating":
            first = (n - 1) - (s % n)
            parity = tuple((first + j) % n for j in range(p))
            expect = parity + tuple((parity[-1] + 1 + i) % n for i in range(n - p))
        else:
            base = (s * layout.stride) % n
            window = tuple(layout.perm[(base + j) % n] for j in range(n))
            assert layout._window(s) == window
            expect = tuple(
                remapped.get((s, slot), drive) for slot, drive in enumerate(window[:w])
            )
        assert layout.stripe_drives(s) == expect
        assert layout.parity_drives(s) == expect[:p]
        assert layout.data_drives(s) == expect[p:]
        assert [layout.data_drive(s, i) for i in range(w - p)] == list(expect[p:])
        assert Layout.data_drives(layout, s) == expect[p:]  # the generic default


def test_stride_is_coprime_and_perm_is_permutation():
    for seed in range(32):
        layout = DeclusteredLayout(9, 2, seed=seed)
        assert sorted(layout.perm) == list(range(9))
        assert math.gcd(layout.stride, 9) == 1


def test_make_layout_rejects_unknown():
    with pytest.raises(ValueError):
        make_layout("prime-time", 8, 2)
