"""Tests for RAID geometry, write-mode classification and planning, and
stripe locks."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.raid import (
    RaidGeometry,
    RaidLevel,
    StripeLockManager,
    WriteMode,
    classify_write,
)
from repro.draid import EcGeometry
from repro.baselines.array import RaidArray
from repro.raid.layout import DeclusteredLayout
from repro.raid.modes import plan_write, split_segments
from repro.sim import Environment
from tests import geometry_oracle as oracle

# CI's perf-smoke job re-runs the oracle property with
# HYPOTHESIS_PROFILE=geometry-ci: same examples every time, and a budget
# tier-1 could not afford.
settings.register_profile(
    "geometry-ci", max_examples=3000, derandomize=True, deadline=None
)
if os.environ.get("HYPOTHESIS_PROFILE") == "geometry-ci":
    settings.load_profile("geometry-ci")

KB = 1024
CHUNK = 512 * KB


def paper_geometry(level=RaidLevel.RAID5, drives=8, chunk=CHUNK):
    return RaidGeometry(level, drives, chunk)


class TestPlacement:
    def test_raid5_parity_rotates_left_symmetric(self):
        g = paper_geometry()
        assert [g.parity_drives(s)[0] for s in range(8)] == [7, 6, 5, 4, 3, 2, 1, 0]
        assert g.parity_drives(8) == (7,)

    def test_raid6_q_follows_p(self):
        g = paper_geometry(RaidLevel.RAID6)
        assert g.parity_drives(0) == (7, 0)
        assert g.parity_drives(7) == (0, 1)

    def test_data_drives_disjoint_from_parity(self):
        for level in RaidLevel:
            g = paper_geometry(level)
            for stripe in range(20):
                parity = set(g.parity_drives(stripe))
                data = {g.data_drive(stripe, d) for d in range(g.data_per_stripe)}
                assert not (parity & data)
                assert len(data) == g.data_per_stripe
                assert parity | data == set(range(8))

    def test_parity_evenly_distributed(self):
        """§6: 'parity chunks are evenly distributed among all member drives'."""
        g = paper_geometry(RaidLevel.RAID6, drives=6)
        counts = {d: 0 for d in range(6)}
        for stripe in range(60):
            for p in g.parity_drives(stripe):
                counts[p] += 1
        assert set(counts.values()) == {20}

    def test_data_index_inverse(self):
        g = paper_geometry()
        for stripe in range(10):
            for d in range(g.data_per_stripe):
                drive = g.data_drive(stripe, d)
                assert g.data_index_of_drive(stripe, drive) == d

    def test_data_index_of_parity_drive_rejected(self):
        g = paper_geometry()
        with pytest.raises(ValueError):
            g.data_index_of_drive(0, g.parity_drives(0)[0])

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            RaidGeometry(RaidLevel.RAID5, 2, CHUNK)
        with pytest.raises(ValueError):
            RaidGeometry(RaidLevel.RAID6, 3, CHUNK)
        with pytest.raises(ValueError):
            RaidGeometry(RaidLevel.RAID5, 4, 1000)  # not 4 KiB aligned


class TestExtentMapping:
    def test_single_chunk_io(self):
        g = paper_geometry()
        extents = g.map_extent(0, 128 * KB)
        assert len(extents) == 1
        (seg,) = extents[0].segments
        assert seg.data_index == 0
        assert seg.chunk_offset == 0
        assert seg.length == 128 * KB
        assert seg.drive == g.data_drive(0, 0)

    def test_io_spanning_two_chunks(self):
        g = paper_geometry()
        extents = g.map_extent(CHUNK - 4 * KB, 8 * KB)
        (ext,) = extents
        assert [s.data_index for s in ext.segments] == [0, 1]
        assert ext.segments[0].length == 4 * KB
        assert ext.segments[1].length == 4 * KB
        assert ext.segments[1].chunk_offset == 0

    def test_io_spanning_two_stripes(self):
        g = paper_geometry()
        stripe_bytes = g.stripe_data_bytes
        extents = g.map_extent(stripe_bytes - 64 * KB, 128 * KB)
        assert [e.stripe for e in extents] == [0, 1]
        assert extents[0].touched_bytes == 64 * KB
        assert extents[1].touched_bytes == 64 * KB

    def test_io_offsets_cover_buffer(self):
        g = paper_geometry()
        extents = g.map_extent(300 * KB, 2000 * KB)
        covered = sorted(
            (s.io_offset, s.io_offset + s.length)
            for e in extents
            for s in e.segments
        )
        assert covered[0][0] == 0
        assert covered[-1][1] == 2000 * KB
        for (_, end), (start, _) in zip(covered, covered[1:]):
            assert end == start

    def test_parity_span_union(self):
        g = paper_geometry()
        # touch tail of chunk 0 and head of chunk 1: span is the union
        (ext,) = g.map_extent(CHUNK - 4 * KB, 8 * KB)
        off, length = ext.parity_span()
        assert off == 0
        assert length == CHUNK  # union of [508K,512K) and [0,4K) spans whole chunk

    def test_drive_offset_accounts_stripe(self):
        g = paper_geometry()
        (ext,) = g.map_extent(g.stripe_data_bytes * 3 + 10 * 4096, 4096)
        (seg,) = ext.segments
        assert seg.drive_offset == 3 * CHUNK + 10 * 4096
        assert ext.parity_offset == 3 * CHUNK

    def test_invalid_extent(self):
        g = paper_geometry()
        with pytest.raises(ValueError):
            g.map_extent(-1, 10)
        with pytest.raises(ValueError):
            g.map_extent(0, 0)

    @given(
        offset=st.integers(0, 50 * 1024 * 1024),
        length=st.integers(1, 8 * 1024 * 1024),
        drives=st.integers(4, 18),
        level=st.sampled_from(list(RaidLevel)),
    )
    @settings(max_examples=60, deadline=None)
    def test_mapping_is_a_partition(self, offset, length, drives, level):
        """Every user byte maps to exactly one (drive, offset) location."""
        g = RaidGeometry(level, drives, 64 * KB)
        extents = g.map_extent(offset, length)
        total = sum(e.touched_bytes for e in extents)
        assert total == length
        seen = set()
        for e in extents:
            for s in e.segments:
                key = (s.drive, s.drive_offset)
                assert key not in seen
                seen.add(key)
                assert 0 < s.length <= g.chunk_bytes
                assert s.drive_offset == e.stripe * g.chunk_bytes + s.chunk_offset


class TestWriteModes:
    def test_paper_boundaries_raid5(self):
        """§9.3: <1536 KiB RMW; 1536–3584 RCW; 3584 full stripe (8 drives)."""
        g = paper_geometry()
        (small,) = g.map_extent(0, 128 * KB)
        assert classify_write(g, small) == WriteMode.READ_MODIFY_WRITE
        (below,) = g.map_extent(0, 1536 * KB - 4 * KB)
        assert classify_write(g, below) == WriteMode.READ_MODIFY_WRITE
        (mid,) = g.map_extent(0, 1536 * KB)
        assert classify_write(g, mid) == WriteMode.RECONSTRUCT_WRITE
        (big,) = g.map_extent(0, 2048 * KB)
        assert classify_write(g, big) == WriteMode.RECONSTRUCT_WRITE
        (full,) = g.map_extent(0, 3584 * KB)
        assert classify_write(g, full) == WriteMode.FULL_STRIPE

    def test_raid6_boundaries(self):
        g = paper_geometry(RaidLevel.RAID6)
        (small,) = g.map_extent(0, 512 * KB)
        assert classify_write(g, small) == WriteMode.READ_MODIFY_WRITE
        (mid,) = g.map_extent(0, 2048 * KB)
        assert classify_write(g, mid) == WriteMode.RECONSTRUCT_WRITE
        (full,) = g.map_extent(0, 3072 * KB)
        assert classify_write(g, full) == WriteMode.FULL_STRIPE

    @given(
        offset=st.integers(0, 20 * 1024 * 1024),
        length=st.integers(4096, 4 * 1024 * 1024),
    )
    @settings(max_examples=40, deadline=None)
    def test_full_stripe_iff_whole_stripe_touched(self, offset, length):
        g = paper_geometry()
        for ext in g.map_extent(offset, length):
            mode = classify_write(g, ext)
            if ext.touched_bytes == g.stripe_data_bytes:
                assert mode == WriteMode.FULL_STRIPE
            else:
                assert mode != WriteMode.FULL_STRIPE

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_plan_write_is_classify_write_made_failure_aware(self, data):
        """RAID-5/6 and RS geometries, rotating and declustered, any extent,
        any failed set within tolerance: ``plan_write`` is degraded exactly
        when a touched member failed, region-scoped exactly when the one
        segment is the only failed data member, never RCW over a failed data
        member, and ``classify_write`` whenever no data member failed."""
        num_parity = data.draw(st.integers(1, 3), label="num_parity")
        drives = data.draw(st.integers(num_parity + 3, 12), label="drives")
        layout = None
        if data.draw(st.booleans(), label="declustered"):
            layout = DeclusteredLayout(
                drives, num_parity,
                stripe_width=data.draw(st.integers(num_parity + 1, drives)),
                seed=data.draw(st.integers(0, 99)),
            )
        if num_parity < 3 and data.draw(st.booleans(), label="raid level"):
            level = RaidLevel.RAID5 if num_parity == 1 else RaidLevel.RAID6
            g = RaidGeometry(level, drives, 16 * KB, layout)
        else:
            g = EcGeometry(drives, 16 * KB, num_parity, layout)
        offset = data.draw(st.integers(0, 4 * g.stripe_data_bytes - 1), label="offset")
        length = data.draw(
            st.integers(1, 16 * KB) | st.integers(1, 2 * g.stripe_data_bytes),
            label="length",
        )
        ext = data.draw(st.sampled_from(g.map_extent(offset, length)), label="extent")
        touched = {s.drive for s in ext.segments}
        # touched members drawn about as often as all the others together
        members = list(g.stripe_drives(ext.stripe))
        pool = members + sorted(touched) * len(members)
        failed = set(data.draw(
            st.lists(st.sampled_from(pool), max_size=num_parity, unique=True),
            label="failed",
        ))
        plan = plan_write(g, ext, failed)

        failed_data = failed - set(ext.parity_drives)
        degraded_modes = (WriteMode.DEGRADED_REGION, WriteMode.DEGRADED_STRIPE)
        assert (plan.mode in degraded_modes) == bool(failed & touched)
        assert (plan.mode is WriteMode.DEGRADED_REGION) == (
            len(ext.segments) == 1 and failed_data == touched
        )
        assert not (plan.mode is WriteMode.RECONSTRUCT_WRITE and failed_data)
        if not failed_data:
            assert plan.mode is classify_write(g, ext)
        assert plan.parities == tuple(
            (row, p) for row, p in enumerate(ext.parity_drives) if p not in failed
        )
        assert plan.lost == tuple(s for s in ext.segments if s.drive in failed)
        assert plan.degraded == bool(failed_data)


class _Members:
    """The frame's failure bookkeeping alone: ``failed_in_stripe`` over a
    failed set and its rebuilt-stripe records."""

    failed_in_stripe = RaidArray.failed_in_stripe
    drive_failed = RaidArray.drive_failed

    def __init__(self, geometry, failed, rebuilt):
        self.geometry = geometry
        self.failed = failed
        self.rebuilt_stripes = rebuilt


@st.composite
def oracle_cases(draw):
    """A geometry (RAID-5/6 or RS, rotating or declustered with spares), an
    extent (sub-chunk, multi-chunk, multi-stripe, exactly one stripe or at
    the RMW/RCW tie) and failure bookkeeping (any drives, members of a stripe or not, some
    healed by a rebuilt-stripe record, some of them contiguous)."""
    num_parity = draw(st.integers(1, 3), label="num_parity")
    drives = draw(st.integers(num_parity + 3, 12), label="drives")
    layout = None
    if draw(st.booleans(), label="declustered"):
        layout = DeclusteredLayout(
            drives, num_parity,
            stripe_width=draw(st.integers(num_parity + 2, drives), label="width"),
            seed=draw(st.integers(0, 99), label="seed"),
        )
    chunk = draw(st.sampled_from([4 * KB, 16 * KB]), label="chunk")
    if num_parity < 3 and draw(st.booleans(), label="raid level"):
        level = RaidLevel.RAID5 if num_parity == 1 else RaidLevel.RAID6
        g = RaidGeometry(level, drives, chunk, layout)
    else:
        g = EcGeometry(drives, chunk, num_parity, layout)
    stripe_bytes = g.stripe_data_bytes
    offset = draw(
        st.integers(0, 6 * stripe_bytes - 1)
        | st.integers(0, 5).map(lambda s: s * stripe_bytes)
        | st.integers(0, 6 * g.data_per_stripe).map(lambda c: c * chunk),
        label="offset",
    )
    # RMW and RCW read equal bytes at the tie, which goes to RCW
    tie = (stripe_bytes - g.num_parity * chunk) // 2
    length = draw(
        st.integers(1, chunk)
        | st.integers(chunk, 3 * chunk)
        | st.integers(1, 3 * stripe_bytes)
        | st.just(stripe_bytes)
        | st.sampled_from([tie - 512, tie, tie + 512]).filter(lambda n: n > 0),
        label="length",
    )
    failed = set(draw(
        st.lists(st.integers(0, drives - 1), max_size=num_parity + 1, unique=True),
        label="failed",
    ))
    rebuilt = {}
    for d in sorted(failed):
        heal = draw(st.sampled_from(["none", "prefix", "any"]), label="heal")
        if heal == "prefix":
            # a sequential sweep's record: every stripe below a point
            rebuilt[d] = set(range(draw(st.integers(0, 8), label="swept")))
        elif heal == "any":
            rebuilt[d] = set(draw(st.lists(st.integers(0, 8)), label="rebuilt"))
    return g, offset, length, _Members(g, failed, rebuilt)


@given(oracle_cases())
@settings(deadline=None)
def test_oracle_map_extent_and_plan_write(case):
    """The one-pass records and plans equal the per-segment dataclass
    oracle's, field by field, on every stripe the extent touches."""
    g, offset, length, members = case
    new = g.map_extent(offset, length)
    old = oracle.map_extent(g, offset, length)
    assert len(new) == len(old)
    for ext, ref in zip(new, old):
        assert ext.stripe == ref.stripe
        assert ext.parity_drives == ref.parity_drives
        assert ext.parity_offset == ref.parity_offset
        assert ext.touched_bytes == ref.touched_bytes
        assert ext.parity_span() == ref.parity_span()
        assert len(ext.segments) == len(ref.segments)
        for seg, want in zip(ext.segments, ref.segments):
            for name in ("data_index", "drive", "drive_offset", "chunk_offset",
                         "length", "io_offset", "chunk_end"):
                assert getattr(seg, name) == getattr(want, name), name

        failed = members.failed_in_stripe(ext.stripe)
        assert failed == oracle.failed_in_stripe(
            g, members.failed, members.rebuilt_stripes, ext.stripe,
        )
        plan = plan_write(g, ext, failed)
        ref_plan = oracle.plan_write(g, ref, failed)
        assert plan.mode is ref_plan.mode
        assert plan.parities == ref_plan.parities
        assert plan.degraded == ref_plan.degraded
        assert [s.io_offset for s in plan.lost] == [s.io_offset for s in ref_plan.lost]
        assert plan.failed == failed
        assert plan.data_drives == tuple(
            g.data_drive(ext.stripe, d) for d in range(g.data_per_stripe)
        )
        healthy, lost = split_segments(ext, failed)
        assert [s.io_offset for s in healthy] == [
            s.io_offset for s in ref.segments if s.drive not in failed
        ]
        assert lost == plan.lost


class TestStripeLocks:
    def test_exclusive_fifo(self):
        env = Environment()
        locks = StripeLockManager(env)
        order = []

        def worker(tag, hold_ns):
            yield locks.acquire(7)
            order.append((tag, env.now))
            yield env.timeout(hold_ns)
            locks.release(7)

        env.process(worker("a", 100))
        env.process(worker("b", 50))
        env.process(worker("c", 10))
        env.run()
        assert order == [("a", 0), ("b", 100), ("c", 150)]
        assert locks.contended_acquires == 2

    def test_different_stripes_independent(self):
        env = Environment()
        locks = StripeLockManager(env)
        times = []

        def worker(stripe):
            yield locks.acquire(stripe)
            yield env.timeout(10)
            times.append(env.now)
            locks.release(stripe)

        env.process(worker(1))
        env.process(worker(2))
        env.run()
        assert times == [10, 10]

    def test_release_unheld_raises(self):
        env = Environment()
        locks = StripeLockManager(env)
        with pytest.raises(RuntimeError):
            locks.release(3)

    def test_lock_state_cleanup(self):
        env = Environment()
        locks = StripeLockManager(env)

        def worker():
            yield locks.acquire(5)
            locks.release(5)

        env.run(until=env.process(worker()))
        assert not locks.held(5)
        assert locks.queue_length(5) == 0
