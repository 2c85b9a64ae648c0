"""End-to-end data integrity: checksums, corruption primitives, read-repair
and the online scrub daemon.

Covers the full chain the integrity subsystem promises:

* CRC-32C against the published check value, and the vectorised kernel
  against the byte-serial oracle (``tests/crc32c_oracle.py``) over
  lengths, input types, chaining split points and batches;
* ``verify_members`` against the per-member ``chunk_ok`` loop it replaced;
* :class:`IntegrityStore` bookkeeping in eager and lazy modes;
* the four :meth:`NvmeDrive.corrupt` fault classes, poison-extent
  hygiene, and the ``heal()`` / ``repair()`` distinction;
* foreground read-repair and pre-write stripe verification on all three
  controllers;
* :class:`ScrubDaemon` passes, pacing and reports;
* regression scenarios: corrupt -> fail -> heal -> scrub clean, and a
  torn stripe that is both bitmap-dirty and checksum-bad being repaired
  exactly once.
"""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.mdraid import MdRaid
from repro.baselines.spdkraid import SpdkRaid
from repro.draid import DraidArray
from repro.raid.resync import resync_after_crash
from repro.raid.scrub import ScrubReport, scrub_array
from repro.raid.scrubber import ScrubDaemon
from repro.sim import Environment
from repro.storage.drive import NvmeDrive
from repro.storage.integrity import (
    ChecksumError,
    IntegrityStore,
    crc32c,
    crc32c_many,
)
from repro.storage.profiles import DELL_AGN_MU

from tests.crc32c_oracle import crc32c_reference
from tests.raid_harness import ArrayHarness, TEST_CHUNK

CONTROLLERS = [MdRaid, SpdkRaid, DraidArray]
CONTROLLER_IDS = ["md", "spdk", "draid"]


def armed_harness(controller_cls, eager=False, **kwargs):
    """An ArrayHarness with the cluster's IntegrityStore armed."""
    h = ArrayHarness(controller_cls, **kwargs)
    store = IntegrityStore(h.geometry.chunk_bytes, eager=eager)
    store.attach(h.cluster)
    return h, store


class TestCrc32c:
    def test_published_check_value(self):
        # the CRC-32C check value from RFC 3720 / the Castagnoli papers
        assert crc32c(b"123456789") == 0xE3069283

    def test_empty_is_zero(self):
        assert crc32c(b"") == 0

    def test_ndarray_matches_bytes(self):
        blob = bytes(range(256)) * 5
        arr = np.frombuffer(blob, dtype=np.uint8)
        assert crc32c(arr) == crc32c(blob)

    def test_incremental_chaining(self):
        assert crc32c(b"6789", crc32c(b"12345")) == crc32c(b"123456789")


def _payload(seed: int, length: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 256, length, dtype=np.uint8)


#: lengths around every boundary of the kernel: the 64-byte block, the
#: 16-block fold groups (1 KiB, 16 KiB, 256 KiB) and non-multiples of 8
EDGE_LENGTHS = sorted(
    {n + d for n in (0, 8, 64, 1024, 4096, 16384, 65536) for d in (-1, 0, 1, 3)}
    - {-1}
)


class TestCrc32cDifferential:
    """The block-parallel kernel equals the byte-serial oracle."""

    @pytest.mark.parametrize("length", EDGE_LENGTHS + [70_000, 262_144 + 65])
    def test_boundary_lengths(self, length):
        data = _payload(length, length)
        assert crc32c(data) == crc32c_reference(data)

    @given(length=st.integers(0, 70_000), seed=st.integers(0, 1 << 32))
    @settings(max_examples=60, deadline=None)
    def test_any_length(self, length, seed):
        data = _payload(seed, length)
        assert crc32c(data) == crc32c_reference(data)

    @given(length=st.integers(0, 5_000), seed=st.integers(0, 1 << 32))
    @settings(max_examples=60, deadline=None)
    def test_every_input_type(self, length, seed):
        data = _payload(seed, length)
        blob = data.tobytes()
        expected = crc32c_reference(blob)
        assert crc32c(blob) == expected
        assert crc32c(bytearray(blob)) == expected
        assert crc32c(memoryview(blob)) == expected
        assert crc32c(list(blob)) == expected
        # a strided view and an offset slice of a larger array
        wide = np.zeros((length, 3), dtype=np.uint8)
        wide[:, 1] = data
        assert crc32c(wide[:, 1]) == expected
        padded = np.concatenate([_payload(seed + 1, 7), data, _payload(seed + 2, 5)])
        assert crc32c(padded[7 : 7 + length]) == expected

    def test_wider_dtypes_hash_their_bytes(self):
        words = np.arange(1000, dtype=np.uint32) * 2654435761
        assert crc32c(words) == crc32c_reference(words.tobytes())
        assert crc32c(words[::3]) == crc32c_reference(words[::3].tobytes())

    @given(length=st.integers(0, 20_000), seed=st.integers(0, 1 << 32),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_chaining_at_any_split(self, length, seed, data):
        payload = _payload(seed, length)
        split = data.draw(st.integers(0, length))
        head, tail = payload[:split], payload[split:]
        assert crc32c(tail, crc32c(head)) == crc32c_reference(payload)
        assert crc32c(tail, crc32c(head)) == crc32c_reference(
            tail, crc32c_reference(head)
        )

    @given(rows=st.integers(1, 9), length=st.integers(0, 9_000),
           seed=st.integers(0, 1 << 32))
    @settings(max_examples=60, deadline=None)
    def test_many_matches_one_at_a_time(self, rows, length, seed):
        blocks = _payload(seed, rows * length).reshape(rows, length)
        assert crc32c_many(blocks).tolist() == [crc32c(row) for row in blocks]
        # a column window: rows that are not contiguous in memory
        window = blocks[:, length // 3 :]
        assert crc32c_many(window).tolist() == [
            crc32c_reference(row) for row in window
        ]


_IMPORT_PROBE = """
import time
import numpy as np
import repro.storage.integrity as loaded
code = compile(open(loaded.__file__).read(), loaded.__file__, "exec")
module = {"__name__": loaded.__name__}
started = time.perf_counter()
exec(code, module)
print("body_ms", (time.perf_counter() - started) * 1e3)
for size in (4096, 32768, 524288):
    module["crc32c"](np.zeros(size, dtype=np.uint8))
tables = []
for value in module.values():
    for item in value if isinstance(value, list) else [value]:
        if isinstance(item, np.ndarray):
            tables.append(item)
print("table_bytes", sum(t.nbytes for t in tables))
"""


def test_import_cost_and_table_footprint():
    """The module body (every eager table) runs in under 5 ms, and the
    tables resident after CRC-ing 4 KiB, 32 KiB and 512 KiB chunks total
    under 1 MiB: they are keyed by power-of-two distance and by fold
    level, so they grow with log(length), never with data volume."""
    # the body is compiled first and run in a fresh namespace once its
    # imports are loaded, so the figure is table construction, not the
    # package import; best of three shrugs off a slow spell of the machine
    reports = []
    for _ in range(3):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], capture_output=True, text=True,
            check=True,
        ).stdout.split()
        reports.append(dict(zip(out[::2], map(float, out[1::2]))))
    assert min(r["body_ms"] for r in reports) < 5.0, reports
    assert 64 * 1024 <= reports[0]["table_bytes"] < 1 << 20, reports


class TestIntegrityStore:
    def test_eager_store_detects_byte_flip(self):
        h, store = armed_harness(SpdkRaid, eager=True)
        h.write(0, np.arange(h.geometry.stripe_data_bytes) % 256)
        drive = h.cluster.drives()[0]
        assert store.chunk_ok(drive, 0)
        drive._data[10] ^= 0x5A
        assert not store.chunk_ok(drive, 0)

    def test_lazy_store_trusts_until_finalized(self):
        h, store = armed_harness(SpdkRaid, eager=False)
        h.write(0, np.arange(h.geometry.stripe_data_bytes) % 256)
        drive = h.cluster.drives()[0]
        # lazy mode: a written chunk is trusted until something pins a CRC
        drive._data[10] ^= 0x5A
        assert store.chunk_ok(drive, 0)
        drive._data[10] ^= 0x5A  # restore
        # corruption primitives finalize first, so the rot is caught
        drive.corrupt("bitrot", offset=0, length=512, seed=7)
        assert not store.chunk_ok(drive, 0)

    def test_overwrite_restores_trust(self):
        h, store = armed_harness(SpdkRaid)
        h.write(0, np.arange(h.geometry.stripe_data_bytes) % 256)
        drive = h.cluster.drives()[0]
        drive.corrupt("bitrot", offset=0, length=512, seed=7)
        assert not store.chunk_ok(drive, 0)
        # a clean full-chunk overwrite cures the poison and re-trusts
        fresh = np.full(h.geometry.chunk_bytes, 0xAB, dtype=np.uint8)
        h.env.run(until=drive.write(0, len(fresh), fresh))
        assert store.chunk_ok(drive, 0)
        assert not drive.poison_overlapping(0, h.geometry.chunk_bytes)


class TestVerifyMembers:
    """``verify_members`` is the per-member ``chunk_ok`` loop, batched."""

    STRIPES = 6

    def _damaged_array(self, eager, seed):
        h, store = armed_harness(SpdkRaid, eager=eager, stripes=self.STRIPES)
        rng = np.random.default_rng(seed)
        chunk = h.geometry.chunk_bytes
        h.write(0, rng.integers(0, 256, h.capacity, dtype=np.uint8))
        drives = h.cluster.drives()
        kinds = ("bitrot", "lost", "torn", "misdirected", "flip")
        # one bitrot for certain: a lazy store sees nothing of a bare flip
        for kind in ["bitrot"] + [kinds[k] for k in rng.integers(5, size=rng.integers(8))]:
            drive = drives[int(rng.integers(len(drives)))]
            stripe = int(rng.integers(self.STRIPES - 1))
            if kind == "bitrot":
                drive.corrupt("bitrot", offset=stripe * chunk + 64, length=256,
                              seed=int(rng.integers(1 << 30)))
            elif kind == "flip":
                # no poison record: only an eager store's CRC can see it
                drive._data[stripe * chunk + int(rng.integers(chunk))] ^= 0x5A
            else:
                drive.corrupt(kind, shift_bytes=chunk if kind == "misdirected" else 0)
                fresh = rng.integers(0, 256, chunk, dtype=np.uint8)
                h.env.run(until=drive.write(stripe * chunk, chunk, fresh))
        return h, store, rng

    @pytest.mark.parametrize("eager", [True, False], ids=["eager", "lazy"])
    @given(seed=st.integers(0, 1 << 32))
    @settings(max_examples=25, deadline=None)
    def test_matches_chunk_ok_loop(self, eager, seed):
        h, store, rng = self._damaged_array(eager, seed)
        drives = h.cluster.drives()
        found = 0
        for stripe in range(self.STRIPES):
            everyone = list(range(len(drives)))
            expected = [d for d in everyone if not store.chunk_ok(drives[d], stripe)]
            found += len(expected)
            assert store.verify_members(drives, stripe, everyone) == expected
            # any subset, in the caller's order, from a one-shot iterable
            subset = [int(d) for d in rng.permutation(everyone)[: int(rng.integers(1, 6))]]
            assert store.verify_members(drives, stripe, iter(subset)) == [
                d for d in subset if not store.chunk_ok(drives[d], stripe)
            ]
            # read-back blocks (one tampered in flight) instead of peeking
            blocks = {d: store._chunk_bytes_of(drives[d], stripe).copy() for d in everyone}
            blocks[subset[0]][5] ^= 0xFF
            assert store.verify_members(drives, stripe, everyone, blocks) == [
                d for d in everyone
                if not store.chunk_ok(drives[d], stripe, data=blocks[d])
            ]
        assert found  # the seeded damage is visible to both

    def test_nothing_to_verify(self):
        h, store = armed_harness(SpdkRaid, eager=True)
        assert store.verify_members(h.cluster.drives(), 0, []) == []


class TestCorruptionPrimitives:
    CHUNK = 4096

    def drive(self):
        env = Environment()
        d = NvmeDrive(env, DELL_AGN_MU, name="t.nvme", functional_capacity=8 * self.CHUNK)
        return env, d

    def fill(self, env, drive, offset, value, length):
        data = np.full(length, value, dtype=np.uint8)
        env.run(until=drive.write(offset, length, data))

    def test_bitrot_flips_bytes_and_poisons(self):
        env, d = self.drive()
        self.fill(env, d, 0, 0x11, self.CHUNK)
        d.corrupt("bitrot", offset=0, length=256, seed=3)
        assert not np.array_equal(d.peek(0, 256), np.full(256, 0x11, np.uint8))
        # the seeded mask is nonzero everywhere: every covered byte flips
        assert not (d.peek(0, 256) == 0x11).any()
        assert np.array_equal(d.peek(256, 256), np.full(256, 0x11, np.uint8))
        (ext,) = d.poisoned_extents()
        assert (ext.offset, ext.length, ext.kind) == (0, 256, "BitRot")
        assert d.stats.corruptions == 1

    def test_lost_write_keeps_old_content(self):
        env, d = self.drive()
        self.fill(env, d, 0, 0x11, self.CHUNK)
        d.corrupt("lost")
        self.fill(env, d, 0, 0x22, self.CHUNK)
        assert (d.peek(0, self.CHUNK) == 0x11).all()
        kinds = {e.kind for e in d.poisoned_extents()}
        assert kinds == {"LostWrite"}

    def test_torn_write_lands_first_half(self):
        env, d = self.drive()
        self.fill(env, d, 0, 0x11, self.CHUNK)
        d.corrupt("torn")
        self.fill(env, d, 0, 0x22, self.CHUNK)
        half = self.CHUNK // 2
        assert (d.peek(0, half) == 0x22).all()
        assert (d.peek(half, half) == 0x11).all()
        (ext,) = d.poisoned_extents()
        assert (ext.offset, ext.length, ext.kind) == (half, half, "TornWrite")

    def test_misdirected_write_clobbers_victim(self):
        env, d = self.drive()
        self.fill(env, d, 0, 0x11, self.CHUNK)
        self.fill(env, d, self.CHUNK, 0x33, self.CHUNK)
        d.corrupt("misdirected", shift_bytes=self.CHUNK)
        self.fill(env, d, 0, 0x22, self.CHUNK)
        # target kept its old bytes; the victim got the payload
        assert (d.peek(0, self.CHUNK) == 0x11).all()
        assert (d.peek(self.CHUNK, self.CHUNK) == 0x22).all()
        kinds = {e.kind for e in d.poisoned_extents()}
        assert kinds == {"MisdirectedWrite"}
        assert len(d.poisoned_extents()) == 2

    def test_armed_corruptions_fire_fifo(self):
        env, d = self.drive()
        self.fill(env, d, 0, 0x11, self.CHUNK)
        d.corrupt("lost")
        d.corrupt("torn")
        self.fill(env, d, 0, 0x22, self.CHUNK)  # eaten by the lost write
        assert (d.peek(0, self.CHUNK) == 0x11).all()
        self.fill(env, d, 0, 0x33, self.CHUNK)  # torn: first half lands
        assert (d.peek(0, self.CHUNK // 2) == 0x33).all()

    def test_clean_overwrite_splits_poison(self):
        env, d = self.drive()
        self.fill(env, d, 0, 0x11, self.CHUNK)
        d.corrupt("bitrot", offset=0, length=self.CHUNK, seed=5)
        # overwrite the middle quarter: the poison record must split
        lo, ln = self.CHUNK // 4, self.CHUNK // 4
        self.fill(env, d, lo, 0x44, ln)
        extents = sorted((e.offset, e.length) for e in d.poisoned_extents())
        assert extents == [(0, lo), (lo + ln, self.CHUNK - lo - ln)]
        assert not d.poison_overlapping(lo, ln)

    def test_unknown_kind_rejected(self):
        env, d = self.drive()
        with pytest.raises(ValueError):
            d.corrupt("gamma-ray")
        with pytest.raises(ValueError):
            d.corrupt("misdirected")  # needs shift_bytes > 0

    def test_heal_clears_corruption_residue_repair_does_not(self):
        env, d = self.drive()
        self.fill(env, d, 0, 0x11, self.CHUNK)
        d.corrupt("bitrot", offset=0, length=128, seed=9)
        d.corrupt("lost")
        d.fail()
        d.repair()
        # repair(): replacement-path reset of the failure bit only — the
        # media damage and the armed fault are still there
        assert len(d.poisoned_extents()) == 1
        d.heal()
        # heal(): the in-place recovery also forgets corruption residue
        assert d.poisoned_extents() == ()
        self.fill(env, d, 0, 0x55, self.CHUNK)  # no armed fault left
        assert (d.peek(0, self.CHUNK) == 0x55).all()


@pytest.mark.parametrize("controller_cls", CONTROLLERS, ids=CONTROLLER_IDS)
class TestReadRepair:
    def test_read_repairs_data_chunk(self, controller_cls):
        h, store = armed_harness(controller_cls)
        rng = np.random.default_rng(11)
        h.write(0, rng.integers(0, 256, 4 * h.geometry.stripe_data_bytes, dtype=np.uint8))
        victim = h.geometry.data_drive(0, 0)
        drive = h.cluster.drives()[victim]
        drive.corrupt("bitrot", offset=0, length=512, seed=21)
        assert not store.chunk_ok(drive, 0)
        h.check_read(0, h.geometry.stripe_data_bytes)  # byte-exact again
        stats = h.array.integrity_stats
        assert stats.read_repairs >= 1
        assert stats.detected.get("BitRot", 0) >= 1
        assert stats.total_repaired >= 1
        assert store.chunk_ok(drive, 0)
        h.scrub()

    def test_prewrite_verify_repairs_parity_chunk(self, controller_cls):
        h, store = armed_harness(controller_cls)
        rng = np.random.default_rng(12)
        h.write(0, rng.integers(0, 256, 4 * h.geometry.stripe_data_bytes, dtype=np.uint8))
        parity = h.geometry.parity_drives(0)[0]
        drive = h.cluster.drives()[parity]
        drive.corrupt("bitrot", offset=0, length=512, seed=22)
        # reads never touch parity: the rot is invisible to the read path
        h.check_read(0, h.geometry.stripe_data_bytes)
        assert not store.chunk_ok(drive, 0)
        # ... but a write to the stripe must not launder it into new parity
        h.write(0, rng.integers(0, 256, 2048, dtype=np.uint8))
        stats = h.array.integrity_stats
        assert stats.write_repairs >= 1
        assert store.chunk_ok(drive, 0)
        h.scrub()
        h.check_read(0, h.geometry.stripe_data_bytes)

    def test_detection_latency_recorded(self, controller_cls):
        h, store = armed_harness(controller_cls)
        h.write(0, np.arange(h.geometry.stripe_data_bytes) % 256)
        h.env.run(until=h.env.now + 1_000_000)
        victim = h.geometry.data_drive(0, 0)
        h.cluster.drives()[victim].corrupt("bitrot", offset=0, length=64, seed=1)
        h.env.run(until=h.env.now + 2_000_000)
        h.check_read(0, h.geometry.stripe_data_bytes)
        latencies = h.array.integrity_stats.detection_latencies_ns
        assert latencies and all(lat >= 2_000_000 for lat in latencies)

    def test_corruption_beyond_parity_raises(self, controller_cls):
        h, store = armed_harness(controller_cls)
        rng = np.random.default_rng(13)
        h.write(0, rng.integers(0, 256, h.geometry.stripe_data_bytes, dtype=np.uint8))
        for victim in (h.geometry.data_drive(0, 0), h.geometry.data_drive(0, 1)):
            h.cluster.drives()[victim].corrupt("bitrot", offset=0, length=64, seed=int(victim))
        with pytest.raises(ChecksumError):
            h.read(0, h.geometry.stripe_data_bytes)
        assert h.array.integrity_stats.unrecoverable >= 2


class TestScrubArray:
    def test_report_batches_and_progress(self):
        h = ArrayHarness(SpdkRaid)
        rng = np.random.default_rng(14)
        h.write(0, rng.integers(0, 256, h.capacity, dtype=np.uint8))
        seen = []
        report = scrub_array(
            h.cluster.drives(),
            h.geometry,
            h.stripes,
            batch_stripes=7,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert isinstance(report, ScrubReport)
        assert report.clean and report.stripes_checked == h.stripes
        assert seen[-1] == (h.stripes, h.stripes)
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)

    def test_bad_stripe_reported_once(self):
        h = ArrayHarness(SpdkRaid)
        rng = np.random.default_rng(15)
        h.write(0, rng.integers(0, 256, h.capacity, dtype=np.uint8))
        h.cluster.drives()[2]._data[5 * TEST_CHUNK] ^= 1
        report = scrub_array(h.cluster.drives(), h.geometry, h.stripes, batch_stripes=4)
        assert report.bad_stripes == [5]
        assert not report.clean

    def test_rejects_bad_arguments(self):
        h = ArrayHarness(SpdkRaid)
        with pytest.raises(ValueError):
            scrub_array(h.cluster.drives(), h.geometry, h.stripes, batch_stripes=0)


@pytest.mark.parametrize("controller_cls", CONTROLLERS, ids=CONTROLLER_IDS)
class TestScrubDaemon:
    def test_pass_repairs_parity_rot(self, controller_cls):
        h, store = armed_harness(controller_cls)
        rng = np.random.default_rng(16)
        h.write(0, rng.integers(0, 256, h.capacity, dtype=np.uint8))
        parity = h.geometry.parity_drives(3)[0]
        h.cluster.drives()[parity].corrupt(
            "bitrot", offset=3 * TEST_CHUNK, length=256, seed=33
        )
        daemon = ScrubDaemon(h.array, h.stripes)
        h.env.run(until=daemon.process)
        (report,) = daemon.reports
        assert report.stripes_scanned == h.stripes
        assert report.bad_chunks == 1 and report.repaired_chunks == 1
        assert report.unrecoverable_chunks == 0
        assert h.array.integrity_stats.scrub_repairs == 1
        h.scrub()
        h.check_read(0, h.capacity)

    def test_pacing_slows_the_walk(self, controller_cls):
        h, store = armed_harness(controller_cls)
        h.write(0, np.zeros(h.capacity, dtype=np.uint8))
        fast = ScrubDaemon(h.array, h.stripes, pace_ns=0)
        h.env.run(until=fast.process)
        fast_ns = fast.reports[0].duration_ns
        paced = ScrubDaemon(h.array, h.stripes, pace_ns=1_000_000)
        h.env.run(until=paced.process)
        assert paced.reports[0].duration_ns >= fast_ns + h.stripes * 1_000_000

    def test_requires_armed_store(self, controller_cls):
        h = ArrayHarness(controller_cls)
        with pytest.raises(ValueError):
            ScrubDaemon(h.array, h.stripes)


class TestHealRegression:
    """Satellite: corrupt -> fail -> heal leaves no stale corruption state."""

    @pytest.mark.parametrize("controller_cls", CONTROLLERS, ids=CONTROLLER_IDS)
    def test_corrupt_fail_heal_scrubs_clean(self, controller_cls):
        h, store = armed_harness(controller_cls)
        rng = np.random.default_rng(17)
        h.write(0, rng.integers(0, 256, h.capacity, dtype=np.uint8))
        victim = h.geometry.data_drive(0, 0)
        drive = h.cluster.drives()[victim]
        drive.corrupt("bitrot", offset=0, length=512, seed=44)
        drive.corrupt("lost")  # armed but never fired before the failure
        h.array.fail_drive(victim)
        drive.fail()
        # heal-in-place: poison and armed residue must not survive, but the
        # CRC expectation does — the rotten bytes are still found and fixed
        drive.heal()
        h.array.repair_drive(victim)
        assert drive.poisoned_extents() == ()
        daemon = ScrubDaemon(h.array, h.stripes)
        h.env.run(until=daemon.process)
        assert daemon.reports[0].unrecoverable_chunks == 0
        h.scrub()
        h.check_read(0, h.capacity)


class TestExactlyOnceRepair:
    """Satellite: a torn stripe that is both bitmap-dirty and checksum-bad
    is repaired exactly once by crash resync, not double-written."""

    @pytest.mark.parametrize("controller_cls", [SpdkRaid, DraidArray], ids=["spdk", "draid"])
    def test_resync_and_checksum_repair_compose(self, controller_cls):
        h, store = armed_harness(controller_cls)
        rng = np.random.default_rng(18)
        h.write(0, rng.integers(0, 256, 4 * h.geometry.stripe_data_bytes, dtype=np.uint8))
        victim = h.geometry.data_drive(1, 0)
        h.cluster.drives()[victim].corrupt("torn")
        payload = rng.integers(0, 256, h.geometry.stripe_data_bytes, dtype=np.uint8)
        h.write(h.geometry.stripe_data_bytes, payload)  # torn fault fires here
        # crash model: the write's intent bit never got cleared
        h.array.bitmap.mark(1)
        count = h.env.run(until=resync_after_crash(h.array, h.array.bitmap))
        assert count == 1
        stats = h.array.integrity_stats
        assert stats.total_repaired == 1, "torn chunk must be repaired exactly once"
        assert stats.detected == {"TornWrite": 1}
        h.scrub()
        h.check_read(0, 4 * h.geometry.stripe_data_bytes)
        # a follow-up scrub pass finds nothing left to do
        daemon = ScrubDaemon(h.array, 4)
        h.env.run(until=daemon.process)
        assert daemon.reports[0].clean
        assert stats.total_repaired == 1
