"""The online scrub daemon: background verify-and-repair on the sim clock.

Production arrays scrub continuously — a rate-limited background walker
reads every stripe, verifies it and repairs what it finds, trading a
little foreground bandwidth for a bounded silent-corruption detection
latency (Thomasian's RAID tutorial treats scrubbing as a first-class
reliability mechanism next to parity).  :class:`ScrubDaemon` is that
walker for any armed array:

* it runs as a simulation process *concurrently with foreground I/O*,
  serializing per stripe through the array's stripe locks;
* every member chunk is read through the array's normal member-I/O path
  (so the scrub's bandwidth cost is physically modeled, not assumed) and
  verified against the cluster's :class:`~repro.storage.integrity.IntegrityStore`;
* bad chunks are repaired through the controller's shared parity
  read-repair (the same path foreground reads use), honoring degraded /
  rebuilding members;
* in functional mode, clean-looking stripes additionally get a parity
  audit (re-encode the parities from the data read-back) — defense in depth
  against corruption that slipped past the checksum layer;
* pacing: ``pace_ns`` of idle time per stripe bounds the daemon's
  bandwidth draw (pace 0 = as fast as the array allows); under foreground
  admission pressure the daemon takes the recovery orchestrator's pause
  instead (:func:`~repro.raid.rebuild.background_pause`).

Each completed pass appends a :class:`ScrubPassReport` to ``reports``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.raid.rebuild import background_pause


@dataclass(frozen=True)
class ScrubPassReport:
    """Summary of one full pass over the array."""

    stripes_scanned: int
    chunks_verified: int
    bad_chunks: int
    repaired_chunks: int
    unrecoverable_chunks: int
    parity_rewrites: int
    started_ns: int
    finished_ns: int

    @property
    def clean(self) -> bool:
        return self.bad_chunks == 0 and self.parity_rewrites == 0

    @property
    def duration_ns(self) -> int:
        return self.finished_ns - self.started_ns


class ScrubDaemon:
    """Background verify-and-repair walker over ``num_stripes`` stripes."""

    def __init__(
        self,
        array,
        num_stripes: int,
        pace_ns: int = 0,
        repeat: bool = False,
        name: Optional[str] = None,
    ) -> None:
        if array.integrity is None:
            raise ValueError(
                f"{array.name}: ScrubDaemon needs an armed IntegrityStore "
                f"(IntegrityStore(...).attach(cluster))"
            )
        if num_stripes <= 0:
            raise ValueError(f"num_stripes must be positive, got {num_stripes}")
        if pace_ns < 0:
            raise ValueError(f"negative pace {pace_ns}")
        self.array = array
        self.env = array.env
        self.num_stripes = num_stripes
        self.pace_ns = pace_ns
        #: stripes after which the walker shed to foreground pressure
        self.pressure_sheds = 0
        self.repeat = repeat
        self.name = name or f"{array.name}.scrub"
        self.reports: List[ScrubPassReport] = []
        #: stripes scanned across all passes, including the one in flight
        #: (lets callers measure coverage of an interrupted pass)
        self.stripes_scanned_total = 0
        self._stop = False
        self.process = self.env.process(self._run(), name=self.name)

    def stop(self) -> None:
        """Ask the daemon to finish after the stripe it is on."""
        self._stop = True

    # -- the walker --------------------------------------------------------

    def _run(self):
        while True:
            report = yield from self._scrub_pass()
            self.reports.append(report)
            if self._stop or not self.repeat:
                return

    def _scrub_pass(self):
        array = self.array
        g = array.geometry
        chunk = g.chunk_bytes
        store = array.integrity
        stats = array.integrity_stats
        drives = array.drives
        started = self.env.now
        scanned = verified = bad_total = repaired = unrecoverable = 0
        rewrites_before = stats.parity_rewrites
        for stripe in range(self.num_stripes):
            if self._stop:
                break
            yield array.locks.acquire(stripe)
            try:
                failed = array.failed_in_stripe(stripe)
                members = [d for d in array._stripe_members(stripe) if d not in failed]
                read_back = yield from array._repair_io(
                    array._member_read(d, stripe * chunk, chunk) for d in members
                )
                if read_back is None:
                    continue  # members erroring/stalling out; retry next pass
                blocks = dict(zip(members, read_back))
                stats.chunks_verified += len(members)
                verified += len(members)
                bad = store.verify_members(drives, stripe, members, blocks)
                if bad:
                    bad_total += len(bad)
                    stats.scrub_repairs += 1
                    ok = yield from array._read_repair(stripe, bad, locked=True)
                    if ok:
                        repaired += len(bad)
                    else:
                        unrecoverable += len(bad)
                elif array.functional and not failed:
                    yield from self._parity_audit(stripe, blocks)
            finally:
                array.locks.release(stripe)
            scanned += 1
            self.stripes_scanned_total += 1
            if (yield from background_pause(array, self.pace_ns)):
                self.pressure_sheds += 1
        return ScrubPassReport(
            stripes_scanned=scanned,
            chunks_verified=verified,
            bad_chunks=bad_total,
            repaired_chunks=repaired,
            unrecoverable_chunks=unrecoverable,
            parity_rewrites=stats.parity_rewrites - rewrites_before,
            started_ns=started,
            finished_ns=self.env.now,
        )

    def _parity_audit(self, stripe: int, blocks):
        """Functional-mode defense in depth: re-encode the parities from the
        data read-back and rewrite any parity chunk that drifted (corruption
        laundered into parity before detection could see it)."""
        array = self.array
        g = array.geometry
        chunk = g.chunk_bytes
        parity = g.parity_drives(stripe)
        data = [blocks[g.data_drive(stripe, d)] for d in range(g.data_per_stripe)]
        if data[0] is None:
            return  # timing-only read-back: nothing to audit
        rewrites = [
            (drive, expected)
            for drive, expected in zip(parity, array.code.encode(data))
            if not np.array_equal(expected, blocks[drive])
        ]
        if not rewrites:
            return
        yield array._charge_xor(g.data_per_stripe, chunk)
        written = yield from array._repair_io(
            array._member_write(d, stripe * chunk, chunk, blk) for d, blk in rewrites
        )
        if written is None:
            return  # parity drive erroring/stalling out; retry next pass
        array.integrity_stats.parity_rewrites += len(rewrites)
