"""Array scrubbing: verify on-disk parity consistency.

Only meaningful for functional-mode drives (which carry real bytes).
Used by the whole-array tests as the ground-truth invariant — after any
workload, every stripe's parity must equal the parity of its data chunks —
and usable as a library facility (e.g. after crash-recovery resync).

:func:`scrub_array` streams stripes in batches and verifies each batch
with vectorized numpy parity math (one XOR reduction across the member
rows instead of a Python loop per chunk), reporting progress through an
optional callback and returning a structured :class:`ScrubReport`.  For
the *online* scrubber that runs on the sim clock against a live array,
see :mod:`repro.raid.scrubber`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.ec import PQCode
from repro.ec.gf import GF
from repro.raid.geometry import RaidGeometry
from repro.storage.drive import NvmeDrive


@dataclass
class ScrubReport:
    """Result of one offline scrub sweep."""

    stripes_checked: int
    bad_stripes: List[int] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.bad_stripes


def scrub_stripe(
    drives: Sequence[NvmeDrive],
    geometry: RaidGeometry,
    stripe: int,
    code=None,
) -> bool:
    """True iff ``stripe``'s parity is consistent with its data.

    ``code`` is the array's erasure code (``array.code``); left out, the
    geometry's default applies (P+Q for RAID-5/6).
    """
    code = code or geometry.default_code()
    chunk = geometry.chunk_bytes
    offset = stripe * chunk
    data = [
        drives[geometry.data_drive(stripe, d)].peek(offset, chunk)
        for d in range(geometry.data_per_stripe)
    ]
    return all(
        bool(np.array_equal(expected, drives[p].peek(offset, chunk)))
        for expected, p in zip(code.encode(data), geometry.parity_drives(stripe))
    )


def scrub_array(
    drives: Sequence[NvmeDrive],
    geometry: RaidGeometry,
    num_stripes: int,
    batch_stripes: int = 64,
    progress: Optional[Callable[[int, int], None]] = None,
    code=None,
) -> ScrubReport:
    """Scrub ``num_stripes`` stripes; returns a :class:`ScrubReport`.

    Stripes are streamed in batches of ``batch_stripes``: each batch peeks
    one contiguous region per member and verifies all its stripes with
    vectorized parity math.  ``progress(stripes_done, num_stripes)`` is
    invoked after every batch.  The batched math applies to what it is
    written for — a P+Q ``code`` on a layout where every drive holds a chunk
    of every stripe; any other code or a declustered layout is verified
    stripe by stripe through ``code.encode``.

    * RAID-5: the XOR across *all* members (data + P) of a consistent
      stripe is zero, independent of where P rotates to.
    * RAID-6: that same total XOR equals Q when P is consistent, which
      checks P; Q is then recomputed from the data chunks per rotation
      phase (stripes sharing ``stripe % num_drives`` have identical
      placement, so one :meth:`~repro.ec.gf.GF256.dot` per phase covers
      the whole batch).
    """
    g = geometry
    code = code or g.default_code()
    if batch_stripes <= 0:
        raise ValueError(f"batch_stripes must be positive, got {batch_stripes}")
    if not (isinstance(code, PQCode) and g.full_width):
        # generic code or declustered members: the whole-row XOR trick
        # below assumes P+Q rows and that every drive holds a chunk of
        # every stripe, so fall back to per-stripe verification
        bad_list: List[int] = []
        done = 0
        for stripe in range(num_stripes):
            if not scrub_stripe(drives, g, stripe, code=code):
                bad_list.append(stripe)
            done += 1
            if progress is not None and (done % batch_stripes == 0 or done == num_stripes):
                progress(done, num_stripes)
        return ScrubReport(stripes_checked=done, bad_stripes=bad_list)
    chunk = g.chunk_bytes
    n = g.num_drives
    bad: List[int] = []
    checked = 0
    for start in range(0, num_stripes, batch_stripes):
        nb = min(batch_stripes, num_stripes - start)
        rows = np.stack(
            [drv.peek(start * chunk, nb * chunk).reshape(nb, chunk) for drv in drives]
        )
        total = rows[0].copy()
        for i in range(1, n):
            np.bitwise_xor(total, rows[i], out=total)
        if code.m == 1:
            bad_mask = total.any(axis=1)
        else:
            bad_mask = np.zeros(nb, dtype=bool)
            # batch stripes phase, phase + n, ... share one placement
            for phase in range(min(n, nb)):
                sel = slice(phase, nb, n)
                s0 = start + phase
                q_drive = g.parity_drives(s0)[1]
                # P-check: total XOR == Q iff P is consistent
                bad_mask[sel] |= (total[sel] ^ rows[q_drive][sel]).any(axis=1)
                # Q-check: recompute Q from the data chunks
                q_calc = GF.dot(
                    code.parity_matrix[1].tolist(),
                    [rows[g.data_drive(s0, d)][sel] for d in range(g.data_per_stripe)],
                )
                bad_mask[sel] |= (q_calc ^ rows[q_drive][sel]).any(axis=1)
        bad.extend(start + int(i) for i in np.nonzero(bad_mask)[0])
        checked += nb
        if progress is not None:
            progress(checked, num_stripes)
    return ScrubReport(stripes_checked=checked, bad_stripes=bad)
