"""Array scrubbing: verify on-disk parity consistency.

Only meaningful for functional-mode drives (which carry real bytes).
Used by the whole-array tests as the ground-truth invariant — after any
workload, every stripe's parity must equal the parity of its data chunks —
and usable as a library facility (e.g. after crash-recovery resync).

:func:`scrub_array` streams stripes in batches and verifies each batch
through the array's own code, one ``encode`` per group of stripes that
share a placement, whatever the code (P+Q, Reed-Solomon, LRC) or layout
(rotating, declustered); :func:`scrub_stripe` is the per-stripe
reference.  Progress goes to an optional callback and the verdict comes
back as a structured :class:`ScrubReport`.  For the *online* scrubber
that runs on the sim clock against a live array, see
:mod:`repro.raid.scrubber`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

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
    one contiguous region per member, groups its stripes by placement (the
    layout's data and parity drives, distributed-spare remaps included) and
    re-encodes each group's data chunks laid end to end in one
    ``code.encode`` — every code here is linear byte by byte, so the parity
    of a concatenation is the concatenation of the parities.  A stripe is
    bad where any of its parity chunks differs.  ``progress(stripes_done,
    num_stripes)`` is invoked after every batch.
    """
    code = code or geometry.default_code()
    if batch_stripes <= 0:
        raise ValueError(f"batch_stripes must be positive, got {batch_stripes}")
    layout = geometry.layout
    chunk = geometry.chunk_bytes
    bad: List[int] = []
    checked = 0
    for start in range(0, num_stripes, batch_stripes):
        nb = min(batch_stripes, num_stripes - start)
        rows = [drv.peek(start * chunk, nb * chunk).reshape(nb, chunk) for drv in drives]
        groups: Dict[tuple, List[int]] = {}
        for i in range(nb):
            placement = (layout.data_drives(start + i), layout.parity_drives(start + i))
            groups.setdefault(placement, []).append(i)
        bad_mask = np.zeros(nb, dtype=bool)
        for (data, parity), members in groups.items():
            expected = code.encode([rows[d][members].reshape(-1) for d in data])
            for computed, p in zip(expected, parity):
                bad_mask[members] |= (computed.reshape(-1, chunk) != rows[p][members]).any(axis=1)
        bad.extend(start + int(i) for i in np.nonzero(bad_mask)[0])
        checked += nb
        if progress is not None:
            progress(checked, num_stripes)
    return ScrubReport(stripes_checked=checked, bad_stripes=bad)
