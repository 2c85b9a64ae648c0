"""Differential test of the offline scrub: :func:`scrub_array`'s batched
verdict against :func:`scrub_stripe`, the per-stripe reference, over every
code and layout a functional array can carry."""

import numpy as np
import pytest

from repro import build_testbed
from repro.raid.geometry import RaidLevel
from repro.raid.rebuild import SpareRebuildJob
from repro.raid.scrub import scrub_array, scrub_stripe

CHUNK = 4096
STRIPES = 30

#: id -> build_testbed keywords (8 servers, one 4 KiB chunk per stripe)
CASES = {
    "raid5-rotating": dict(level=RaidLevel.RAID5),
    "raid6-rotating": dict(level=RaidLevel.RAID6),
    "rs-rotating": dict(code="rs", parity=3),
    "lrc-rotating": dict(code="lrc", parity=3, local_groups=2),
    "raid5-declustered": dict(level=RaidLevel.RAID5, layout="declustered"),
    "raid6-declustered": dict(level=RaidLevel.RAID6, layout="declustered", layout_seed=3),
    "rs-declustered": dict(code="rs", parity=3, layout="declustered", layout_seed=5),
    "lrc-declustered": dict(code="lrc", parity=3, local_groups=2, layout="declustered"),
    "raid6-declustered-remapped": dict(
        level=RaidLevel.RAID6, layout="declustered", layout_seed=7, remap=True
    ),
}


def _corrupted_array(seed, remap=False, **kwargs):
    """A functional dRAID array filled with random bytes through its own
    write path, then single bytes flipped in data and parity chunks of
    random stripes (or, on a declustered layout, in a stripe's spare)."""
    env, cluster, array = build_testbed(
        "draid", servers=8, chunk_bytes=CHUNK, functional_capacity=STRIPES * CHUNK,
        **kwargs,
    )
    g = array.geometry
    rng = np.random.default_rng(seed)
    blob = rng.integers(0, 256, STRIPES * g.stripe_data_bytes, dtype=np.uint8)
    env.run(until=array.write(0, len(blob), blob))
    if remap:
        # rebuild only the first stripes onto spares: stripes that share a
        # rotation residue then differ in placement (the failed drive keeps
        # its bytes, so the stripes past the sweep still scrub)
        array.fail_drive(0)
        env.run(until=SpareRebuildJob(array, 0, STRIPES // 2 - 2).start())
        assert not array.failed
    drives = cluster.drives()
    for stripe in rng.choice(STRIPES, size=8, replace=False).tolist():
        role = rng.integers(0, 3)
        if role == 0:
            drive = g.data_drive(stripe, int(rng.integers(0, g.data_per_stripe)))
        elif role == 1:
            drive = g.parity_drives(stripe)[int(rng.integers(0, g.num_parity))]
        elif g.spare_drives(stripe):
            drive = g.spare_drives(stripe)[0]  # no member: the stripe stays clean
        else:
            continue
        drives[drive]._data[stripe * CHUNK + int(rng.integers(0, CHUNK))] ^= 0x5A
    return cluster, array


@pytest.mark.parametrize("case", sorted(CASES))
def test_scrub_array_matches_the_per_stripe_reference(case):
    cluster, array = _corrupted_array(seed=len(case), **CASES[case])
    drives, g, code = cluster.drives(), array.geometry, array.code
    expected = [s for s in range(STRIPES) if not scrub_stripe(drives, g, s, code=code)]
    assert expected, "the corruption must reach at least one stripe"
    for batch in (1, 4, 7, 64):
        calls = []
        report = scrub_array(
            drives, g, STRIPES, batch_stripes=batch,
            progress=lambda done, total: calls.append((done, total)), code=code,
        )
        assert report.bad_stripes == expected, batch
        assert report.stripes_checked == STRIPES
        assert calls[-1] == (STRIPES, STRIPES)
