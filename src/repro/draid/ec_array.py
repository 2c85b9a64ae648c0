"""dRAID generalized to arbitrary linear erasure codes (§7).

"Most erasure codes can also be generated in parallel, so I/O
disaggregation still applies."  The dRAID controller is code-agnostic —
each data bdev forwards, for parity row j, ``C[j,i] * partial`` (where C is
the code's parity matrix and i its data index), each of the m parity bdevs
reduces with plain XOR, exactly as RAID-5/6, and a reconstruction reducer
decodes survivor regions keyed by their shard index in the code (``0..k-1``
data, ``k..k+m-1`` parity) — so a coded array is
:class:`~repro.draid.host.DraidArray` over a level-less geometry with a
``code=`` of the right shape.

:class:`EcGeometry` is the constructor of that geometry: a
:class:`~repro.raid.geometry.RaidGeometry` with no RAID level, whose m
parity chunks rotate across members (balancing load, as RAID-6 does for P
and Q) and whose default code is Reed-Solomon.  :class:`EcDraidArray` and
:class:`LrcDraidArray` are the named constructors for the Reed-Solomon and
local-reconstruction arrays.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.builder import Cluster
from repro.draid.host import DraidArray
from repro.ec import code_for
from repro.raid.geometry import RaidGeometry
from repro.raid.layout import Layout


class EcGeometry(RaidGeometry):
    """A :class:`RaidGeometry` with no RAID level: ``num_parity`` rotating
    parity chunks and a Reed-Solomon default code.

    A constructor only.  ``layout`` plugs in an alternative placement
    (e.g. a :class:`~repro.raid.layout.DeclusteredLayout`); the default
    :class:`~repro.raid.layout.RotatingLayout` reproduces the historical
    m-parity rotation byte-for-byte.
    """

    def __init__(
        self,
        num_drives: int,
        chunk_bytes: int,
        num_parity: int,
        layout: Optional[Layout] = None,
    ) -> None:
        self.num_parity = num_parity
        super().__init__(None, num_drives, chunk_bytes, layout)


class EcDraidArray(DraidArray):
    """A disaggregated erasure-coded array: dRAID over RS(k+m).

    Tolerates up to ``m`` simultaneous member failures.  Everything but
    the code — stripe queue, broadcast, reduce callbacks, §5.4 retries —
    is :class:`DraidArray`.
    """

    def __init__(
        self,
        cluster: Cluster,
        geometry: EcGeometry,
        name: str = "ec-draid",
        **kwargs,
    ) -> None:
        if not isinstance(geometry, EcGeometry):
            raise TypeError(f"{type(self).__name__} requires an EcGeometry")
        super().__init__(cluster, geometry, name=name, **kwargs)


class LrcDraidArray(EcDraidArray):
    """dRAID over a local-reconstruction code (LRC(k, l, g)).

    The geometry's ``num_parity`` chunks are split into ``local_groups``
    local XOR parities plus ``num_parity - local_groups`` global RS
    parities.  Writes reuse the generic §7 machinery unchanged
    (out-of-group local parities receive zero-coefficient partials, which
    fold to no-ops); degraded reads narrow the reconstruction broadcast to
    the lost chunk's *local group* whenever the code's planner picks local
    repair, so single-failure rebuild reads touch ``k/l + 1`` members
    instead of ``k``.

    Tolerance is the code's: ``g`` arbitrary failures (non-MDS — fewer
    than the ``l + g`` parities the stripe carries).
    """

    def __init__(
        self,
        cluster: Cluster,
        geometry: EcGeometry,
        local_groups: int = 2,
        name: str = "lrc-draid",
        **kwargs,
    ) -> None:
        global_parities = geometry.num_parity - local_groups
        if local_groups < 1 or global_parities < 1:
            raise ValueError(
                f"{geometry.num_parity} parities cannot split into "
                f"{local_groups} local groups + >=1 global parity"
            )
        code = code_for(
            ("lrc", geometry.data_per_stripe, local_groups, global_parities)
        )
        super().__init__(cluster, geometry, name=name, code=code, **kwargs)
