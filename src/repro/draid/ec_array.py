"""dRAID generalized to arbitrary linear erasure codes (§7).

"Most erasure codes can also be generated in parallel, so I/O
disaggregation still applies."  The dRAID controller is code-agnostic —
each data bdev forwards, for parity row j, ``C[j,i] * partial`` (where C is
the code's parity matrix and i its data index), and each of the m parity
bdevs reduces with plain XOR, exactly as RAID-5/6 — so a coded array is
:class:`~repro.draid.host.DraidArray` over an :class:`EcGeometry` with a
``code=`` of the right shape.

:class:`EcGeometry` rotates all m parity chunks across members (balancing
load, as RAID-6 does for P and Q); :class:`EcDraidArray` and
:class:`LrcDraidArray` are the named constructors for the Reed-Solomon and
local-reconstruction arrays.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.builder import Cluster
from repro.draid.host import DraidArray
from repro.ec import LinearCode, code_for
from repro.raid.geometry import RaidGeometry
from repro.raid.layout import Layout, RotatingLayout


class EcGeometry(RaidGeometry):
    """Striped layout with ``num_parity`` rotating parity chunks.

    ``layout`` plugs in an alternative placement (e.g. a
    :class:`~repro.raid.layout.DeclusteredLayout`); the default
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
        if num_parity < 1:
            raise ValueError(f"need at least one parity, got {num_parity}")
        if num_drives <= num_parity + 1:
            raise ValueError(
                f"{num_drives} drives cannot host {num_parity} parities + data"
            )
        if chunk_bytes <= 0 or chunk_bytes % 4096:
            raise ValueError(f"chunk size must be a positive multiple of 4096, got {chunk_bytes}")
        if layout is None:
            layout = RotatingLayout(num_drives, num_parity)
        if layout.num_drives != num_drives or layout.num_parity != num_parity:
            raise ValueError(
                f"layout {layout.describe()} does not match "
                f"{num_drives} drives / {num_parity} parity"
            )
        self.level = None  #: not a standard RAID level
        self.num_drives = num_drives
        self.chunk_bytes = chunk_bytes
        self.num_parity = num_parity
        self.layout = layout
        self.data_per_stripe = layout.data_per_stripe
        self.stripe_data_bytes = self.data_per_stripe * chunk_bytes
        self.full_width = layout.stripe_width == num_drives

    def __repr__(self) -> str:
        return (
            f"<EcGeometry RS({self.data_per_stripe}+{self.num_parity}) "
            f"drives={self.num_drives} chunk={self.chunk_bytes // 1024}KiB>"
        )

    def default_code(self) -> LinearCode:
        """Systematic Reed-Solomon over the stripe's k data + m parity."""
        return code_for(("rs", self.data_per_stripe, self.num_parity))


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
