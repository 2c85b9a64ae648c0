"""Local-reconstruction codes (LRC) over GF(2^8).

An Azure-style LRC splits the ``k`` data shards into ``l`` local groups,
each protected by one XOR *local parity*, and adds ``g`` Reed-Solomon
*global parities* over all ``k`` shards.  A single erasure inside a
group is repaired from the group's surviving members plus its local
parity — ``k/l`` reads instead of ``k`` — while any ``g`` arbitrary
erasures remain decodable from the global parities (surviving identity
rows plus rows of the MDS :class:`~repro.ec.rs.ReedSolomon` matrix are
always independent).  The decode planner makes the local-first choice
explicit so callers (and the property suite) can introspect it.

Like :mod:`repro.ec.rs`, the code is linear: every parity is a
coefficient-weighted sum of the data shards, so the dRAID partial-parity
reduce phase applies unchanged (out-of-group contributors simply carry
coefficient zero for a local parity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.ec.parity import _as_block
from repro.ec.rs import LinearCode, ReedSolomon, UnrecoverableErasureError


@dataclass(frozen=True)
class DecodeStep:
    """One repair action of a decode plan.

    ``target`` is the global shard index being regenerated (data shards
    ``0..k-1``, local parities ``k..k+l-1``, global parities
    ``k+l..k+l+g-1``); ``method`` is ``"local"`` (XOR of the group's
    survivors) or ``"global"`` (full Gaussian decode); ``sources`` lists
    the global shard indices read to perform it.
    """

    target: int
    method: str
    sources: Tuple[int, ...]


@dataclass(frozen=True)
class DecodePlan:
    """Ordered repair actions chosen for one erasure pattern."""

    steps: Tuple[DecodeStep, ...]

    @property
    def local_only(self) -> bool:
        """True when every erased shard is repaired by local XOR."""
        return all(step.method == "local" for step in self.steps)

    @property
    def read_count(self) -> int:
        """Distinct surviving shards the plan touches."""
        return len({s for step in self.steps for s in step.sources})


class LocalReconstructionCode(LinearCode):
    """A systematic (k + l + g, k) local-reconstruction code.

    ``k`` data shards in ``l`` local groups (sizes differing by at most
    one), one XOR parity per group, plus ``g`` global Reed-Solomon
    parities.  Any ``g`` arbitrary erasures are guaranteed decodable;
    single in-group erasures repair locally from ``ceil(k/l)`` shards.
    The API mirrors :class:`~repro.ec.rs.ReedSolomon` (``encode`` /
    ``partial_parity`` / ``decode`` plus ``parity_matrix``) so the dRAID
    write paths work unchanged.
    """

    def __init__(self, k: int, l: int, g: int) -> None:
        if k < 2 or l < 1 or g < 1:
            raise ValueError(f"invalid LRC parameters k={k}, l={l}, g={g}")
        if l > k:
            raise ValueError(f"more local groups ({l}) than data shards ({k})")
        if k + l + g > 255:
            raise ValueError(f"k+l+g={k + l + g} exceeds GF(2^8) limit of 255 shards")
        self.l = l
        self.g = g
        base = k // l
        extra = k % l
        sizes = [base + (1 if j < extra else 0) for j in range(l)]
        groups: List[Tuple[int, ...]] = []
        start = 0
        for size in sizes:
            groups.append(tuple(range(start, start + size)))
            start += size
        self.groups: Tuple[Tuple[int, ...], ...] = tuple(groups)
        parity = np.zeros((l + g, k), dtype=np.uint8)
        for j, group in enumerate(self.groups):
            parity[j, list(group)] = 1
        parity[l:, :] = ReedSolomon(k, g).parity_matrix
        # (l + g) x k parity-generation coefficients: local rows first;
        # ``m = l + g`` total parity shards, ReedSolomon-compatible
        super().__init__(k, parity, ("lrc", k, l, g))
        #: non-MDS: only the global-parity reach is guaranteed (conservative
        #: — some wider in-group patterns also decode)
        self.fault_tolerance = g

    def __repr__(self) -> str:
        return f"<LRC k={self.k} l={self.l} g={self.g}>"

    def group_of(self, data_index: int) -> int:
        """Local-group number of data shard ``data_index``."""
        if not 0 <= data_index < self.k:
            raise ValueError(f"data index {data_index} out of range")
        for j, group in enumerate(self.groups):
            if data_index in group:
                return j
        raise AssertionError("unreachable")

    # -- decode planning ----------------------------------------------------

    def plan_decode(self, erased: Sequence[int]) -> DecodePlan:
        """Choose a repair strategy for the erased global shard indices.

        Every erased shard that is the *only* erasure within its local
        group (group members plus the group's local parity) gets a
        ``"local"`` XOR step; everything else falls back to one
        ``"global"`` Gaussian step over the surviving shards.  Raises
        :class:`~repro.ec.rs.UnrecoverableErasureError` when the
        surviving equations cannot determine the data (same typed error
        as Reed-Solomon's beyond-reach path).
        """
        erased_set = set(erased)
        for e in erased_set:
            if not 0 <= e < self.k + self.m:
                raise ValueError(f"shard index {e} out of range")
        available = [i for i in range(self.k + self.m) if i not in erased_set]
        steps: List[DecodeStep] = []
        globals_needed: List[int] = []
        for e in sorted(erased_set):
            scope = self._group_scope(e)
            if scope is not None and not (erased_set & scope - {e}):
                steps.append(
                    DecodeStep(
                        target=e, method="local", sources=tuple(sorted(scope - {e}))
                    )
                )
            else:
                globals_needed.append(e)
        if globals_needed:
            chosen = self._independent_rows(available)  # raises beyond reach
            steps.extend(
                DecodeStep(target=e, method="global", sources=tuple(chosen))
                for e in globals_needed
            )
        return DecodePlan(steps=tuple(sorted(steps, key=lambda s: s.target)))

    def _group_scope(self, shard: int) -> "set | None":
        """The local repair scope of ``shard``: its group's data shards
        plus the group's local parity (None for global parities)."""
        if shard < self.k:
            j = self.group_of(shard)
        elif shard < self.k + self.l:
            j = shard - self.k
        else:
            return None
        return set(self.groups[j]) | {self.k + j}

    def repair_sources(
        self, erased: Iterable[int], target: Optional[int] = None
    ) -> List[int]:
        """The planner's read set for ``target``: its local group when the
        plan repairs it locally (``k/l`` shards instead of ``k``), else the
        independent row set the global step decodes every erasure from.
        Beyond-reach patterns fall back to the generic rule so the caller
        fails on the decode, not here."""
        erased = list(erased)
        if target is not None and erased:
            try:
                steps = self.plan_decode(erased).steps
            except UnrecoverableErasureError:
                steps = ()
            local = next(
                (s for s in steps if s.target == target and s.method == "local"), None
            )
            sources = local.sources if local is not None else sorted(
                {s for step in steps if step.method == "global" for s in step.sources}
            )
            if sources:
                return list(sources)
        return super().repair_sources(erased, target)

    # -- decoding -----------------------------------------------------------

    def decode_one(self, index: int, shards: Dict[int, np.ndarray], length: int) -> np.ndarray:
        """Recover a single lost shard, preferring local XOR repair.

        When the shard's whole group scope survives in ``shards``, the
        repair is the XOR of ``len(group)`` blocks; otherwise (and for a
        global parity) the Gaussian row of :class:`LinearCode` applies.
        """
        scope = self._group_scope(index)
        if scope is not None and all(s in shards for s in scope if s != index):
            acc = np.zeros(length, dtype=np.uint8)
            for s in scope - {index}:
                acc ^= _as_block(shards[s])[:length]
            return acc
        return super().decode_one(index, shards, length)
