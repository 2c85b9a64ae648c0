"""Pluggable stripe-placement layouts (the design-space geometry axis).

A :class:`Layout` decides which physical member drives hold each
stripe's parity, data and spare chunks.  :class:`RotatingLayout`
reproduces the left-symmetric rotation every controller has used since
the first commit — parity anchored at drive ``n-1 - (s mod n)`` with
data following cyclically — generalized to any parity count, so all
existing ``RaidGeometry``/``EcGeometry`` placements stay byte-identical
when it is the (default) layout.

:class:`DeclusteredLayout` adds a seeded PRIME-style declustered
organization: a fixed pseudo-random permutation of the members is
walked with a stride coprime to the member count, and each stripe
occupies the first ``stripe_width`` drives of its window.  The rest of
the window is *distributed spare capacity*.  Because a failed drive is
a member of only ``stripe_width / num_drives`` of the stripes, and each
affected stripe's surviving members and spare target differ, rebuild
reads and spare writes fan out across the whole array instead of
funnelling into one replacement — the declustering claim the
``geometries`` figure quantifies.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Tuple


class Layout:
    """Placement policy: (stripe, role) -> physical member drive.

    Subclasses implement :meth:`parity_drives`, :meth:`data_drive` and
    :meth:`data_index_of_drive` (the three calls the datapath makes on
    every I/O) plus :meth:`stripe_drives` / :meth:`spare_drives` for
    membership queries.  ``stripe_width`` counts data + parity members
    per stripe; drives outside a stripe's member set hold no chunk for
    it.
    """

    #: registry key; subclasses override
    name = "layout"

    def __init__(self, num_drives: int, num_parity: int) -> None:
        if num_parity < 1:
            raise ValueError(f"need >= 1 parity, got {num_parity}")
        if num_drives <= num_parity:
            raise ValueError(
                f"need > {num_parity} drives for {num_parity} parity, "
                f"got {num_drives}"
            )
        self.num_drives = num_drives
        self.num_parity = num_parity

    @property
    def stripe_width(self) -> int:
        """Members per stripe (data + parity chunks)."""
        raise NotImplementedError

    @property
    def data_per_stripe(self) -> int:
        """Data chunks per stripe."""
        return self.stripe_width - self.num_parity

    def parity_drives(self, stripe: int) -> Tuple[int, ...]:
        """Physical drives holding this stripe's parity chunks, in order."""
        raise NotImplementedError

    def data_drive(self, stripe: int, data_index: int) -> int:
        """Physical drive of logical data chunk ``data_index``."""
        raise NotImplementedError

    def data_drives(self, stripe: int) -> Tuple[int, ...]:
        """Physical drive of every data chunk, in logical chunk order."""
        return tuple(
            self.data_drive(stripe, d) for d in range(self.data_per_stripe)
        )

    def data_index_of_drive(self, stripe: int, drive: int) -> int:
        """Inverse of :meth:`data_drive`; raises if ``drive`` holds parity
        (or is not a member of the stripe at all)."""
        raise NotImplementedError

    def stripe_drives(self, stripe: int) -> Tuple[int, ...]:
        """All member drives of ``stripe``: parity first, then data in
        logical chunk order."""
        return self.parity_drives(stripe) + self.data_drives(stripe)

    def spare_drives(self, stripe: int) -> Tuple[int, ...]:
        """Drives holding distributed spare capacity for ``stripe``
        (empty for full-width layouts)."""
        return ()

    def describe(self) -> str:
        """One-line deterministic rendering (for goldens and logs)."""
        return f"{self.name}(n={self.num_drives}, p={self.num_parity})"


class RotatingLayout(Layout):
    """Left-symmetric rotation: the historical default placement.

    Parity of stripe ``s`` starts at drive ``n-1 - (s mod n)`` with the
    remaining parities on the cyclically following drives, and data
    chunk ``i`` on drive ``anchor + 1 + i (mod n)`` where ``anchor`` is
    the last parity drive.  Every drive is a member of every stripe
    (``stripe_width == num_drives``) and there is no spare capacity.
    Matches the placement previously hard-coded in ``RaidGeometry``
    (RAID-5/6) and ``EcGeometry`` (m-parity) exactly.
    """

    name = "rotating"

    def __init__(self, num_drives: int, num_parity: int) -> None:
        super().__init__(num_drives, num_parity)
        # The rotation is periodic in ``stripe mod n``: one row per residue,
        # built once, is every placement query the datapath makes per I/O.
        n = num_drives
        self._parity = tuple(
            tuple((n - 1 - r + j) % n for j in range(num_parity)) for r in range(n)
        )
        self._data = tuple(
            tuple((parity[-1] + 1 + d) % n for d in range(n - num_parity))
            for parity in self._parity
        )
        self._members = tuple(p + d for p, d in zip(self._parity, self._data))

    @property
    def stripe_width(self) -> int:
        return self.num_drives

    def parity_drives(self, stripe: int) -> Tuple[int, ...]:
        return self._parity[stripe % self.num_drives]

    def data_drive(self, stripe: int, data_index: int) -> int:
        return self._data[stripe % self.num_drives][data_index]

    def data_drives(self, stripe: int) -> Tuple[int, ...]:
        return self._data[stripe % self.num_drives]

    def data_index_of_drive(self, stripe: int, drive: int) -> int:
        parity = self._parity[stripe % self.num_drives]
        if drive in parity:
            raise ValueError(f"drive {drive} holds parity for stripe {stripe}")
        return (drive - parity[-1] - 1) % self.num_drives

    def stripe_drives(self, stripe: int) -> Tuple[int, ...]:
        return self._members[stripe % self.num_drives]


class DeclusteredLayout(Layout):
    """Seeded PRIME-style declustered layout with distributed spares.

    A pseudo-random permutation ``perm`` of the drives (seeded child
    RNG, ``repro.layout:<seed>``) is walked with a stride coprime to
    ``num_drives``; stripe ``s`` occupies the window
    ``perm[(s*stride + j) mod n]`` for ``j < stripe_width`` (parity in
    the first ``num_parity`` slots, then data), and the remainder of
    the window is its spare capacity.  Because the stride generates the
    full cyclic group, every drive holds each role exactly once per
    ``num_drives`` consecutive stripes — placement is perfectly
    balanced over that window (the declustering bound the property
    suite asserts).

    :meth:`remap_to_spare` substitutes a failed member's chunk with a
    distributed spare, preserving the chunk's role; all placement
    queries observe the substitution, so rebuild can redirect a dead
    member's chunks onto per-stripe spares that differ stripe to
    stripe.
    """

    name = "declustered"

    def __init__(
        self,
        num_drives: int,
        num_parity: int,
        stripe_width: int = 0,
        seed: int = 0,
    ) -> None:
        super().__init__(num_drives, num_parity)
        if stripe_width <= 0:
            stripe_width = num_drives - 1  # leave >= 1 distributed spare
        if not num_parity + 1 <= stripe_width <= num_drives:
            raise ValueError(
                f"stripe_width {stripe_width} out of range "
                f"[{num_parity + 1}, {num_drives}]"
            )
        self.seed = seed
        self._stripe_width = stripe_width
        rng = random.Random(f"repro.layout:{seed}")
        perm = list(range(num_drives))
        rng.shuffle(perm)
        self.perm: Tuple[int, ...] = tuple(perm)
        coprimes = [c for c in range(1, num_drives) if math.gcd(c, num_drives) == 1]
        self.stride = coprimes[rng.randrange(len(coprimes))]
        # The walk is periodic in ``stripe mod n`` (the stride only ever
        # enters mod n): one window per residue, built once.
        n = num_drives
        self._windows = tuple(
            tuple(self.perm[(r * self.stride + j) % n] for j in range(n))
            for r in range(n)
        )
        self._members = tuple(window[:stripe_width] for window in self._windows)
        #: (stripe, original member drive) -> spare drive substitution:
        #: per-stripe exceptions applied on top of the tables
        self._remaps: Dict[Tuple[int, int], int] = {}

    @property
    def stripe_width(self) -> int:
        return self._stripe_width

    def _window(self, stripe: int) -> Tuple[int, ...]:
        return self._windows[stripe % self.num_drives]

    def stripe_drives(self, stripe: int) -> Tuple[int, ...]:
        members = self._members[stripe % self.num_drives]
        remaps = self._remaps
        if remaps:
            members = tuple(remaps.get((stripe, d), d) for d in members)
        return members

    def parity_drives(self, stripe: int) -> Tuple[int, ...]:
        return self.stripe_drives(stripe)[: self.num_parity]

    def data_drive(self, stripe: int, data_index: int) -> int:
        return self.stripe_drives(stripe)[self.num_parity + data_index]

    def data_drives(self, stripe: int) -> Tuple[int, ...]:
        return self.stripe_drives(stripe)[self.num_parity :]

    def data_index_of_drive(self, stripe: int, drive: int) -> int:
        members = self.stripe_drives(stripe)
        try:
            slot = members.index(drive)
        except ValueError:
            raise ValueError(
                f"drive {drive} is not a member of stripe {stripe}"
            ) from None
        if slot < self.num_parity:
            raise ValueError(f"drive {drive} holds parity for stripe {stripe}")
        return slot - self.num_parity

    def spare_drives(self, stripe: int) -> Tuple[int, ...]:
        used = {s for (st, _), s in self._remaps.items() if st == stripe}
        window = self._window(stripe)
        return tuple(d for d in window[self._stripe_width :] if d not in used)

    def remap_to_spare(self, stripe: int, failed: int) -> int:
        """Redirect ``failed``'s chunk in ``stripe`` onto the stripe's first
        free distributed spare; returns the spare drive.

        Role-preserving: after the remap the spare answers every
        placement query the failed drive used to.  Raises when
        ``failed`` is not a member or the stripe's spare capacity is
        exhausted.
        """
        members = self.stripe_drives(stripe)
        if failed not in members:
            raise ValueError(f"drive {failed} is not a member of stripe {stripe}")
        spares = self.spare_drives(stripe)
        if not spares:
            raise ValueError(f"stripe {stripe} has no spare capacity left")
        original = failed
        for (st, orig), current in self._remaps.items():
            if st == stripe and current == failed:
                original = orig
                break
        spare = spares[0]
        self._remaps[(stripe, original)] = spare
        return spare

    def describe(self) -> str:
        return (
            f"{self.name}(n={self.num_drives}, p={self.num_parity}, "
            f"w={self._stripe_width}, seed={self.seed})"
        )


#: Registered layouts, keyed by the name the fuzz/chaos axes draw from.
LAYOUTS: Dict[str, type] = {
    RotatingLayout.name: RotatingLayout,
    DeclusteredLayout.name: DeclusteredLayout,
}


def make_layout(name: str, num_drives: int, num_parity: int, **kwargs) -> Layout:
    """Construct a registered layout by name (``rotating``/``declustered``)."""
    if name not in LAYOUTS:
        raise ValueError(f"unknown layout {name!r}; pick from {sorted(LAYOUTS)}")
    return LAYOUTS[name](num_drives, num_parity, **kwargs)
