"""Reducer selection for disaggregated data reconstruction (§6).

With homogeneous networks a uniformly random reducer is optimal (Theorem 1:
for any reduction-tree topology with random node assignment, average
inbound and outbound traffic per bdev is fixed), so dRAID uses a single
randomly chosen reducer by default.

With heterogeneous networks (§6.2) dRAID instead solves

    maximize   min_i  R_i = B_i - P_i (n - 1) L
    subject to sum_i P_i = 1,   0 <= P_i <= 1

where ``B_i`` is bdev i's available bandwidth and ``L`` the reconstruction
load (EWMA-tracked when the array stays online during recovery).  The
optimum is a water-filling solution computed here in closed form.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.cluster.builder import Cluster


def solve_reducer_probabilities(
    bandwidths: Sequence[float], load: float, num_bdevs: Optional[int] = None
) -> List[float]:
    """Max-min-fair reducer probabilities (§6.2, equations 1-4).

    ``bandwidths`` are the available bandwidths ``B_i`` in bytes/s;
    ``load`` is the per-reconstruction traffic rate ``L`` in bytes/s;
    ``num_bdevs`` defaults to ``len(bandwidths)``.

    Water-filling: the optimum equalizes remaining bandwidth
    ``R_i = B_i - P_i D`` (with ``D = (n-1) L``) across every bdev that
    receives positive probability; bdevs whose ``B_i`` is below the water
    level get ``P_i = 0``.
    """
    n = len(bandwidths)
    if n == 0:
        raise ValueError("at least one bdev required")
    if any(b < 0 for b in bandwidths):
        raise ValueError("bandwidths must be non-negative")
    total_bdevs = num_bdevs if num_bdevs is not None else n
    demand = max(1.0, (total_bdevs - 1) * load)
    if load <= 0:
        # no measurable load: probability proportional to available bandwidth
        total = sum(bandwidths)
        if total <= 0:
            return [1.0 / n] * n
        return [b / total for b in bandwidths]
    # Water-filling over the active set: sort descending by B_i and find the
    # largest k such that the water level t_k leaves the k-th bdev active.
    order = sorted(range(n), key=lambda i: -bandwidths[i])
    prefix = 0.0
    probabilities = [0.0] * n
    chosen_level = None
    active = 0
    for k, idx in enumerate(order, start=1):
        prefix += bandwidths[idx]
        # level if exactly the top-k bdevs share the load
        level = (prefix - demand) / k
        next_b = bandwidths[order[k]] if k < n else float("-inf")
        if level >= next_b:
            chosen_level = level
            active = k
            break
    if chosen_level is None:  # pragma: no cover - loop always terminates at k=n
        chosen_level = (prefix - demand) / n
        active = n
    for idx in order[:active]:
        probabilities[idx] = (bandwidths[idx] - chosen_level) / demand
    # numerical cleanup: clamp and renormalize
    probabilities = [max(0.0, p) for p in probabilities]
    total = sum(probabilities)
    if total <= 0:
        return [1.0 / n] * n
    return [p / total for p in probabilities]


class RandomReducerSelector:
    """Uniformly random reducer choice (§6.1, optimal for homogeneous nets)."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def pick(self, candidates: Sequence[int], region_bytes: int) -> int:
        return self._rng.choice(list(candidates))


class BandwidthAwareSelector:
    """Bandwidth-aware reducer choice with EWMA load tracking (§6.2).

    ``B_i`` is sampled from each candidate server's NIC backlog (standing in
    for the telemetry a deployment would report); ``L`` is an exponentially
    weighted moving average of observed reconstruction traffic, updated on
    every selection so the probabilities react to load changes.
    """

    def __init__(
        self,
        cluster: Cluster,
        seed: int = 0,
        alpha: float = 0.2,
        window_ns: int = 1_000_000,
    ) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.cluster = cluster
        #: candidate (member) index -> server; the identity topology — an
        #: array on another topology assigns its own member table
        self.servers = cluster.servers
        self.alpha = alpha
        self.window_ns = window_ns
        self._rng = random.Random(seed)
        self._load_ewma = 0.0  # bytes/s
        self._last_pick_ns: Optional[int] = None

    @property
    def load_estimate(self) -> float:
        return self._load_ewma

    def _update_load(self, region_bytes: int) -> None:
        now = self.cluster.env.now
        if self._last_pick_ns is None:
            self._last_pick_ns = now
            return
        elapsed = max(1, now - self._last_pick_ns)
        instant = region_bytes * 1e9 / elapsed
        self._load_ewma = self.alpha * instant + (1 - self.alpha) * self._load_ewma
        self._last_pick_ns = now

    def probabilities(self, candidates: Sequence[int]) -> List[float]:
        bandwidths = [
            self.servers[i].nic.available_bandwidth(self.window_ns)
            for i in candidates
        ]
        return solve_reducer_probabilities(
            bandwidths, self._load_ewma, num_bdevs=len(candidates)
        )

    def pick(self, candidates: Sequence[int], region_bytes: int) -> int:
        self._update_load(region_bytes)
        weights = self.probabilities(candidates)
        return self._rng.choices(list(candidates), weights=weights, k=1)[0]
