"""Table 1: comparison of the three remote-RAID architectures.

The table is analytical in the paper; here each architecture is a small
model whose overhead entries are *derived* from its data-path byte flows.
The ``table1`` experiment (:func:`repro.experiments.registry.run_table1`)
measures the write/degraded-read overhead columns with host-NIC byte
counters in simulation and prints them next to these analytical values;
the claims table (:mod:`repro.experiments.paper_values`) bounds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class Architecture:
    """One column of Table 1."""

    name: str
    fault_tolerance: str
    hot_spare: str
    scaling: str
    #: host-NIC bytes moved per user byte on a partial-stripe write
    #: (RAID-5 RMW; a range when it depends on the write mode)
    write_overhead: str
    #: host-NIC bytes moved per requested byte on a degraded read
    degraded_read_overhead: str

    def row(self) -> List[str]:
        return [
            self.name,
            self.fault_tolerance,
            self.hot_spare,
            self.scaling,
            self.write_overhead,
            self.degraded_read_overhead,
        ]


def write_overhead_distributed_rmw(num_parity: int = 1) -> float:
    """Host-centric remote RAID-5 RMW: old data + old parity in, new data
    + new parity out = 4x for RAID-5 (up to 1+3 = per-direction 2/2)."""
    return 2.0 * (1 + num_parity)


def write_overhead_draid() -> float:
    """dRAID: the host ships each user byte exactly once."""
    return 1.0


def degraded_read_overhead_distributed(width: int) -> float:
    """Host-centric reconstruct read pulls width-1 chunks per chunk."""
    return float(width - 1)


def degraded_read_overhead_draid() -> float:
    """dRAID returns only requested bytes to the host."""
    return 1.0


ARCHITECTURES: Dict[str, Architecture] = {
    "single-machine": Architecture(
        name="Single-Machine",
        fault_tolerance="Disk",
        hot_spare="Dedicated",
        scaling="Pre-provisioning",
        write_overhead="1x",
        degraded_read_overhead="1x",
    ),
    "distributed": Architecture(
        name="Distributed",
        fault_tolerance="Disk & Server",
        hot_spare="Storage pool",
        scaling="On demand",
        write_overhead="1-4x",
        degraded_read_overhead="Nx",
    ),
    "draid": Architecture(
        name="dRAID",
        fault_tolerance="Disk & Server",
        hot_spare="Storage pool",
        scaling="On demand",
        write_overhead="1x",
        degraded_read_overhead="1x",
    ),
}


def architecture_table() -> str:
    """Render Table 1."""
    headers = ["", "Fault tolerance", "Hot spare", "Scaling",
               "Write overhead", "D-Read overhead"]
    rows = [a.row() for a in ARCHITECTURES.values()]
    rows = [[r[0], r[1], r[2], r[3], r[4], r[5]] for r in rows]
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)
