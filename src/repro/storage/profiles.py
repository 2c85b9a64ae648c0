"""Drive performance profiles.

The default profile is calibrated to the paper's testbed drive (§2.3, §9.1):
a Dell Ent NVMe AGN MU U.2 1.6 TB, whose write throughput the paper measures
at "around 19 Gbps" (2375 MB/s).  The read rate is set so that six drives
saturate the 100 Gbps NIC goodput, as §9.2 reports.
"""

from __future__ import annotations

from dataclasses import dataclass

MB = 1_000_000
US = 1_000  # nanoseconds per microsecond


@dataclass(frozen=True)
class DriveProfile:
    """Static performance characteristics of an NVMe drive.

    The optional garbage-collection knobs model the latency spikes SSD GC
    causes (the motivation behind SWAN/GGC/TTFLASH/FusionRAID in the
    paper's related work): after every ``gc_after_bytes_written`` bytes of
    writes the drive stalls its channel for ``gc_pause_ns``.  Zero (the
    default) disables GC entirely.
    """

    name: str
    read_bw_bytes_per_s: float
    write_bw_bytes_per_s: float
    read_latency_ns: int
    write_latency_ns: int
    #: Internal NAND-level parallelism: number of independent FIFO servers.
    parallelism: int = 1
    capacity_bytes: int = 1_600_000_000_000
    #: GC triggers after this many bytes written (0 = no GC).
    gc_after_bytes_written: int = 0
    #: Channel stall per GC event.
    gc_pause_ns: int = 0

    def __post_init__(self) -> None:
        if self.read_bw_bytes_per_s <= 0 or self.write_bw_bytes_per_s <= 0:
            raise ValueError(f"{self.name}: bandwidths must be positive")
        if self.read_latency_ns < 0 or self.write_latency_ns < 0:
            raise ValueError(f"{self.name}: latencies must be non-negative")
        if self.gc_after_bytes_written < 0 or self.gc_pause_ns < 0:
            raise ValueError(f"{self.name}: GC parameters must be non-negative")

    def with_gc(self, after_bytes: int, pause_ns: int) -> "DriveProfile":
        """A copy of this profile with garbage collection enabled."""
        from dataclasses import replace

        return replace(self, gc_after_bytes_written=after_bytes, gc_pause_ns=pause_ns)


#: The paper's testbed drive (Dell Ent NVMe AGN MU U.2 1.6 TB).
DELL_AGN_MU = DriveProfile(
    name="dell-agn-mu-1.6tb",
    read_bw_bytes_per_s=3200 * MB,
    write_bw_bytes_per_s=2375 * MB,  # ~19 Gbps, the paper's own measurement
    read_latency_ns=80 * US,
    write_latency_ns=18 * US,  # write-back DRAM buffer absorbs the program op
)
