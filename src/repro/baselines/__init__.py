"""Baseline RAID controllers: the systems dRAID is compared against.

Both baselines are *host-centric*: every byte of every RAID operation
(old data, old parity, new parity, reconstruction sources) moves through
the host NIC over standard NVMe-oF, which is exactly the bandwidth
bottleneck the paper identifies (§2.3).

* :class:`SpdkRaid` models the SPDK RAID-5/6 POC the paper uses as its
  strongest baseline: user-space, lock-per-stripe (including normal reads),
  ISA-L parity speeds.
* :class:`MdRaid` models Linux software RAID (the MD driver): the same
  data path plus a single kernel RAID thread that stages every write and
  every reconstruction through a 4 KiB-page stripe cache.

They are datapaths on :class:`RaidArray`, the array frame (member table,
fence rule, admission, integrity, block interface) that dRAID's own
datapath sits on as well — siblings on one substrate.
"""

from repro.baselines.array import RaidArray, RaidIoStats
from repro.baselines.base import HostCentricRaid
from repro.baselines.logstructured import LogStructuredRaid
from repro.baselines.mdraid import MdRaid
from repro.baselines.spdkraid import SpdkRaid

__all__ = [
    "HostCentricRaid",
    "LogStructuredRaid",
    "MdRaid",
    "RaidArray",
    "RaidIoStats",
    "SpdkRaid",
]
