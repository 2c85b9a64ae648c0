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

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".array": ("RaidArray", "RaidIoStats"),
    ".base": ("HostCentricRaid",),
    ".logstructured": ("LogStructuredRaid",),
    ".mdraid": ("MdRaid",),
    ".spdkraid": ("SpdkRaid",),
})
