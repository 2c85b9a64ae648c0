"""RAID core: geometry, write-mode classification and stripe locking.

This package contains the level- and system-independent machinery shared by
all three controllers (Linux-MD model, SPDK-POC model and dRAID): mapping a
user byte extent onto stripes/chunks/drives with rotating parity, deciding
between read-modify-write / reconstruct-write / full-stripe write, and
serializing conflicting writes per stripe.
"""

from repro._lazy import lazy_exports

# rebuild and scrub stay eager: a measured phase reaches them, and a first
# import there would be charged to the op that made it.  The recovery
# orchestrator, crash resync and the scrub daemon load when read.
from repro.raid import rebuild, scrub  # noqa: F401  (imported for loading)

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".bitmap": ("WriteIntentBitmap",),
    ".geometry": ("ChunkSegment", "RaidGeometry", "RaidLevel", "StripeExtent"),
    ".locks": ("StripeLockManager",),
    ".modes": ("WriteMode", "classify_write"),
    ".rebuild": ("RebuildJob", "RebuildStats", "rebuild_member_stripe"),
    ".recovery": ("RecoveryOrchestrator", "RecoveryStats", "SparePool"),
    ".resync": ("resync_after_crash", "resync_stripes"),
    ".scrub": ("ScrubReport", "scrub_array", "scrub_stripe"),
    ".scrubber": ("ScrubDaemon", "ScrubPassReport"),
})

__all__ = [
    "ChunkSegment",
    "RaidGeometry",
    "RaidLevel",
    "RebuildJob",
    "RebuildStats",
    "RecoveryOrchestrator",
    "RecoveryStats",
    "SparePool",
    "ScrubDaemon",
    "ScrubPassReport",
    "ScrubReport",
    "StripeExtent",
    "StripeLockManager",
    "WriteIntentBitmap",
    "WriteMode",
    "classify_write",
    "rebuild_member_stripe",
    "resync_after_crash",
    "resync_stripes",
    "scrub_array",
    "scrub_stripe",
]
