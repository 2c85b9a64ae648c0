"""Simulated storage devices.

Models NVMe SSDs as queued bandwidth servers with access latency, separate
read/write rates and optional byte-accurate backing storage (used by the
functional-correctness tests to verify parity math end-to-end through the
simulated data path).
"""

from repro.storage.drive import DriveStats, NvmeDrive
from repro.storage.integrity import (
    ChecksumError,
    IntegrityStore,
    PoisonedExtent,
    crc32c,
    crc32c_many,
)
from repro.storage.profiles import DELL_AGN_MU, DriveProfile

__all__ = [
    "DELL_AGN_MU",
    "ChecksumError",
    "DriveProfile",
    "DriveStats",
    "IntegrityStore",
    "NvmeDrive",
    "PoisonedExtent",
    "crc32c",
    "crc32c_many",
]
