"""dRAID: disaggregated RAID with peer-to-peer parity offload.

The paper's contribution (§3-§6).  dRAID keeps a thin coordinator on the
host and pushes parity generation, parity reduction and data
reconstruction to the storage servers, which exchange partial results
peer-to-peer.  The result: a partial-stripe write moves each user byte
through the host NIC exactly once (vs 2x for host-centric RAID-5 RMW and
3x for RAID-6), and a degraded read returns only requested bytes to the
host (vs ``width - 1`` chunks).

* :mod:`repro.draid.protocol` — the NVMe-oF protocol extension (§4).
* :mod:`repro.draid.bdev` — the server-side controller (§5.1-§5.3).
* :mod:`repro.draid.host` — the host-side controller (§3, §5, §6.1).
* :mod:`repro.draid.reconstruction` — reducer selection, random and
  bandwidth-aware (§6.2).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".bdev": ("DraidBdevServer",),
    ".ec_array": ("EcDraidArray", "EcGeometry"),
    ".host": ("DraidArray",),
    ".offload": ("OffloadedController", "OffloadedDraidArray"),
    ".reconstruction": (
        "BandwidthAwareSelector", "RandomReducerSelector", "solve_reducer_probabilities",
    ),
})
