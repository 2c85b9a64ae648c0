"""The Linux software RAID (MD driver) model.

Linux MD routes every write and every reconstruction through a stripe
cache managed in 4 KiB pages by a single kernel thread (``md/raidX``).
That thread is the documented reason MD cannot approach the theoretical
bound (§2.3) and shows *negative* scaling with stripe width (Fig. 12/16):
per-stripe-head bookkeeping touches state for every member drive.

The model charges, on one dedicated core:

* ``page_ns`` per 4 KiB page staged through the cache on writes
  (new data + old data read for RMW + parity, i.e. all bytes handled);
* ``head_ns_per_row_per_drive`` × stripe-rows × width per write —
  the stripe-head state machine cost that grows with array width;
* ``recon_page_ns`` per 4 KiB source page on reconstruction, plus the
  same width-dependent head cost with ``recon_head_ns`` — degraded reads
  collapse to under a GB/s exactly as Fig. 15/16 report.

Normal reads bypass the stripe cache (as in MD itself) but pay the kernel
block-layer submission cost, which keeps small-I/O reads below the
user-space systems (Fig. 9).
"""

from __future__ import annotations

from repro.baselines.base import HostCentricRaid
from repro.cluster.builder import Cluster
from repro.cluster.machines import CpuCore
from repro.raid.geometry import RaidGeometry, StripeExtent

PAGE = 4096


class MdRaid(HostCentricRaid):
    """Linux MD flavour of host-centric RAID."""

    #: Kernel block layer + MD remap per user I/O.
    submit_ns = 15_000
    #: MD serves normal reads without the stripe cache (no stripe lock).
    lock_reads = False

    #: Stripe-cache page handling cost (single kernel thread).
    page_ns = 850
    #: Per-row, per-member stripe-head bookkeeping on writes.
    head_ns_per_row_per_drive = 100
    #: Reconstruction source-page handling cost.
    recon_page_ns = 2_000
    #: Per-row, per-member stripe-head bookkeeping on reconstruction.
    recon_head_ns = 800

    def __init__(
        self, cluster: Cluster, geometry: RaidGeometry, name: str = "md", **kwargs
    ) -> None:
        super().__init__(cluster, geometry, name=name, **kwargs)
        #: The single md/raidX kernel thread everything serializes on; its
        #: staging spans render on the host's CPU track.
        self.md_thread = CpuCore(
            self.env, f"{name}.raid-thread", self.machine.cpu.track
        )
        self.md_thread.tracer = self._tracer

    def _charge_staging(self, nbytes: int, ext: StripeExtent, ctx=None,
                        reconstruct: bool = False):
        if reconstruct:
            page_ns, head_ns = self.recon_page_ns, self.recon_head_ns
        else:
            page_ns, head_ns = self.page_ns, self.head_ns_per_row_per_drive
        pages = (nbytes + PAGE - 1) // PAGE
        # one stripe head per 4 KiB row of the parity span, touching every member
        rows = max(1, (ext.span[1] + PAGE - 1) // PAGE)
        head = rows * self.geometry.num_drives * head_ns
        return self.md_thread.execute(pages * page_ns + head, ctx=ctx, span="staging")
