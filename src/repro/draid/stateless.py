"""Stateless-target dRAID: host-owned stripe state, data-plane bdevs.

A design-space controller variant: all stripe metadata and write-hole
state stays on the *host* and the storage servers degenerate to pure
data-plane NVMe-oF targets — they only ever see plain READ/WRITE
commands, never the PartialWrite/Parity/Reconstruction opcodes that
carry distributed reduce state.  Concretely:

* partial-stripe writes run the host-side full-stripe path (read the
  gaps, compute parity locally, rewrite the stripe) instead of the §5
  distributed partial-parity protocol;
* degraded reads pull the surviving chunks' regions to the host and
  decode there instead of the §6.1 peer-to-peer reconstruction;
* full-stripe writes are already host-computed plain writes and are
  inherited unchanged — on a healthy array a stateless-target
  controller is operation-for-operation identical to stock dRAID for
  full-stripe traffic (the cross-variant equivalence test pins this).

The trade is the paper's central one, run in reverse: no target ever
holds volatile parity state (a crashed server loses nothing but
in-flight plain I/O), but partial writes pay full-stripe read-modify
cost and degraded reads pull ``k`` regions through the host NIC.  The
``geometries`` figure prices that against stock dRAID.
"""

from __future__ import annotations

from repro.cluster.builder import Cluster
from repro.draid.host import DraidArray
from repro.nvmeof.messages import Opcode
from repro.raid.geometry import RaidGeometry, StripeExtent


class StatelessTargetDraid(DraidArray):
    """Stateless-target controller: every stateful protocol is routed onto
    host-side paths.

    :class:`DraidArray` supplies transport, retry and parity math
    (``_write_host_fallback`` and the host-side decode go through the
    array's own ``code``, so like the stock controller it runs any
    ``code=`` that fits the geometry — RAID-5/6 P+Q by default, RS, LRC).
    """

    def __init__(self, cluster: Cluster, geometry: RaidGeometry,
                 name: str = "draid-st", **kwargs) -> None:
        super().__init__(cluster, geometry, name=name, **kwargs)

    # -- writes: everything partial or degraded becomes a host-side
    # full-stripe write (plain NVMe-oF WRITEs, no target reduce state) --

    def _write_distributed(self, ext: StripeExtent, io_data, plan, ctx=None,
                           deadline_ns=None):
        return (yield from self._write_host_fallback(
            ext, io_data, ctx=ctx, deadline_ns=deadline_ns
        ))

    # -- degraded reads: host-side gather + decode ------------------------

    def _degraded_read(self, ext: StripeExtent, healthy, lost, buffer, ctx=None,
                       deadline_ns=None):
        if healthy:
            yield from self._plain_reads(
                ext, healthy, buffer, ctx, deadline_ns=deadline_ns
            )
        for seg in lost:
            self.stats.degraded_reads += 1

            def attempt(n: int):
                sources = self._repair_members(ext.stripe, seg.data_index)
                blocks, errors = yield from self._gather_regions(
                    ext, sources, seg.chunk_offset, seg.length, n, ctx, deadline_ns,
                )
                if errors:
                    return False
                yield self._charge_xor(max(1, len(blocks) - 1), seg.length, ctx)
                if buffer is not None:
                    buffer[seg.io_offset : seg.io_offset + seg.length] = (
                        self.code.decode_one(seg.data_index, blocks, seg.length)
                    )
                return True

            yield from self._attempts(
                attempt, "read", ext.stripe, deadline_ns, ctx, pause=False
            )

    def _gather_regions(self, ext: StripeExtent, sources, region_offset,
                        region_len, attempt, ctx, deadline_ns):
        """Concurrently read one chunk region per source member.

        ``sources`` are ``(member, shard index)`` pairs.  Returns
        ``({shard: block}, had_errors)``; every command is a plain NVMe-oF
        READ — the whole point of this variant.
        """
        chunk = self.geometry.chunk_bytes
        base = ext.stripe * chunk + region_offset
        submitted = [
            (shard, *self._submit_plain(
                drive, Opcode.READ, base, region_len, ctx=ctx, deadline_ns=deadline_ns,
            ))
            for drive, shard in sources
        ]
        blocks = {}
        failed = []
        for shard, cid, waiter in submitted:
            expired = yield from self._await_op(
                cid, waiter, attempt=attempt, drain=False, deadline_ns=deadline_ns
            )
            if waiter.errors or expired:
                self._mark_prolonged_failures(waiter)
                failed.append(waiter)
                continue
            comp = next(c for c in waiter.completions if c.kind == "read")
            blocks[shard] = comp.data
        if failed:
            self._raise_typed_reject(*failed)
        return blocks, bool(failed)
