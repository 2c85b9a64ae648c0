"""Offloading the host-side controller to a storage server (§7).

"By design, the host-side controller can also be offloaded to a storage
server.  On the one hand, a full offloading further reduces resource usage
on the host side...  On the other hand, it creates another single point of
failure and may slightly increase the latency with another NVMe-oF
abstraction layer and additional I/O overlay."

This module implements exactly that trade:

* :class:`OffloadedController` is a :class:`~repro.draid.host.DraidArray`
  that *runs on a storage server*: its command channels to the member
  bdevs are the server-to-server queue pairs, and every orchestration CPU
  cycle is charged to that server's single poll-mode core.
* :class:`OffloadedDraidArray` is the thin host-side proxy: reads and
  writes become single commands to the controller server, so the host
  spends almost nothing — at the price of one extra network hop for every
  byte (host -> controller -> bdevs), which the simulation charges
  faithfully.

The controller occupies one dedicated server; the array spans the
remaining ``n - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Optional

from repro.cluster.builder import Cluster
from repro.draid.host import DraidArray
from repro.draid.protocol import DraidCompletion
from repro.nvmeof.messages import IoError, RESPONSE_BYTES, next_cid
from repro.raid.geometry import RaidGeometry
from repro.sim.core import Environment, Event


@dataclass
class ProxyCmd:
    """Host -> controller server: one virtual-device read or write."""

    cid: int
    op: str  #: 'read' | 'write'
    offset: int
    length: int
    data: Optional[Any] = None


@dataclass
class ProxyCompletion:
    cid: int
    ok: bool
    data: Optional[Any] = None
    error: Optional[str] = None


class OffloadedController(DraidArray):
    """The dRAID host-side controller, relocated onto a storage server."""

    _require_full_cluster = False

    def __init__(
        self,
        cluster: Cluster,
        geometry: RaidGeometry,
        controller_server: int,
        name: str = "draid-offloaded",
        **kwargs,
    ) -> None:
        if geometry.num_drives != cluster.num_servers - 1:
            raise ValueError(
                f"offloaded geometry spans {geometry.num_drives} members but the "
                f"cluster provides {cluster.num_servers - 1} (one server is the "
                f"controller)"
            )
        if not 0 <= controller_server < cluster.num_servers:
            raise ValueError(f"bad controller index {controller_server}")
        self.controller_server = controller_server
        super().__init__(cluster, geometry, name=name, **kwargs)

    # -- topology ---------------------------------------------------------

    def _server_of(self, drive: int) -> int:
        """Member drives skip the controller's own server slot."""
        return drive if drive < self.controller_server else drive + 1

    def _drive_of(self, server: int) -> int:
        if server == self.controller_server:
            raise ValueError("the controller server hosts no member drive")
        return server if server < self.controller_server else server - 1

    def _attach_transport(self) -> None:
        from repro.draid.bdev import DraidBdevServer

        c = self.controller_server
        self.bdev_servers = [
            DraidBdevServer(self.cluster, self._server_of(d), pipeline=self.pipeline,
                            blocking_reduce=self.blocking_reduce)
            for d in range(self.geometry.num_drives)
        ]
        # command channels: the controller's ends of its peer queue pairs
        self.host_ends = [
            self.cluster.peer_end(c, self._server_of(d))
            for d in range(self.geometry.num_drives)
        ]
        self._waiters: Dict[int, Any] = {}
        # NOTE: peer queue-pair traffic from bdevs back to the controller is
        # consumed here; bdev-to-bdev partials never touch these ends
        # because PeerMsg handling lives in the bdev servers' own consumers.
        for member, end in enumerate(self.host_ends):
            end.inbox.consume(partial(self._receive_controller, member))

    def _receive_controller(self, member: int, message) -> None:
        # any other message type on these ends belongs to the bdev
        # servers' consumers; they hold the other end of each pair.
        if isinstance(message, DraidCompletion):
            waiter = self._waiters.get(message.cid)
            if waiter is not None:
                waiter.responded.add(member)
                waiter.on_completion(message)

    # -- failure management in drive-index space --------------------------------

    def fail_drive(self, index: int) -> None:
        self.failed.add(index)
        # a re-failing member restarts any rebuild from scratch (see
        # HostCentricRaid.fail_drive)
        self.rebuild_watermark.pop(index, None)
        self.rebuilt_stripes.pop(index, None)
        self.cluster.servers[self._server_of(index)].drive.fail()
        if len(self.failed) > self.geometry.num_parity:
            from repro.baselines.base import ArrayFailureError

            raise ArrayFailureError(f"{self.name}: too many failures")

    def repair_drive(self, index: int) -> None:
        self.failed.discard(index)
        self.rebuild_watermark.pop(index, None)
        self.rebuilt_stripes.pop(index, None)
        self.cluster.servers[self._server_of(index)].drive.repair()

    def _mark_prolonged_failures(self, waiter) -> None:
        for drive in range(self.geometry.num_drives):
            if self.cluster.servers[self._server_of(drive)].drive.failed:
                self.failed.add(drive)

    # -- CPU accounting on the controller's core --------------------------------

    @property
    def _controller_cpu(self):
        return self.cluster.servers[self.controller_server].cpu

    def _charge_submit(self):
        return self._controller_cpu.execute(self.submit_ns)

    def _charge_xor(self, num_sources: int, nbytes: int):
        profile = self.cluster.servers[self.controller_server].cpu_profile
        work = profile.xor_ns(nbytes) * max(0, num_sources - 1)
        return self._controller_cpu.execute(work)

    def _charge_gf(self, num_sources: int, nbytes: int):
        profile = self.cluster.servers[self.controller_server].cpu_profile
        work = profile.gf_ns(nbytes) * num_sources
        return self._controller_cpu.execute(work)


class OffloadedDraidArray:
    """Host-side proxy to an offloaded controller (§7 full offloading).

    Exposes the usual ``read``/``write`` block interface; each call is one
    command to the controller server.  Write payloads hop host ->
    controller -> data bdevs (the "additional I/O overlay"); read payloads
    hop back bdevs -> controller -> host.
    """

    def __init__(
        self,
        cluster: Cluster,
        geometry: RaidGeometry,
        controller_server: int = 0,
        name: str = "draid-proxy",
        **controller_kwargs,
    ) -> None:
        self.env: Environment = cluster.env
        self.cluster = cluster
        self.geometry = geometry
        self.name = name
        self.controller = OffloadedController(
            cluster, geometry, controller_server, **controller_kwargs
        )
        self.functional = self.controller.functional
        self.stats = self.controller.stats
        self._host_end = cluster.host_end(controller_server)
        self._controller_end = cluster.server_end(controller_server)
        self._pending: Dict[int, Event] = {}
        self._controller_end.inbox.consume(self._serve_controller)
        self._host_end.inbox.consume(self._receive_host)

    # -- controller-server command service ----------------------------------

    def _serve_controller(self, cmd) -> None:
        if isinstance(cmd, ProxyCmd):
            self.env.process(self._execute(cmd), name=f"{self.name}.op", tail=True)

    def _execute(self, cmd: ProxyCmd):
        server = self.cluster.servers[self.controller.controller_server]
        yield server.cpu.execute(server.cpu_profile.cmd_handle_ns)
        try:
            if cmd.op == "write":
                # pull the payload from the host (extra overlay hop #1)
                yield self._controller_end.rdma_read(cmd.length)
                yield self.controller.write(cmd.offset, cmd.length, cmd.data)
                self._controller_end.send(
                    ProxyCompletion(cmd.cid, ok=True), header_bytes=RESPONSE_BYTES
                )
            else:
                data = yield self.controller.read(cmd.offset, cmd.length)
                # push the payload to the host (extra overlay hop #2)
                self._controller_end.send(
                    ProxyCompletion(cmd.cid, ok=True, data=data),
                    payload_bytes=cmd.length,
                    header_bytes=RESPONSE_BYTES,
                )
        except IoError as exc:
            self._controller_end.send(
                ProxyCompletion(cmd.cid, ok=False, error=str(exc)),
                header_bytes=RESPONSE_BYTES,
            )

    # -- host-side interface -----------------------------------------------------

    def _receive_host(self, completion) -> None:
        if not isinstance(completion, ProxyCompletion):
            return
        event = self._pending.pop(completion.cid, None)
        if event is None or event.triggered:
            return
        if completion.ok:
            event.succeed(completion.data, tail=True)
        else:
            event.fail(IoError(completion.error))

    def _submit(self, op: str, offset: int, length: int, data=None) -> Event:
        cmd = ProxyCmd(next_cid(), op, offset, length, data=data)
        event = self.env.event()
        self._pending[cmd.cid] = event
        self._host_end.send(cmd)
        return event

    def read(self, offset: int, nbytes: int, ctx=None) -> Event:
        # ctx accepted for interface parity; spans are not propagated across
        # the proxy hop (the controller re-derives nothing host-side).
        return self._submit("read", offset, nbytes)

    def write(self, offset: int, nbytes: int, data=None, ctx=None) -> Event:
        if data is not None:
            import numpy as np

            data = (
                np.frombuffer(data, dtype=np.uint8)
                if isinstance(data, (bytes, bytearray))
                else np.asarray(data, dtype=np.uint8)
            )
        return self._submit("write", offset, nbytes, data=data)

    def fail_drive(self, index: int) -> None:
        self.controller.fail_drive(index)

    @property
    def degraded(self) -> bool:
        return self.controller.degraded
