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
from typing import Any, Dict, Optional

from repro.cluster.builder import Cluster
from repro.draid.host import DraidArray
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

    def __init__(
        self,
        cluster: Cluster,
        geometry: RaidGeometry,
        controller_server: int,
        name: str = "draid-offloaded",
        **kwargs,
    ) -> None:
        if not 0 <= controller_server < cluster.num_servers:
            raise ValueError(f"bad controller index {controller_server}")
        self.controller_server = controller_server
        # the frame checks the geometry against the n - 1 servers that
        # :meth:`_server_of` leaves for members
        super().__init__(cluster, geometry, name=name, **kwargs)
        # every orchestration CPU cycle is charged to the controller
        # server's single poll-mode core
        self.machine = cluster.servers[controller_server]

    # -- topology ---------------------------------------------------------

    def _server_of(self, drive: int) -> int:
        """Member drives skip the controller's own server slot."""
        return drive if drive < self.controller_server else drive + 1

    def _command_end(self, member: int):
        """Command channels are the controller's ends of its peer queue
        pairs; bdev-to-bdev partials never touch them (``PeerMsg`` handling
        lives in the bdev servers' own consumers)."""
        return self.cluster.peer_end(self.controller_server, self._server_of(member))


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
            self.env.process(self._execute(cmd), name=f"{self.name}.op")

    def _execute(self, cmd: ProxyCmd):
        server = self.controller.machine
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
            event.succeed(completion.data)
        else:
            event.fail(IoError(completion.error))

    def _submit(self, op: str, offset: int, length: int, data=None) -> Event:
        cmd = ProxyCmd(next_cid(), op, offset, length, data=data)
        event = self.env.event()
        self._pending[cmd.cid] = event
        self._host_end.send(cmd)
        return event

    def read(self, offset: int, nbytes: int, ctx=None, deadline_ns=None) -> Event:
        # ctx and deadline_ns accepted for interface parity; neither crosses
        # the proxy hop (the controller re-derives nothing host-side).
        return self._submit("read", offset, nbytes)

    def write(self, offset: int, nbytes: int, data=None, ctx=None, deadline_ns=None) -> Event:
        # the payload is validated and normalised by the controller's write
        return self._submit("write", offset, nbytes, data=data)

    def fail_drive(self, index: int) -> None:
        self.controller.fail_drive(index)

    @property
    def degraded(self) -> bool:
        return self.controller.degraded
