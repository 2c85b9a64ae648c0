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
  writes become single NVMe-oF commands to the controller server, issued
  by a :class:`~repro.nvmeof.initiator.RemoteBdev`, so the host spends
  almost nothing — at the price of one extra network hop for every byte
  (host -> controller -> bdevs), which the simulation charges faithfully.
  A typed reject the controller raises (``Busy``, ``DeadlineExceeded``)
  travels back as its completion ``status`` and is raised again, typed,
  at the host; a read corrupted beyond parity (``ChecksumError``) comes
  back as an untyped error completion, an ``IoError`` at the host.

The controller occupies one dedicated server; the array spans the
remaining ``n - 1``.
"""

from __future__ import annotations

from repro.cluster.builder import Cluster
from repro.draid.host import DraidArray
from repro.nvmeof.initiator import RemoteBdev
from repro.nvmeof.messages import IoError, NvmeOfCommand, Opcode
from repro.nvmeof.target import complete
from repro.raid.geometry import RaidGeometry
from repro.storage.integrity import ChecksumError


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


class OffloadedDraidArray(RemoteBdev):
    """Host-side proxy to an offloaded controller (§7 full offloading).

    An NVMe-oF initiator to the controller server: each ``read``/``write``
    is one command there.  Write payloads hop host -> controller -> data
    bdevs (the "additional I/O overlay"); read payloads hop back bdevs ->
    controller -> host.  A caller's ``deadline_ns`` rides the command to
    the controller, which honours it when armed; tracing stops here.
    """

    def __init__(
        self,
        cluster: Cluster,
        geometry: RaidGeometry,
        controller_server: int = 0,
        name: str = "draid-proxy",
        **controller_kwargs,
    ) -> None:
        self.cluster = cluster
        self.geometry = geometry
        self.controller = OffloadedController(
            cluster, geometry, controller_server, **controller_kwargs
        )
        self.functional = self.controller.functional
        self.stats = self.controller.stats
        super().__init__(cluster.host, cluster.host_end(controller_server), name)
        self._controller_end = cluster.server_end(controller_server)
        self._controller_end.inbox.consume(self._serve_controller)

    # -- controller-server command service ----------------------------------

    def _serve_controller(self, cmd: NvmeOfCommand) -> None:
        self.env.process(self._execute(cmd), name=f"{self.name}.op")

    def _execute(self, cmd: NvmeOfCommand):
        server = self.controller.machine
        yield server.cpu.execute(server.cpu_profile.cmd_handle_ns)
        data = error = status = None
        try:
            if cmd.opcode is Opcode.WRITE:
                # pull the payload from the host (extra overlay hop #1); the
                # controller's write validates and normalises it
                yield self._controller_end.rdma_read(cmd.length)
                yield self.controller.write(
                    cmd.offset, cmd.length, cmd.data, deadline_ns=cmd.deadline_ns
                )
            else:
                # the completion pushes the payload to the host (hop #2)
                data = yield self.controller.read(
                    cmd.offset, cmd.length, deadline_ns=cmd.deadline_ns
                )
        except IoError as exc:
            error, status = str(exc), exc.status
        except ChecksumError as exc:
            # corruption beyond parity: an untyped error completion, which
            # the host raises as IoError
            error = str(exc)
        complete(self._controller_end, cmd, data, error, status)

    def fail_drive(self, index: int) -> None:
        self.controller.fail_drive(index)

    @property
    def degraded(self) -> bool:
        return self.controller.degraded
