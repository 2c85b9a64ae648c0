"""The datacenter fabric and RDMA reliable connections.

The fabric is a single-switch topology (as in the paper's testbed, one Dell
Z9264) with a fixed propagation delay per traversal.  dRAID uses RDMA RC
queue pairs between the host and every storage server, and between storage
servers in pairs (§3); :class:`RdmaConnection` models one such queue pair.

Three verbs are modeled:

* ``send`` — a message (command capsule) with optional inline payload,
  delivered into the peer's inbox in order.
* ``rdma_read`` — one-sided READ: the initiator pulls bytes from the peer;
  bytes occupy peer-TX and initiator-RX.
* ``rdma_write`` — one-sided WRITE: bytes occupy initiator-TX and peer-RX.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.net.nic import Nic
from repro.sim.core import Environment, Event
from repro.sim.resources import Store

#: Size of a command capsule on the wire (NVMe-oF capsule + dRAID fields).
CAPSULE_BYTES = 192


class ConnectionEnd:
    """One endpoint of an RDMA RC connection.

    Messages sent by the peer land in ``inbox``.  A server or completion
    queue reads it through one callback, ``end.inbox.consume(fn)``; a
    consumer that really is a process yields :meth:`recv` instead.  One
    end takes one reader.
    """

    def __init__(self, connection: "RdmaConnection", nic: Nic, label: str) -> None:
        self.connection = connection
        self.nic = nic
        self.label = label
        self.inbox: Store = Store(connection.env, name=f"{label}.inbox")
        self.peer: "ConnectionEnd" = None  # type: ignore[assignment]  # wired by RdmaConnection

    def __repr__(self) -> str:
        return f"<ConnectionEnd {self.label}>"

    # -- verbs --------------------------------------------------------------

    def send(self, message: Any, payload_bytes: int = 0, header_bytes: int = CAPSULE_BYTES) -> Event:
        """Send a command capsule (+ optional inline payload) to the peer.

        The message object is placed into the peer's inbox when the last
        byte arrives.  Returns the delivery event, whose value is the
        message; with a second listener on it the delivery is no longer the
        timer's last callback, so the consumer is woken by a held wake, not
        called at once.
        """
        peer = self.peer
        return self.connection._transfer(
            self.nic, peer.nic, header_bytes + payload_bytes, message, None,
            peer.inbox._arrive,
        )

    def rdma_read(
        self, nbytes: int, ctx: Any = None, then: Optional[Callable[[Event], None]] = None
    ) -> Event:
        """One-sided READ: pull ``nbytes`` from the peer's memory; the
        event's value is ``nbytes``.

        ``ctx`` (an optional :class:`repro.obs.TraceContext`) attributes the
        wire time to a traced request when the fabric's tracer is armed;
        ``then`` is the event's continuation (:meth:`Environment.timeout`).
        """
        return self.connection._transfer(self.peer.nic, self.nic, nbytes, nbytes, ctx, then)

    def rdma_write(self, nbytes: int, ctx: Any = None) -> Event:
        """One-sided WRITE: push ``nbytes`` into the peer's memory; the
        event's value is ``nbytes``."""
        return self.connection._transfer(self.nic, self.peer.nic, nbytes, nbytes, ctx, None)

    def recv(self) -> Event:
        """Event yielding the next message in this end's inbox."""
        return self.inbox.get()


class RdmaConnection:
    """An RDMA reliable connection (queue pair) between two NICs."""

    def __init__(self, env: Environment, fabric: "Fabric", nic_a: Nic, nic_b: Nic, name: str) -> None:
        self.env = env
        self.fabric = fabric
        self.name = name
        self.a = ConnectionEnd(self, nic_a, f"{name}.a")
        self.b = ConnectionEnd(self, nic_b, f"{name}.b")
        self.a.peer = self.b
        self.b.peer = self.a
        # Fault injection: transfers never complete before this sim time.
        self._stall_until = 0

    def stall(self, duration_ns: int) -> None:
        """Fault injection: delay completion of every transfer on this
        queue pair (in-flight and new) until ``now + duration_ns``, as if
        the RC connection went through a retransmit storm or pause."""
        if duration_ns < 0:
            raise ValueError(f"negative stall duration {duration_ns}")
        self._stall_until = max(self._stall_until, self.env.now + duration_ns)

    def end_for(self, nic: Nic) -> ConnectionEnd:
        if nic is self.a.nic:
            return self.a
        if nic is self.b.nic:
            return self.b
        raise ValueError(f"{nic!r} is not an endpoint of {self.name}")

    def _transfer(
        self, src: Nic, dst: Nic, nbytes: int, value: Any, ctx: Any,
        then: Optional[Callable[[Event], None]],
    ) -> Event:
        """Move ``nbytes`` from ``src`` to ``dst``.

        Bytes occupy src.tx and dst.rx; the transfer completes when both
        directions have drained it, plus fabric propagation and the RDMA
        op overhead.  O(1): one completion timer per transfer, born with
        ``then`` as its continuation.  Its value is ``value``: the message
        for a ``send`` (its continuation, the peer inbox's ``_arrive``,
        puts it), ``nbytes`` for an ``rdma_*`` verb.

        When the fabric's tracer is armed and the transfer belongs to a
        traced request (``ctx`` passed explicitly, or carried as a
        ``.trace`` attribute of a sent message), the fully determined
        schedule is recorded as queue-wait + transfer spans — tracing
        reads the future completion time, it never changes it.
        """
        fabric = self.fabric
        tracer = fabric.tracer
        wait = 0
        if tracer is not None:
            if ctx is None:
                ctx = getattr(value, "trace", None)
            if ctx is not None and src is not dst:
                wait = max(src.tx.queue_delay_ns(), dst.rx.queue_delay_ns())
        now = self.env.now
        if src is dst:
            # loopback (co-located bdevs): no NIC occupancy, memcpy-scale delay
            done = now + fabric.loopback_ns
        else:
            tx_done = src.tx.reserve(nbytes)
            rx_done = dst.rx.reserve(nbytes)
            done = (tx_done if tx_done > rx_done else rx_done) + fabric.propagation_ns
        done += fabric.rdma_op_ns
        if self._stall_until > done:
            done = self._stall_until
        jitter_fn = fabric.jitter_ns_fn
        if jitter_fn is not None:
            done += jitter_fn()
        if tracer is not None and ctx is not None:
            track = f"net.{self.name}"
            if wait:
                tracer.record(ctx, f"{src.name}.tx-queue", "queue-wait", track, now, now + wait)
            tracer.record(
                ctx,
                f"{src.name}->{dst.name}",
                "transfer",
                track,
                now + wait,
                done,
                {"bytes": nbytes},
            )
        return self.env.timeout(done - now, value, then)


class Fabric:
    """A single-switch RDMA fabric.

    ``propagation_ns`` is the one-way switch traversal time;
    ``rdma_op_ns`` the per-verb initiation/completion overhead; and
    ``loopback_ns`` the cost of a transfer between co-located endpoints.
    """

    def __init__(
        self,
        env: Environment,
        propagation_ns: int = 1_500,
        rdma_op_ns: int = 3_000,
        loopback_ns: int = 500,
    ) -> None:
        self.env = env
        self.propagation_ns = int(propagation_ns)
        self.rdma_op_ns = int(rdma_op_ns)
        self.loopback_ns = int(loopback_ns)
        #: Fault injection: when set, called once per transfer; must return a
        #: non-negative jitter (ns) added to the completion time.  Drive it
        #: from a seeded RNG so runs stay deterministic.
        self.jitter_ns_fn = None
        #: Observability: a :class:`repro.obs.Tracer` armed by
        #: :class:`repro.obs.Observability`; None (default) disables all
        #: transfer-span recording at the cost of one ``is None`` check.
        self.tracer = None
        self._counter = 0
        self.connections = []

    def connect(self, nic_a: Nic, nic_b: Nic, name: Optional[str] = None) -> RdmaConnection:
        """Create an RDMA RC connection (queue pair) between two NICs."""
        self._counter += 1
        conn = RdmaConnection(
            self.env, self, nic_a, nic_b, name or f"qp{self._counter}"
        )
        self.connections.append(conn)
        return conn
