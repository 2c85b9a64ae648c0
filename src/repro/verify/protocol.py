"""Per-request state machines for the §4 dRAID protocol and NVMe-oF.

:class:`ProtocolChecker` mirrors, from the outside, the state every
in-flight command is supposed to traverse, and raises
:class:`~repro.verify.InvariantViolation` the moment an observed message
is impossible under the protocol:

* **cid-reuse** — a command id registered while still in flight.  §5.4
  retries must be *new* commands (idempotence comes from replaying the
  pinned payload under a fresh cid, never from re-delivering an old one).
* **duplicate-completion** — the same participant acknowledging the same
  sub-operation twice (host side: per ``(kind, member)`` of one cid;
  server side: per ``(cid, kind, io_offset)`` of one server, since a
  reconstruction reducer legitimately answers both its own segment and
  the rebuilt one under a single cid).
* **premature-parity-completion** — a parity server acknowledging a
  partial-stripe write before it has folded every partial the Parity
  command's ``wait_num`` promised (Algorithm 2's completion gate).
* **fencing-beyond-parity** — the §5.4 fencing/ejection paths leaving
  more members failed than the geometry has parity.

The checker never *changes* an exchange — hooks observe send/receive
points that already exist, and every hook site short-circuits on the
controller's ``verifier`` attribute being None (the tracer pattern), so
unarmed runs stay byte-identical.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.sim.core import Environment


class _RequestState:
    """Host-side expectations for one in-flight cid."""

    __slots__ = ("cid", "expected", "participants", "opened_ns", "acks")

    def __init__(self, cid, expected, participants, opened_ns) -> None:
        self.cid = cid
        self.expected = dict(expected)
        self.participants = set(participants)
        self.opened_ns = opened_ns
        #: (kind, member) pairs already acknowledged ok
        self.acks: Set[Tuple[str, int]] = set()


class ProtocolChecker:
    """Validates the message exchange of every registered request."""

    #: how many retired cids to remember for late-completion accounting
    CLOSED_WINDOW = 8192

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.violations: List["InvariantViolation"] = []
        self._open: Dict[int, _RequestState] = {}
        self._closed: Dict[int, None] = {}  # insertion-ordered ring
        #: server-side acks seen: (server, cid, kind, io_offset)
        self._server_acks: Set[Tuple[int, int, str, int]] = set()
        #: (server, cid) -> parity reduction key of the ParityCmd(s)
        self._parity_key: Dict[Tuple[int, int], int] = {}
        #: (server, key) -> partials promised by ParityCmd wait_nums
        self._parity_waits: Dict[Tuple[int, int], int] = {}
        #: (server, key) -> partials actually folded so far
        self._parity_folds: Dict[Tuple[int, int], int] = {}
        #: per-bdev NVMe-oF completions seen: (bdev_name, cid)
        self._nvmeof_acks: Set[Tuple[str, int]] = set()
        # accounting (not violations)
        self.checked_messages = 0
        self.late_completions = 0
        self.requests_opened = 0

    # -- plumbing -----------------------------------------------------------

    def _violate(
        self,
        invariant: str,
        detail: str,
        cid: Optional[int] = None,
        trace: Optional[Any] = None,
    ) -> None:
        from repro.verify import InvariantViolation

        violation = InvariantViolation(
            invariant, detail, time_ns=self.env.now, cid=cid, trace=trace
        )
        self.violations.append(violation)
        raise violation

    def _retire(self, cid: int) -> None:
        self._closed[cid] = None
        if len(self._closed) > self.CLOSED_WINDOW:
            self._closed.pop(next(iter(self._closed)))

    # -- host-side hooks (DraidArray) --------------------------------------

    def on_register(self, cid: int, expected, participants) -> None:
        """A new request opened (one ``_register`` call on the host)."""
        if cid in self._open:
            self._violate(
                "cid-reuse",
                f"cid registered again while still in flight "
                f"(opened at t={self._open[cid].opened_ns})",
                cid=cid,
            )
        self.requests_opened += 1
        self._open[cid] = _RequestState(cid, expected, participants, self.env.now)

    def on_deregister(self, cid: int) -> None:
        """The host stopped waiting (op finished, errored, or expired)."""
        if self._open.pop(cid, None) is not None:
            self._retire(cid)

    def on_host_completion(self, member: int, comp) -> None:
        """A completion arrived on the host's receive loop for ``member``."""
        self.checked_messages += 1
        state = self._open.get(comp.cid)
        if state is None:
            # late completion for a retired/timed-out cid: the host drops
            # it (and must — that is what makes retries idempotent); only
            # account it.
            self.late_completions += 1
            return
        if not comp.ok:
            return
        key = (comp.kind, member)
        if key in state.acks:
            self._violate(
                "duplicate-completion",
                f"member {member} acknowledged {comp.kind!r} twice for one "
                f"request",
                cid=comp.cid,
                trace=comp.trace,
            )
        state.acks.add(key)

    # -- server-side hooks (DraidBdevServer) -------------------------------

    def on_parity_cmd(self, server: int, cid: int, key: int, wait_num: int) -> None:
        """A ParityCmd reached ``server``: ``wait_num`` more partials owed."""
        self._parity_key[(server, cid)] = key
        slot = (server, key)
        self._parity_waits[slot] = self._parity_waits.get(slot, 0) + wait_num

    def on_parity_fold(self, server: int, key: int) -> None:
        """``server`` folded one peer partial into reduction ``key``."""
        slot = (server, key)
        self._parity_folds[slot] = self._parity_folds.get(slot, 0) + 1

    def on_server_completion(
        self,
        server: int,
        cid: int,
        kind: str,
        ok: bool,
        io_offset: int = 0,
        trace: Optional[Any] = None,
    ) -> None:
        """``server`` sent a DraidCompletion upstream."""
        self.checked_messages += 1
        if kind == "parity":
            self._check_parity_completion(server, cid, ok, trace)
        if not ok:
            return
        ack = (server, cid, kind, io_offset)
        if ack in self._server_acks:
            self._violate(
                "duplicate-completion",
                f"server {server} sent a second ok {kind!r} completion "
                f"(io_offset={io_offset})",
                cid=cid,
                trace=trace,
            )
        self._server_acks.add(ack)

    def _check_parity_completion(self, server, cid, ok, trace) -> None:
        """Algorithm 2's gate: an ok parity ack implies every promised
        partial was folded first."""
        key = self._parity_key.pop((server, cid), None)
        if key is None:
            if ok:
                self._violate(
                    "premature-parity-completion",
                    f"server {server} acknowledged a parity fold it never "
                    f"received a ParityCmd for",
                    cid=cid,
                    trace=trace,
                )
            return
        slot = (server, key)
        waits = self._parity_waits.pop(slot, 0)
        folds = self._parity_folds.get(slot, 0)
        if not ok:
            # failed reduction: the server dropped its state; partials
            # already folded stay accounted for any key reuse, mirroring
            # the bdev's own bookkeeping
            return
        if folds < waits:
            self._violate(
                "premature-parity-completion",
                f"server {server} acknowledged parity key {key} after "
                f"folding {folds}/{waits} promised partials",
                cid=cid,
                trace=trace,
            )
        remaining = folds - waits
        if remaining > 0:
            self._parity_folds[slot] = remaining
        else:
            self._parity_folds.pop(slot, None)

    def on_server_crash(self, server: int) -> None:
        """Volatile reduce state is legitimately lost on a crash."""
        for mapping in (self._parity_key, self._parity_waits, self._parity_folds):
            for slot in [s for s in mapping if s[0] == server]:
                del mapping[slot]

    # -- baseline (plain NVMe-oF) hooks ------------------------------------

    def on_nvmeof_completion(self, bdev_name: str, cid: int, ok: bool) -> None:
        """A completion reached a baseline host bdev (md/spdk datapath)."""
        self.checked_messages += 1
        if not ok:
            return
        ack = (bdev_name, cid)
        if ack in self._nvmeof_acks:
            self._violate(
                "duplicate-completion",
                f"{bdev_name} received a second ok NVMe-oF completion",
                cid=cid,
            )
        self._nvmeof_acks.add(ack)

    # -- array-level checks -------------------------------------------------

    def check_fence(self, array) -> None:
        """§5.4: fencing/ejection must never exceed the code's guaranteed
        tolerance (fewer than its parity count for non-MDS codes)."""
        failed = len(array.failed)
        tolerance = array.fault_tolerance
        if failed > tolerance:
            self._violate(
                "fencing-beyond-parity",
                f"{array.name}: {failed} members failed/fenced, the code "
                f"tolerates {tolerance}",
            )
