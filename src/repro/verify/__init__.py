"""Runtime invariant checking for the whole simulated datapath.

This package is the repository's sanitizer layer, in the spirit of
FoundationDB-style deterministic simulation testing: every run *can* be
machine-checked against the invariants the paper's correctness argument
rests on, and the checks are zero-cost when disarmed.

Three cooperating pieces:

* :class:`~repro.verify.kernel.KernelSanitizer` — hooks into the event
  kernel (:mod:`repro.sim.core`), the counted resources
  (:mod:`repro.sim.resources`) and the stripe-lock manager
  (:mod:`repro.raid.locks`): deadlock detection with a wait graph,
  lock-order inversions, double releases, leaked holds, and events
  dispatched in the past.
* :class:`~repro.verify.protocol.ProtocolChecker` — validates the §4
  dRAID message exchange (and the plain NVMe-oF completion stream)
  against per-request state machines: no parity acknowledgment before
  all partial folds, no duplicate acks, command-id uniqueness across
  retries, fencing never exceeding parity.
* :mod:`repro.verify.fuzz` — a shadow-model differential fuzzer that
  runs seeded workload+fault+corruption schedules against all three
  controllers with the sanitizer armed and shrinks failures to minimal
  reproducers.

Arming: pass ``ClusterConfig(verify=VerifyConfig())`` to
:func:`repro.cluster.build_cluster`; the builder attaches a
:class:`Verifier` hub at ``cluster.verify`` and every controller built on
that cluster wires itself up.  A violated invariant raises
:class:`InvariantViolation`, a structured exception carrying the invariant
name, the simulated time, the command id and the trace span of the
offending request (when observability is armed too).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.verify.kernel import KernelSanitizer
from repro.verify.protocol import ProtocolChecker

__all__ = [
    "InvariantViolation",
    "KernelSanitizer",
    "ProtocolChecker",
    "Verifier",
    "VerifyConfig",
]


class InvariantViolation(RuntimeError):
    """A machine-checked invariant failed.

    Structured so tests and the fuzzer can assert on *which* invariant
    broke and *where*:

    * ``invariant`` — stable kebab-case name (``"deadlock"``,
      ``"lock-order-inversion"``, ``"double-release"``, ``"leaked-hold"``,
      ``"past-event"``, ``"time-travel"``, ``"cid-reuse"``,
      ``"duplicate-completion"``, ``"premature-parity-completion"``,
      ``"fencing-beyond-parity"``).
    * ``detail`` — human-readable description of the offending state.
    * ``time_ns`` — simulated time of detection.
    * ``cid`` — command id of the offending request, when applicable.
    * ``trace`` — the :class:`repro.obs.TraceContext` span of the
      offending request (None when observability is unarmed).
    """

    def __init__(
        self,
        invariant: str,
        detail: str,
        time_ns: int = 0,
        cid: Optional[int] = None,
        trace: Optional[Any] = None,
    ) -> None:
        self.invariant = invariant
        self.detail = detail
        self.time_ns = time_ns
        self.cid = cid
        self.trace = trace
        where = f"t={time_ns}ns"
        if cid is not None:
            where += f" cid={cid}"
        if trace is not None:
            where += f" span={trace.trace_id}:{trace.span_id}"
        super().__init__(f"[{invariant}] {detail} ({where})")


@dataclass(frozen=True)
class VerifyConfig:
    """What to arm when ``ClusterConfig.verify`` is set.

    The defaults arm everything; both flags exist so a test can isolate
    one layer (e.g. protocol checking without the kernel's rebound run
    loop).
    """

    #: kernel sanitizer: deadlock / lock order / leaked holds / past events
    kernel: bool = True
    #: per-request §4 / NVMe-oF protocol state machines
    protocol: bool = True


class Verifier:
    """Per-cluster sanitizer hub, attached at ``cluster.verify``.

    Mirrors the arming pattern of :class:`repro.obs.Observability`: the
    builder constructs one when ``ClusterConfig.verify`` is set and every
    instrumentation site short-circuits on the attribute being None.
    """

    def __init__(self, cluster, config: VerifyConfig) -> None:
        self.cluster = cluster
        self.config = config
        self.kernel: Optional[KernelSanitizer] = (
            KernelSanitizer(cluster.env) if config.kernel else None
        )
        self.protocol: Optional[ProtocolChecker] = (
            ProtocolChecker(cluster.env) if config.protocol else None
        )

    @property
    def violations(self) -> List[InvariantViolation]:
        """Every violation either checker has recorded (raised or not)."""
        out: List[InvariantViolation] = []
        if self.kernel is not None:
            out.extend(self.kernel.violations)
        if self.protocol is not None:
            out.extend(self.protocol.violations)
        return out

    def watch_array(self, array) -> None:
        """Wire a RAID controller's lock manager into the kernel sanitizer.

        Called from ``RaidArray.__init__`` on verify-armed clusters.
        """
        if self.kernel is not None:
            self.kernel.watch_locks(array.locks)

    def check_fence(self, array) -> None:
        """Invariant: fencing never exceeds the code's fault tolerance."""
        if self.protocol is not None:
            self.protocol.check_fence(array)

    def check_leaks(self) -> None:
        """Assert no lock/slot is still held by a terminated process."""
        if self.kernel is not None:
            self.kernel.check_leaks()

    def check_quiescent(self) -> None:
        """Assert every watched lock and resource is fully released."""
        if self.kernel is not None:
            self.kernel.check_quiescent()
