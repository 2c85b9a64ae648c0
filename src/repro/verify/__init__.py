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
  lock-order inversions, double releases and leaked holds, checked
  around the stock run loop.
* :class:`~repro.verify.protocol.ProtocolChecker` — validates the §4
  dRAID message exchange (and the plain NVMe-oF completion stream)
  against per-request state machines: no parity acknowledgment before
  all partial folds, no duplicate acks, command-id uniqueness across
  retries, fencing never exceeding parity.
* :mod:`repro.verify.fuzz` — the one fault-schedule harness: seeded
  fuzz schedules and chaos fault storms run against all three
  controllers with the sanitizer armed, recover with one playbook, diff
  against a shadow model, and shrink fuzz failures to minimal
  reproducers.

Arming: pass ``ClusterConfig(verify=VerifyConfig())`` to
:func:`repro.cluster.build_cluster`; the builder attaches a
:class:`Verifier` hub at ``cluster.verify`` and every controller built on
that cluster wires itself up.  A violated invariant raises
:class:`InvariantViolation`, a structured exception carrying the invariant
name, the simulated time, the command id and the trace span of the
offending request (when observability is armed too).
:meth:`Verifier.check_quiescent` raises again the first violation a caller
caught and swallowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro._lazy import lazy_exports

# The sanitizer and the protocol checker load when a cluster is armed.
__getattr__, __dir__, _lazy_names = lazy_exports(__name__, globals(), {
    ".kernel": ("KernelSanitizer",),
    ".protocol": ("ProtocolChecker",),
})

__all__ = [
    "InvariantViolation",
    "Verifier",
    "VerifyConfig",
    *_lazy_names,
]


class InvariantViolation(RuntimeError):
    """A machine-checked invariant failed.

    Structured so tests and the fuzzer can assert on *which* invariant
    broke and *where*:

    * ``invariant`` — stable kebab-case name (``"deadlock"``,
      ``"lock-order-inversion"``, ``"double-release"``, ``"leaked-hold"``,
      ``"cid-reuse"``,
      ``"duplicate-completion"``, ``"premature-parity-completion"``,
      ``"premature-recon-completion"``, ``"fencing-beyond-parity"``).
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


class Checker:
    """What both checkers share: the environment they watch and every
    violation they have raised."""

    def __init__(self, env) -> None:
        self.env = env
        self.violations: List[InvariantViolation] = []

    def _violate(self, invariant: str, detail: str, cid: Optional[int] = None,
                 trace: Optional[Any] = None) -> None:
        violation = InvariantViolation(invariant, detail, self.env.now, cid, trace)
        self.violations.append(violation)
        raise violation


@dataclass(frozen=True)
class VerifyConfig:
    """Set ``ClusterConfig.verify`` to one to arm both checkers: the kernel
    sanitizer and the per-request protocol state machines.  It has no
    settings — the sanitizer watches the stock kernel, so there is no
    layer to leave out."""


class Verifier:
    """Per-cluster sanitizer hub, attached at ``cluster.verify``.

    Mirrors the arming pattern of :class:`repro.obs.Observability`: the
    builder constructs one when ``ClusterConfig.verify`` is set and every
    instrumentation site short-circuits on the attribute being None.
    """

    def __init__(self, cluster) -> None:
        from repro.verify.kernel import KernelSanitizer
        from repro.verify.protocol import ProtocolChecker

        self.cluster = cluster
        self.kernel = KernelSanitizer(cluster.env)
        self.protocol = ProtocolChecker(cluster.env)

    @property
    def violations(self) -> List[InvariantViolation]:
        """Every violation either checker has recorded (raised or not)."""
        return self.kernel.violations + self.protocol.violations

    def watch_array(self, array) -> None:
        """Wire a RAID controller's lock manager into the kernel sanitizer.

        Called from ``RaidArray.__init__`` on verify-armed clusters.
        """
        self.kernel.watch_locks(array.locks)

    def check_fence(self, array) -> None:
        """Invariant: fencing never exceeds the code's fault tolerance."""
        self.protocol.check_fence(array)

    def check_quiescent(self) -> None:
        """Raise the first recorded violation — one a caller caught and
        swallowed included — then assert every watched lock and resource
        is fully released."""
        violations = self.violations
        if violations:
            raise violations[0]
        self.kernel.check_quiescent()
