"""Unified deterministic fault injection (§5.4 robustness subsystem).

Compose a :class:`FaultPlan` from typed events (or let :func:`chaos_plan`
roll one from a seed), hand it to a :class:`FaultInjector`, and run the
simulation: drives die, slow down and spew transient errors, NICs flap,
RDMA connections stall, storage servers crash losing in-flight parity
state — all on the sim clock, bit-identically replayable.

Chaos schedules — a seeded workload through a :func:`chaos_plan` storm,
then recovery and a shadow-model diff — are one generator of the fault
harness in :mod:`repro.verify.fuzz`.
"""

from repro.faults.backoff import BackoffPolicy
from repro.faults.detect import FailSlowDetector
from repro.faults.domains import (
    DOMAIN_KINDS,
    DomainTopology,
    FailureDomain,
    default_topology,
)
from repro.faults.events import (
    BatchFailureStorm,
    BitRot,
    DomainOutage,
    DriveErrorBurst,
    DriveFail,
    DriveFailSlow,
    DriveHeal,
    FaultEvent,
    GrayDriveStutter,
    GrayNicFlap,
    LinkStall,
    LostWrite,
    MisdirectedWrite,
    NetJitter,
    NicDegrade,
    ServerCrash,
    TornWrite,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, chaos_plan

__all__ = [
    "BackoffPolicy",
    "BatchFailureStorm",
    "BitRot",
    "DOMAIN_KINDS",
    "DomainOutage",
    "DomainTopology",
    "DriveErrorBurst",
    "DriveFail",
    "DriveFailSlow",
    "DriveHeal",
    "FailSlowDetector",
    "FailureDomain",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "GrayDriveStutter",
    "GrayNicFlap",
    "LinkStall",
    "LostWrite",
    "MisdirectedWrite",
    "NetJitter",
    "NicDegrade",
    "ServerCrash",
    "TornWrite",
    "chaos_plan",
    "default_topology",
]
