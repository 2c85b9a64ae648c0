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

from repro._lazy import lazy_exports

# Nothing is imported until read: an unarmed run never loads the injector,
# the event catalogue or the domain map (the datapath imports ``backoff``
# itself).
__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".detect": ("FailSlowDetector",),
    ".domains": ("DOMAIN_KINDS", "DomainTopology", "FailureDomain", "default_topology"),
    ".events": (
        "BatchFailureStorm", "BitRot", "DomainOutage", "DriveErrorBurst",
        "DriveFail", "DriveFailSlow", "DriveHeal", "FaultEvent",
        "GrayDriveStutter", "GrayNicFlap", "LinkStall", "LostWrite",
        "MisdirectedWrite", "NetJitter", "NicDegrade", "ServerCrash", "TornWrite",
    ),
    ".injector": ("FaultInjector",),
    ".plan": ("FaultPlan", "chaos_plan"),
})
