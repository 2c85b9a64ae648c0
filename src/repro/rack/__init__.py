"""Rack-scale composition: many arrays, many tenants, one simulation.

The paper evaluates one dRAID array at a time; its pitch is
datacenter-scale disaggregation.  This package is the missing composition
layer: a :class:`Rack` hosts several independent RAID arrays (any mix of
the three controllers) inside one :class:`~repro.sim.core.Environment`, a
:class:`VolumeManager` places tenant volumes onto those arrays by
capacity and load and migrates them between arrays when one runs hot,
and an optional :class:`RackQosConfig` arms per-tenant QoS at every
array's front door — token-bucket rate limits
(:class:`~repro.qos.tokens.TokenBucket`) plus weighted fair sharing of
the shared submission-queue slots
(:class:`~repro.qos.fair.WeightedFairQueue`) — so one open-loop
aggressor cannot take a co-located tenant's latency budget with it.

A rack with a single unnamed array and no QoS builds the exact historic
testbed (same machine names, same event sequence), so every committed
golden stays byte-identical; everything above is armed-slot opt-in, the
same convention as faults/obs/verify/qos.  See ``docs/RACK.md`` for the
operator guide.
"""

from repro.rack.balance import HotSpotBalancer
from repro.rack.topology import (
    ArraySpec,
    Rack,
    RackArray,
    RackConfig,
    RackQosConfig,
    build_rack,
)
from repro.rack.volumes import (
    MigrationRecord,
    Volume,
    VolumeManager,
    VolumeSpec,
)

__all__ = [
    "ArraySpec",
    "HotSpotBalancer",
    "MigrationRecord",
    "Rack",
    "RackArray",
    "RackConfig",
    "RackQosConfig",
    "Volume",
    "VolumeManager",
    "VolumeSpec",
    "build_rack",
]
