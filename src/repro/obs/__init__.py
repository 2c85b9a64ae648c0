"""``repro.obs``: zero-cost-when-disabled tracing and utilization observability.

Arm a cluster by passing ``ClusterConfig(observability=ObservabilityConfig())``
to :func:`repro.cluster.builder.build_cluster`.  That attaches an
:class:`Observability` hub to ``cluster.obs`` — a :class:`~repro.obs.trace.Tracer`
that the resources record their own spans into (every CPU core, NIC link
and drive; each array arms its stripe locks), plus a
:class:`~repro.obs.sampler.UtilizationSampler` ready to be started around a
measurement window.  When the knob is left ``None`` (the default), no
resource is armed, no trace context objects are created, and no sampling
events are scheduled — runs are byte-identical to an unobserved simulation.

See ``docs/OBSERVABILITY.md`` for the span taxonomy and how to open an
exported trace in Perfetto.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro._lazy import lazy_exports

# The tracer and the sampler load when a cluster is armed (or a name is read).
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".sampler": ("RESOURCE_CLASSES", "BottleneckReport", "UtilizationSampler"),
    ".trace": (
        "CATEGORY_PRIORITY", "Span", "TraceContext", "Tracer", "breakdown_table",
        "chrome_trace_events", "chrome_trace_json", "request_breakdowns",
        "validate_chrome_trace",
    ),
})

__all__ = [
    "ObservabilityConfig",
    "Observability",
    "Tracer",
    "TraceContext",
    "Span",
    "CATEGORY_PRIORITY",
    "chrome_trace_events",
    "chrome_trace_json",
    "validate_chrome_trace",
    "request_breakdowns",
    "breakdown_table",
    "UtilizationSampler",
    "BottleneckReport",
    "RESOURCE_CLASSES",
]


@dataclass(frozen=True)
class ObservabilityConfig:
    """The marker that arms a cluster's observability layer.

    An armed cluster always traces (per-I/O trace contexts threaded through
    the datapath) and samples utilization every 200 µs of simulated time;
    the sampler only runs between explicit ``start()``/``stop()`` calls.
    """


class Observability:
    """Per-cluster observability hub: one tracer plus one sampler.

    Built by :func:`repro.cluster.builder.build_cluster` when
    ``ClusterConfig.observability`` is set; arming wires the tracer into
    the fabric, every drive and every core of every machine, so those
    resources record their own transfer, media and compute spans without
    per-call plumbing.
    """

    def __init__(self, cluster: Any) -> None:
        from repro.obs.sampler import UtilizationSampler
        from repro.obs.trace import Tracer

        self.cluster = cluster
        self.tracer = Tracer()
        self.sampler = UtilizationSampler(cluster)
        cluster.fabric.tracer = self.tracer
        for machine in (cluster.host, *cluster.servers):
            for core in machine.cores:
                core.tracer = self.tracer
        for server in cluster.servers:
            for drive in server.drives:
                drive._tracer = self.tracer
