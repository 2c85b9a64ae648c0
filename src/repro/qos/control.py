"""Overload-control configuration and the per-cluster control hub.

:class:`OverloadConfig` is the declarative knob block on
:class:`~repro.cluster.builder.ClusterConfig`; :class:`QosControl` is the
armed instance living at ``cluster.qos``, shared by the controller, the
transports and the background daemons.  Every knob defaults to *off*, and
the entire subsystem follows the repo's armed-slot convention: when
``cluster.qos`` is ``None`` (or an individual knob is unset) the datapath
takes exactly the pre-existing branches, so unarmed runs stay
byte-identical to every golden.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.qos.admission import AdmissionQueue
from repro.qos.breaker import CircuitBreaker
from repro.qos.budget import RetryBudget


@dataclass
class OverloadConfig:
    """Declarative overload-control knobs (all default to disarmed).

    Queue bounds: ``admission_depth`` caps concurrently admitted I/Os at
    the host submission boundary (``background_depth`` is the earlier shed
    watermark for scrub/rebuild I/O); ``target_queue_depth`` caps in-service
    commands per NVMe-oF target / dRAID bdev connection.  Deadlines:
    ``default_deadline_ns`` stamps every admitted I/O that carries none
    with ``now + default_deadline_ns`` (ns of sim time).  Retry budget:
    ``retry_deposit_ratio``/``retry_burst`` parameterize the per-controller
    :class:`~repro.qos.budget.RetryBudget` (``None`` ratio = no budget).
    Breaker: ``breaker_threshold`` arms the per-member
    :class:`~repro.qos.breaker.CircuitBreaker` (``None`` = off) with EWMA
    weight ``breaker_alpha``, warm-up ``breaker_min_samples`` and trip
    rate-limit ``breaker_cooldown_ns`` (ns).
    """

    #: max concurrently admitted host I/Os (None = unbounded, disarmed)
    admission_depth: Optional[int] = None
    #: occupancy watermark that sheds background I/O (None = depth // 2)
    background_depth: Optional[int] = None
    #: max in-service commands per target connection (None = unbounded)
    target_queue_depth: Optional[int] = None
    #: relative deadline stamped on admitted I/Os lacking one, ns (None = off)
    default_deadline_ns: Optional[int] = None
    #: retry tokens deposited per success (None = retries not budgeted)
    retry_deposit_ratio: Optional[float] = None
    #: retry-budget bucket cap and initial balance, whole tokens
    retry_burst: float = 10.0
    #: EWMA failure rate tripping the member breaker (None = breaker off)
    breaker_threshold: Optional[float] = None
    #: EWMA weight of the newest breaker sample
    breaker_alpha: float = 0.2
    #: breaker observations required before a member may trip
    breaker_min_samples: int = 8
    #: minimum sim-time gap between breaker trips, ns
    breaker_cooldown_ns: int = 10_000_000


@dataclass
class QosStats:
    """Counters for overload-control decisions (own block, so the frozen
    ``FaultStats.summary()`` format embedded in chaos goldens is untouched).

    ``busy_rejections`` counts host-side admission fast-rejects;
    ``shed_background`` background I/Os turned away at the watermark plus
    daemon yield pauses; ``deadline_exceeded`` terminal deadline failures
    raised by retry loops or stamped at admission; ``retries_denied``
    retries refused by a dry retry budget; ``breaker_trips`` members
    ejected by the circuit breaker.
    """

    busy_rejections: int = 0
    shed_background: int = 0
    deadline_exceeded: int = 0
    retries_denied: int = 0
    breaker_trips: int = 0

    def summary(self) -> str:
        """One deterministic line for smoke scripts and reports."""
        return (
            f"busy={self.busy_rejections} shed_bg={self.shed_background} "
            f"deadline={self.deadline_exceeded} retries_denied={self.retries_denied} "
            f"breaker_trips={self.breaker_trips}"
        )


class QosControl:
    """The armed overload-control hub shared across a cluster.

    Holds the optional :class:`~repro.qos.admission.AdmissionQueue`,
    :class:`~repro.qos.budget.RetryBudget` and
    :class:`~repro.qos.breaker.CircuitBreaker` instances (each ``None``
    when its knob block is unset) plus the shared :class:`QosStats`.
    Controllers and daemons consult it through ``cluster.qos``.
    """

    def __init__(self, config: OverloadConfig) -> None:
        if config.default_deadline_ns is not None and config.default_deadline_ns <= 0:
            raise ValueError(
                f"default_deadline_ns must be positive, got {config.default_deadline_ns}"
            )
        self.config = config
        self.stats = QosStats()
        self.admission: Optional[AdmissionQueue] = None
        if config.admission_depth is not None:
            self.admission = AdmissionQueue(
                config.admission_depth, config.background_depth
            )
        self.retry_budget: Optional[RetryBudget] = None
        if config.retry_deposit_ratio is not None:
            self.retry_budget = RetryBudget(
                config.retry_deposit_ratio, config.retry_burst
            )
        self.breaker: Optional[CircuitBreaker] = None
        if config.breaker_threshold is not None:
            self.breaker = CircuitBreaker(
                threshold=config.breaker_threshold,
                alpha=config.breaker_alpha,
                min_samples=config.breaker_min_samples,
                cooldown_ns=config.breaker_cooldown_ns,
            )

    @property
    def under_pressure(self) -> bool:
        """True when the admission queue is at/above the shed watermark."""
        return self.admission is not None and self.admission.under_pressure
