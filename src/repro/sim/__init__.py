"""Discrete-event simulation kernel.

This package implements a small, deterministic, generator-based
discrete-event simulator in the style of ``simpy``.  Time is modeled as an
integer number of nanoseconds.  The kernel is self-contained so that the
rest of the repository depends on no external simulation framework.

Public surface:

* :class:`~repro.sim.core.Environment` — the event loop.
* :class:`~repro.sim.core.Event`, :class:`~repro.sim.core.Timeout`,
  :class:`~repro.sim.core.Process` — primitive events.
* :class:`~repro.sim.core.AllOf` / :class:`~repro.sim.core.AnyOf` —
  condition events.
* :class:`~repro.sim.core.Interrupt` — raised inside a process when
  another process interrupts it.
* :mod:`repro.sim.resources` — FIFO stores, counted resources, the
  k-server FIFO scheduler (:class:`~repro.sim.resources.FifoServers`) under
  NICs and SSDs, and the fluid bandwidth channels built on it.
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.resources import (
    BandwidthChannel,
    CapacityResource,
    FifoServers,
    Store,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "BandwidthChannel",
    "CapacityResource",
    "Environment",
    "Event",
    "FifoServers",
    "Interrupt",
    "Process",
    "SimulationError",
    "Store",
    "Timeout",
]
