"""Machines: CPU cores, hosts and storage servers."""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.cluster.profiles import DEFAULT_CPU, CpuProfile
from repro.net.nic import Nic
from repro.sim.core import Environment, Event
from repro.storage.drive import NvmeDrive


class CpuCore:
    """A poll-mode CPU core modeled as a FIFO work queue.

    Work is expressed directly in nanoseconds; the core serves it in FIFO
    order at real-time rate (one nanosecond of work per nanosecond): a
    one-server 1 byte/ns :class:`~repro.sim.resources.BandwidthChannel`
    with no arithmetic left, in place because every command charges one.

    A traced charge (``ctx`` given, core armed) records its own ``compute``
    span on ``track`` — submission to completion, queueing included — when
    its timer fires, so span ids keep the order of the simulated steps.
    """

    #: A :class:`repro.obs.Tracer`, armed by :class:`repro.obs.Observability`
    #: (MD's raid thread by its array); None keeps every charge untraced.
    tracer = None

    def __init__(self, env: Environment, name: str = "core", track: str = "cpu") -> None:
        self.env = env
        self.name = name
        #: the trace track this core's compute spans render on
        self.track = track
        self._free_at = 0
        self.busy_ns = 0

    def execute(
        self, work_ns: int, then: Optional[Callable[[Event], None]] = None,
        ctx=None, span: Optional[str] = None,
    ) -> Event:
        """Event that fires when ``work_ns`` of queued work completes;
        ``then`` is its continuation (:meth:`Environment.timeout`).  ``ctx``
        (a :class:`repro.obs.TraceContext`) parents the ``span`` it records."""
        if work_ns < 0:
            raise ValueError(f"negative work {work_ns}")
        env = self.env
        if work_ns == 0:
            return env.timeout(0, None, then)
        work_ns = int(work_ns)
        now = env.now
        free = self._free_at
        self._free_at = done = (free if free > now else now) + work_ns
        self.busy_ns += work_ns
        if ctx is None or self.tracer is None:
            return env.timeout(done - now, work_ns, then)
        tracer, track = self.tracer, self.track

        def record(event) -> None:
            tracer.record(ctx, span, "compute", track, now, done)
            if then is not None:
                then(event)

        return env.timeout(done - now, work_ns, record)

    def utilization(self, elapsed_ns: int) -> float:
        return self.busy_ns / elapsed_ns if elapsed_ns > 0 else 0.0

    def reset_accounting(self) -> None:
        self.busy_ns = 0


class Machine:
    """A server with NICs and CPU cores."""

    def __init__(
        self,
        env: Environment,
        name: str,
        nics: List[Nic],
        num_cores: int = 1,
        cpu_profile: CpuProfile = DEFAULT_CPU,
    ) -> None:
        if not nics:
            raise ValueError(f"{name}: at least one NIC required")
        self.env = env
        self.name = name
        self.nics = nics
        self.cpu_profile = cpu_profile
        self.cores = [
            CpuCore(env, f"{name}.core{i}", f"{name}.cpu") for i in range(num_cores)
        ]
        self._next_core = 0

    @property
    def nic(self) -> Nic:
        """Primary NIC."""
        return self.nics[0]

    @property
    def cpu(self) -> CpuCore:
        """Primary core (servers are limited to one core per SSD, §7)."""
        return self.cores[0]

    def pick_core(self) -> CpuCore:
        """Round-robin core selection for multi-core hosts."""
        core = self.cores[self._next_core]
        self._next_core = (self._next_core + 1) % len(self.cores)
        return core

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class StorageServer(Machine):
    """A storage server exporting one (or more) NVMe drives."""

    def __init__(
        self,
        env: Environment,
        name: str,
        nics: List[Nic],
        drives: List[NvmeDrive],
        num_cores: int = 1,
        cpu_profile: CpuProfile = DEFAULT_CPU,
    ) -> None:
        super().__init__(env, name, nics, num_cores, cpu_profile)
        if not drives:
            raise ValueError(f"{name}: at least one drive required")
        self.drives = drives

    @property
    def drive(self) -> NvmeDrive:
        return self.drives[0]


class HostMachine(Machine):
    """The machine where the virtual RAID block device is attached."""
