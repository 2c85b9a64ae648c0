"""Periodic utilization sampling and bottleneck attribution.

:class:`UtilizationSampler` is a simulation process that wakes every
:data:`INTERVAL_NS` and snapshots the busy counters of every shared resource
in a cluster — NIC duplex occupancy (tx/rx separately), per-drive busy
fraction and queue depth, per-core CPU busy, and stripe-lock contention.
Each sample stores *deltas* over the interval, so warmup traffic before
``start()`` never skews the numbers.

Sampling is read-only: the only events it adds to the calendar are its
own wakeup timers, so an armed sampler cannot change the behaviour of the
workload it observes (and runs must remain seeded-deterministic).  The
sampler must be started *and stopped* explicitly around the measurement
window — it never free-runs, so a plain ``env.run()`` cannot hang on it.

:meth:`UtilizationSampler.report` folds the samples into a
:class:`BottleneckReport` naming the saturated resource class, which the
``obs`` experiment uses to reproduce the paper's attribution (MD is
host-NIC-bound; dRAID at 4 KB is drive-bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

__all__ = ["UtilizationSampler", "BottleneckReport", "RESOURCE_CLASSES"]

#: Sampling period in simulated nanoseconds (200 µs).
INTERVAL_NS = 200_000

#: Resource classes a :class:`BottleneckReport` can name as the bottleneck,
#: each a mean busy fraction in ``[0, 1]`` (values slightly above 1 are
#: possible for drives when queued access latency overlaps).
RESOURCE_CLASSES = (
    "host-nic",
    "server-nic",
    "drive",
    "host-cpu",
    "server-cpu",
    "raid-thread",
)


@dataclass
class BottleneckReport:
    """Aggregated utilization per resource class plus the saturated one.

    ``utilization`` maps each of :data:`RESOURCE_CLASSES` (plus the
    informational ``host-nic-tx``/``host-nic-rx`` duplex split,
    ``drive-queue`` mean queued work per drive in microseconds, and
    ``lock-waiters`` mean stripe-lock waiter count) to its mean over the
    sampled window.  ``bottleneck`` is the
    class with the highest mean busy fraction.
    """

    bottleneck: str
    utilization: Dict[str, float]
    samples: int
    window_ns: int

    def render(self) -> str:
        """Human-readable multi-line summary of the report."""
        lines = [
            f"bottleneck: {self.bottleneck}"
            f"  ({self.samples} samples over {self.window_ns / 1e6:.2f} ms)"
        ]
        for key in RESOURCE_CLASSES:
            if key in self.utilization:
                lines.append(f"  {key:>12}: {self.utilization[key] * 100:6.1f}% busy")
        for key in ("host-nic-tx", "host-nic-rx"):
            if key in self.utilization:
                lines.append(f"  {key:>12}: {self.utilization[key] * 100:6.1f}% busy")
        if "drive-queue" in self.utilization:
            lines.append(
                f"  {'drive-queue':>12}: {self.utilization['drive-queue']:6.2f} us queued"
            )
        if "lock-waiters" in self.utilization:
            lines.append(f"  {'lock-waiters':>12}: {self.utilization['lock-waiters']:6.2f} waiting")
        return "\n".join(lines)


class _Counter:
    """Delta tracker over one monotonically increasing counter."""

    __slots__ = ("read", "last")

    def __init__(self, read) -> None:
        self.read = read
        self.last = 0

    def rebase(self) -> None:
        self.last = self.read()

    def delta(self) -> int:
        value = self.read()
        out = value - self.last
        self.last = value
        return out


class UtilizationSampler:
    """Samples the resource occupancy of ``cluster`` (a
    :class:`repro.cluster.builder.Cluster`) every :data:`INTERVAL_NS` of
    sim time."""

    def __init__(self, cluster: Any) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.samples: List[Dict[str, float]] = []
        self._running = False
        self._arrays: List[Any] = []
        self._counters: Dict[str, _Counter] = {}
        self._drive_counters: List[Dict[str, _Counter]] = []

    # -- wiring -------------------------------------------------------------

    def attach_array(self, array: Any) -> None:
        """Include a controller's stripe locks (and MD's raid thread) in sampling."""
        if array not in self._arrays:
            self._arrays.append(array)

    def _build_counters(self) -> None:
        cluster = self.cluster
        counters: Dict[str, _Counter] = {}
        host_nic = cluster.host.nic
        counters["host-nic-tx"] = _Counter(lambda c=host_nic.tx: c.busy_ns)
        counters["host-nic-rx"] = _Counter(lambda c=host_nic.rx: c.busy_ns)
        for i, server in enumerate(cluster.servers):
            for j, nic in enumerate(server.nics):
                counters[f"s{i}-nic{j}-tx"] = _Counter(lambda c=nic.tx: c.busy_ns)
                counters[f"s{i}-nic{j}-rx"] = _Counter(lambda c=nic.rx: c.busy_ns)
        for core in cluster.host.cores:
            counters[f"host-{core.name}"] = _Counter(lambda c=core: c.busy_ns)
        for i, server in enumerate(cluster.servers):
            for core in server.cores:
                counters[f"s{i}-{core.name}"] = _Counter(lambda c=core: c.busy_ns)
        for array in self._arrays:
            thread = getattr(array, "md_thread", None)
            if thread is not None:
                counters[f"raid-thread-{array.name}"] = _Counter(lambda c=thread: c.busy_ns)
        self._counters = counters
        self._drive_counters = []
        for server in cluster.servers:
            for drive in server.drives:
                self._drive_counters.append(
                    {
                        "busy": _Counter(lambda d=drive: d.stats.busy_ns),
                        "reads": _Counter(lambda d=drive: d.stats.read_ops),
                        "writes": _Counter(lambda d=drive: d.stats.write_ops),
                    }
                )

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Begin sampling at ``env.now``; rebases all counters first."""
        if self._running:
            return
        self._build_counters()
        for counter in self._counters.values():
            counter.rebase()
        for group in self._drive_counters:
            for counter in group.values():
                counter.rebase()
        self._running = True
        self.env.process(self._run(), name="obs.sampler")

    def stop(self) -> None:
        """Stop sampling after the currently pending wakeup (if any)."""
        self._running = False

    def _run(self):
        while self._running:
            yield self.env.timeout(INTERVAL_NS)
            if not self._running:
                break
            self.samples.append(self._snapshot())

    # -- measurement --------------------------------------------------------

    def _snapshot(self) -> Dict[str, float]:
        cluster = self.cluster
        sample: Dict[str, float] = {"t_ns": float(self.env.now)}
        nic_busy: Dict[str, float] = {}
        cpu_busy: Dict[str, float] = {}
        thread_busy = 0.0
        for key, counter in self._counters.items():
            frac = counter.delta() / INTERVAL_NS
            if key.startswith("host-nic"):
                sample[key] = frac
            elif "-nic" in key:
                nic_busy[key] = frac
            elif key.startswith("raid-thread"):
                thread_busy = max(thread_busy, frac)
            elif key.startswith("host-"):
                cpu_busy.setdefault("host", 0.0)
                cpu_busy["host"] += frac
            else:
                cpu_busy.setdefault("server", 0.0)
                cpu_busy["server"] += frac
        sample["host-nic"] = max(sample.get("host-nic-tx", 0.0), sample.get("host-nic-rx", 0.0))
        sample["server-nic"] = max(nic_busy.values(), default=0.0)
        host_cores = len(cluster.host.cores)
        server_cores = sum(len(s.cores) for s in cluster.servers)
        sample["host-cpu"] = cpu_busy.get("host", 0.0) / max(1, host_cores)
        sample["server-cpu"] = cpu_busy.get("server", 0.0) / max(1, server_cores)
        sample["raid-thread"] = thread_busy
        drive_utils: List[float] = []
        queue_depths: List[float] = []
        drives = [d for server in cluster.servers for d in server.drives]
        for drive, group in zip(drives, self._drive_counters):
            profile = drive.profile
            busy = group["busy"].delta()
            # Channel-transfer busy plus NAND access occupancy: each op holds
            # an internal die for its access latency even though the latency
            # does not serialize on the transfer channel.  This captures the
            # IOPS-boundness of small random I/O the way §2.3 describes it.
            occupancy = busy + (
                group["reads"].delta() * profile.read_latency_ns
                + group["writes"].delta() * profile.write_latency_ns
            )
            drive_utils.append(occupancy / (INTERVAL_NS * profile.parallelism))
            queue_depths.append(drive.backlog_ns() / 1000.0)
        sample["drive"] = sum(drive_utils) / max(1, len(drive_utils))
        sample["drive-queue"] = sum(queue_depths) / max(1, len(queue_depths))
        waiters = 0
        for array in self._arrays:
            locks = getattr(array, "locks", None)
            if locks is not None:
                waiters += sum(len(q) for q in locks._waiting.values())
        sample["lock-waiters"] = float(waiters)
        return sample

    def report(self) -> BottleneckReport:
        """Aggregate the samples into one report.

        Means every sampled key over the window and names the resource
        class with the highest mean busy fraction as the bottleneck.
        """
        samples = self.samples
        if not samples:
            return BottleneckReport("idle", {}, 0, 0)
        keys = [k for k in samples[0] if k != "t_ns"]
        means = {k: sum(s.get(k, 0.0) for s in samples) / len(samples) for k in keys}
        # Utilization above 1.0 only signals saturation (the drive occupancy
        # proxy can overstate overlapped access work), so clamp before
        # comparing; ties between saturated resources go to the class listed
        # first in RESOURCE_CLASSES — the one closest to the host.
        bottleneck, best = "idle", 0.0
        for key in RESOURCE_CLASSES:
            value = min(1.0, means.get(key, 0.0))
            if value > best:
                bottleneck, best = key, value
        window = int(samples[-1]["t_ns"] - samples[0]["t_ns"]) + INTERVAL_NS
        return BottleneckReport(bottleneck, means, len(samples), window)
