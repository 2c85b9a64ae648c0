"""YCSB core workloads A-F against any key-value interface (§9.6).

The store must provide ``get(key) -> Event``, ``put(key) -> Event`` and
(for YCSB-F) read-modify-write is composed as get followed by put.  Inserts
(YCSB-D) extend the keyspace.  Workload definitions follow the YCSB core
package:

=========  =======================  ============  ==============
workload   operation mix            distribution  the paper runs
=========  =======================  ============  ==============
A          50% read / 50% update    zipfian       yes
B          95% read /  5% update    zipfian       yes
C          100% read                zipfian       yes
D          95% read /  5% insert    latest        yes
E          scan-heavy               —             no (needs scans)
F          50% read / 50% RMW       zipfian       yes
=========  =======================  ============  ==============

Each client is a :class:`~repro.workloads.issue.ClosedLoop`, as each of
FIO's workers is.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict

from repro.metrics.latency import LatencyRecorder, LatencySummary
from repro.workloads.generators import LatestGenerator, UniformGenerator, ZipfianGenerator
from repro.workloads.issue import ClosedLoop

#: maximum scan length (YCSB default 100); a scan's length is uniform in [1, max]
MAX_SCAN_LENGTH = 100


@dataclass(frozen=True)
class YcsbSpec:
    """Operation mix of one YCSB workload."""

    name: str
    read: float = 0.0
    update: float = 0.0
    insert: float = 0.0
    rmw: float = 0.0
    scan: float = 0.0
    distribution: str = "zipfian"  #: zipfian | latest | uniform

    def __post_init__(self) -> None:
        total = self.read + self.update + self.insert + self.rmw + self.scan
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"{self.name}: operation mix sums to {total}, not 1")


YCSB_WORKLOADS: Dict[str, YcsbSpec] = {
    "A": YcsbSpec("A", read=0.5, update=0.5),
    "B": YcsbSpec("B", read=0.95, update=0.05),
    "C": YcsbSpec("C", read=1.0),
    "D": YcsbSpec("D", read=0.95, insert=0.05, distribution="latest"),
    # E needs range scans; the paper skips it, we support it as an
    # extension for stores that implement scan() (the LSM KV store does)
    "E": YcsbSpec("E", scan=0.95, insert=0.05),
    "F": YcsbSpec("F", read=0.5, rmw=0.5),
}


@dataclass(frozen=True)
class YcsbResult:
    """Outcome of one YCSB measurement window: throughput in thousands of
    operations per second, the operation latency distribution (ns), and the
    window length ``measured_ns`` in simulated nanoseconds."""

    kiops: float
    latency: LatencySummary
    ops_completed: int
    measured_ns: int


class YcsbWorkload(ClosedLoop):
    """Closed-loop YCSB client pool against a KV store."""

    def __init__(
        self,
        store,
        spec: YcsbSpec,
        num_keys: int,
        clients: int = 16,
        seed: int = 7,
        uniform: bool = False,
    ) -> None:
        ClosedLoop.__init__(self, seed, clients, f"ycsb-{spec.name}")
        self.store = store
        self.env = store.env
        self.spec = spec
        self.clients = clients
        self._rng = random.Random(seed)
        if uniform:
            self._keys = UniformGenerator(num_keys, seed=seed)
        elif spec.distribution == "latest":
            self._keys = LatestGenerator(num_keys, seed=seed)
        elif spec.distribution == "zipfian":
            self._keys = ZipfianGenerator(num_keys, seed=seed)
        else:
            self._keys = UniformGenerator(num_keys, seed=seed)
        self.num_keys = num_keys
        self.latencies = LatencyRecorder()
        self._measuring = False

    def _pick_op(self) -> str:
        r = self._rng.random()
        spec = self.spec
        if r < spec.read:
            return "read"
        if r < spec.read + spec.update:
            return "update"
        if r < spec.read + spec.update + spec.insert:
            return "insert"
        if r < spec.read + spec.update + spec.insert + spec.rmw:
            return "rmw"
        return "scan"

    def _op(self):
        op = self._pick_op()
        start = self.env.now
        if op == "insert" and isinstance(self._keys, LatestGenerator):
            key = self._keys.record_insert() % self.num_keys
        else:
            key = self._keys.next() % self.num_keys
        if op == "read":
            yield self.store.get(key)
        elif op in ("update", "insert"):
            yield self.store.put(key)
        elif op == "rmw":  # read-modify-write
            yield self.store.get(key)
            yield self.store.put(key)
        else:  # range scan (YCSB-E)
            yield self.store.scan(key, self._rng.randint(1, MAX_SCAN_LENGTH))
        if self._measuring:
            self.latencies.record(self.env.now - start)

    # -- measurement window (repro.workloads.window) ----------------------

    def open_window(self) -> None:
        """Zero the window's operations and start counting completions."""
        self._measuring = True
        self.latencies = LatencyRecorder()

    def close_window(self) -> None:
        """Stop counting completions."""
        self._measuring = False

    def snapshot(self, measure_ns: int) -> YcsbResult:
        """The window's throughput and latency over ``measure_ns``."""
        ops = len(self.latencies)
        return YcsbResult(
            kiops=ops * 1e9 / measure_ns / 1000,
            latency=self.latencies.summarize(),
            ops_completed=ops,
            measured_ns=measure_ns,
        )
