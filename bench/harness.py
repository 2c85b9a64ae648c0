"""Shared pieces of the benchmark worker: spans, the closed-loop driver,
counter snapshots and the metric arithmetic.

Nothing here is imported by ``repro``: the program under test receives
only generated inputs (op lists, payloads, tenant seeds) through its
public calls and is observed through the public counters it already
keeps (``RaidIoStats``, ``DriveStats``, ``Nic.tx_bytes/rx_bytes``,
``CpuCore.busy_ns`` ...) plus ``env._eid``, read exactly the way
``repro.sim.benchkit`` reads it.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: one user request: (is_read, byte offset, byte length)
Op = Tuple[bool, int, int]


class Spans:
    """In-memory phase spans (name, start, end, parent), written out with
    the profile fold when the traced run ends."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.records: List[Dict] = []
        self._stack: List[str] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - self.t0,
            "end": None,
        }
        self.records.append(record)
        self._stack.append(name)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self.t0

    def seconds(self, name: str) -> float:
        """Total duration of every span called ``name``."""
        return sum(r["end"] - r["start"] for r in self.records if r["name"] == name)


#: what one third of a slice iterates over: cached small integers only, so
#: the loop allocates nothing (a loop that allocates runs 4x slower every so
#: often in a young process, when freeing its one object empties an arena)
_REFERENCE_ITEMS = tuple(range(200)) * 100
#: seconds one slice takes on the sandbox this benchmark was defined on
#: while it is quiet: host times are reported as if every slice took this
REFERENCE_NOMINAL_S = 0.00135
#: host seconds of work between two slices
BLOCK_S = 0.015


def reference_slice() -> float:
    """Seconds for a fixed pure-Python loop: the machine's speed right now.

    The sandbox has spells, some a minute long, in which everything runs
    1.2x to 1.7x slower.  A slice is timed between blocks of measured work
    and each block is scaled by ``REFERENCE_NOMINAL_S / slice``, so a host
    time reads as it would on the quiet machine.  The loop lives here and
    never touches the program, so a change to the program cannot move it.

    The loop runs three times and the slice is three times the median: one
    4 ms preemption would otherwise quadruple a slice.
    """
    thirds = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for item in _REFERENCE_ITEMS:
            acc = (acc + item) & 127
        thirds.append(time.perf_counter() - start)
    return 3 * sorted(thirds)[1]


def scaled_seconds(fn) -> float:
    """Host seconds one call of ``fn`` takes, at the nominal machine speed
    (a reference slice before and after the call)."""
    before = reference_slice()
    start = time.perf_counter()
    fn()
    seconds = time.perf_counter() - start
    return seconds * 2 * REFERENCE_NOMINAL_S / (before + reference_slice())


class HostClock:
    """Host seconds of a measured phase, in blocks of about ``BLOCK_S``
    with a reference slice before and after each.

    ``reference=False`` (the traced run) times the phase raw, so the
    profile holds nothing but the program and the harness.
    """

    def __init__(self, reference: bool = True) -> None:
        self.reference = reference
        self.raw_s = 0.0
        #: scaled to the nominal machine speed
        self.seconds = 0.0
        #: every reference slice taken, for ``host_calib_s``
        self.slices: List[float] = []
        self._last_slice = 0.0
        self._block_start = 0.0

    def _slice(self) -> float:
        if not self.reference:
            return REFERENCE_NOMINAL_S
        self.slices.append(reference_slice())
        return self.slices[-1]

    def start(self) -> None:
        self._last_slice = self._slice()
        self._block_start = time.perf_counter()

    def tick(self) -> None:
        """Call after each op: closes the block once it is long enough."""
        if time.perf_counter() - self._block_start >= BLOCK_S:
            self.stop()
            self._block_start = time.perf_counter()

    def stop(self) -> None:
        block = time.perf_counter() - self._block_start
        before, self._last_slice = self._last_slice, self._slice()
        self.raw_s += block
        self.seconds += block * 2 * REFERENCE_NOMINAL_S / (before + self._last_slice)


def io_errors() -> tuple:
    """The typed errors with which the program fails an op it was given."""
    from repro.nvmeof.messages import IoError
    from repro.storage.integrity import ChecksumError

    return (IoError, ChecksumError)


def closed_loop(env, feeds: Sequence[Iterable], issue) -> None:
    """Run one closed-loop simulated client per entry of ``feeds``.

    A client takes its next op only after its previous one completed.
    Pass the same iterator ``n`` times for ``n`` clients sharing one op
    list, or one list per client when clients own disjoint regions.
    ``issue(op)`` is a generator that performs one op (yielding simulator
    events) and records its own outcome.
    """

    def client(feed):
        for op in feed:
            yield from issue(op)

    procs = [env.process(client(feed), name="bench.client") for feed in feeds]
    env.run(until=env.all_of(procs))


@dataclass
class SystemRun:
    """What one system (one array in one environment) did in the measured
    phase.  ``family`` is ``"draid"`` for the paper's system and its
    erasure-coded variants, ``"baseline"`` for the host-centric models."""

    name: str
    family: str
    ops: int = 0
    failed: int = 0
    #: ops that neither failed nor were refused nor finished late
    good: int = 0
    events: int = 0
    sim_ns: int = 0
    user_bytes: int = 0
    latencies_ns: List[int] = field(default_factory=list)
    clock: HostClock = field(default_factory=HostClock)
    #: from :func:`resource_counters`
    counters: Dict[str, float] = field(default_factory=dict)
    #: from :func:`datapath_counters`
    datapath: Dict[str, float] = field(default_factory=dict)


class Meter:
    """One system's measured phase: host seconds (on ``run.clock``),
    calendar events (``env._eid`` delta) and simulated nanoseconds."""

    def __init__(self, env, run: SystemRun) -> None:
        self.env = env
        self.run = run

    def __enter__(self) -> SystemRun:
        self._eid = self.env._eid
        self._now = self.env.now
        self.run.clock.start()
        return self.run

    def __exit__(self, *exc) -> None:
        self.run.clock.stop()
        self.run.events += self.env._eid - self._eid
        self.run.sim_ns += self.env.now - self._now


def block_issuer(env, array, run: SystemRun, errors: tuple):
    """``issue`` callable for :func:`closed_loop` over a timing-mode array:
    plain reads and writes, one latency sample per op, typed I/O errors
    counted as failed ops."""

    def issue(op: Op):
        is_read, offset, nbytes = op
        start = env.now
        run.ops += 1
        run.user_bytes += nbytes
        try:
            if is_read:
                yield array.read(offset, nbytes)
            else:
                yield array.write(offset, nbytes)
        except errors:
            run.failed += 1
        else:
            run.good += 1
            run.latencies_ns.append(env.now - start)
        run.clock.tick()

    return issue


def resource_counters(cluster, elapsed_ns: int) -> Dict[str, float]:
    """Byte, op and busy-time totals of one cluster's simulated resources
    since its accounting was last reset, over ``elapsed_ns`` of sim time."""
    host_nics = cluster.host.nics
    server_nics = [nic for server in cluster.servers for nic in server.nics]
    drives = cluster.drives()
    elapsed = max(1, elapsed_ns)
    drive_utils = [d.stats.busy_ns / elapsed / d.profile.parallelism for d in drives]
    return {
        "host_nic_bytes": sum(n.tx_bytes + n.rx_bytes for n in host_nics),
        "host_tx_util": max(n.tx.utilization(elapsed) for n in host_nics),
        "host_rx_util": max(n.rx.utilization(elapsed) for n in host_nics),
        "server_nic_bytes": sum(n.tx_bytes + n.rx_bytes for n in server_nics),
        "server_nic_util_max": max(
            max(n.tx.utilization(elapsed), n.rx.utilization(elapsed))
            for n in server_nics
        ),
        "drive_bytes": sum(d.stats.bytes_read + d.stats.bytes_written for d in drives),
        "drive_ops": sum(d.stats.read_ops + d.stats.write_ops for d in drives),
        "drive_util_mean": sum(drive_utils) / len(drive_utils),
        "drive_util_max": max(drive_utils),
        "host_cpu_util": max(c.utilization(elapsed) for c in cluster.host.cores),
        "server_cpu_util_max": max(
            c.utilization(elapsed) for s in cluster.servers for c in s.cores
        ),
    }


def datapath_counters(array) -> Dict[str, float]:
    """The controller's own write-mode / degraded / retry counters."""
    return {**vars(array.stats), "contended_acquires": array.locks.contended_acquires}


def percentile_us(latencies_ns: Iterable[int], q: float) -> float:
    """``q``-th percentile (linear interpolation) of ns samples, in µs."""
    samples = np.asarray(list(latencies_ns), dtype=np.int64)
    if samples.size == 0:
        return 0.0
    return float(np.percentile(samples, q)) / 1e3


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(runs: Sequence[SystemRun],
               latency: Optional[Tuple[float, float, int]] = None) -> Dict[str, float]:
    """The simulated end-to-end metrics (everything but the host-timed
    three) from the measured phase of every system of a workload.

    ``latency`` = (p50 µs, p99 µs, samples) replaces the default pool (all
    dRAID-family latencies) for a workload that reports latency at one
    fixed rate.
    """
    draid = [r for r in runs if r.family == "draid"]
    if latency is None:
        pool = [lat for r in draid for lat in r.latencies_ns]
        latency = (percentile_us(pool, 50), percentile_us(pool, 99), len(pool))
    attempted = sum(r.ops for r in runs)
    return {
        "events_per_op": sum(_ratio(r.events, r.ops) for r in runs),
        "sim_ops_per_s": _ratio(
            sum(r.good for r in draid) * 1e9, sum(r.sim_ns for r in draid)
        ),
        "sim_p50_us": latency[0],
        "sim_p99_us": latency[1],
        "latency_samples": latency[2],
        "host_nic_amp": _ratio(
            sum(r.counters["host_nic_bytes"] for r in draid),
            sum(r.user_bytes for r in draid),
        ),
        "op_ok_share": _ratio(sum(r.good for r in runs), attempted),
    }


#: (kind, prefix of its per-system rows): the dRAID family as one, then
#: each baseline model
SYSTEM_KINDS = (("draid", "draid"), ("spdk", "baselines.spdkraid"),
                ("linux", "baselines.mdraid"))


def of_kind(runs: Sequence[SystemRun], kind: str) -> List[SystemRun]:
    return [r for r in runs if (r.family if kind == "draid" else r.name) == kind]


def host_rows(runs: Sequence[SystemRun]) -> Dict[str, float]:
    """Host µs per op (nominal speed): summed over all systems, then the
    per-system split."""
    def cost(group) -> float:
        return sum(r.clock.seconds / r.ops for r in group) * 1e6

    rows = {"host_us_per_op": cost(runs)}
    rows.update({f"{prefix}.host_us_per_op": cost(of_kind(runs, kind))
                 for kind, prefix in SYSTEM_KINDS})
    return rows


def system_layers(runs: Sequence[SystemRun]) -> Dict[str, float]:
    """Per-system split, dRAID datapath counters and simulated-resource
    rows shared by every workload (sections 2-4 of the per-layer table).

    Counts and simulated values only; the host-timed per-system rows are
    added by the orchestrator from the untraced repeats.
    """
    out: Dict[str, float] = {}
    for kind, prefix in SYSTEM_KINDS:
        group = of_kind(runs, kind)
        out[f"sim.core.events_per_op.{kind}"] = sum(_ratio(r.events, r.ops) for r in group)
        out[f"{prefix}.sim_ops_per_s"] = _ratio(
            sum(r.good for r in group) * 1e9, sum(r.sim_ns for r in group)
        )
        if kind != "draid":
            pool = [lat for r in group for lat in r.latencies_ns]
            out[f"{prefix}.sim_p99_us"] = percentile_us(pool, 99)
            out[f"net.nic.host_amp.{kind}"] = _ratio(
                sum(r.counters["host_nic_bytes"] for r in group),
                sum(r.user_bytes for r in group),
            )
    draid = of_kind(runs, "draid")
    ops = sum(r.ops for r in draid)
    user = sum(r.user_bytes for r in draid)

    def total(key: str, source: str = "datapath") -> float:
        return sum(getattr(r, source).get(key, 0) for r in draid)

    for key in ("rmw_writes", "rcw_writes", "full_stripe_writes", "degraded_reads",
                "degraded_writes", "retries"):
        out[f"baselines.base.{key}"] = total(key)
    out["draid.reconstruction.remote"] = total("remote_reconstructions")
    out["raid.locks.contended_share"] = _ratio(total("contended_acquires"), ops)
    # server NICs carry the host's traffic once (its far end) plus every
    # peer-to-peer byte twice (sender tx + receiver rx)
    host_bytes = total("host_nic_bytes", "counters")
    out["net.nic.peer_amp"] = _ratio(
        (total("server_nic_bytes", "counters") - host_bytes) / 2, user
    )
    out["storage.drive.amp"] = _ratio(total("drive_bytes", "counters"), user)
    out["storage.drive.ops_per_op"] = _ratio(total("drive_ops", "counters"), ops)

    def worst(key: str) -> float:
        return max((r.counters.get(key, 0.0) for r in draid), default=0.0)

    out["net.nic.host_tx_util"] = worst("host_tx_util")
    out["net.nic.host_rx_util"] = worst("host_rx_util")
    out["net.nic.server_util_max"] = worst("server_nic_util_max")
    out["storage.drive.util_mean"] = _ratio(
        total("drive_util_mean", "counters"), len(draid)
    )
    out["storage.drive.util_max"] = worst("drive_util_max")
    out["cluster.cpu.host_util"] = worst("host_cpu_util")
    out["cluster.cpu.server_util_max"] = worst("server_cpu_util_max")
    return out
