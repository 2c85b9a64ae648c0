"""The NVMe drive model.

A drive is a FIFO bandwidth server (optionally several parallel internal
servers) with distinct read/write rates plus a fixed access latency per
operation.  The access latency does *not* consume channel capacity — modern
SSDs overlap NAND access with data transfer across dies — so sustained
throughput equals the profile bandwidth while per-op latency is
``queueing + transfer + access``.

In *functional mode* (``capacity_bytes`` given at construction) the drive
additionally keeps a real byte array, so reads return the actual stored
bytes and the whole RAID stack can be validated for bit-exactness.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sim.core import Environment, Event
from repro.sim.resources import NS_PER_S
from repro.storage.integrity import PoisonedExtent


@dataclass
class DriveStats:
    """Running counters for one drive."""

    read_ops: int = 0
    write_ops: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    busy_ns: int = 0
    gc_events: int = 0
    corruptions: int = 0

    def reset(self) -> None:
        self.read_ops = 0
        self.write_ops = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.busy_ns = 0
        self.gc_events = 0
        self.corruptions = 0


class NvmeDrive:
    """A simulated NVMe SSD.

    ``read``/``write`` return events that fire at I/O completion.  In
    functional mode the read event's value is the stored bytes (snapshotted
    at submission, which is deterministic and adequate because the RAID
    layers above serialize conflicting stripe access).
    """

    def __init__(
        self,
        env: Environment,
        profile,
        name: str = "nvme",
        functional_capacity: int = 0,
    ) -> None:
        self.env = env
        self.profile = profile
        self.name = name
        self.stats = DriveStats()
        self.failed = False
        self._free_at = [0] * profile.parallelism
        # (free_at, idx) min-heap mirror of _free_at (see BandwidthChannel):
        # consulted only when the profile has internal parallelism > 1.
        self._free_heap = [(0, i) for i in range(profile.parallelism)]
        # Cached between dispatches (profiles are immutable): per-server
        # transfer rates, the healthy transfer time of every size seen so far
        # per direction, plus the earliest-free head and the raw sum of
        # server free times so backlog_ns is O(1) in the saturated regime.
        self._read_per_server = profile.read_bw_bytes_per_s / profile.parallelism
        self._write_per_server = profile.write_bw_bytes_per_s / profile.parallelism
        self._read_work: Dict[int, int] = {}
        self._write_work: Dict[int, int] = {}
        self._earliest_free = 0
        self._free_sum = 0
        self._gc_budget = profile.gc_after_bytes_written
        # Fault-injection state (repro.faults): transient error bursts and
        # fail-slow latency multipliers.  All keyed off the sim clock.
        self._error_until = 0
        self._slow_mult = 1.0
        self._slow_until: Optional[int] = None  # None = until cleared
        # Silent-corruption state (repro.storage.integrity): poisoned byte
        # ranges, corruptions armed against the next write, and the cluster
        # checksum store (attached when an IntegrityStore arms the cluster).
        self._poison: List[PoisonedExtent] = []
        self._armed_corruptions: List[Tuple[str, int]] = []
        self._integrity = None
        self._integrity_index = -1
        # Observability: a repro.obs.Tracer armed by the Observability hub;
        # None (default) keeps I/O on the zero-cost untraced path.
        self._tracer = None
        self._data: Optional[np.ndarray] = None
        if functional_capacity:
            self._data = np.zeros(functional_capacity, dtype=np.uint8)

    # -- internals ---------------------------------------------------------

    @property
    def functional(self) -> bool:
        return self._data is not None

    def _dispatch(self, work_ns: int) -> int:
        """Queue ``work_ns`` on the earliest-free internal server; returns
        the absolute completion time of the channel occupancy."""
        now = self.env.now
        if len(self._free_at) == 1:
            free = self._free_at[0]
            start = free if free > now else now
            done = start + work_ns
            self._free_at[0] = done
            self._earliest_free = done
            self._free_sum = done
        else:
            free, idx = heapq.heappop(self._free_heap)
            start = free if free > now else now
            done = start + work_ns
            self._free_sum += done - self._free_at[idx]
            self._free_at[idx] = done
            heapq.heappush(self._free_heap, (done, idx))
            self._earliest_free = self._free_heap[0][0]
        self.stats.busy_ns += work_ns
        return done

    def _rebuild_free_caches(self) -> None:
        """Recompute the free-server caches after a bulk ``_free_at`` edit
        (GC stall, heal)."""
        self._free_heap = sorted((f, i) for i, f in enumerate(self._free_at))
        self._earliest_free = self._free_heap[0][0]
        self._free_sum = sum(self._free_at)

    def _slow_factor(self) -> float:
        """Current fail-slow latency multiplier (1.0 when healthy)."""
        if self._slow_mult == 1.0:
            return 1.0
        if self._slow_until is not None and self.env.now >= self._slow_until:
            self._slow_mult = 1.0
            self._slow_until = None
            return 1.0
        return self._slow_mult

    def _check(self, offset: int, nbytes: int) -> None:
        if self.failed:
            raise DriveFailedError(f"{self.name} has failed")
        if self.env.now < self._error_until:
            raise DriveTransientError(
                f"{self.name}: transient media error (burst until "
                f"{self._error_until})"
            )
        if nbytes <= 0:
            raise ValueError(f"I/O size must be positive, got {nbytes}")
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        if self._data is not None and offset + nbytes > len(self._data):
            raise ValueError(
                f"{self.name}: I/O [{offset}, {offset + nbytes}) exceeds "
                f"functional capacity {len(self._data)}"
            )

    # -- public I/O interface -----------------------------------------------

    def read(self, offset: int, nbytes: int, ctx=None, then=None) -> Event:
        """Read ``nbytes`` at ``offset``; event value is the data (or None).

        ``ctx`` (optional :class:`repro.obs.TraceContext`) attributes the
        queueing and media time to a traced request when tracing is armed;
        ``then`` is the event's continuation (:meth:`Environment.timeout`).
        """
        self._check(offset, nbytes)
        self.stats.read_ops += 1
        self.stats.bytes_read += nbytes
        work_ns = self._read_work.get(nbytes)
        if work_ns is None:
            work_ns = self._read_work[nbytes] = int(
                round(nbytes * NS_PER_S / self._read_per_server)
            )
        latency_ns = self.profile.read_latency_ns
        factor = self._slow_factor()
        if factor != 1.0:
            work_ns = int(round(work_ns * factor))
            latency_ns = int(round(latency_ns * factor))
        done = self._dispatch(work_ns)
        completion = done + latency_ns - self.env.now
        if self._tracer is not None and ctx is not None:
            self._record_io(ctx, "read", done, work_ns, latency_ns, nbytes)
        value = None
        if self._data is not None:
            value = self._data[offset : offset + nbytes].copy()
        return self.env.timeout(completion, value, then)

    def write(self, offset: int, nbytes: int, data=None, ctx=None, then=None) -> Event:
        """Write ``nbytes`` at ``offset``; ``data`` required in functional mode."""
        self._check(offset, nbytes)
        self.stats.write_ops += 1
        self.stats.bytes_written += nbytes
        work_ns = self._write_work.get(nbytes)
        if work_ns is None:
            work_ns = self._write_work[nbytes] = int(
                round(nbytes * NS_PER_S / self._write_per_server)
            )
        latency_ns = self.profile.write_latency_ns
        factor = self._slow_factor()
        if factor != 1.0:
            work_ns = int(round(work_ns * factor))
            latency_ns = int(round(latency_ns * factor))
        if self.profile.gc_after_bytes_written:
            self._gc_budget -= nbytes
            if self._gc_budget <= 0:
                # garbage collection stalls every internal channel
                self._gc_budget = self.profile.gc_after_bytes_written
                self.stats.gc_events += 1
                stall_until = max(self._free_at) + self.profile.gc_pause_ns
                self._free_at = [max(f, stall_until) for f in self._free_at]
                self._rebuild_free_caches()
        done = self._dispatch(work_ns)
        completion = done + latency_ns - self.env.now
        if self._tracer is not None and ctx is not None:
            self._record_io(ctx, "write", done, work_ns, latency_ns, nbytes)
        pending = self._armed_corruptions.pop(0) if self._armed_corruptions else None
        backup = None
        if self._data is not None:
            if data is None:
                raise ValueError(f"{self.name}: functional-mode write requires data")
            arr = np.frombuffer(data, dtype=np.uint8) if isinstance(data, (bytes, bytearray)) else np.asarray(data, dtype=np.uint8)
            if len(arr) != nbytes:
                raise ValueError(f"data length {len(arr)} != nbytes {nbytes}")
            if pending is not None:
                backup = self._data[offset : offset + nbytes].copy()
            self._data[offset : offset + nbytes] = arr
        if self._integrity is not None:
            self._integrity.record_write(self, offset, nbytes)
        if pending is not None:
            self._apply_write_corruption(pending, offset, nbytes, backup)
        elif self._poison:
            # a clean overwrite cures whatever poison it covers
            self._clear_poison(offset, nbytes)
        return self.env.timeout(completion, None, then)

    def _record_io(
        self, ctx, op: str, done: int, work_ns: int, latency_ns: int, nbytes: int
    ) -> None:
        """Record queue-wait + media spans for one traced I/O.

        The drive's schedule is fully determined at submission (``done`` is
        the absolute channel-drain time computed by :meth:`_dispatch`), so
        spans are recorded immediately without touching the event calendar.
        """
        now = self.env.now
        start = done - work_ns
        if start > now:
            self._tracer.record(
                ctx, f"{self.name}.queue", "queue-wait", self.name, now, start
            )
        self._tracer.record(
            ctx,
            f"{self.name}.{op}",
            "disk",
            self.name,
            start,
            done + latency_ns,
            {"bytes": nbytes},
        )

    # -- failure injection ----------------------------------------------------

    def fail(self) -> None:
        """Mark the drive failed; subsequent I/O raises DriveFailedError."""
        self.failed = True

    def repair(self) -> None:
        """Clear only the failure bit.

        Unlike :meth:`heal`, the drive keeps every residue of its previous
        life: queued channel backlog, GC debt, error bursts, fail-slow
        multipliers — and any poisoned extents or armed corruptions.  Use
        it when the *same* physical drive returns (e.g. after a rebuild
        rewrote its content in place); use :meth:`heal` when the drive is
        swapped for a fresh replacement.
        """
        self.failed = False

    def inject_error_burst(self, duration_ns: int) -> None:
        """Transient media errors: I/O submitted before ``now + duration_ns``
        raises :class:`DriveTransientError`.  The drive is not marked failed,
        so the RAID layers treat errors as retryable."""
        if duration_ns < 0:
            raise ValueError(f"negative burst duration {duration_ns}")
        self._error_until = max(self._error_until, self.env.now + duration_ns)

    def set_fail_slow(self, multiplier: float, duration_ns: Optional[int] = None) -> None:
        """Multiply transfer + access latency by ``multiplier`` (fail-slow).

        ``duration_ns=None`` keeps the drive slow until :meth:`clear_fail_slow`
        or :meth:`heal`.
        """
        if multiplier < 1.0:
            raise ValueError(f"fail-slow multiplier must be >= 1, got {multiplier}")
        self._slow_mult = float(multiplier)
        self._slow_until = None if duration_ns is None else self.env.now + duration_ns

    def clear_fail_slow(self) -> None:
        self._slow_mult = 1.0
        self._slow_until = None

    def heal(self) -> None:
        """Full heal/replace: clear the failure bit *and* every latency
        residue (queued channel backlog, pending GC debt, error bursts,
        fail-slow multipliers) *and* every corruption residue (poisoned
        extents, corruptions armed against future writes), as if the drive
        were swapped for a fresh one.  Unlike :meth:`repair`, a healed
        drive is back at profile latency immediately and carries no silent
        damage — the replacement's content still needs a rebuild, but its
        media is pristine."""
        self.failed = False
        self._error_until = 0
        self.clear_fail_slow()
        self._gc_budget = self.profile.gc_after_bytes_written
        self._poison.clear()
        self._armed_corruptions.clear()
        now = self.env.now
        self._free_at = [min(f, now) for f in self._free_at]
        self._rebuild_free_caches()

    # -- silent corruption ------------------------------------------------------

    def attach_integrity(self, store, index: int) -> None:
        """Wire this drive to the cluster's :class:`IntegrityStore`."""
        self._integrity = store
        self._integrity_index = index

    def corrupt(
        self,
        kind: str,
        offset: Optional[int] = None,
        length: Optional[int] = None,
        seed: int = 0,
        shift_bytes: int = 0,
    ) -> None:
        """Silently damage stored data (the drive keeps answering happily).

        ``kind`` selects the fault class:

        * ``"bitrot"`` — immediately XOR a seeded nonzero mask over
          ``[offset, offset+length)``; requires ``offset``/``length``.
        * ``"lost"`` — the next write is acknowledged but never lands
          (the previous content stays on media).
        * ``"torn"`` — the next write lands only its first half.
        * ``"misdirected"`` — the next write's payload lands at
          ``offset + shift_bytes`` instead, leaving the target stale and
          clobbering an innocent victim; requires ``shift_bytes > 0``.

        The deferred kinds queue FIFO against future writes.  In functional
        mode real bytes are mutated; in both modes a :class:`PoisonedExtent`
        records the damage so checksum verification detects it.
        """
        if kind == "bitrot":
            if offset is None or length is None or length <= 0:
                raise ValueError("bitrot requires offset and positive length")
            if self._data is not None and offset + length > len(self._data):
                raise ValueError(
                    f"{self.name}: bitrot [{offset}, {offset + length}) exceeds "
                    f"functional capacity {len(self._data)}"
                )
            if self._integrity is not None:
                self._integrity.finalize(self, offset, length)
            if self._data is not None:
                mask = np.random.default_rng(seed).integers(
                    1, 256, size=length, dtype=np.uint8
                )
                self._data[offset : offset + length] ^= mask
            self._poison.append(
                PoisonedExtent(offset, length, "BitRot", self.env.now)
            )
            self.stats.corruptions += 1
        elif kind in ("lost", "torn"):
            self._armed_corruptions.append((kind, 0))
        elif kind == "misdirected":
            if shift_bytes <= 0:
                raise ValueError("misdirected requires shift_bytes > 0")
            self._armed_corruptions.append((kind, shift_bytes))
        else:
            raise ValueError(f"unknown corruption kind {kind!r}")

    def _apply_write_corruption(
        self,
        pending: Tuple[str, int],
        offset: int,
        nbytes: int,
        backup: Optional[np.ndarray],
    ) -> None:
        """An armed corruption fires on the write that just landed.

        ``backup`` holds the pre-write media content (functional mode only).
        The checksum store was already told the *intended* bytes landed, so
        we first pin expectations from the current (intended) content, then
        mutate the media behind the store's back and record the poison.
        """
        kind, shift = pending
        now = self.env.now
        if kind == "lost":
            if self._integrity is not None:
                self._integrity.finalize(self, offset, nbytes)
            if backup is not None:
                self._data[offset : offset + nbytes] = backup
            self._clear_poison(offset, nbytes)
            self._poison.append(PoisonedExtent(offset, nbytes, "LostWrite", now))
        elif kind == "torn":
            landed = nbytes // 2
            if self._integrity is not None:
                self._integrity.finalize(self, offset, nbytes)
            if backup is not None and landed < nbytes:
                self._data[offset + landed : offset + nbytes] = backup[landed:]
            self._clear_poison(offset, nbytes)
            if landed < nbytes:
                self._poison.append(
                    PoisonedExtent(offset + landed, nbytes - landed, "TornWrite", now)
                )
        elif kind == "misdirected":
            if self._integrity is not None:
                self._integrity.finalize(self, offset, nbytes)
            intended = None
            if self._data is not None:
                intended = self._data[offset : offset + nbytes].copy()
                self._data[offset : offset + nbytes] = backup
            capacity = len(self._data) if self._data is not None else None
            victim_off = offset + shift
            if capacity is not None:
                victim_off %= capacity
                vlen = min(nbytes, capacity - victim_off)
            else:
                vlen = nbytes
            if self._integrity is not None:
                self._integrity.finalize(self, victim_off, vlen)
            if self._data is not None:
                self._data[victim_off : victim_off + vlen] = intended[:vlen]
            self._clear_poison(offset, nbytes)
            self._clear_poison(victim_off, vlen)
            self._poison.append(
                PoisonedExtent(offset, nbytes, "MisdirectedWrite", now)
            )
            self._poison.append(
                PoisonedExtent(victim_off, vlen, "MisdirectedWrite", now)
            )
        else:  # pragma: no cover - corrupt() validates kinds
            raise ValueError(f"unknown armed corruption kind {kind!r}")
        self.stats.corruptions += 1

    def _clear_poison(self, offset: int, nbytes: int) -> None:
        """A clean overwrite of ``[offset, offset+nbytes)`` cures the poison
        it covers; partially covered records are trimmed/split."""
        end = offset + nbytes
        kept: List[PoisonedExtent] = []
        for rec in self._poison:
            if rec.end <= offset or rec.offset >= end:
                kept.append(rec)
                continue
            if rec.offset < offset:
                kept.append(replace(rec, length=offset - rec.offset))
            if rec.end > end:
                kept.append(replace(rec, offset=end, length=rec.end - end))
        self._poison = kept

    def poison_overlapping(self, offset: int, nbytes: int) -> List[PoisonedExtent]:
        """Poisoned extents overlapping ``[offset, offset+nbytes)``."""
        end = offset + nbytes
        return [r for r in self._poison if r.offset < end and r.end > offset]

    def poisoned_extents(self) -> Tuple[PoisonedExtent, ...]:
        return tuple(self._poison)

    # -- introspection ----------------------------------------------------------

    def peek(self, offset: int, nbytes: int) -> np.ndarray:
        """Direct (zero-time) access to stored bytes, for test assertions."""
        if self._data is None:
            raise RuntimeError(f"{self.name} is not in functional mode")
        return self._data[offset : offset + nbytes].copy()

    def backlog_ns(self) -> int:
        now = self.env.now
        if self._earliest_free >= now:
            # saturated regime: every server is booked past ``now``
            return self._free_sum - now * len(self._free_at)
        return sum(max(0, f - now) for f in self._free_at)


class DriveFailedError(RuntimeError):
    """Raised when I/O is submitted to a failed drive."""


class DriveTransientError(DriveFailedError):
    """Retryable media error raised during an injected error burst."""
