"""Distributed tracing on the simulated clock.

A :class:`Tracer` collects :class:`Span` records — closed intervals of
simulated time (integer nanoseconds) attributed to one *cause category*
(queue-wait, transfer, compute, disk, lock-wait, backoff, rpc) on one
*track* (a host core, a NIC link, a drive, a server CPU).  Spans are
recorded *after the fact*: instrumentation captures ``env.now`` before a
yield, waits, then calls :meth:`Tracer.record` — no open-span state ever
crosses a generator yield, so arming the tracer cannot perturb the event
sequence of a run.

Trace identity is carried through the datapath by tiny
:class:`TraceContext` handles (trace id + span id) attached to commands
and messages.  :func:`chrome_trace_events` exports everything as Chrome
trace-event JSON (the ``"X"`` complete-event flavour) loadable in
Perfetto / ``chrome://tracing``; :func:`request_breakdowns` computes a
per-request critical-path partition whose parts sum *exactly* to the
request's end-to-end latency.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "TraceContext",
    "Span",
    "Tracer",
    "CATEGORY_PRIORITY",
    "chrome_trace_events",
    "chrome_trace_json",
    "validate_chrome_trace",
    "request_breakdowns",
    "breakdown_table",
]

#: Cause categories in *attribution priority* order: when several spans of
#: one request overlap an instant, the critical-path breakdown charges that
#: instant to the earliest category in this tuple.  ``"rpc"`` (the remote-op
#: envelope, covering its children) ranks last so an instant inside an
#: envelope is charged to whatever the remote side was actually doing;
#: instants covered by no span at all are charged to ``"other"``.
CATEGORY_PRIORITY = (
    "disk",
    "transfer",
    "compute",
    "queue-wait",
    "lock-wait",
    "backoff",
    "rpc",
)

#: Catch-all category for instants of a request covered by no child span
#: (host-side gaps, propagation already folded into a parent, inbox waits).
OTHER_CATEGORY = "other"

#: Category of root (whole-request) spans.
REQUEST_CATEGORY = "request"


class TraceContext:
    """A lightweight handle naming one node of one trace tree.

    ``trace_id`` groups all spans of a single host I/O; ``span_id`` is the
    identity spans recorded *under* this context use as their parent.
    ``parent_id`` remembers this node's own parent so the span for a
    *reserved* context (see :meth:`Tracer.derive`) can be recorded after
    its children have already referenced it.
    """

    __slots__ = ("trace_id", "span_id", "parent_id")

    def __init__(self, trace_id: int, span_id: int, parent_id: Optional[int]) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TraceContext(trace={self.trace_id}, span={self.span_id})"


class Span:
    """One closed interval of simulated time attributed to a cause.

    ``start_ns``/``end_ns`` are absolute simulated nanoseconds; ``cat`` is
    one of :data:`CATEGORY_PRIORITY` plus ``"request"``; ``track`` names
    the resource timeline the span renders on (e.g. ``"host.cpu"``,
    ``"net.host-s3"``, ``"s3.drive"``).
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "cat",
        "track",
        "start_ns",
        "end_ns",
        "args",
    )

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        cat: str,
        track: str,
        start_ns: int,
        end_ns: int,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.cat = cat
        self.track = track
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.args = args

    @property
    def duration_ns(self) -> int:
        """Span length in simulated nanoseconds."""
        return self.end_ns - self.start_ns


class Tracer:
    """Collects spans for every traced request of one simulation run.

    All ids (trace ids, span ids) are allocated in execution order from
    plain counters, so two runs with identical event sequences produce
    byte-identical traces.  The tracer never schedules simulation events;
    it only appends to a Python list.
    """

    __slots__ = ("spans", "_next_trace_id", "_next_span_id")

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._next_trace_id = 1
        self._next_span_id = 1

    # -- context plumbing ---------------------------------------------------

    def new_request(self) -> TraceContext:
        """Open a fresh trace for one host I/O; returns its root context.

        The root *span* is recorded later via :meth:`record_at` once the
        request completes and its end time is known.
        """
        trace_id = self._next_trace_id
        self._next_trace_id += 1
        span_id = self._next_span_id
        self._next_span_id += 1
        return TraceContext(trace_id, span_id, None)

    def derive(self, parent: TraceContext) -> TraceContext:
        """Reserve a child context (e.g. a remote-op envelope) under ``parent``.

        Children may record against the reserved span id immediately; the
        envelope span itself is filled in later with :meth:`record_at`.
        """
        span_id = self._next_span_id
        self._next_span_id += 1
        return TraceContext(parent.trace_id, span_id, parent.span_id)

    # -- recording ----------------------------------------------------------

    def record(
        self,
        ctx: TraceContext,
        name: str,
        cat: str,
        track: str,
        start_ns: int,
        end_ns: int,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a child span of ``ctx`` covering ``[start_ns, end_ns]``.

        Zero-length spans are dropped — they carry no time attribution and
        only bloat exports.
        """
        if end_ns <= start_ns:
            return
        span_id = self._next_span_id
        self._next_span_id += 1
        self.spans.append(
            Span(ctx.trace_id, span_id, ctx.span_id, name, cat, track, start_ns, end_ns, args)
        )

    def record_at(
        self,
        ctx: TraceContext,
        name: str,
        cat: str,
        track: str,
        start_ns: int,
        end_ns: int,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record ``ctx``'s own span: a *reserved* context's (from
        :meth:`derive`) or a request's root (from :meth:`new_request`, cat
        ``request``).

        Used for spans whose end time is only known at completion, after
        children have already recorded under the reserved id.  Zero-length
        spans are dropped, as in :meth:`record`.
        """
        if end_ns <= start_ns:
            return
        self.spans.append(
            Span(ctx.trace_id, ctx.span_id, ctx.parent_id, name, cat, track, start_ns,
                 end_ns, args)
        )


# -- Chrome trace-event export ---------------------------------------------


def chrome_trace_events(tracer: Tracer) -> List[Dict[str, Any]]:
    """Render a tracer's spans as Chrome trace-event dicts.

    Produces ``"M"`` metadata events naming the process/threads followed by
    one ``"X"`` complete event per span (``ts``/``dur`` in microseconds, as
    the format requires).  Track-to-tid assignment sorts track names, so
    identical span sets export byte-identically regardless of recording
    interleaving.
    """
    tracks = sorted({span.track for span in tracer.spans})
    tids = {track: i + 1 for i, track in enumerate(tracks)}
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "repro"},
        }
    ]
    for track in tracks:
        events.append(
            {
                "ph": "M",
                "pid": 1,
                "tid": tids[track],
                "name": "thread_name",
                "args": {"name": track},
            }
        )
    for span in sorted(tracer.spans, key=lambda s: (s.start_ns, s.span_id)):
        args: Dict[str, Any] = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
        }
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.args:
            args.update(span.args)
        events.append(
            {
                "ph": "X",
                "pid": 1,
                "tid": tids[span.track],
                "name": span.name,
                "cat": span.cat,
                "ts": span.start_ns / 1000.0,
                "dur": span.duration_ns / 1000.0,
                "args": args,
            }
        )
    return events


def chrome_trace_json(tracer: Tracer) -> str:
    """Serialize :func:`chrome_trace_events` as a Perfetto-loadable JSON string."""
    payload = {
        "displayTimeUnit": "ns",
        "traceEvents": chrome_trace_events(tracer),
    }
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def validate_chrome_trace(trace: Any) -> None:
    """Check a parsed trace object against the Chrome trace-event schema.

    Accepts either the JSON-object form (``{"traceEvents": [...]}``) or a
    bare event list.  Raises :class:`ValueError` on the first violation.
    """
    if isinstance(trace, dict):
        events = trace.get("traceEvents")
        if not isinstance(events, list):
            raise ValueError("trace object must carry a 'traceEvents' list")
    elif isinstance(trace, list):
        events = trace
    else:
        raise ValueError(f"trace must be a dict or list, got {type(trace).__name__}")
    if not events:
        raise ValueError("trace contains no events")
    saw_complete = False
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event {i} is not an object")
        ph = event.get("ph")
        if ph not in ("X", "M"):
            raise ValueError(f"event {i}: unsupported phase {ph!r}")
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise ValueError(f"event {i}: missing name")
        if not isinstance(event.get("pid"), int) or not isinstance(event.get("tid"), int):
            raise ValueError(f"event {i}: pid/tid must be integers")
        if ph == "X":
            saw_complete = True
            ts, dur = event.get("ts"), event.get("dur")
            if not isinstance(ts, (int, float)) or ts < 0:
                raise ValueError(f"event {i}: bad ts {ts!r}")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"event {i}: bad dur {dur!r}")
            if not isinstance(event.get("cat"), str):
                raise ValueError(f"event {i}: complete event missing cat")
    if not saw_complete:
        raise ValueError("trace contains no complete ('X') events")


# -- critical-path breakdown -----------------------------------------------


def request_breakdowns(tracer: Tracer) -> List[Dict[str, Any]]:
    """Partition each traced request's latency across cause categories.

    For every root span, a sweep over its child spans (clipped to the root
    interval) charges each instant to the highest-priority covering
    category per :data:`CATEGORY_PRIORITY`; uncovered instants go to
    ``"other"``.  By construction the per-category parts of one request sum
    exactly to its end-to-end duration in nanoseconds.
    """
    by_trace: Dict[int, List[Span]] = {}
    roots: List[Span] = []
    for span in tracer.spans:
        if span.cat == REQUEST_CATEGORY and span.parent_id is None:
            roots.append(span)
        else:
            by_trace.setdefault(span.trace_id, []).append(span)
    rank = {cat: i for i, cat in enumerate(CATEGORY_PRIORITY)}
    breakdowns: List[Dict[str, Any]] = []
    for root in sorted(roots, key=lambda s: (s.start_ns, s.span_id)):
        children = by_trace.get(root.trace_id, ())
        clipped = []
        points = {root.start_ns, root.end_ns}
        for span in children:
            lo = max(span.start_ns, root.start_ns)
            hi = min(span.end_ns, root.end_ns)
            if hi > lo and span.cat in rank:
                clipped.append((lo, hi, rank[span.cat]))
                points.add(lo)
                points.add(hi)
        edges = sorted(points)
        parts: Dict[str, int] = {}
        for lo, hi in zip(edges, edges[1:]):
            best = None
            for s_lo, s_hi, r in clipped:
                if s_lo <= lo and s_hi >= hi and (best is None or r < best):
                    best = r
            cat = CATEGORY_PRIORITY[best] if best is not None else OTHER_CATEGORY
            parts[cat] = parts.get(cat, 0) + (hi - lo)
        breakdowns.append(
            {
                "trace_id": root.trace_id,
                "name": root.name,
                "start_ns": root.start_ns,
                "duration_ns": root.duration_ns,
                "parts": parts,
            }
        )
    return breakdowns


def breakdown_table(breakdowns: Sequence[Dict[str, Any]], limit: int = 20) -> str:
    """Render per-request critical-path breakdowns as a fixed-width table.

    Shows the first ``limit`` requests plus a mean row; all times in
    microseconds.
    """
    cats = list(CATEGORY_PRIORITY) + [OTHER_CATEGORY]
    header_cells = ["trace", "request", "total_us"] + [f"{c}_us" for c in cats]
    data_rows: List[List[str]] = []
    shown = list(breakdowns)[:limit]
    for b in shown:
        cells = [str(b["trace_id"]), b["name"], f"{b['duration_ns'] / 1000:.2f}"]
        cells += [f"{b['parts'].get(c, 0) / 1000:.2f}" for c in cats]
        data_rows.append(cells)
    if breakdowns:
        n = len(breakdowns)
        mean_total = sum(b["duration_ns"] for b in breakdowns) / n / 1000
        mean_cells = ["mean", f"({n} reqs)", f"{mean_total:.2f}"]
        mean_cells += [
            f"{sum(b['parts'].get(c, 0) for b in breakdowns) / n / 1000:.2f}" for c in cats
        ]
        data_rows.append(mean_cells)
    widths = [
        max(len(header_cells[i]), *(len(r[i]) for r in data_rows)) if data_rows else len(header_cells[i])
        for i in range(len(header_cells))
    ]
    lines = ["  ".join(cell.rjust(widths[i]) for i, cell in enumerate(header_cells))]
    for row in data_rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
