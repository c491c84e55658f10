"""Request-scoped tracing for the serve stack: the ``serve-events`` log.

A served request is traced with the same :class:`~repro.obs.tracing.Span`
and :class:`~repro.obs.tracing.Tracer` that attribute simulated rounds.
:class:`RequestTrace` is the tracer of one request: its root span is the
request, and its direct children attribute the request's *wall-clock* to
the degradation-ladder phases it passed through (``admit`` ->
``dispatch`` -> ``queue`` -> ``run`` -> ``verify`` -> ``respond``, plus
``retry`` / ``breaker-fastfail`` / ``shed``).  A pool worker records its
own phases (``build`` / ``separator`` / ``certify`` / ``dfs``) on a plain
``Tracer`` and sends back its span records, which the engine grafts
under ``run``.  :func:`write_events` serializes finished request records
— interleaved with structured service events and per-phase latency
histograms — into one causally-ordered JSONL file (the ``serve-events``
schema), and :func:`load_events` reads it back through the shared
:func:`repro.obs.analyze.read_jsonl`.

:class:`TraceContext` is a frozen, picklable dataclass so the request's
lineage can cross the process boundary into pool workers; request
records and events are dicts of JSON primitives.
Nothing in this module imports from ``repro.serve`` or
``repro.congest`` — the dependency points one way, exactly like
:mod:`repro.obs.tracing`.

Attribution is checked the same way ``repro trace phases`` checks round
attribution: for every request, the top-level phase spans must be
non-overlapping and their durations plus the untraced remainder must
equal the request's wall time (within float epsilon).  Orphan spans —
opened but never closed, e.g. when a worker is SIGKILLed mid-span — must
be force-closed with a terminal status before the record is finalized;
the offline verifier counts any that slipped through.
"""

from __future__ import annotations

import json
import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from .analyze import SCHEMAS, read_jsonl
from .tracing import Tracer

#: Schema identity of the event log.  The header line carries both, and
#: :func:`load_events` warns (never fails) on anything it does not know.
SERVE_EVENTS_SCHEMA = "serve-events"
SERVE_EVENTS_VERSION = SCHEMAS[SERVE_EVENTS_SCHEMA][0]

#: Canonical rendering order of the engine's top-level phases.
PHASES = (
    "admit",
    "shed",
    "breaker-fastfail",
    "dispatch",
    "queue",
    "run",
    "retry",
    "verify",
    "respond",
)

#: Default latency buckets for the ``phase-hist`` records (seconds).
PHASE_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)

#: The root span of every request record.
ROOT_SPAN_ID = 1

_EPS = 1e-6


@dataclass(frozen=True)
class TraceContext:
    """Picklable trace lineage, carried across process boundaries.

    ``trace_id`` names the request.  The engine grafts a worker's span
    records under the request's ``run`` span itself and passes the
    deadline to :func:`repro.serve.jobs.run_job` separately, so the
    lineage is the id alone.
    """

    trace_id: str


class RequestTrace(Tracer):
    """The :class:`~repro.obs.tracing.Tracer` of one served request.

    Construction opens the root ``request`` span (id 1, starting at 0.0
    on the request's clock) and binds a :class:`TraceContext` naming the
    request; the root's direct children are the attribution phases.
    Worker-reported span records are grafted under ``run`` with
    :meth:`~repro.obs.tracing.Tracer.graft`.
    """

    def __init__(self, trace_id: str, *, clock: Callable[[], float] = time.monotonic):
        super().__init__(clock)
        self.bind_context(TraceContext(trace_id))
        self.begin("request")
        self.spans[0].t0 = 0.0  # the request's clock starts with its tracer

    @property
    def trace_id(self) -> str:
        return self.context.trace_id

    def finalize(self, status: str, code: int, *, attempts: int = 1,
                 cached: bool = False) -> Dict[str, Any]:
        """Close the root span and return the ``request`` record."""
        self.end(ROOT_SPAN_ID, status)
        return {
            "kind": "request",
            "trace": self.trace_id,
            "status": status,
            "code": code,
            "ts": self.started_ts,
            "wall_s": self.spans[0].t1,
            "attempts": attempts,
            "cached": cached,
            "spans": self.records(),
        }


class EventLog:
    """Bounded ring buffer of structured service events.

    Always on (feeding ``/statusz``); the serve-events JSONL interleaves
    the retained window with the request records at flush time.  Event
    types in use: ``pool-restart``, ``worker-kill``, ``worker-died``,
    ``breaker-open``, ``breaker-close``, ``wedge-kill``, ``shed``,
    ``drain``.
    """

    def __init__(self, capacity: int = 256, *, clock: Callable[[], float] = time.time):
        self._events: deque = deque(maxlen=max(1, capacity))
        self._clock = clock
        self.emitted = 0

    def emit(self, type_: str, **fields: Any) -> Dict[str, Any]:
        event = {"kind": "event", "ts": self._clock(), "type": type_, **fields}
        self._events.append(event)
        self.emitted += 1
        return event

    def snapshot(self, last: Optional[int] = None) -> List[Dict[str, Any]]:
        events = [dict(e) for e in self._events]
        return events[-last:] if last else events


# -- attribution -------------------------------------------------------------


def _phase_spans(request: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The request's top-level phases: direct children of the root span."""
    return sorted(
        (s for s in request.get("spans", ())
         if s.get("parent") == ROOT_SPAN_ID and s.get("t1") is not None),
        key=lambda s: (s["t0"], s["id"]),
    )


def attribution_report(requests: Sequence[Dict[str, Any]], *,
                       eps: float = _EPS) -> Dict[str, Any]:
    """Verify attribution completeness over request records.

    For every request: top-level phase spans must be non-overlapping,
    never extend past the request's wall time, and leave a non-negative
    untraced remainder — so ``sum(phases) + remainder == wall`` exactly.
    Open (orphan) spans anywhere in the tree fail the request.
    """
    total = len(requests)
    complete = 0
    orphans = 0
    killed = 0
    mismatches: List[str] = []
    for req in requests:
        spans = req.get("spans", [])
        open_spans = sum(1 for s in spans if s.get("t1") is None)
        orphans += open_spans
        killed += sum(1 for s in spans if s.get("status") == "killed")
        wall = float(req.get("wall_s", 0.0))
        ok = open_spans == 0
        edge = 0.0
        covered = 0.0
        for s in _phase_spans(req):
            if s["t0"] < edge - eps:
                ok = False  # overlapping phases double-charge the wall
            covered += s["t1"] - s["t0"]
            edge = max(edge, s["t1"])
        if edge > wall + eps or wall - covered < -eps:
            ok = False
        if ok:
            complete += 1
        else:
            mismatches.append(str(req.get("trace")))
    return {
        "requests": total,
        "complete": complete,
        "attributed_pct": (100.0 * complete / total) if total else 100.0,
        "orphan_spans": orphans,
        "killed_spans": killed,
        "mismatches": mismatches[:8],
    }


# -- the serve-events JSONL --------------------------------------------------


def _phase_histograms(requests: Sequence[Dict[str, Any]],
                      buckets: Sequence[float] = PHASE_BUCKETS) -> List[Dict[str, Any]]:
    """Per-phase latency histograms with exemplar trace ids."""
    by_phase: Dict[str, List[tuple]] = {}
    for req in requests:
        for s in _phase_spans(req):
            by_phase.setdefault(s["name"], []).append(
                (s["t1"] - s["t0"], req.get("trace")))
    records = []
    order = {name: i for i, name in enumerate(PHASES)}
    for name in sorted(by_phase, key=lambda n: (order.get(n, len(PHASES)), n)):
        durations = by_phase[name]
        counts = [0] * (len(buckets) + 1)
        for dur, _ in durations:
            for i, bound in enumerate(buckets):
                if dur <= bound:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1
        exemplar_dur, exemplar_trace = max(durations)
        records.append({
            "kind": "phase-hist",
            "phase": name,
            "count": len(durations),
            "sum": sum(d for d, _ in durations),
            "buckets": {str(b): c for b, c in zip(buckets, counts)},
            "overflow": counts[-1],
            "exemplar": {"trace": exemplar_trace, "latency_s": exemplar_dur},
        })
    return records


def write_events(path, requests: Sequence[Dict[str, Any]],
                 events: Sequence[Dict[str, Any]] = (), *,
                 buckets: Sequence[float] = PHASE_BUCKETS) -> int:
    """Write the serve-events JSONL: header first, then request records
    with their span lines and structured events merged in causal
    (timestamp) order, then per-phase histograms, then the summary.
    Returns the number of lines written."""
    merged: List[tuple] = []
    for i, req in enumerate(requests):
        ts = float(req.get("ts", 0.0))
        head = {k: v for k, v in req.items() if k != "spans"}
        head["spans"] = len(req.get("spans", ()))
        merged.append((ts, 0, i, 0, head))
        for j, span in enumerate(req.get("spans", ())):
            merged.append((ts, 0, i, j + 1,
                           {"kind": "span", "trace": req.get("trace"), **span}))
    for i, ev in enumerate(events):
        merged.append((float(ev.get("ts", 0.0)), 1, i, 0, dict(ev)))
    merged.sort(key=lambda r: r[:4])
    report = attribution_report(requests)
    lines = 0
    with open(path, "w") as fh:
        fh.write(json.dumps({
            "kind": "schema",
            "schema": SERVE_EVENTS_SCHEMA,
            "version": SERVE_EVENTS_VERSION,
        }) + "\n")
        lines += 1
        for *_, rec in merged:
            fh.write(json.dumps(rec) + "\n")
            lines += 1
        for rec in _phase_histograms(requests, buckets):
            fh.write(json.dumps(rec) + "\n")
            lines += 1
        fh.write(json.dumps({
            "kind": "summary",
            "requests": report["requests"],
            "events": len(events),
            "attribution": report,
        }) + "\n")
        lines += 1
    return lines


def load_events(path) -> Dict[str, Any]:
    """Read a serve-events JSONL back into a document.

    Returns ``{"version", "requests", "events", "phase_hists",
    "summary", "report"}`` where each request has its ``spans`` list
    re-attached and ``report`` is a fresh :func:`attribution_report`
    (recomputed, not trusted from the file).  Reads through
    :func:`repro.obs.analyze.read_jsonl`, which warns — never fails — on
    a missing header, a newer version, or unknown record kinds.
    """
    requests: List[Dict[str, Any]] = []
    by_trace: Dict[str, Dict[str, Any]] = {}
    doc: Dict[str, Any] = {"version": None, "requests": requests, "events": [],
                           "phase_hists": [], "summary": None}
    for rec in read_jsonl(path):
        kind = rec.get("kind")
        if kind == "schema":
            doc["version"] = rec.get("version")
        elif kind == "request":
            req = dict(rec, spans=[])
            requests.append(req)
            by_trace[req.get("trace")] = req
        elif kind == "span":
            owner = by_trace.get(rec.get("trace"))
            if owner is not None:
                owner["spans"].append(
                    {k: v for k, v in rec.items() if k not in ("kind", "trace")})
        elif kind == "event":
            doc["events"].append(rec)
        elif kind == "phase-hist":
            doc["phase_hists"].append(rec)
        elif kind == "summary":
            doc["summary"] = rec
    doc["report"] = attribution_report(requests)
    return doc


# -- rendering ---------------------------------------------------------------


def _percentile(sorted_values: Sequence[float], p: float) -> float:
    """Ceil-rank percentile (matches ``repro.serve.loadgen``)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def _verdict_lines(report: Dict[str, Any]) -> List[str]:
    lines = []
    if report["complete"] == report["requests"]:
        lines.append("attribution: phases + untraced == wall "
                     "(complete, non-overlapping)")
    else:
        lines.append("attribution: MISMATCH for traces "
                     + ", ".join(report["mismatches"]))
    lines.append(f"fully attributed: {report['attributed_pct']:.1f}% of requests")
    lines.append(f"orphan spans: {report['orphan_spans']}")
    return lines


def render_serve_summary(doc: Dict[str, Any]) -> str:
    """Aggregate view plus the attribution/orphan verdict."""
    requests = doc["requests"]
    report = doc["report"]
    statuses: Dict[str, int] = {}
    for req in requests:
        statuses[req.get("status", "?")] = statuses.get(req.get("status", "?"), 0) + 1
    walls = sorted(float(r.get("wall_s", 0.0)) for r in requests)
    out = [f"serve-events v{doc.get('version')}"]
    out.append(f"requests: {len(requests)}  ("
               + ", ".join(f"{k}: {v}" for k, v in sorted(statuses.items())) + ")")
    out.append(f"spans: {sum(len(r.get('spans', ())) for r in requests)}"
               f"  events: {len(doc['events'])}"
               f"  killed spans: {report['killed_spans']}")
    if walls:
        out.append("wall_s: p50={:.4f} p99={:.4f} max={:.4f}".format(
            _percentile(walls, 50), _percentile(walls, 99), walls[-1]))
    out.extend(_verdict_lines(report))
    return "\n".join(out)


def _dominant_phase(request: Dict[str, Any]) -> tuple:
    phases = _phase_spans(request)
    if not phases:
        return ("(untraced)", float(request.get("wall_s", 0.0)))
    top = max(phases, key=lambda s: s["t1"] - s["t0"])
    return (top["name"], top["t1"] - top["t0"])


def render_critical_path(doc: Dict[str, Any]) -> str:
    """Which phase dominates where the latency goes, at p50 and p99."""
    requests = doc["requests"]
    report = doc["report"]
    by_phase: Dict[str, List[float]] = {}
    untraced: List[float] = []
    for req in requests:
        phases = _phase_spans(req)
        covered = 0.0
        for s in phases:
            by_phase.setdefault(s["name"], []).append(s["t1"] - s["t0"])
            covered += s["t1"] - s["t0"]
        untraced.append(max(0.0, float(req.get("wall_s", 0.0)) - covered))
    order = {name: i for i, name in enumerate(PHASES)}
    out = ["phase             count     total_s        p50        p99"]
    rows = sorted(by_phase.items(),
                  key=lambda kv: (order.get(kv[0], len(PHASES)), kv[0]))
    if any(u > 0 for u in untraced):
        rows.append(("(untraced)", untraced))
    for name, durs in rows:
        durs = sorted(durs)
        out.append("{:<16} {:>6} {:>11.4f} {:>10.4f} {:>10.4f}".format(
            name, len(durs), sum(durs),
            _percentile(durs, 50), _percentile(durs, 99)))
    ranked = sorted(requests, key=lambda r: float(r.get("wall_s", 0.0)))
    for label, p in (("p50", 50), ("p99", 99)):
        if ranked:
            rank = max(1, math.ceil(p / 100.0 * len(ranked))) - 1
            req = ranked[min(rank, len(ranked) - 1)]
            name, dur = _dominant_phase(req)
            out.append(
                f"critical path at {label}: {name} "
                f"({dur:.4f}s of {float(req.get('wall_s', 0.0)):.4f}s, "
                f"trace={req.get('trace')})")
    out.extend(_verdict_lines(report))
    return "\n".join(out)


def _render_request(req: Dict[str, Any]) -> List[str]:
    out = [
        "trace={} status={} code={} wall={:.4f}s attempts={} cached={}".format(
            req.get("trace"), req.get("status"), req.get("code"),
            float(req.get("wall_s", 0.0)), req.get("attempts"),
            req.get("cached"))
    ]
    depth = {0: -1}
    for span in sorted(req.get("spans", ()), key=lambda s: s["id"]):
        depth[span["id"]] = depth.get(span.get("parent", 0), 0) + 1
        t1 = span.get("t1")
        window = ("[{:>8.4f} ..     open]".format(span["t0"]) if t1 is None
                  else "[{:>8.4f} .. {:>8.4f}]".format(span["t0"], t1))
        out.append("  {} {}{} ({})".format(
            window, "  " * depth[span["id"]], span["name"], span.get("status")))
    return out


def render_timeline(doc: Dict[str, Any], trace: Optional[str] = None,
                    limit: int = 5) -> str:
    """Per-request span timelines (all spans, worker subtrees included)."""
    requests = doc["requests"]
    if trace is not None:
        requests = [r for r in requests if r.get("trace") == trace]
        if not requests:
            return f"no request with trace id {trace!r}"
    out: List[str] = []
    for req in requests[:limit]:
        out.extend(_render_request(req))
    if len(requests) > limit:
        out.append(f"... {len(requests) - limit} more "
                   f"(--limit to widen, --trace to pick one)")
    return "\n".join(out)


def render_slow(doc: Dict[str, Any], k: int = 5) -> str:
    """The k slowest requests with their phase breakdown."""
    ranked = sorted(doc["requests"],
                    key=lambda r: -float(r.get("wall_s", 0.0)))[:k]
    out: List[str] = []
    for req in ranked:
        wall = float(req.get("wall_s", 0.0))
        parts = []
        for s in _phase_spans(req):
            dur = s["t1"] - s["t0"]
            pct = (100.0 * dur / wall) if wall else 0.0
            parts.append(f"{s['name']}={dur:.4f}s ({pct:.0f}%)")
        out.append("{:.4f}s  trace={} status={}  {}".format(
            wall, req.get("trace"), req.get("status"), "  ".join(parts)))
    return "\n".join(out) if out else "no requests"
