"""Observability for the CONGEST stack: spans, metrics, trace analysis.

Three sub-layers, all opt-in and all deterministic-by-construction (they
observe a run, they never steer it — ``run_fingerprint`` is bit-identical
with and without them):

* :mod:`.tracing` — the one span model.  A :class:`Tracer` hands out
  nesting ``span(...)`` context managers; attached to a live
  :class:`repro.congest.trace.RoundTrace`, every round, message, word,
  lost/duplicated count and wall-clock interval is attributed to the
  *innermost* open span.  The five message-level sims and the resilient
  primitives open their own named spans, so a traced run decomposes into
  the paper's phases (embedding, weight aggregation, fragment merging,
  partwise aggregation, DFS stitching) without print statements.  The
  same spans record a served request's phases (below); with tracing off
  the shared :data:`NULL_SPAN` / :data:`NULL_TRACER` stand in.
* :mod:`.metrics` — a named counter/gauge/histogram registry with a
  Prometheus-style text exposition and a JSON export; fed per round by
  ``Network.run(metrics=...)`` (handler wall-clock, per-node dispatch
  counts, scheduler queue depth) and per unit by the experiment runner.
* :mod:`.analyze` — the one JSONL reader (round-trace dumps and
  serve-events logs) and offline analysis of round-trace dumps, behind
  the ``repro trace summarize|phases|edges|diff`` CLI.
* :mod:`.events` — request-scoped tracing for the serve stack: a
  picklable :class:`TraceContext` carried through pool workers,
  :class:`RequestTrace` (the :class:`Tracer` of one served
  request), an :class:`EventLog` ring buffer of structured service
  events, and the causally-ordered ``serve-events`` JSONL behind
  ``repro trace serve timeline|critical-path|slow|summarize``.

The full model is documented in ``docs/OBSERVABILITY.md``.
"""

from .events import EventLog, RequestTrace, TraceContext, attribution_report
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .tracing import NULL_SPAN, NULL_TRACER, Span, Tracer, trace_span

__all__ = [
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "RequestTrace",
    "Span",
    "TraceContext",
    "Tracer",
    "attribution_report",
    "trace_span",
]
