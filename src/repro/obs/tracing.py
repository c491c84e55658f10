"""One span model for simulator rounds and served requests.

A :class:`Tracer` hands out :class:`Span` context managers that nest::

    trace = RoundTrace()
    tracer = Tracer()
    tracer.attach(trace)
    with tracer.span("separator-search", level=2):
        with tracer.span("weights-problem"):
            weights_problem_run(cfg, trace=trace)

While a span is open, every :meth:`RoundTrace.record_round` call
attributes that round's counters — one round, its messages, words,
dropped/lost/duplicated counts — to the **innermost** open span, and the
round record itself is stamped with the span id.  Attribution is
therefore complete and non-overlapping by construction: summing the
*self* counters over all spans plus the untraced remainder reproduces
the trace totals exactly (the ``repro trace phases`` CLI checks this).

Every span also carries a terminal ``status`` and its interval
``t0``/``t1`` in seconds since its tracer started, so the same type
records a served request's phases: :class:`repro.obs.events.RequestTrace`
is a :class:`Tracer` whose root span is the request, driven through the
id-based :meth:`Tracer.begin`/:meth:`Tracer.end`, :meth:`Tracer.add` for
an interval that already closed, and :meth:`Tracer.graft` for the span
records a pool worker's own tracer sends back.  A span's exported
record is the plain dict ``{id, parent, name, status, t0, t1}``
(:meth:`Span.record`), with ``parent`` 0 for a root span.

Spans never steer a run: a traced run and an untraced run execute the
same rounds and deliver the same messages, and
:func:`repro.congest.faults.run_fingerprint` is bit-identical either way
(locked by ``tests/test_obs.py``).

Tracing off costs nothing: :func:`trace_span` returns the shared
:data:`NULL_SPAN` singleton when no tracer is attached, and code that
holds a tracer uses the shared :data:`NULL_TRACER` when tracing is off —
no span or tracer object is allocated (also locked by the tests).

This module deliberately imports nothing from :mod:`repro.congest`;
``congest`` imports *it*, keeping the dependency one-way.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["NULL_SPAN", "NULL_TRACER", "Span", "Tracer", "trace_span"]


class _NullSpan:
    """Reentrant no-op context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


#: Shared singleton; ``with NULL_SPAN:`` nests freely and allocates nothing.
NULL_SPAN = _NullSpan()


class Span:
    """One named phase interval, created via :meth:`Tracer.span`.

    Attributes
    ----------
    id:
        1-based id in open order (unique within the tracer).
    name / attrs:
        The phase name and free-form attributes (``level=k`` etc.).
    parent_id / depth:
        Nesting structure at open time (``None`` / 0 for a root span).
    status:
        Terminal status (``"ok"``, ``"killed"``, ...); ``None`` while open.
    t0 / t1:
        Seconds since the tracer started, at open and close; ``t1`` is
        ``None`` while the span is open.
    open_at / close_at:
        Indices into the attached trace's ``records`` list: the span
        covers ``records[open_at:close_at]``.  ``close_at`` is ``None``
        while the span is open.
    rounds, messages, words, dropped, lost, duplicated:
        *Self* counters — rounds recorded while this span was the
        innermost open span (child spans absorb their own).
    """

    __slots__ = (
        "id",
        "name",
        "attrs",
        "parent_id",
        "depth",
        "status",
        "t0",
        "t1",
        "open_at",
        "close_at",
        "rounds",
        "messages",
        "words",
        "dropped",
        "lost",
        "duplicated",
        "_tracer",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.id = 0  # assigned when the tracer registers it
        self.parent_id: Optional[int] = None
        self.depth = 0
        self.status: Optional[str] = None
        self.t0 = 0.0
        self.t1: Optional[float] = None
        self.open_at = 0
        self.close_at: Optional[int] = None
        self.rounds = 0
        self.messages = 0
        self.words = 0
        self.dropped = 0
        self.lost = 0
        self.duplicated = 0

    @property
    def wall_s(self) -> float:
        """Seconds between open and close (includes children); 0 while open."""
        return 0.0 if self.t1 is None else self.t1 - self.t0

    # -- context manager protocol --------------------------------------
    def __enter__(self) -> "Span":
        self._tracer._open(self)
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer._close(self)
        return False

    # -- serialization --------------------------------------------------
    def record(self) -> Dict[str, Any]:
        """The span as ``{id, parent, name, status, t0, t1}``."""
        return {
            "id": self.id,
            "parent": self.parent_id or 0,
            "name": self.name,
            "status": self.status,
            "t0": self.t0,
            "t1": self.t1,
        }

    def open_event(self) -> Dict[str, Any]:
        event = {
            "kind": "span-open",
            "id": self.id,
            "parent": self.parent_id,
            "depth": self.depth,
            "name": self.name,
            "attrs": dict(self.attrs),
        }
        if self._tracer.context is not None:
            # request lineage: every span event names the request that
            # caused it
            event["trace"] = self._tracer.context.trace_id
        return event

    def close_event(self) -> Dict[str, Any]:
        return {
            "kind": "span-close",
            "id": self.id,
            "rounds": self.rounds,
            "messages": self.messages,
            "words": self.words,
            "dropped": self.dropped,
            "lost": self.lost,
            "duplicated": self.duplicated,
            "wall_s": round(self.wall_s, 6),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "open" if self.t1 is None else "closed"
        return (
            f"Span(id={self.id}, name={self.name!r}, {state}, "
            f"rounds={self.rounds}, messages={self.messages})"
        )


class Tracer:
    """Hands out nesting spans and owns the open-span stack.

    Attach to a live :class:`repro.congest.trace.RoundTrace` with
    :meth:`attach`; from then on the trace attributes every recorded
    round to ``tracer.current`` and the trace's ``dump_jsonl`` interleaves
    the span open/close events with the round records.

    A tracer without an attached trace still measures wall-clock per
    span — which is all a served request or a pool worker records.
    """

    def __init__(self, clock=time.perf_counter):
        self.spans: List[Span] = []
        #: chronological ``(record_index, "open"|"close", span)`` log —
        #: what ``dump_jsonl`` interleaves with the round records
        self.events: List[Any] = []
        #: optional request lineage (a ``repro.obs.events.TraceContext``
        #: or any object with a ``trace_id``) — see :meth:`bind_context`
        self.context = None
        #: epoch time at start: places span times on another process's clock
        self.started_ts = time.time()
        self._stack: List[Span] = []
        self._trace = None
        self._clock = clock
        self._t0 = clock()

    def attach(self, trace) -> Any:
        """Bind this tracer to a ``RoundTrace``; returns the trace."""
        trace.tracer = self
        self._trace = trace
        return trace

    def bind_context(self, context) -> None:
        """Stamp subsequent span events with a request's trace lineage.

        ``context`` is duck-typed (anything with a ``trace_id``
        attribute — in practice a :class:`repro.obs.events.TraceContext`;
        this module deliberately does not import it).  Binding is
        observational only: it never changes which rounds run or how they
        are attributed.
        """
        self.context = context

    def now(self) -> float:
        """Seconds since this tracer started, on its clock."""
        return self._clock() - self._t0

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, or ``None`` outside all spans."""
        return self._stack[-1] if self._stack else None

    def span(self, name: str, **attrs: Any) -> Span:
        """A new span context manager; counters attribute to it while it
        is the innermost open span."""
        return Span(self, name, attrs)

    def records(self) -> List[Dict[str, Any]]:
        """Every span's :meth:`Span.record`, in id order."""
        return [span.record() for span in self.spans]

    # -- id-based operations (spans that outlive one ``with`` block) ----
    def begin(self, name: str) -> int:
        """Open a span under the innermost open one; returns its id."""
        span = Span(self, name, {})
        self._open(span)
        return span.id

    def end(self, span_id: int, status: str = "ok") -> None:
        """Close the span ``span_id`` (it must be the innermost open one)."""
        self._close(self.spans[span_id - 1], status)

    def add(self, name: str, t0: float, t1: float, *,
            status: str = "ok", parent: Optional[int] = None) -> int:
        """Record a span that has already closed; returns its id.

        ``parent`` is a span id (default: the innermost open span).  The
        span never enters the open stack, so it absorbs no rounds.
        """
        span = Span(self, name, {})
        self._register(span, self.current if parent is None else self.spans[parent - 1])
        span.t0, span.t1, span.status = t0, max(t0, t1), status
        span.close_at = span.open_at
        self.events.append((span.close_at, "close", span))
        return span.id

    def graft(self, records: Sequence[Dict[str, Any]], parent: int,
              base: float, clamp: Optional[float] = None) -> int:
        """Hang another tracer's span records under ``parent``.

        ``records`` (as from :meth:`records`) carry times relative to
        their own tracer's start; ``base`` places that start on this
        tracer's clock, and ``clamp`` (if given) caps their times at the
        enclosing span's end so clock skew cannot leak a child outside
        its parent.  Returns the number of spans added.
        """
        mapping: Dict[int, int] = {}
        for rec in records:
            t0 = base + rec["t0"]
            t1 = base + rec["t1"]
            if clamp is not None:
                t0, t1 = min(t0, clamp), min(t1, clamp)
            mapping[rec["id"]] = self.add(
                rec["name"], t0, t1, status=rec.get("status", "ok"),
                parent=mapping.get(rec["parent"], parent),
            )
        return len(mapping)

    def force_close_open(self, status: str = "killed") -> int:
        """Terminally close every open span but the outermost one.

        The orphan-span guarantee: a phase abandoned mid-span (a worker
        SIGKILLed under it) leaves no dangling ``t1 = None``; the
        outermost span — a request's root — stays open for its owner to
        close.  Returns the number of spans closed.
        """
        closed = 0
        while len(self._stack) > 1:
            self._close(self._stack[-1], status)
            closed += 1
        return closed

    # -- span lifecycle (called by Span.__enter__/__exit__) ------------
    def _register(self, span: Span, parent: Optional[Span]) -> None:
        if span.id:
            raise RuntimeError(f"span {span.name!r} entered twice")
        span.id = len(self.spans) + 1
        if parent is not None:
            span.parent_id = parent.id
            span.depth = parent.depth + 1
        span.open_at = len(self._trace.records) if self._trace is not None else 0
        span.t0 = self.now()
        self.spans.append(span)
        self.events.append((span.open_at, "open", span))

    def _open(self, span: Span) -> None:
        self._register(span, self.current)
        self._stack.append(span)

    def _close(self, span: Span, status: str = "ok") -> None:
        if not self._stack or self._stack[-1] is not span:
            innermost = self._stack[-1].name if self._stack else None
            raise RuntimeError(
                f"span {span.name!r} closed out of order "
                f"(innermost is {innermost!r})"
            )
        self._stack.pop()
        span.close_at = len(self._trace.records) if self._trace is not None else 0
        span.t1 = self.now()
        span.status = status
        self.events.append((span.close_at, "close", span))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tracer(spans={len(self.spans)}, open={len(self._stack)})"


class _NullTracer:
    """Do-nothing stand-in for a :class:`Tracer` (or a request's
    :class:`repro.obs.events.RequestTrace`) when tracing is off."""

    __slots__ = ()

    trace_id = None
    context = None

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def now(self) -> float:
        return 0.0

    def begin(self, name: str) -> int:
        return 0

    def end(self, span_id: int, status: str = "ok") -> None:
        pass

    def add(self, name: str, t0: float, t1: float, *,
            status: str = "ok", parent: Optional[int] = None) -> int:
        return 0

    def graft(self, records, parent: int, base: float,
              clamp: Optional[float] = None) -> int:
        return 0

    def force_close_open(self, status: str = "killed") -> int:
        return 0

    def finalize(self, status: str, code: int, *, attempts: int = 1,
                 cached: bool = False) -> None:
        return None


#: Shared singleton: the request-side twin of :data:`NULL_SPAN`.
NULL_TRACER = _NullTracer()


def trace_span(trace, name: str, **attrs: Any):
    """Span for the tracer attached to ``trace`` — or :data:`NULL_SPAN`.

    The hook the simulations use: ``with trace_span(trace, "bfs"):``.
    When ``trace`` is ``None`` or has no tracer attached, the shared
    no-op singleton comes back and **no span object is allocated**, so a
    sim that threads its ``trace=`` argument through pays nothing for the
    instrumentation until a user opts in via :meth:`Tracer.attach`.
    """
    tracer = getattr(trace, "tracer", None) if trace is not None else None
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)
