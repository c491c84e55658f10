"""Opt-in observability for the CONGEST simulator.

A :class:`RoundTrace` is handed to :meth:`repro.congest.network.Network.run`
and records, per synchronous round, what the scheduler saw: how many nodes
were dispatched (the *active set*), how many messages were sent, their total
and maximum word cost, and how many were dropped on delivery to halted
nodes.  It also keeps a per-edge histogram of message word sizes and the
single worst bandwidth offender across the whole trace, so "who is close to
the budget" is a lookup rather than a re-run.

One trace object may span several ``Network.run`` invocations (the
multi-pass sims re-arm the simulator per pass); each run gets an increasing
``run`` id via :meth:`RoundTrace.begin_run`.

A :class:`repro.obs.tracing.Tracer` may be attached (``tracer.attach(trace)``);
round records are then stamped with the innermost open span's id and the
span accumulates the round's counters, giving phase-attributed cost
profiles (see ``docs/OBSERVABILITY.md``).

For offline analysis, :meth:`RoundTrace.dump_jsonl` writes one JSON object
per line — a schema header, then round records interleaved with span
open/close events, then warnings, then per-edge bandwidth records, then a
summary — and :func:`repro.obs.analyze.read_jsonl` (re-exported here)
loads them back, validating the schema header and warning on unknown
record kinds.  Node identifiers that are not JSON types are serialized
via ``repr``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Hashable, List, Optional, Tuple

from ..obs.analyze import KNOWN_KINDS, SCHEMA_VERSION, read_jsonl

Node = Hashable

__all__ = ["RoundRecord", "RoundTrace", "read_jsonl", "SCHEMA_VERSION", "KNOWN_KINDS"]


class RoundRecord:
    """One synchronous round, as the scheduler executed it.

    Attributes
    ----------
    run:
        1-based index of the ``Network.run`` invocation within this trace.
    round:
        1-based round number within that run.
    active:
        Nodes dispatched this round (the active set; under the dense
        scheduler this is every non-halted node).
    messages:
        Messages sent this round.
    words:
        Total payload words across those messages.
    dropped:
        Messages addressed to already-halted nodes (counted as sent,
        never delivered).
    max_words:
        Largest single-message word cost this round.
    lost:
        Messages destroyed by an injected fault (drop coin, explicit drop,
        link down-interval, or a crashed receiver); zero without a
        :class:`repro.congest.faults.FaultPlan`.
    duplicated:
        Extra stutter copies delivered this round by an injected
        duplication fault.
    corrupted:
        Messages whose payload was mangled in flight this round by an
        injected corruption fault (delivered, but changed).
    span:
        Id of the innermost open :class:`repro.obs.tracing.Span` when the
        round was recorded, or ``None`` when no tracer was attached / no
        span was open.  Excluded from ``run_fingerprint`` by construction
        (the fingerprint feeds explicit fields only).
    """

    __slots__ = (
        "run",
        "round",
        "active",
        "messages",
        "words",
        "dropped",
        "max_words",
        "lost",
        "duplicated",
        "corrupted",
        "span",
    )

    def __init__(
        self,
        run: int,
        round: int,
        active: int,
        messages: int,
        words: int,
        dropped: int,
        max_words: int,
        lost: int = 0,
        duplicated: int = 0,
        corrupted: int = 0,
        span: Optional[int] = None,
    ):
        self.run = run
        self.round = round
        self.active = active
        self.messages = messages
        self.words = words
        self.dropped = dropped
        self.max_words = max_words
        self.lost = lost
        self.duplicated = duplicated
        self.corrupted = corrupted
        self.span = span

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": "round",
            "run": self.run,
            "round": self.round,
            "active": self.active,
            "messages": self.messages,
            "words": self.words,
            "dropped": self.dropped,
            "max_words": self.max_words,
            "lost": self.lost,
            "duplicated": self.duplicated,
            "corrupted": self.corrupted,
            "span": self.span,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RoundRecord(run={self.run}, round={self.round}, active={self.active}, "
            f"messages={self.messages}, dropped={self.dropped})"
        )


class RoundTrace:
    """Accumulates per-round scheduler observations across runs.

    Parameters
    ----------
    edge_histograms:
        When true (the default) keep a word-size histogram per directed
        edge; disable for very large traces where only the per-round
        records matter.
    """

    def __init__(self, edge_histograms: bool = True):
        self.records: List[RoundRecord] = []
        self.warnings: List[str] = []
        #: directed edge (src, dst) -> {word cost -> message count}
        self.edge_words: Dict[Tuple[Node, Node], Dict[int, int]] = {}
        self.max_words = 0
        #: (run, round, src, dst, words) of the single largest message seen
        self.offender: Optional[Tuple[int, int, Node, Node, int]] = None
        self.total_messages = 0
        self.total_words = 0
        self.total_dropped = 0
        self.total_lost = 0
        self.total_duplicated = 0
        self.total_corrupted = 0
        self.peak_active = 0
        self.runs = 0
        self._edge_histograms = edge_histograms
        #: set by ``Tracer.attach``; when present, recorded rounds are
        #: attributed to the innermost open span
        self.tracer = None

    # -- hooks called by Network.run -----------------------------------
    def begin_run(self) -> int:
        """Mark the start of one ``Network.run``; returns its run id."""
        self.runs += 1
        return self.runs

    def record_message(self, run: int, rnd: int, src: Node, dst: Node, words: int) -> None:
        if self._edge_histograms:
            hist = self.edge_words.setdefault((src, dst), {})
            hist[words] = hist.get(words, 0) + 1
        if words > self.max_words:
            self.max_words = words
            self.offender = (run, rnd, src, dst, words)

    def record_round(
        self,
        run: int,
        rnd: int,
        active: int,
        messages: int,
        words: int,
        dropped: int,
        max_words: int,
        lost: int = 0,
        duplicated: int = 0,
        corrupted: int = 0,
    ) -> None:
        span = self.tracer.current if self.tracer is not None else None
        self.records.append(
            RoundRecord(
                run, rnd, active, messages, words, dropped, max_words,
                lost, duplicated, corrupted,
                span.id if span is not None else None,
            )
        )
        if span is not None:
            span.rounds += 1
            span.messages += messages
            span.words += words
            span.dropped += dropped
            span.lost += lost
            span.duplicated += duplicated
        self.total_messages += messages
        self.total_words += words
        self.total_dropped += dropped
        self.total_lost += lost
        self.total_duplicated += duplicated
        self.total_corrupted += corrupted
        if active > self.peak_active:
            self.peak_active = active

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    # -- reporting ------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Aggregate view: totals, active-set shape, worst offender."""
        rounds = len(self.records)
        mean_active = (
            sum(r.active for r in self.records) / rounds if rounds else 0.0
        )
        return {
            "runs": self.runs,
            "rounds": rounds,
            "messages": self.total_messages,
            "words": self.total_words,
            "dropped": self.total_dropped,
            "lost": self.total_lost,
            "duplicated": self.total_duplicated,
            "corrupted": self.total_corrupted,
            "peak_active": self.peak_active,
            "mean_active": mean_active,
            "max_words": self.max_words,
            "offender": self.offender,
            "warnings": len(self.warnings),
            "spans": len(self.tracer.spans) if self.tracer is not None else 0,
        }

    def edge_records(
        self, top_edges: int = 16, full_histograms: bool = False
    ) -> List[Dict[str, Any]]:
        """Per-edge bandwidth records, heaviest first.

        Ranked by total words over the directed edge; ``top_edges`` caps
        the list (``None`` or ``full_histograms`` keeps everything).
        """
        ranked = sorted(
            self.edge_words.items(),
            key=lambda kv: (
                -sum(w * n for w, n in kv[1].items()),
                repr(kv[0]),
            ),
        )
        if not full_histograms and top_edges is not None:
            ranked = ranked[:top_edges]
        out = []
        for (src, dst), hist in ranked:
            out.append(
                {
                    "kind": "edge",
                    "src": src,
                    "dst": dst,
                    "messages": sum(hist.values()),
                    "words": sum(w * n for w, n in hist.items()),
                    "max_words": max(hist),
                    "hist": {str(w): hist[w] for w in sorted(hist)},
                }
            )
        return out

    def dump_jsonl(
        self, path, top_edges: int = 16, full_edge_histograms: bool = False
    ) -> int:
        """Write the trace as JSONL; returns the number of lines written.

        Layout (schema v2): a ``schema`` header line, then round records
        interleaved with span open/close events in chronological order
        (a span's events sit at its ``open_at``/``close_at`` record
        indices), then warnings, then the ``top_edges`` heaviest per-edge
        bandwidth records (all of them, with full word histograms, when
        ``full_edge_histograms`` is set), then the summary — always last,
        so ``tail -1`` is the aggregate view.
        """
        # The tracer's chronological event log, bucketed by the record
        # index each open/close occurred at; within an index the log
        # order is preserved, so nesting always reads correctly.
        events: Dict[int, List[Dict[str, Any]]] = {}
        if self.tracer is not None:
            for index, what, span in self.tracer.events:
                events.setdefault(index, []).append(
                    span.open_event() if what == "open" else span.close_event()
                )
        lines = 0
        with open(path, "w") as fh:
            def emit(obj) -> None:
                nonlocal lines
                fh.write(json.dumps(obj, default=repr) + "\n")
                lines += 1

            emit({"kind": "schema", "version": SCHEMA_VERSION,
                  "generator": "repro.congest.trace"})
            for index in range(len(self.records) + 1):
                for event in events.get(index, ()):
                    emit(event)
                if index < len(self.records):
                    emit(self.records[index].as_dict())
            for message in self.warnings:
                emit({"kind": "warning", "message": message})
            for edge in self.edge_records(top_edges, full_edge_histograms):
                emit(edge)
            emit({"kind": "summary", **self.summary()})
        return lines

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        s = self.summary()
        return (
            f"RoundTrace(runs={s['runs']}, rounds={s['rounds']}, "
            f"messages={s['messages']}, peak_active={s['peak_active']})"
        )

