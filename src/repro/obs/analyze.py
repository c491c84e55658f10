"""Offline analysis of trace JSONL dumps — the ``repro trace`` backend.

:func:`read_jsonl` is the one reader of both JSONL formats the stack
writes — the round-trace dump of
:meth:`repro.congest.trace.RoundTrace.dump_jsonl` and the serve-events
log of :func:`repro.obs.events.write_events` — so their header, version
and record-kind checks live in one place.  :func:`load_dump` parses a
round-trace dump into a structured document and this module renders:

* ``summarize`` — the aggregate view (rounds, messages, words, faults,
  worst offender, warnings, span count);
* ``phases`` — the span tree with *cumulative* (span + descendants) and
  *self* counters per phase, an ``(untraced)`` bucket for rounds recorded
  outside any span, and an attribution-completeness check line: the self
  counters plus the untraced remainder must sum **exactly** to the trace
  totals (they do by construction — see ``repro.obs.tracing``);
* ``edges`` — the top-k bandwidth edges by total words;
* ``diff`` — two traces compared phase by phase (matched on the span
  path ``parent/child[attrs]``), for before/after comparisons.

Everything here is pure functions over parsed JSON, so the CLI and the
tests share one code path.  ``congest`` imports the reader and the
round-trace schema constants from here, not the reverse.
"""

from __future__ import annotations

import json
import warnings
from typing import Any, Dict, List, Tuple

__all__ = [
    "KNOWN_KINDS",
    "SCHEMA_VERSION",
    "SCHEMAS",
    "load_dump",
    "read_jsonl",
    "span_tree",
    "render_summary",
    "render_phases",
    "render_edges",
    "render_diff",
]

_COUNTERS = ("rounds", "messages", "words", "dropped", "lost", "duplicated")

#: Per JSONL format, named by its header's ``schema`` field (round-trace
#: headers predate the field): the newest readable version and the record
#: kinds a conforming reader must expect.  Round-trace v1 dumps have no
#: header; v2 added it, span events and edge records.
SCHEMAS: Dict[str, Tuple[int, frozenset]] = {
    "round-trace": (2, frozenset(
        {"schema", "round", "warning", "summary", "edge", "span-open", "span-close"})),
    "serve-events": (1, frozenset(
        {"schema", "request", "span", "event", "phase-hist", "summary"})),
}
SCHEMA_VERSION, KNOWN_KINDS = SCHEMAS["round-trace"]


def read_jsonl(path) -> List[Dict[str, Any]]:
    """Load a JSONL dump; returns all records, header included.

    Warns — never fails — on a dump without a ``schema`` header (read as
    a legacy stream), on a version newer than this reader's, and on
    record kinds its format does not define (for a headerless dump: kinds
    no format defines).
    """
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    if not records:
        return records
    header = records[0]
    if header.get("kind") != "schema":
        warnings.warn(f"{path}: dump has no schema header; "
                      f"reading it as a legacy stream", stacklevel=2)
        name = "headerless"
        kinds = frozenset().union(*(k for _, k in SCHEMAS.values()))
    else:
        name = header.get("schema", "round-trace")
        version, kinds = SCHEMAS.get(name, (0, frozenset()))
        if header.get("version", 0) > version:
            warnings.warn(
                f"{path}: {name} dump version {header.get('version')} is "
                f"newer than this reader's {version}; records may be "
                f"missing fields",
                stacklevel=2,
            )
    unknown = sorted({rec.get("kind") for rec in records} - kinds - {None})
    if unknown:
        warnings.warn(
            f"{path}: unknown record kinds {unknown!r} in a {name} dump "
            f"(known: {sorted(kinds)})",
            stacklevel=2,
        )
    return records


def load_dump(path) -> Dict[str, Any]:
    """Parse a trace dump into ``{schema, rounds, warnings, edges, spans,
    summary}``.

    ``spans`` maps span id -> a merged record of its open event (name,
    attrs, nesting) and close event (self counters, wall-clock); a span
    that never closed keeps zeroed counters and ``closed=False``.
    """
    doc: Dict[str, Any] = {
        "path": str(path),
        "schema": 1,
        "rounds": [],
        "warnings": [],
        "edges": [],
        "spans": {},
        "summary": None,
    }
    for rec in read_jsonl(path):
        kind = rec.get("kind")
        if kind == "schema":
            doc["schema"] = rec.get("version", 1)
        elif kind == "round":
            doc["rounds"].append(rec)
        elif kind == "warning":
            doc["warnings"].append(rec.get("message", ""))
        elif kind == "edge":
            doc["edges"].append(rec)
        elif kind == "span-open":
            doc["spans"][rec["id"]] = {
                "id": rec["id"],
                "parent": rec.get("parent"),
                "depth": rec.get("depth", 0),
                "name": rec.get("name", "?"),
                "attrs": rec.get("attrs", {}),
                "closed": False,
                "wall_s": 0.0,
                **{c: 0 for c in _COUNTERS},
            }
        elif kind == "span-close":
            span = doc["spans"].get(rec["id"])
            if span is None:  # close without open: tolerate, synthesize
                span = doc["spans"][rec["id"]] = {
                    "id": rec["id"], "parent": None, "depth": 0,
                    "name": "?", "attrs": {}, "closed": False, "wall_s": 0.0,
                    **{c: 0 for c in _COUNTERS},
                }
            span["closed"] = True
            span["wall_s"] = rec.get("wall_s", 0.0)
            for c in _COUNTERS:
                span[c] = rec.get(c, 0)
        elif kind == "summary":
            doc["summary"] = rec
    return doc


def _totals(doc: Dict[str, Any]) -> Dict[str, int]:
    """Trace totals recomputed from the round records (exact)."""
    out = {c: 0 for c in _COUNTERS}
    out["rounds"] = len(doc["rounds"])
    for rec in doc["rounds"]:
        for c in _COUNTERS[1:]:
            out[c] += rec.get(c, 0)
    return out


def span_tree(doc: Dict[str, Any]) -> Tuple[List[Dict[str, Any]], Dict[str, int]]:
    """The spans as roots-first tree nodes plus per-span cumulative sums.

    Returns ``(roots, untraced)`` where each tree node is the span record
    extended with ``children`` (a list of nodes) and ``cum`` (self plus
    all descendants, per counter), and ``untraced`` is the remainder of
    the trace totals not attributed to any span.
    """
    spans = doc["spans"]
    roots: List[Dict[str, Any]] = []
    for span in spans.values():
        span["children"] = []
    for span in sorted(spans.values(), key=lambda s: s["id"]):
        parent = spans.get(span["parent"])
        if parent is None:
            roots.append(span)
        else:
            parent["children"].append(span)

    def fill(span: Dict[str, Any]) -> Dict[str, int]:
        cum = {c: span[c] for c in _COUNTERS}
        for child in span["children"]:
            child_cum = fill(child)
            for c in _COUNTERS:
                cum[c] += child_cum[c]
        span["cum"] = cum
        span["cum_wall_s"] = span["wall_s"]  # wall-clock already includes children
        return cum

    attributed = {c: 0 for c in _COUNTERS}
    for root in roots:
        cum = fill(root)
        for c in _COUNTERS:
            attributed[c] += cum[c]
    totals = _totals(doc)
    untraced = {c: totals[c] - attributed[c] for c in _COUNTERS}
    return roots, untraced


def _label(span: Dict[str, Any]) -> str:
    attrs = span.get("attrs") or {}
    if not attrs:
        return span["name"]
    inner = ",".join(f"{k}={attrs[k]}" for k in sorted(attrs))
    return f"{span['name']}[{inner}]"


def render_summary(doc: Dict[str, Any]) -> str:
    """The aggregate view, one ``key: value`` row per line."""
    totals = _totals(doc)
    summary = doc["summary"] or {}
    rows = [
        ("dump", doc["path"]),
        ("schema", doc["schema"]),
        ("runs", summary.get("runs", "?")),
        ("rounds", totals["rounds"]),
        ("messages", totals["messages"]),
        ("words", totals["words"]),
        ("dropped", totals["dropped"]),
        ("lost", totals["lost"]),
        ("duplicated", totals["duplicated"]),
        ("peak_active", summary.get("peak_active", "?")),
        ("max_words", summary.get("max_words", "?")),
        ("offender", summary.get("offender", None) or "-"),
        ("spans", len(doc["spans"])),
        ("edges_recorded", len(doc["edges"])),
        ("warnings", len(doc["warnings"])),
    ]
    width = max(len(k) for k, _ in rows)
    lines = [f"{k.rjust(width)}: {v}" for k, v in rows]
    lines.extend(f"{'warning'.rjust(width)}: {w}" for w in doc["warnings"])
    return "\n".join(lines)


def render_phases(doc: Dict[str, Any]) -> str:
    """The span tree with cumulative and self counters per phase."""
    roots, untraced = span_tree(doc)
    totals = _totals(doc)
    header = (
        f"{'phase':<44} {'rounds':>7} {'msgs':>8} {'words':>9} "
        f"{'wall_s':>9} {'self.r':>7} {'self.m':>8} {'self.w':>9}"
    )
    lines = [header, "-" * len(header)]

    def walk(span: Dict[str, Any], prefix: str, last: bool) -> None:
        branch = "" if not prefix and last is None else ("`- " if last else "|- ")
        label = f"{prefix}{branch}{_label(span)}"
        if not span["closed"]:
            label += " (open)"
        cum = span["cum"]
        lines.append(
            f"{label:<44} {cum['rounds']:>7} {cum['messages']:>8} "
            f"{cum['words']:>9} {span['cum_wall_s']:>9.4f} "
            f"{span['rounds']:>7} {span['messages']:>8} {span['words']:>9}"
        )
        deeper = prefix + ("   " if last else "|  ") if branch else prefix
        for i, child in enumerate(span["children"]):
            walk(child, deeper, i == len(span["children"]) - 1)

    for root in roots:
        walk(root, "", None)  # type: ignore[arg-type]
    if any(untraced.values()):
        lines.append(
            f"{'(untraced)':<44} {untraced['rounds']:>7} "
            f"{untraced['messages']:>8} {untraced['words']:>9} {'-':>9} "
            f"{untraced['rounds']:>7} {untraced['messages']:>8} "
            f"{untraced['words']:>9}"
        )
    lines.append("-" * len(header))
    lines.append(
        f"{'total':<44} {totals['rounds']:>7} {totals['messages']:>8} "
        f"{totals['words']:>9}"
    )
    attributed = {
        c: totals[c] - untraced[c] for c in ("rounds", "messages", "words")
    }
    complete = all(
        attributed[c] + untraced[c] == totals[c]
        for c in ("rounds", "messages", "words")
    )
    lines.append(
        "attribution: spans + untraced == totals "
        + ("(complete, non-overlapping)" if complete else "(MISMATCH!)")
    )
    return "\n".join(lines)


def render_edges(doc: Dict[str, Any], k: int = 10) -> str:
    """The ``k`` heaviest directed edges by total words."""
    edges = sorted(
        doc["edges"], key=lambda e: (-e.get("words", 0), str(e.get("src")))
    )[:k]
    if not edges:
        return "no edge records in dump (re-dump with edge histograms enabled)"
    header = f"{'edge':<36} {'msgs':>7} {'words':>8} {'max_w':>6}  histogram"
    lines = [header, "-" * len(header)]
    for e in edges:
        hist = e.get("hist", {})
        hist_s = " ".join(f"{w}w:{hist[w]}" for w in sorted(hist, key=int))
        lines.append(
            f"{str(e.get('src')) + ' -> ' + str(e.get('dst')):<36} "
            f"{e.get('messages', 0):>7} {e.get('words', 0):>8} "
            f"{e.get('max_words', 0):>6}  {hist_s}"
        )
    return "\n".join(lines)


def _phase_index(doc: Dict[str, Any]) -> Dict[str, Dict[str, int]]:
    """Span name-path -> summed self counters.

    Keyed on names only (attrs carry per-instance values like ``n=`` that
    would stop any phase from matching across two runs); spans sharing a
    path — merge iterations, Borůvka phases — aggregate.
    """
    spans = doc["spans"]

    def path(span: Dict[str, Any]) -> str:
        parts = [span["name"]]
        parent = spans.get(span["parent"])
        while parent is not None:
            parts.append(parent["name"])
            parent = spans.get(parent["parent"])
        return "/".join(reversed(parts))

    out: Dict[str, Dict[str, int]] = {}
    for span in spans.values():
        key = path(span)
        acc = out.setdefault(key, {c: 0 for c in _COUNTERS} | {"wall_s": 0.0})
        for c in _COUNTERS:
            acc[c] += span[c]
        acc["wall_s"] += span["wall_s"]
    return out


def render_diff(doc_a: Dict[str, Any], doc_b: Dict[str, Any]) -> str:
    """Phase-by-phase comparison of two traces (self counters)."""
    a, b = _phase_index(doc_a), _phase_index(doc_b)
    keys = sorted(set(a) | set(b))
    header = (
        f"{'phase':<52} {'rounds A':>8} {'rounds B':>8} {'Δr':>6} "
        f"{'msgs A':>8} {'msgs B':>8} {'Δm':>7}"
    )
    lines = [
        f"A: {doc_a['path']}",
        f"B: {doc_b['path']}",
        header,
        "-" * len(header),
    ]
    for key in keys:
        ra = a.get(key, {}).get("rounds", 0)
        rb = b.get(key, {}).get("rounds", 0)
        ma = a.get(key, {}).get("messages", 0)
        mb = b.get(key, {}).get("messages", 0)
        mark = "" if key in a and key in b else ("  [only A]" if key in a else "  [only B]")
        lines.append(
            f"{key:<52} {ra:>8} {rb:>8} {rb - ra:>+6} "
            f"{ma:>8} {mb:>8} {mb - ma:>+7}{mark}"
        )
    ta, tb = _totals(doc_a), _totals(doc_b)
    lines.append("-" * len(header))
    lines.append(
        f"{'total':<52} {ta['rounds']:>8} {tb['rounds']:>8} "
        f"{tb['rounds'] - ta['rounds']:>+6} {ta['messages']:>8} "
        f"{tb['messages']:>8} {tb['messages'] - ta['messages']:>+7}"
    )
    return "\n".join(lines)
