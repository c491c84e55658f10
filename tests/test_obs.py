"""Tests for the observability stack: spans, metrics, dumps, analysis, CLI.

The load-bearing guarantees locked here:

* **exact attribution** — summing span *self* counters plus the untraced
  remainder reproduces the trace totals, bit for bit, including the fault
  counters (lost/duplicated) on both schedulers;
* **tracing never steers** — :func:`run_fingerprint` is identical with
  tracing (and metrics) on or off;
* **tracing off is free** — no :class:`Span` is allocated unless a tracer
  is attached;
* **the dump schema** — header first, summary last, span events
  interleaved, edge records serialized; legacy dumps and unknown kinds
  warn instead of failing.
"""

import json
import re

import pytest

from repro.cli import main
from repro.congest import (
    FaultPlan,
    Network,
    RoundTrace,
    awerbuch_dfs_run,
    bfs_run,
    read_jsonl,
    run_fingerprint,
)
from repro.congest.trace import KNOWN_KINDS, SCHEMA_VERSION
from repro.congest.weights_sim import weights_problem_run
from repro.core.config import PlanarConfiguration
from repro.obs import (
    NULL_SPAN,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Span,
    Tracer,
    trace_span,
)
from repro.obs import analyze
from repro.planar import generators as gen

from conftest import forced_scheduler

COUNTERS = ("rounds", "messages", "words", "dropped", "lost", "duplicated")

FAULTS = dict(drop_rate=0.3, duplicate_rate=0.2)


def traced(trace=None):
    """A RoundTrace with a Tracer attached; returns (trace, tracer)."""
    trace = trace or RoundTrace()
    tracer = Tracer()
    tracer.attach(trace)
    return trace, tracer


def self_sums(tracer):
    return {c: sum(getattr(s, c) for s in tracer.spans) for c in COUNTERS}


def totals(trace):
    return {
        "rounds": len(trace.records),
        "messages": trace.total_messages,
        "words": trace.total_words,
        "dropped": trace.total_dropped,
        "lost": trace.total_lost,
        "duplicated": trace.total_duplicated,
    }


# -- spans -------------------------------------------------------------------


class TestSpans:
    def test_nesting_ids_parents_depths(self):
        tracer = Tracer()
        with tracer.span("outer", level=1) as outer:
            with tracer.span("inner") as inner:
                assert tracer.current is inner
            assert tracer.current is outer
        assert tracer.current is None
        assert (outer.id, outer.parent_id, outer.depth) == (1, None, 0)
        assert (inner.id, inner.parent_id, inner.depth) == (2, 1, 1)
        assert outer.attrs == {"level": 1}
        assert outer.wall_s >= inner.wall_s >= 0.0

    def test_null_span_is_shared_and_reentrant(self):
        assert trace_span(None, "x") is NULL_SPAN
        assert trace_span(RoundTrace(), "x") is NULL_SPAN  # no tracer attached
        with NULL_SPAN:
            with NULL_SPAN:
                pass

    def test_tracing_off_allocates_no_span(self, monkeypatch):
        def boom(self, *a, **kw):
            raise AssertionError("Span allocated with tracing off")

        monkeypatch.setattr(Span, "__init__", boom)
        trace = RoundTrace()
        with trace_span(trace, "bfs", root=0):
            pass
        bfs_run(gen.grid(3, 3), 0, trace=trace)  # sims hit the same path

    def test_double_enter_raises(self):
        tracer = Tracer()
        span = tracer.span("phase")
        with span:
            pass
        with pytest.raises(RuntimeError, match="entered twice"):
            span.__enter__()

    def test_out_of_order_close_raises(self):
        tracer = Tracer()
        outer = tracer.span("outer").__enter__()
        tracer.span("inner").__enter__()
        with pytest.raises(RuntimeError, match="out of order"):
            tracer._close(outer)

    def test_attribution_is_exact_and_complete(self):
        g = gen.grid(5, 5)
        trace, tracer = traced()
        with tracer.span("workload"):
            with tracer.span("bfs"):
                bfs_run(g, 0, trace=trace)
            with tracer.span("awerbuch"):
                awerbuch_dfs_run(g, 0, trace=trace)
        t = totals(trace)
        assert t["rounds"] > 0 and t["messages"] > 0
        assert self_sums(tracer) == t
        # every round record is stamped with the span that absorbed it
        by_span = {}
        for rec in trace.records:
            by_span[rec.span] = by_span.get(rec.span, 0) + 1
        for span in tracer.spans:
            assert by_span.get(span.id, 0) == span.rounds
        # "workload" never owns a round itself: the sims' own spans nest
        # inside it and absorb everything
        assert tracer.spans[0].name == "workload"
        assert tracer.spans[0].rounds == 0

    def test_sims_open_their_own_nested_spans(self):
        cfg = PlanarConfiguration.build(gen.delaunay(40, seed=3), root=0)
        trace, tracer = traced()
        weights_problem_run(cfg, trace=trace)
        names = [s.name for s in tracer.spans]
        assert names == ["weights-problem", "size-convergecast", "order-downcast"]
        parent = tracer.spans[0]
        assert all(s.parent_id == parent.id for s in tracer.spans[1:])
        assert parent.rounds == 0  # children absorb every recorded round
        assert self_sums(tracer) == totals(trace)


# -- spans x faults ----------------------------------------------------------


class TestSpansWithFaults:
    @pytest.mark.parametrize("scheduler", ["active", "dense"])
    def test_fault_counters_attribute_to_spans(self, scheduler):
        trace, tracer = traced()
        with tracer.span("faulty-bfs"), forced_scheduler(scheduler):
            bfs_run(
                gen.grid(5, 5), 0, trace=trace, faults=FaultPlan(11, **FAULTS),
            )
        t = totals(trace)
        assert t["lost"] > 0 and t["duplicated"] > 0
        assert self_sums(tracer) == t
        span = tracer.spans[1]  # bfs_run's own "bfs" span, inside ours
        assert span.name == "bfs"
        assert span.lost == t["lost"]
        assert span.duplicated == t["duplicated"]

    @pytest.mark.parametrize("scheduler", ["active", "dense"])
    def test_fingerprint_identical_tracing_on_off(self, scheduler):
        def fingerprint(attach_tracer, metrics=None):
            trace = RoundTrace()
            if attach_tracer:
                Tracer().attach(trace)
            with forced_scheduler(scheduler):
                res = bfs_run(
                    gen.grid(5, 5), 0, trace=trace,
                    faults=FaultPlan(7, **FAULTS), metrics=metrics,
                )
            return run_fingerprint(res, trace)

        off = fingerprint(False)
        assert fingerprint(True) == off
        assert fingerprint(True, metrics=MetricsRegistry()) == off


# -- dump schema -------------------------------------------------------------


@pytest.fixture
def dumped(tmp_path):
    """A traced bfs+awerbuch dump; returns (path, trace, tracer, lines)."""
    g = gen.grid(4, 4)
    trace, tracer = traced()
    with tracer.span("e2", family="grid", n=len(g)):
        bfs_run(g, 0, trace=trace)
        awerbuch_dfs_run(g, 0, trace=trace)
    path = tmp_path / "dump.jsonl"
    lines = trace.dump_jsonl(path)
    return path, trace, tracer, lines


class TestDumpSchema:
    def test_header_first_summary_last_all_lines(self, dumped):
        path, trace, tracer, lines = dumped
        records = read_jsonl(path)
        assert len(records) == lines == len(path.read_text().splitlines())
        assert records[0]["kind"] == "schema"
        assert records[0]["version"] == SCHEMA_VERSION
        assert records[-1]["kind"] == "summary"
        kinds = [r["kind"] for r in records]
        assert set(kinds) <= KNOWN_KINDS
        assert kinds.count("round") == len(trace.records)
        assert kinds.count("span-open") == len(tracer.spans)
        assert kinds.count("span-close") == len(tracer.spans)

    def test_span_events_interleave_in_causal_order(self, dumped):
        path, _, tracer, _ = dumped
        opened = set()
        seen_rounds = 0
        positions = {}
        for rec in read_jsonl(path):
            if rec["kind"] == "round":
                seen_rounds += 1
            elif rec["kind"] == "span-open":
                opened.add(rec["id"])
                positions[rec["id"]] = seen_rounds
            elif rec["kind"] == "span-close":
                assert rec["id"] in opened  # never closes before it opens
        for span in tracer.spans:
            assert positions[span.id] == span.open_at

    def test_edge_records_serialized_and_ranked(self, dumped):
        path, trace, _, _ = dumped
        edges = [r for r in read_jsonl(path) if r["kind"] == "edge"]
        assert 0 < len(edges) <= 16
        words = [e["words"] for e in edges]
        assert words == sorted(words, reverse=True)
        for e in edges:
            assert sum(int(w) * c for w, c in e["hist"].items()) == e["words"]
            assert sum(e["hist"].values()) == e["messages"]

    def test_top_edges_caps_and_full_histograms_keeps_all(self, tmp_path):
        g = gen.grid(4, 4)
        trace = RoundTrace()
        bfs_run(g, 0, trace=trace)
        capped = tmp_path / "capped.jsonl"
        full = tmp_path / "full.jsonl"
        trace.dump_jsonl(capped, top_edges=3)
        trace.dump_jsonl(full, full_edge_histograms=True)
        n_capped = sum(1 for r in read_jsonl(capped) if r["kind"] == "edge")
        n_full = sum(1 for r in read_jsonl(full) if r["kind"] == "edge")
        assert n_capped == 3
        assert n_full == len(trace.edge_words)

    def test_legacy_v1_dump_warns_but_reads(self, tmp_path):
        path = tmp_path / "legacy.jsonl"
        path.write_text(
            json.dumps({"kind": "round", "run": 1, "round": 1, "active": 2,
                        "messages": 1, "words": 1, "max_words": 1,
                        "dropped": 0}) + "\n"
            + json.dumps({"kind": "summary", "runs": 1}) + "\n"
        )
        with pytest.warns(UserWarning, match="schema"):
            records = read_jsonl(path)
        assert [r["kind"] for r in records] == ["round", "summary"]

    def test_newer_schema_version_warns(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({"kind": "schema", "version": SCHEMA_VERSION + 1}) + "\n"
            + json.dumps({"kind": "summary", "runs": 0}) + "\n"
        )
        with pytest.warns(UserWarning, match="version"):
            read_jsonl(path)

    def test_unknown_kind_warns(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        path.write_text(
            json.dumps({"kind": "schema", "version": SCHEMA_VERSION}) + "\n"
            + json.dumps({"kind": "hologram"}) + "\n"
            + json.dumps({"kind": "summary", "runs": 0}) + "\n"
        )
        with pytest.warns(UserWarning, match="hologram"):
            read_jsonl(path)


# -- analysis ----------------------------------------------------------------


class TestAnalysis:
    def test_span_tree_attribution_complete(self, dumped):
        path, trace, _, _ = dumped
        doc = analyze.load_dump(str(path))
        roots, untraced = analyze.span_tree(doc)
        assert len(roots) == 1 and roots[0]["name"] == "e2"
        assert all(v == 0 for v in untraced.values())
        assert roots[0]["cum"]["rounds"] == len(trace.records)
        assert roots[0]["cum"]["messages"] == trace.total_messages
        assert roots[0]["cum"]["words"] == trace.total_words

    def test_untraced_bucket_counts_rounds_outside_spans(self, tmp_path):
        g = gen.grid(3, 3)
        trace, tracer = traced()
        bfs_run(g, 0, trace=trace)  # own span
        trace.tracer = None
        untraced_run = bfs_run(g, 0, trace=trace)  # no attribution
        trace.tracer = tracer
        path = tmp_path / "mixed.jsonl"
        trace.dump_jsonl(path)
        doc = analyze.load_dump(str(path))
        _, untraced = analyze.span_tree(doc)
        assert untraced["rounds"] == untraced_run.rounds
        text = analyze.render_phases(doc)
        assert "(untraced)" in text
        assert "complete, non-overlapping" in text

    def test_render_phases_and_summary(self, dumped):
        path, trace, _, _ = dumped
        doc = analyze.load_dump(str(path))
        phases = analyze.render_phases(doc)
        assert "e2[family=grid,n=16]" in phases
        assert "bfs" in phases and "awerbuch-dfs" in phases
        assert "complete, non-overlapping" in phases
        summary = analyze.render_summary(doc)
        assert f"rounds: {len(trace.records)}" in summary
        assert f"messages: {trace.total_messages}" in summary

    def test_render_edges(self, dumped):
        path, _, _, _ = dumped
        doc = analyze.load_dump(str(path))
        text = analyze.render_edges(doc, k=3)
        assert "->" in text and "words" in text
        assert len([l for l in text.splitlines()[2:] if "->" in l]) == 3

    def test_diff_matches_phases_across_instances(self, tmp_path):
        paths = []
        for n, side in (("a", 4), ("b", 5)):
            g = gen.grid(side, side)
            trace, tracer = traced()
            with tracer.span("e2", family="grid", n=len(g)):
                bfs_run(g, 0, trace=trace)
            p = tmp_path / f"{n}.jsonl"
            trace.dump_jsonl(p)
            paths.append(p)
        text = analyze.render_diff(
            analyze.load_dump(str(paths[0])), analyze.load_dump(str(paths[1]))
        )
        assert "e2/bfs" in text
        assert "[only A]" not in text and "[only B]" not in text


# -- metrics -----------------------------------------------------------------


class TestMetrics:
    def test_counter_labels_and_top(self):
        c = Counter("hits_total", labels=("node",))
        c.inc(node=1)
        c.inc(3, node=2)
        assert c.value(node=2) == 3 and c.total == 4
        assert c.top(1) == [(("2",), 3)]
        with pytest.raises(ValueError, match="labels"):
            c.inc(edge=1)

    def test_gauge_set_max(self):
        g = Gauge("depth")
        g.set(5)
        g.set_max(3)
        assert g.value() == 5
        g.set_max(9)
        assert g.value() == 9

    def test_histogram_buckets_cumulative(self):
        h = Histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        assert h.count() == 4 and h.sum() == pytest.approx(6.05)
        samples = {s: v for s, _, v in h.samples()}
        assert samples['_bucket{le="0.1"}'] == 1
        assert samples['_bucket{le="1"}'] == 3  # cumulative
        assert samples['_bucket{le="+Inf"}'] == 4

    def test_histogram_quantile_interpolates(self):
        h = Histogram("lat", buckets=(0.1, 1.0, 10.0))
        assert h.quantile(0.5) == 0.0  # no observations yet
        for v in (0.05, 0.5, 0.5, 0.5, 5.0):
            h.observe(v)
        # p20 lands on the single sub-0.1 sample: interpolate inside
        # [0, 0.1]; p80 sits at the top of the (0.1, 1.0] bucket.
        assert h.quantile(0.2) == pytest.approx(0.1)
        assert h.quantile(0.8) == pytest.approx(1.0)
        # Halfway through the (0.1, 1.0] bucket's three samples.
        mid = h.quantile(0.5)
        assert 0.1 < mid < 1.0
        assert h.quantile(0.0) <= h.quantile(0.5) <= h.quantile(1.0)
        # Overflow observations clamp to the largest finite bound.
        spill = Histogram("spill", buckets=(1.0,))
        spill.observe(100.0)
        assert spill.quantile(0.99) == 1.0

    def test_histogram_quantile_respects_labels(self):
        h = Histogram("lat", buckets=(1.0, 10.0), labels=("phase",))
        h.observe(0.5, phase="run")
        h.observe(9.0, phase="verify")
        assert h.quantile(0.5, phase="run") <= 1.0
        assert h.quantile(0.5, phase="verify") > 1.0
        assert h.quantile(0.5, phase="missing") == 0.0

    def test_registry_get_or_create_and_mismatch(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total")
        assert reg.counter("x_total") is c
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.counter("x_total", labels=("node",))

    def test_network_run_populates_congest_metrics(self):
        g = gen.grid(4, 4)
        metrics = MetricsRegistry()
        trace = RoundTrace()
        res = bfs_run(g, 0, trace=trace, metrics=metrics)
        assert metrics.get("congest_rounds_total").total == res.rounds
        assert metrics.get("congest_messages_total").total == res.messages_sent
        assert metrics.get("congest_words_total").total == trace.total_words
        dispatch = metrics.get("congest_node_dispatch_total")
        assert dispatch.total == sum(r.active for r in trace.records)
        assert metrics.get("congest_scheduler_queue_depth_peak").value() == (
            trace.peak_active
        )
        assert metrics.get("congest_round_wall_seconds").count() == res.rounds

    def test_prometheus_exposition_format(self):
        g = gen.grid(3, 3)
        metrics = MetricsRegistry()
        bfs_run(g, 0, metrics=metrics)
        text = metrics.to_prometheus()
        assert "# TYPE congest_rounds_total counter" in text
        assert "# TYPE congest_scheduler_queue_depth gauge" in text
        assert "# TYPE congest_round_wall_seconds histogram" in text
        assert 'congest_node_dispatch_total{node="0"}' in text
        assert 'congest_round_wall_seconds_bucket{le="+Inf"}' in text
        assert "congest_round_wall_seconds_sum" in text
        # every sample line parses as "name{labels} value"
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            float(value)

    def test_exposition_strict_grammar_round_trip(self):
        """The text the registry emits must survive a strict parse of the
        Prometheus exposition grammar — HELP/TYPE precede their samples,
        label values escape backslash/quote/newline, and histogram
        ``_bucket{le=...}`` series are cumulative and monotone."""
        reg = MetricsRegistry()
        nasty = 'a\\b"c\nd'
        c = reg.counter("nasty_total", help='has a "quote" and \\slash\n',
                        labels=("path",))
        c.inc(3, path=nasty)
        c.inc(2, path="plain")
        h = reg.histogram("lat_seconds", help="latency", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        text = reg.to_prometheus()

        sample_re = re.compile(
            r'^([a-zA-Z_:][a-zA-Z0-9_:]*)'
            r'(?:\{((?:[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*",?)*)\})?'
            r' (-?[0-9.e+InNaf]+)$'
        )
        seen_meta, samples = {}, {}
        for line in text.splitlines():
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                _, kind, name, rest = line.split(" ", 3)
                # Metadata must precede any sample of that family.
                assert not any(s.startswith(name) for s in samples), line
                seen_meta.setdefault(name, set()).add(kind)
                assert "\n" not in rest  # escaped, not literal
                continue
            m = sample_re.match(line)
            assert m, f"line violates exposition grammar: {line!r}"
            name, labels, value = m.group(1), m.group(2) or "", m.group(3)
            samples[f"{name}{{{labels}}}"] = float(value)
            family = re.sub(r"_(bucket|sum|count)$", "", name)
            assert {"HELP", "TYPE"} <= seen_meta.get(family, set()), line

        # Escaped label value round-trips to the original string.
        nasty_key = next(k for k in samples if "a\\\\b" in k)
        assert '\\"' in nasty_key and "\\n" in nasty_key
        unescaped = (nasty_key.split('="', 1)[1].rsplit('"', 1)[0]
                     .replace("\\n", "\n").replace('\\"', '"')
                     .replace("\\\\", "\\"))
        assert unescaped == nasty
        assert samples[nasty_key] == 3

        # Bucket series: cumulative, monotone, capped by +Inf == _count.
        buckets = [v for k, v in samples.items()
                   if k.startswith("lat_seconds_bucket")]
        assert buckets == sorted(buckets)
        assert samples['lat_seconds_bucket{le="+Inf"}'] == 3
        assert samples["lat_seconds_count{}"] == 3
        assert samples["lat_seconds_sum{}"] == pytest.approx(5.55)

    def test_to_dict_is_json(self):
        metrics = MetricsRegistry()
        bfs_run(gen.grid(3, 3), 0, metrics=metrics)
        d = metrics.to_dict()
        json.dumps(d)
        assert d["congest_rounds_total"]["type"] == "counter"
        assert d["congest_round_wall_seconds"]["type"] == "histogram"


# -- CLI ---------------------------------------------------------------------


class TestTraceCLI:
    def test_record_summarize_phases_edges_diff(self, tmp_path, capsys):
        dump = tmp_path / "t.jsonl"
        prom = tmp_path / "m.prom"
        code = main(["trace", "record", "--family", "grid", "--n", "36",
                     "--out", str(dump), "--metrics", str(prom)])
        out = capsys.readouterr().out
        assert code == 0 and "spans" in out
        assert "congest_rounds_total" in prom.read_text()

        assert main(["trace", "summarize", str(dump)]) == 0
        assert "rounds:" in capsys.readouterr().out

        assert main(["trace", "phases", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "e2[family=grid" in out
        assert "complete, non-overlapping" in out

        assert main(["trace", "edges", str(dump), "--top", "3"]) == 0
        assert "->" in capsys.readouterr().out

        assert main(["trace", "diff", str(dump), str(dump)]) == 0
        out = capsys.readouterr().out
        assert "e2/bfs" in out and "+0" in out
