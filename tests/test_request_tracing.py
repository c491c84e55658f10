"""Request-scoped distributed tracing (PR 9).

The contract under test (docs/OBSERVABILITY.md "Request tracing"): with
``ServeConfig.trace_requests`` on, every request the engine serves yields
one finished trace record whose top-level phase spans — ``admit`` ->
``dispatch`` -> ``queue`` -> ``run`` -> ``verify`` -> ``respond`` (plus
``retry`` / ``breaker-fastfail`` / ``shed`` on the degraded paths) — are
non-overlapping and, together with the untraced remainder, attribute the
request's wall time *exactly*.  Worker span subtrees (``build`` /
``separator`` / ``certify`` / ``dfs``) come back across the process
boundary and graft under ``run``; a SIGKILLed worker's orphaned spans
are force-closed with a terminal status; and tracing is observational
only — response bodies and chaos fingerprints are bit-identical with it
on or off.  The serve-events JSONL round-trips through
:func:`repro.obs.events.load_events` and drives the
``repro trace serve`` CLI, whose summarize/critical-path views are also
the attribution verifier (non-zero exit on a violation).
"""

import asyncio
import json

import pytest

from repro.congest import RoundTrace, bfs_run, read_jsonl, run_fingerprint
from repro.obs import analyze
from repro.obs import (
    NULL_TRACER,
    RequestTrace,
    Span,
    TraceContext,
    Tracer,
    attribution_report,
)
from repro.obs.events import (
    EventLog,
    SERVE_EVENTS_VERSION,
    load_events,
    render_critical_path,
    render_serve_summary,
    render_slow,
    render_timeline,
    write_events,
)
from repro.planar import generators as gen
from repro.serve import (
    EngineTarget,
    LoadgenConfig,
    ServeConfig,
    ServeEngine,
    run_job,
    run_loadgen,
)

_run = asyncio.run

GRID36 = {"family": "grid", "n": 36, "seed": 1, "root": 0}


def _config(tmp_path, **overrides) -> ServeConfig:
    base = dict(
        workers=1,
        max_inflight=4,
        job_retries=1,
        breaker_threshold=2,
        breaker_cooldown_rejects=2,
        restart_backoff_s=0.0,
        cache_dir=str(tmp_path / "cache"),
        trace_requests=True,
    )
    base.update(overrides)
    return ServeConfig(**base)


def _phases(record):
    return [s["name"] for s in record["spans"]
            if s["parent"] == 1 and s["t1"] is not None]


def _assert_complete(records):
    report = attribution_report(records)
    assert report["complete"] == report["requests"], report
    assert report["orphan_spans"] == 0, report


# ---------------------------------------------------------------------------
# RequestTrace / attribution_report units
# ---------------------------------------------------------------------------


class TestRequestTrace:
    def test_begin_end_add_finalize(self):
        rt = RequestTrace("t-1")
        a = rt.begin("admit")
        rt.end(a, "ok")
        rt.add("dispatch", rt.now(), rt.now())
        rec = rt.finalize("ok", 200, attempts=2, cached=True)
        assert rec["kind"] == "request"
        assert rec["trace"] == "t-1"
        assert (rec["status"], rec["code"]) == ("ok", 200)
        assert (rec["attempts"], rec["cached"]) == (2, True)
        assert rec["spans"][0]["name"] == "request"
        assert rec["spans"][0]["t1"] == rec["wall_s"]
        _assert_complete([rec])

    def test_graft_remaps_parents_and_clamps(self):
        rt = RequestTrace("t-2")
        run_span = rt.add("run", 0.0, 1.0)
        subtree = [
            {"id": 1, "parent": 0, "name": "build", "t0": 0.0, "t1": 0.4},
            {"id": 2, "parent": 1, "name": "inner", "t0": 0.1, "t1": 0.3},
            {"id": 3, "parent": 0, "name": "dfs", "t0": 0.4, "t1": 9.0},
        ]
        assert rt.graft(subtree, run_span, base=0.5, clamp=1.0) == 3
        by_name = {s["name"]: s for s in rt.records()}
        assert by_name["build"]["parent"] == run_span
        assert by_name["inner"]["parent"] == by_name["build"]["id"]
        assert by_name["dfs"]["t1"] == 1.0  # clamped to the run span's end

    def test_force_close_open_leaves_no_orphans(self):
        rt = RequestTrace("t-3")
        rt.begin("run")
        assert rt.force_close_open("killed") == 1
        rec = rt.finalize("worker-died", 503)
        killed = [s for s in rec["spans"] if s["status"] == "killed"]
        assert len(killed) == 1 and killed[0]["t1"] is not None
        _assert_complete([rec])

    def test_report_flags_overlap_and_orphans(self):
        overlap = {"kind": "request", "trace": "bad-overlap", "wall_s": 1.0,
                   "spans": [
                       {"id": 1, "parent": 0, "name": "request",
                        "status": "ok", "t0": 0.0, "t1": 1.0},
                       {"id": 2, "parent": 1, "name": "a",
                        "status": "ok", "t0": 0.0, "t1": 0.7},
                       {"id": 3, "parent": 1, "name": "b",
                        "status": "ok", "t0": 0.5, "t1": 1.0},
                   ]}
        orphan = {"kind": "request", "trace": "bad-orphan", "wall_s": 1.0,
                  "spans": [
                      {"id": 1, "parent": 0, "name": "request",
                       "status": "ok", "t0": 0.0, "t1": 1.0},
                      {"id": 2, "parent": 1, "name": "run",
                       "status": None, "t0": 0.0, "t1": None},
                  ]}
        report = attribution_report([overlap, orphan])
        assert report["complete"] == 0
        assert report["orphan_spans"] == 1
        assert set(report["mismatches"]) == {"bad-overlap", "bad-orphan"}

    def test_event_log_ring_is_bounded(self):
        log = EventLog(capacity=3)
        for i in range(5):
            log.emit("pool-restart", generation=i)
        snap = log.snapshot()
        assert len(snap) == 3 and log.emitted == 5
        assert [e["generation"] for e in snap] == [2, 3, 4]
        assert [e["generation"] for e in log.snapshot(2)] == [3, 4]


# ---------------------------------------------------------------------------
# engine phase spans
# ---------------------------------------------------------------------------


@pytest.fixture
def engine(tmp_path):
    eng = ServeEngine(_config(tmp_path))
    yield eng
    eng.close()


class TestEngineTracing:
    def test_ok_request_full_phase_chain(self, engine):
        resp = _run(engine.submit(GRID36))
        assert resp.code == 200
        assert resp.headers["X-Trace-Id"] == "req-000001"
        assert "_trace" not in resp.body  # stripped before the response
        [rec] = list(engine.request_traces)
        assert _phases(rec) == ["admit", "dispatch", "queue", "run",
                                "verify", "respond"]
        names = {s["name"] for s in rec["spans"]}
        assert {"build", "separator", "certify", "dfs"} <= names
        run_span = next(s for s in rec["spans"] if s["name"] == "run")
        workers = [s for s in rec["spans"]
                   if s["name"] in ("build", "separator", "certify", "dfs")]
        assert all(s["parent"] == run_span["id"] for s in workers)
        assert all(run_span["t0"] - 1e-9 <= s["t0"]
                   and s["t1"] <= run_span["t1"] + 1e-9 for s in workers)
        _assert_complete([rec])

    def test_cached_and_invalid_and_client_id(self, engine):
        _run(engine.submit(GRID36))
        cached = _run(engine.submit(GRID36, trace_id="client-7"))
        assert cached.body["cached"] is True
        assert cached.headers["X-Trace-Id"] == "client-7"
        invalid = _run(engine.submit({"edges": "nope"}))
        assert invalid.code == 400
        records = list(engine.request_traces)
        assert [r["trace"] for r in records] == [
            "req-000001", "client-7", "req-000002"]
        assert _phases(records[1]) == ["admit", "respond"]  # no pool touch
        assert records[2]["status"] == "invalid"
        _assert_complete(records)

    def test_shed_and_draining_paths(self, engine):
        engine.inflight = engine.config.max_inflight
        shed = _run(engine.submit(GRID36))
        engine.inflight = 0
        assert shed.code == 429
        engine.draining = True
        drained = _run(engine.submit(GRID36))
        assert drained.code == 503
        records = list(engine.request_traces)
        assert _phases(records[0]) == ["admit", "shed", "respond"]
        assert _phases(records[1]) == ["admit", "respond"]
        assert records[1]["spans"][1]["status"] == "draining"
        assert any(e["type"] == "shed" for e in engine.events.snapshot())
        _assert_complete(records)

    def test_worker_kill_closes_run_as_killed_and_retries(self, engine):
        async def scenario():
            return await engine.submit(
                GRID36,
                on_dispatch=lambda eng, a: eng.pool.kill_worker() if a == 0 else None,
            )

        resp = _run(scenario())
        assert resp.code == 200 and resp.body["attempts"] == 2
        [rec] = list(engine.request_traces)
        phases = _phases(rec)
        assert "retry" in phases
        killed = [s for s in rec["spans"] if s["status"] == "killed"]
        assert killed and all(s["t1"] is not None for s in killed)
        kinds = [e["type"] for e in engine.events.snapshot()]
        assert "worker-kill" in kinds      # the pool's on_event hook
        assert "worker-died" in kinds      # the engine's supervision
        assert "pool-restart" in kinds     # the generation swap
        _assert_complete([rec])

    def test_untraced_engine_records_nothing(self, tmp_path):
        eng = ServeEngine(_config(tmp_path, trace_requests=False))
        try:
            resp = _run(eng.submit(GRID36))
            assert resp.code == 200
            assert "X-Trace-Id" not in resp.headers
            assert not list(eng.request_traces)
        finally:
            eng.close()

    def test_untraced_engine_allocates_no_tracing_object(self, tmp_path, monkeypatch):
        def boom(self, *a, **kw):
            raise AssertionError("tracing object allocated with tracing off")

        for cls in (Tracer, Span):
            monkeypatch.setattr(cls, "__init__", boom)
        eng = ServeEngine(_config(tmp_path, trace_requests=False))
        try:
            assert eng._begin_trace(None) is NULL_TRACER
            assert _run(eng.submit(GRID36)).code == 200
            assert _run(eng.submit(GRID36)).body["cached"] is True
        finally:
            eng.close()

    def test_statusz_snapshot(self, engine):
        _run(engine.submit(GRID36))
        snap = engine.statusz()
        assert snap["breaker"]["state"] == "closed"
        assert snap["pool"]["generation"] == 0
        assert snap["inflight"] == 0 and snap["queue_depth"] == 0
        assert snap["trace"] == {"enabled": True, "requests": 1}
        assert set(snap["latency_s"]) == {"p50", "p95", "p99"}
        assert isinstance(snap["events"], list)


class TestTracingNeutrality:
    """Tracing is observational: bodies are bit-identical on vs off."""

    def test_response_bodies_bit_identical(self, tmp_path):
        bodies = {}
        for label, traced in (("on", True), ("off", False)):
            eng = ServeEngine(_config(
                tmp_path / label, trace_requests=traced))
            try:
                fresh = _run(eng.submit(GRID36))
                cached = _run(eng.submit(GRID36))
                invalid = _run(eng.submit({"edges": "nope"}))
                bodies[label] = [json.dumps(r.body, sort_keys=True)
                                 for r in (fresh, cached, invalid)]
            finally:
                eng.close()
        assert bodies["on"] == bodies["off"]

    def test_run_job_expired_is_bare_with_trace_ctx(self):
        ctx = TraceContext("t-exp")
        spec_canonical = {"kind": "generator", **GRID36}
        assert run_job(spec_canonical, 0.0, ctx) == {"status": "expired"}

    def test_run_job_returns_worker_subtree(self):
        ctx = TraceContext("t-sub")
        result = run_job({"kind": "generator", **GRID36}, None, ctx)
        assert result["status"] == "ok"
        worker = result["_trace"]
        assert worker["trace"] == "t-sub"
        assert worker["entry_ts"] > 0
        names = [s["name"] for s in worker["spans"]]
        assert names == ["build", "separator", "certify", "dfs"]
        for s in worker["spans"]:
            assert 0.0 <= s["t0"] <= s["t1"]
        untraced = run_job({"kind": "generator", **GRID36})
        assert "_trace" not in untraced
        assert {k: v for k, v in result.items() if k != "_trace"} == untraced


# ---------------------------------------------------------------------------
# lineage
# ---------------------------------------------------------------------------


class TestLineage:
    def test_bound_context_stamps_every_span_open_and_round_trips(self, tmp_path):
        trace = RoundTrace()
        tracer = Tracer()
        tracer.attach(trace)
        tracer.bind_context(TraceContext("req-plain-1"))
        with tracer.span("workload"):
            bfs_run(gen.grid(6, 6), 0, trace=trace)
        dump = tmp_path / "dump.jsonl"
        trace.dump_jsonl(dump)
        opens = [r for r in read_jsonl(dump) if r["kind"] == "span-open"]
        assert len(opens) >= 2  # ours and bfs_run's own "bfs" span
        assert [r["id"] for r in opens] == [s.id for s in tracer.spans]
        assert all(r["trace"] == "req-plain-1" for r in opens)
        doc = analyze.load_dump(dump)
        assert {i: (s["name"], s["parent"], s["rounds"])
                for i, s in doc["spans"].items()} == {
            s.id: (s.name, s.parent_id, s.rounds) for s in tracer.spans}
        assert all(s["closed"] for s in doc["spans"].values())

    def test_run_job_records_carry_the_request_trace_id(self):
        rt = RequestTrace("req-lineage")
        result = run_job({"kind": "generator", **GRID36}, None, rt.context)
        worker = result.pop("_trace")
        assert worker["trace"] == rt.trace_id == "req-lineage"
        run_span = rt.add("run", 0.0, rt.now())
        assert rt.graft(worker["spans"], run_span, 0.0, clamp=rt.now()) == 4
        rec = rt.finalize("ok", 200)
        assert rec["trace"] == "req-lineage"
        grafted = [s for s in rec["spans"] if s["parent"] == run_span]
        assert [s["name"] for s in grafted] == ["build", "separator", "certify", "dfs"]
        assert all(s["status"] == "ok" for s in grafted)
        _assert_complete([rec])

    def test_lineage_is_fingerprint_neutral(self):
        def traced_run(context):
            g = gen.grid(6, 6)
            trace = RoundTrace()
            tracer = Tracer()
            tracer.attach(trace)
            if context is not None:
                tracer.bind_context(context)
            with tracer.span("workload"):
                result = bfs_run(g, sorted(g.nodes)[0], trace=trace)
            return run_fingerprint(result, trace)

        assert traced_run(TraceContext("req-neutral")) == traced_run(None)


# ---------------------------------------------------------------------------
# the serve-events JSONL + CLI
# ---------------------------------------------------------------------------


def _traced_records(tmp_path):
    eng = ServeEngine(_config(tmp_path))
    try:
        _run(eng.submit(GRID36))
        _run(eng.submit(GRID36))
        _run(eng.submit({"edges": "nope"}))
        return list(eng.request_traces), eng.events.snapshot()
    finally:
        eng.close()


class TestServeEventsDump:
    def test_roundtrip(self, tmp_path):
        records, events = _traced_records(tmp_path)
        path = tmp_path / "serve-events.jsonl"
        lines = write_events(path, records, events)
        raw = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(raw) == lines
        assert raw[0] == {"kind": "schema", "schema": "serve-events",
                          "version": SERVE_EVENTS_VERSION}
        assert raw[-1]["kind"] == "summary"
        doc = load_events(path)
        assert doc["version"] == SERVE_EVENTS_VERSION
        assert [r["trace"] for r in doc["requests"]] == [
            r["trace"] for r in records]
        for loaded, original in zip(doc["requests"], records):
            assert len(loaded["spans"]) == len(original["spans"])
        assert doc["summary"]["requests"] == len(records)
        report = doc["report"]
        assert report["complete"] == report["requests"] == len(records)
        assert report["orphan_spans"] == 0
        assert {h["phase"] for h in doc["phase_hists"]} >= {"admit", "run"}
        run_hist = next(h for h in doc["phase_hists"] if h["phase"] == "run")
        assert run_hist["count"] == 1
        assert run_hist["exemplar"]["trace"] == records[0]["trace"]

    def test_renderers_and_verdicts(self, tmp_path):
        records, events = _traced_records(tmp_path)
        path = tmp_path / "serve-events.jsonl"
        write_events(path, records, events)
        doc = load_events(path)
        summary = render_serve_summary(doc)
        assert "attribution: phases + untraced == wall" in summary
        assert "fully attributed: 100.0% of requests" in summary
        assert "orphan spans: 0" in summary
        critical = render_critical_path(doc)
        assert "critical path at p50:" in critical
        assert "critical path at p99:" in critical
        timeline = render_timeline(doc, trace=records[0]["trace"])
        assert "build" in timeline and "dfs" in timeline
        assert render_timeline(doc, trace="missing").startswith("no request")
        assert records[0]["trace"] in render_slow(doc, k=1)

    def test_load_warns_on_unknown_kind_and_missing_header(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        path.write_text(json.dumps({"kind": "mystery"}) + "\n")
        with pytest.warns(UserWarning) as record:
            doc = load_events(path)
        messages = [str(w.message) for w in record]
        assert any("no schema header" in m for m in messages)
        assert any("mystery" in m for m in messages)
        assert doc["requests"] == [] and doc["version"] is None

    def test_cli_verifies_and_fails_on_orphans(self, tmp_path, capsys):
        from repro.cli import main

        records, events = _traced_records(tmp_path)
        good = tmp_path / "good.jsonl"
        write_events(good, records, events)
        assert main(["trace", "serve", "summarize", str(good)]) == 0
        assert "orphan spans: 0" in capsys.readouterr().out
        assert main(["trace", "serve", "critical-path", str(good)]) == 0
        assert "critical path at p99" in capsys.readouterr().out
        assert main(["trace", "serve", "timeline", str(good),
                     "--limit", "1"]) == 0
        assert main(["trace", "serve", "slow", str(good), "--top", "2"]) == 0
        capsys.readouterr()

        bad_records = [dict(records[0])]
        bad_records[0]["spans"] = records[0]["spans"] + [
            {"id": 99, "parent": 1, "name": "ghost",
             "status": None, "t0": 0.0, "t1": None}]
        bad = tmp_path / "bad.jsonl"
        write_events(bad, bad_records, [])
        assert main(["trace", "serve", "summarize", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.err


# ---------------------------------------------------------------------------
# loadgen integration
# ---------------------------------------------------------------------------


class TestLoadgenTracing:
    def _bench(self, tmp_path, label, trace):
        eng = ServeEngine(_config(tmp_path / label, trace_requests=trace))
        config = LoadgenConfig(seed=3, duration_s=0, total_requests=8,
                               concurrency=1, catalog_size=4,
                               sizes=(24,), trace=trace)
        try:
            bench = _run(run_loadgen(config, EngineTarget(eng)))
            return bench, list(eng.request_traces)
        finally:
            eng.close()

    def test_deterministic_trace_ids_and_attribution(self, tmp_path):
        bench, records = self._bench(tmp_path, "on", trace=True)
        assert [r["trace"] for r in records] == [
            f"lg-3-{i:06d}" for i in range(1, 9)]
        _assert_complete(records)
        assert set(bench["server_latency_s"]) == {"p50", "p95", "p99"}

    def test_bench_shape_identical_on_and_off(self, tmp_path):
        on, _ = self._bench(tmp_path, "on", trace=True)
        off, _ = self._bench(tmp_path, "off", trace=False)
        assert on.keys() == off.keys()
        assert on["workload"] == off["workload"]  # trace flag never leaks
        assert on["status_counts"] == off["status_counts"]
        assert on["requests"] == off["requests"]
        assert on["cache_hit_rate"] == off["cache_hit_rate"]
