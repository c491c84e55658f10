"""The serve stack (``repro.serve``): jobs, pool, engine, HTTP, loadgen.

The contract under test is docs/SERVE.md's degradation ladder — every
request reaches exactly one terminal response (200/400/429/503), worker
deaths are survived (restart + bounded idempotent retry), repeated deaths
trip the breaker, overload sheds deterministically, drain leaves no
orphaned workers — plus the satellite guarantees: in-worker oracles on
every 200, and ``repro_serve_*`` extra metrics staying inert to the
``--compare`` gate.
"""

import asyncio
import json
import os

import pytest

from repro.chaos.serve_chaos import serve_campaign
from repro.core.verify import VerificationError
from repro.serve import (
    CircuitBreaker,
    EngineTarget,
    JobError,
    LoadgenConfig,
    ServeConfig,
    ServeEngine,
    ServeServer,
    SupervisedPool,
    build_catalog,
    http_request,
    parse_job,
    parse_prometheus,
    run_job,
    run_loadgen,
    serve_metrics,
    verify_result,
    write_bench,
)


def _config(tmp_path, **overrides) -> ServeConfig:
    """Deterministic test tuning: one worker, no backoff sleeps, a fresh
    cache directory per test."""
    base = dict(
        workers=1,
        max_inflight=4,
        job_retries=1,
        breaker_threshold=2,
        breaker_cooldown_rejects=2,
        restart_backoff_s=0.0,
        cache_dir=str(tmp_path / "cache"),
    )
    base.update(overrides)
    return ServeConfig(**base)


@pytest.fixture
def engine(tmp_path):
    eng = ServeEngine(_config(tmp_path))
    yield eng
    eng.close()


def _run(coro):
    return asyncio.run(coro)


GRID36 = {"family": "grid", "n": 36, "seed": 1, "root": 0}


# -- the job model -----------------------------------------------------------


class TestJobs:
    def test_generator_job_round_trips(self):
        spec = parse_job({"family": "grid", "n": 36, "seed": 1})
        assert spec.kind == "generator"
        assert spec.key() == parse_job(spec.canonical()).key()

    def test_edges_job_normalizes(self):
        spec = parse_job({"edges": [[1, 0], [1, 2], [0, 1]], "root": 0})
        assert spec.edges == ((0, 1), (1, 2))  # sorted, deduped, (min, max)

    @pytest.mark.parametrize(
        "payload",
        [
            "not a dict",
            {"family": "hypercube", "n": 10},
            {"family": "grid", "n": 1},
            {"family": "grid", "n": 10**9},
            {"family": "grid", "n": "36"},
            {"family": "grid", "n": True},
            {"edges": []},
            {"edges": [[0, 0]]},
            {"edges": [[0, 1, 2]]},
            {"edges": [["a", "b"]]},
        ],
    )
    def test_defects_raise_joberror(self, payload):
        with pytest.raises(JobError):
            parse_job(payload)

    def test_key_is_content_addressed(self):
        a = parse_job({"family": "grid", "n": 36, "seed": 1}).key()
        b = parse_job({"seed": 1, "n": 36, "family": "grid"}).key()
        c = parse_job({"family": "grid", "n": 36, "seed": 2}).key()
        assert a == b  # field order is irrelevant
        assert a != c  # content is not

    def test_run_job_passes_its_own_oracles(self):
        result = run_job(parse_job(GRID36).canonical())
        assert result["status"] == "ok"
        assert result["oracles"] == {"separator": True, "dfs": True}
        verify_result(result)  # and the independent re-check agrees

    def test_run_job_runs_one_planarity_test(self, monkeypatch):
        # The configuration and the DFS certify the job's one rotation
        # instead of each re-embedding the graph.
        import repro.planar.construct as construct

        calls = []
        lr = construct.lr_rotation

        def counting(graph):
            calls.append(len(graph))
            return lr(graph)

        monkeypatch.setattr(construct, "lr_rotation", counting)
        result = run_job(parse_job(GRID36).canonical())
        assert result["status"] == "ok"
        assert calls == [36]

    def test_run_job_rejects_disconnected_instance(self):
        spec = parse_job({"edges": [[0, 1], [2, 3]], "root": 0})
        assert run_job(spec.canonical())["status"] == "invalid"

    def test_run_job_declines_expired_deadline(self):
        assert run_job(parse_job(GRID36).canonical(), deadline_ts=0.0) == {
            "status": "expired"
        }

    def test_verify_result_catches_tampering(self):
        result = run_job(parse_job(GRID36).canonical())
        result["separator"]["path"] = result["separator"]["path"][:1]
        with pytest.raises(VerificationError):
            verify_result(result)


# -- worker supervision ------------------------------------------------------


class TestPool:
    def test_restart_is_generation_guarded(self):
        pool = SupervisedPool(1, backoff_base=0.0)
        try:
            gen0 = pool.generation
            assert pool.restart(gen0)
            assert not pool.restart(gen0)  # second observer: no-op
            assert pool.generation == gen0 + 1
            assert pool.restarts == 1
        finally:
            pool.shutdown()

    def test_backoff_grows_and_resets(self):
        pool = SupervisedPool(1, backoff_base=0.05, backoff_cap=0.2)
        try:
            assert pool.backoff_delay() == 0.05
            pool.restart()
            assert pool.backoff_delay() == 0.1
            pool.restart()
            assert pool.backoff_delay() == 0.2  # capped
            pool.note_success()
            assert pool.backoff_delay() == 0.05
        finally:
            pool.shutdown()

    def test_kill_and_recover(self):
        pool = SupervisedPool(1, backoff_base=0.0)
        try:
            fut = pool.submit(run_job, parse_job(GRID36).canonical())
            assert fut.result(timeout=60)["status"] == "ok"
            assert pool.kill_worker() is not None
            pool.restart(pool.generation)
            fut = pool.submit(run_job, parse_job(GRID36).canonical())
            assert fut.result(timeout=60)["status"] == "ok"
        finally:
            pool.shutdown()

    def test_shutdown_leaves_no_orphans(self):
        pool = SupervisedPool(2, backoff_base=0.0)
        pool.submit(run_job, parse_job(GRID36).canonical()).result(timeout=60)
        pids = pool.worker_pids()
        assert pids
        pool.shutdown()
        assert pool.worker_pids() == []
        for pid in pids:  # truly gone, not zombies we still own
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestCircuitBreaker:
    def test_threshold_trips_and_probe_recovers(self):
        b = CircuitBreaker(failure_threshold=2, cooldown_rejects=2)
        b.record_failure()
        assert b.state == "closed" and b.allow()
        b.record_failure()
        assert b.state == "open"
        assert not b.allow() and not b.allow()  # cooldown by reject count
        assert b.allow()  # half-open: exactly one probe
        assert b.state == "half-open"
        assert not b.allow()  # no second probe while it is in flight
        b.record_success()
        assert b.state == "closed" and b.allow()

    def test_probe_failure_reopens(self):
        b = CircuitBreaker(failure_threshold=1, cooldown_rejects=1)
        b.record_failure()
        assert not b.allow()
        assert b.allow()  # probe
        b.record_failure()
        assert b.state == "open"
        assert b.opens == 2

    def test_success_clears_the_streak(self):
        b = CircuitBreaker(failure_threshold=2, cooldown_rejects=1)
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state == "closed"  # never two in a row


# -- the engine ladder -------------------------------------------------------


class TestEngine:
    def test_ok_then_cache_hit(self, engine):
        async def go():
            first = await engine.submit(GRID36)
            second = await engine.submit(GRID36)
            return first, second

        first, second = _run(go())
        assert (first.code, first.body["cached"]) == (200, False)
        assert (second.code, second.body["cached"]) == (200, True)
        assert engine.stats()["cache_hits"] == 1
        verify_result(second.body)

    def test_invalid_job_is_400(self, engine):
        resp = _run(engine.submit({"family": "nope"}))
        assert (resp.code, resp.status) == (400, "invalid")

    def test_admission_sheds_in_creation_order(self, engine):
        async def go():
            jobs = [
                {"family": "grid", "n": 30 + 2 * j, "seed": 50 + j}
                for j in range(engine.config.max_inflight + 3)
            ]
            tasks = [asyncio.ensure_future(engine.submit(p)) for p in jobs]
            return await asyncio.gather(*tasks)

        resps = _run(go())
        statuses = [r.status for r in resps]
        window = engine.config.max_inflight
        assert statuses[:window] == ["ok"] * window
        assert statuses[window:] == ["shed"] * 3
        shed = resps[window]
        assert shed.code == 429
        assert shed.headers["Retry-After"]  # the documented hint
        assert engine.stats()["shed"] == 3

    def test_expired_deadline_is_503(self, engine):
        resp = _run(engine.submit(GRID36, deadline_s=0.0))
        assert (resp.code, resp.status) == (503, "deadline")

    def test_worker_kill_recovers_via_retry(self, engine):
        resp = _run(
            engine.submit(
                {"family": "grid", "n": 49, "seed": 9},
                on_dispatch=lambda e, a: e.pool.kill_worker() if a == 0 else None,
            )
        )
        assert (resp.code, resp.status) == (200, "ok")
        stats = engine.stats()
        assert stats["retries"] == 1
        assert stats["worker_restarts"] == 1
        verify_result(resp.body)

    def test_retry_budget_exhaustion_is_503(self, engine):
        resp = _run(
            engine.submit(
                {"family": "grid", "n": 49, "seed": 10},
                on_dispatch=lambda e, a: e.pool.kill_worker(),
            )
        )
        assert (resp.code, resp.status) == (503, "worker-died")
        assert resp.body["attempts"] == 2  # 1 + job_retries, the full budget

    def test_breaker_trips_then_recovers(self, engine):
        async def go():
            out = []
            out.append(
                await engine.submit(
                    {"family": "grid", "n": 49, "seed": 11},
                    on_dispatch=lambda e, a: e.pool.kill_worker(),
                )
            )  # two deaths = threshold -> open
            for j in range(2):  # cooldown_rejects fast-fails
                out.append(
                    await engine.submit({"family": "grid", "n": 30 + 2 * j, "seed": 12})
                )
            out.append(  # half-open probe, succeeds, closes
                await engine.submit({"family": "grid", "n": 36, "seed": 13})
            )
            return out

        died, r1, r2, probe = _run(go())
        assert died.status == "worker-died"
        assert [r1.status, r2.status] == ["breaker-open", "breaker-open"]
        assert (probe.status, engine.breaker.state) == ("ok", "closed")
        assert engine.stats()["breaker_opens"] == 1

    def test_drain_refuses_then_stops_orphan_free(self, engine):
        async def go():
            await engine.submit(GRID36)
            pids = engine.pool.worker_pids()
            engine.draining = True
            refused = await engine.submit(GRID36)
            clean = await engine.drain(timeout_s=10)
            return pids, refused, clean

        pids, refused, clean = _run(go())
        assert pids  # the pool really had live workers
        assert (refused.code, refused.status) == (503, "draining")
        assert clean
        assert engine.pool.worker_pids() == []


# -- HTTP front end ----------------------------------------------------------


class TestHttp:
    def _serve(self, tmp_path, scenario):
        async def go():
            engine = ServeEngine(_config(tmp_path))
            server = ServeServer(engine, port=0)
            await server.start()
            try:
                return await scenario(server)
            finally:
                await server.shutdown()

        return _run(go())

    def test_health_ready_metrics_and_jobs(self, tmp_path):
        async def scenario(server):
            out = {}
            out["health"] = await http_request(server.host, server.port, "GET", "/healthz")
            out["ready"] = await http_request(server.host, server.port, "GET", "/readyz")
            out["job"] = await http_request(
                server.host, server.port, "POST", "/jobs", GRID36
            )
            out["again"] = await http_request(
                server.host, server.port, "POST", "/jobs", GRID36
            )
            out["metrics"] = await http_request(server.host, server.port, "GET", "/metrics")
            return out

        out = self._serve(tmp_path, scenario)
        assert out["health"][0] == 200
        assert out["ready"][0] == 200
        code, _, raw = out["job"]
        body = json.loads(raw)
        assert code == 200 and body["status"] == "ok"
        verify_result(body)
        assert json.loads(out["again"][2])["cached"] is True
        samples = parse_prometheus(out["metrics"][2].decode())
        assert samples["serve_requests_total"] >= 2
        assert samples["serve_cache_hits_total"] == 1

    def test_error_routes(self, tmp_path):
        async def scenario(server):
            host, port = server.host, server.port
            return (
                await http_request(host, port, "GET", "/nope"),
                await http_request(host, port, "PUT", "/jobs", {}),
                await http_request(host, port, "POST", "/jobs", {"family": "bogus"}),
            )

        missing, bad_method, bad_job = self._serve(tmp_path, scenario)
        assert missing[0] == 404
        assert bad_method[0] == 405
        assert bad_job[0] == 400

    def test_draining_server_is_not_ready(self, tmp_path):
        async def scenario(server):
            server.engine.draining = True
            code, _, raw = await http_request(server.host, server.port, "GET", "/readyz")
            return code, json.loads(raw)

        code, body = self._serve(tmp_path, scenario)
        assert code == 503
        assert body["reason"] == "draining"

    def test_statusz_and_trace_headers(self, tmp_path):
        async def go():
            engine = ServeEngine(_config(tmp_path, trace_requests=True))
            server = ServeServer(engine, port=0)
            await server.start()
            try:
                host, port = server.host, server.port
                job = await http_request(
                    host, port, "POST", "/jobs", GRID36,
                    headers={"X-Trace-Id": "client-42"},
                )
                minted = await http_request(host, port, "POST", "/jobs", GRID36)
                status = await http_request(host, port, "GET", "/statusz")
                return job, minted, status
            finally:
                await server.shutdown()

        job, minted, status = _run(go())
        # Client-supplied ids win; the engine mints sequential ids otherwise.
        assert job[1]["x-trace-id"] == "client-42"
        assert minted[1]["x-trace-id"] == "req-000001"
        code, _, raw = status
        body = json.loads(raw)
        assert code == 200
        assert body["status"] == "ok" and body["draining"] is False
        assert body["breaker"]["state"] == "closed"
        assert body["pool"]["generation"] == 0 and body["pool"]["workers"] == 1
        assert body["inflight"] == 0 and body["queue_depth"] == 0
        assert body["trace"] == {"enabled": True, "requests": 2}
        assert set(body["latency_s"]) == {"p50", "p95", "p99"}
        assert isinstance(body["events"], list)


# -- loadgen + extra metrics -------------------------------------------------


class TestLoadgen:
    def test_catalog_and_picks_are_seeded(self):
        cfg = LoadgenConfig(seed=7, catalog_size=8)
        assert build_catalog(cfg) == build_catalog(cfg)
        assert build_catalog(cfg) != build_catalog(LoadgenConfig(seed=8, catalog_size=8))

    def test_closed_loop_exercises_cache(self, tmp_path):
        async def go():
            engine = ServeEngine(_config(tmp_path, max_inflight=8))
            try:
                cfg = LoadgenConfig(
                    seed=1, duration_s=0, total_requests=16,
                    concurrency=2, catalog_size=4, zipf_s=1.5,
                    sizes=(25, 36), families=("grid", "tri-grid"),
                )
                return await run_loadgen(cfg, EngineTarget(engine))
            finally:
                await engine.drain()

        bench = _run(go())
        assert bench["requests"] == 16
        assert bench["status_counts"].get("ok", 0) == 16
        assert bench["cache_hit_rate"] > 0  # zipf repeats hit the cache
        assert bench["latency_s"]["p99"] >= bench["latency_s"]["p50"] > 0
        assert bench["server"]["cache_hits"] > 0
        assert bench["schema_version"] == 1

    def test_parse_prometheus_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("serve_requests_total not-a-number")

    def test_write_bench_merges_prom(self, tmp_path):
        bench = {
            "schema_version": 1,
            "status_counts": {"ok": 5, "shed": 2},
            "throughput_rps": 10.0,
            "latency_s": {"p50": 0.01, "p90": 0.02, "p99": 0.03},
            "cache_hit_rate": 0.4,
            "server": {"shed": 2, "retries": 1, "worker_restarts": 1,
                       "breaker_opens": 0, "cache_hits": 2},
        }
        results = tmp_path / "results"
        (results / "metrics.prom").parent.mkdir(parents=True)
        (results / "metrics.prom").write_text("congest_rounds_total 7\n")
        written = write_bench(bench, tmp_path / "BENCH_SERVE.json", results_dir=results)
        assert len(written) == 2
        prom = (results / "metrics.prom").read_text()
        assert "congest_rounds_total 7" in prom  # other families kept
        assert 'repro_serve_requests_total{status="shed"} 2' in prom
        assert "repro_serve_retries_total 1" in prom

    def test_serve_metrics_are_compare_inert(self):
        # Satellite contract: BENCH_SERVE numbers join summary_dict's
        # metrics block exactly like repro_chaos_* — and the regression
        # gate (which only reads "experiments") must not see them.
        from repro.analysis.runner import compare_summaries, summary_dict

        bench = {
            "status_counts": {"ok": 3},
            "throughput_rps": 5.0,
            "latency_s": {"p50": 0.01, "p90": 0.02, "p99": 0.05},
            "cache_hit_rate": 0.5,
            "server": {"shed": 0, "retries": 2, "worker_restarts": 1,
                       "breaker_opens": 0, "cache_hits": 1},
        }
        extra = serve_metrics(bench).to_dict()
        with_metrics = summary_dict({}, extra_metrics=extra)
        without = summary_dict({})
        assert "repro_serve_throughput_rps" in with_metrics["metrics"]
        assert compare_summaries(with_metrics, without) == []
        assert compare_summaries(without, with_metrics) == []


# -- chaos campaign ----------------------------------------------------------


class TestServeChaos:
    def test_campaign_contract_holds(self):
        record = serve_campaign(3, requests=10)
        assert record["ok"]
        assert record["all_terminal"]
        assert record["violations"] == []
        assert record["orphan_pids"] == []
        # The ladder was actually exercised, not vacuously green:
        assert record["histogram"].get("ok", 0) > 0
        assert record["histogram"].get("shed", 0) > 0
        assert record["histogram"].get("worker-died", 0) > 0
        assert record["stats"]["worker_restarts"] > 0
        terminal = {"ok", "invalid", "shed", "draining",
                    "breaker-open", "deadline", "worker-died"}
        assert set(record["histogram"]) <= terminal
        # Tracing under chaos: every request fully attributed, every span
        # a SIGKILLed worker abandoned force-closed (none left open).
        trace = record["trace"]
        assert trace["complete"] == trace["requests"] == record["requests"]
        assert trace["orphan_spans"] == 0
        assert trace["killed_spans"] > 0  # the kills really severed spans

    def test_campaign_is_deterministic(self):
        a = serve_campaign(5, requests=8)
        b = serve_campaign(5, requests=8)
        assert a["outcomes"] == b["outcomes"]
        assert a["fingerprint"] == b["fingerprint"]


# -- CLI satellites ----------------------------------------------------------


class TestKeyboardInterrupt:
    def test_main_returns_130_without_traceback(self, monkeypatch, capsys):
        from repro import cli

        def boom(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_make_graph", boom)
        code = cli.main(["separator", "--family", "grid", "--n", "25"])
        captured = capsys.readouterr()
        assert code == 130
        assert "Traceback" not in captured.err
        assert "interrupted" in captured.err
