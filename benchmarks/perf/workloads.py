"""The benchmark's four workloads, each measured in its own interpreter.

``run.py`` starts this file once per set-up sample and once for the
measured run of a workload::

    python3 benchmarks/perf/workloads.py WORKLOAD --seed N --seconds S \\
        --trace 0|1 --t0 MONOTONIC [--setup-only] [--smoke] [--out DIR]

Set-up (imports, a warm-up call, and for churn and serve the schedules
or catalog, pipeline builds or pool spawn) ends when the workload is
ready.  DFS instances are built inside the window, untimed, right before
their call.  ``--t0`` is the parent's ``time.monotonic()`` at spawn, so
the reported ``setup_s`` includes the interpreter start.  The last
stdout line is one JSON object.

Every input is a pure function of ``--seed``.  The DFS and churn
workloads run *passes* of operations until the next pass would overrun
the window; in ``serve-zipf`` two closed-loop clients send a fixed block
of requests, about one window's worth.  Every output is checked.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import pathlib
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import networkx as nx

import repro.core as core
from repro.dynamic.mutations import flap_updates
from repro.dynamic.repair import DynamicPipeline
from repro.planar import generators as gen

from hostspeed import HostSpeed
from spans import CORE_TARGETS, SERVE_TARGETS, Instrumentation, Recorder

WORKLOADS = ("dfs-lattice", "dfs-delaunay", "churn-delaunay", "serve-zipf")
PERF_DIR = pathlib.Path(__file__).resolve().parent

#: Instance sizes, full profile / ``--smoke`` profile.  The three
#: lattices' call latencies lie about 1.5x apart, so the median call is
#: always a 14×14 grid call and the 90th percentile a triangulated one;
#: lattices of like cost would put both on a boundary between two
#: instances, where host noise picks the side.
LATTICES = {
    False: (("grid", 12), ("grid", 14), ("tri-grid", 16)),
    True: (("grid", 4), ("tri-grid", 5)),
}
DELAUNAY = {False: dict(n=250, per_pass=4, passes=500), True: dict(n=40, per_pass=1, passes=1)}
CHURN = {False: dict(n=150, graphs=8), True: dict(n=60, graphs=2)}
SERVE = {
    False: dict(catalog=1000, sizes=(24, 48, 96), requests=2000),
    True: dict(catalog=20, sizes=(12, 16), requests=24),
}
#: serve-zipf sends a fixed block of ``requests``, about one window's
#: worth, rather than stopping on the clock.  The cache starts cold and
#: the hit ratio climbs through the run, so a run that stops on the clock
#: gets further into the cheap part the faster the host is, and its
#: throughput moves more than the host's speed.
#: The catalog and the request block are drawn from this seed whatever
#: ``--seed`` is; ``--seed`` shuffles the order of the block.
SERVE_CATALOG_SEED = 0
SERVE_FAMILIES = ("grid", "tri-grid", "delaunay", "random-planar", "outerplanar")
ZIPF_S = 1.1
#: How much of the output the digest covers: the first passes' distinct
#: instances (dfs), the pipelines after this many passes (churn), the
#: responses to the first requests (serve).
DIGEST_PASSES = 8
DIGEST_CHURN_PASSES = 16
DIGEST_REQUESTS = 200
#: Seconds of back-to-back probes right after set-up, to calibrate ``setup_s``.
SETUP_PROBE_S = 0.5


def _sha(obj: Any) -> str:
    def encode(o):
        if isinstance(o, nx.Graph):
            return sorted(sorted(e) for e in o.edges())
        raise TypeError(type(o).__name__)

    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=encode).encode()).hexdigest()


@dataclass
class Outcome:
    """What one measured (or traced) stretch of a workload did."""

    latencies: List[float] = field(default_factory=list)  # seconds per op
    #: Throughput samples, work / s: one per pass where passes repeat
    #: like-sized work (dfs), else one for the whole run.
    rates: List[float] = field(default_factory=list)
    work: float = 0.0  # DFS-tree nodes / applied updates / answered requests
    busy_s: float = 0.0  # the throughput denominator
    wall_s: float = 0.0  # the whole run() call: the attributed share, trace overhead
    ops: int = 0
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    digest: str = ""
    counts: Dict[str, float] = field(default_factory=dict)
    #: Probe times taken between operations (``hostspeed``).
    host: HostSpeed = field(default_factory=HostSpeed)

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        traceback.print_exception(exc, file=sys.stderr)
        if len(self.errors) < 5:
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")


def _run_passes(outcome: Outcome, window: float, limit: Optional[int], run_pass) -> Outcome:
    """Run ``run_pass(k)`` for k = 0, 1, ... until ``limit`` ops were tried
    or, without a limit, until the next pass (as long as the last one)
    would end more than half a pass past ``window`` seconds.  The first
    pass always runs."""
    started = time.perf_counter()
    last = 0.0
    while True:
        elapsed = time.perf_counter() - started
        if limit is not None:
            if outcome.attempted >= limit:
                break
        elif outcome.passes and elapsed + last / 2 > window:
            break
        t = time.perf_counter()
        attempted = outcome.attempted
        run_pass(outcome.passes)
        last = time.perf_counter() - t
        outcome.passes += 1
        if outcome.attempted == attempted:
            break  # nothing left that can run
    return outcome


# ---------------------------------------------------------------------------
# dfs-lattice and dfs-delaunay: Theorem 2 on a static instance
# ---------------------------------------------------------------------------
#: A DFS instance is ``(family, size, instance seed, root)``; the graph
#: is built from it, untimed, right before its call.
GRAPHS = {
    "grid": lambda k, seed: gen.grid(k, k),
    "tri-grid": lambda k, seed: gen.triangulated_grid(k, k),
    "delaunay": lambda n, seed: gen.delaunay(n, seed=seed),
}


def lattice_inputs(seed: int, smoke: bool) -> List[List[tuple]]:
    """One pass: each lattice once, rooted at node 0 (a corner).  The same
    for every seed: a seeded root would fail ``cycle_separator`` on about
    1 in 6 lattice nodes and vary 10x in cost."""
    return [[(family, k, 0, 0) for family, k in LATTICES[smoke]]]


def delaunay_inputs(seed: int, smoke: bool) -> List[List[tuple]]:
    """Passes of fresh Delaunay instances, instance seeds and roots drawn
    from ``seed``.  A run calls about 100 of them, so a rare instance at
    several times the median moves no median."""
    rng = random.Random(seed)
    cfg = DELAUNAY[smoke]
    n = cfg["n"]
    return [
        [("delaunay", n, rng.randrange(2**31), rng.randrange(n)) for _ in range(cfg["per_pass"])]
        for _ in range(cfg["passes"])
    ]


class DfsWorkload:
    """``dfs_tree`` + ``check_dfs_tree``, timed together, over passes."""

    def __init__(self, passes: List[List[tuple]]):
        self.passes = passes
        warm = gen.triangulated_grid(5, 5)
        core.check_dfs_tree(warm, core.dfs_tree(warm, 0).parent, 0)

    def run(self, window: float, limit: Optional[int] = None) -> Outcome:
        out = Outcome()
        outputs: Dict[str, str] = {}

        def one_pass(k: int) -> None:
            work, busy = out.work, out.busy_s
            for family, size, seed, root in self.passes[k % len(self.passes)]:
                label = f"{family}-{size}-{seed}-{root}"
                graph = GRAPHS[family](size, seed)
                out.host.sample()
                out.attempted += 1
                t = time.perf_counter()
                try:
                    result = core.dfs_tree(graph, root)
                    core.check_dfs_tree(graph, result.parent, root)
                except Exception as exc:  # reported as a failed op
                    out.fail(label, exc)
                    continue
                took = time.perf_counter() - t
                out.latencies.append(took)
                out.busy_s += took
                out.work += len(graph)
                out.ops += 1
                if k < DIGEST_PASSES:
                    outputs[label] = _sha(sorted(result.parent.items(), key=repr))
            if out.busy_s > busy:
                out.rates.append((out.work - work) / (out.busy_s - busy))

        _run_passes(out, window, limit, one_pass)
        out.digest = _sha(sorted(outputs.items()))
        return out

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# churn-delaunay: incremental repair under seeded edge flaps
# ---------------------------------------------------------------------------
def churn_inputs(seed: int, smoke: bool) -> List[tuple]:
    """Delaunay instances 0..graphs-1, each with a net-neutral edge-flap
    schedule drawn from ``seed``.  The graphs are fixed: repair cost
    differs up to 18x between random Delaunay graphs (it follows where
    the root lands), which no 20 s window averages out; between
    schedules on one graph it varies about 12%."""
    rng = random.Random(seed)
    out = []
    for g in range(CHURN[smoke]["graphs"]):
        graph = gen.delaunay(CHURN[smoke]["n"], seed=g)
        batches = flap_updates(graph, seed=rng.randrange(2**31), rate=0.02, rounds=10)
        out.append((graph, [u for batch in batches for u in batch]))
    return out


class ChurnWorkload:
    """One update per ``DynamicPipeline.apply`` batch; a pass applies the
    next update of every pipeline.  A schedule restores its graph's edge
    set, so it replays from the start when a fast run exhausts it."""

    def __init__(self, inputs: List[tuple]):
        self.schedules = [updates for _, updates in inputs]
        self.pipelines = [DynamicPipeline(g, charge_rounds=False) for g, _ in inputs]

    def run(self, window: float, limit: Optional[int] = None) -> Outcome:
        out = Outcome()
        before = [dict(p.stats) for p in self.pipelines]
        broken = set()
        fingerprints: List[str] = []

        def one_pass(k: int) -> None:
            for i, (pipeline, updates) in enumerate(zip(self.pipelines, self.schedules)):
                if i in broken or not updates:
                    continue
                out.host.sample()
                out.attempted += 1
                t = time.perf_counter()
                try:
                    pipeline.apply([updates[k % len(updates)]])
                except Exception as exc:  # UnsoundRepairError included
                    out.fail(f"graph {i} update {k}", exc)
                    broken.add(i)
                    continue
                took = time.perf_counter() - t
                out.latencies.append(took)
                out.busy_s += took
                out.work += 1
                out.ops += 1
            if k + 1 == DIGEST_CHURN_PASSES:
                fingerprints.extend(self._fingerprints(broken))

        _run_passes(out, window, limit, one_pass)
        if out.busy_s:
            out.rates.append(out.work / out.busy_s)
        out.digest = _sha(fingerprints or self._fingerprints(broken))
        for key in ("noop_repairs", "region_repairs", "fallbacks", "updates_applied"):
            out.counts[key] = sum(p.stats[key] - b[key] for p, b in zip(self.pipelines, before))
        return out

    def _fingerprints(self, broken) -> List[str]:
        return [p.state_fingerprint() for i, p in enumerate(self.pipelines) if i not in broken]

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# serve-zipf: closed-loop clients against an in-process ServeEngine
# ---------------------------------------------------------------------------
def serve_inputs(seed: int, smoke: bool) -> Dict[str, Any]:
    """A job catalog whose family and size cycle with the rank, and a
    block of requests drawn zipf over the ranks, both fixed; ``seed``
    shuffles the order in which the block is sent.  Every seed therefore
    computes the same distinct jobs and answers the rest from the cache.
    Drawn per seed, the distinct jobs of seeds 0-7 numbered 393-445 and
    took 14.7-17.1 s of calibrated compute, and that, not the service,
    set most of the spread of throughput."""
    cfg = SERVE[smoke]
    rng = random.Random(SERVE_CATALOG_SEED)
    families, sizes = SERVE_FAMILIES, cfg["sizes"]
    catalog = [
        {
            "family": families[i % len(families)],
            "n": sizes[(i // len(families)) % len(sizes)],
            "seed": rng.randrange(2**31),
            "root": 0,
        }
        for i in range(cfg["catalog"])
    ]
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(catalog))]
    sequence = rng.choices(range(len(catalog)), weights, k=cfg["requests"])
    random.Random(seed).shuffle(sequence)
    return {"catalog": catalog, "sequence": sequence}


#: Warm-up job, outside the catalog (no catalog size is 16 at full scale).
SERVE_WARMUP = {"family": "grid", "n": 16, "seed": 0, "root": 0}
SERVE_CLIENTS = 2
SERVE_WORKERS = 1


class ServeWorkload:
    """``ServeEngine(workers=1, max_inflight=64)`` with a fresh result
    cache, driven by two clients that each send their next request as
    soon as the previous one is answered.  One worker: the benchmark runs
    on one CPU (``run.py``), where a second worker could only take turns
    with the first."""

    def __init__(self, inputs: Dict[str, Any], smoke: bool, trace_requests: bool = False):
        from repro.serve import ServeConfig, ServeEngine, run_job

        self.catalog = inputs["catalog"]
        self.sequence = inputs["sequence"]
        # Run the pipeline once here (scipy included) so the forked pool
        # workers inherit warm imports.
        run_job(dict(SERVE_WARMUP, family="delaunay", kind="generator"))
        work = PERF_DIR / ".work"
        work.mkdir(exist_ok=True)
        self.cache_dir = tempfile.mkdtemp(prefix="serve-cache-", dir=work)
        self.engine = ServeEngine(ServeConfig(
            workers=SERVE_WORKERS, max_inflight=64, cache_dir=self.cache_dir,
            trace_requests=trace_requests,
        ))
        self.loop = asyncio.new_event_loop()
        warm = self.loop.run_until_complete(self.engine.submit(SERVE_WARMUP))
        if warm.code != 200:
            raise RuntimeError(f"warm-up request failed: {warm.body}")
        self.engine.request_traces.clear()
        self.bodies: Dict[str, Dict[str, Any]] = {}

    def run(self, window: float, limit: Optional[int] = None) -> Outcome:
        out = Outcome()
        digest_parts = set()
        issued = 0
        if limit is None:
            limit = len(self.sequence)
        started = time.perf_counter()

        async def client() -> None:
            nonlocal issued
            while issued < limit:
                index = issued
                issued += 1
                job = self.catalog[self.sequence[index]]
                out.host.sample()
                out.attempted += 1
                t = time.perf_counter()
                try:
                    resp = await self.engine.submit(job)
                    if resp.code != 200:
                        raise RuntimeError(f"HTTP {resp.code} {resp.body.get('status')}")
                except Exception as exc:  # reported as a failed request
                    out.fail(f"request {index}", exc)
                    continue
                out.latencies.append(time.perf_counter() - t)
                out.ops += 1
                key = resp.body["key"]
                self.bodies.setdefault(key, resp.body)
                if index < DIGEST_REQUESTS:
                    digest_parts.add((key, _answer_digest(resp.body)))

        async def clients() -> None:
            await asyncio.gather(*(client() for _ in range(SERVE_CLIENTS)))

        self.loop.run_until_complete(clients())
        out.busy_s = time.perf_counter() - started
        out.work = float(out.ops)
        out.passes = 1
        out.rates.append(out.work / out.busy_s)
        out.digest = _sha(sorted(digest_parts))
        stats = self.engine.stats()
        for key in ("shed", "retries", "worker_restarts", "cache_hits"):
            out.counts[key] = stats[key]
        out.counts["jobs"] = len(self.bodies)
        out.counts["phase4_jobs"] = sum(
            body["separator"]["phase"].startswith("phase4") for body in self.bodies.values())
        return out

    def verify(self, out: Outcome) -> None:
        """Re-check every distinct answer with the service's own oracle."""
        from repro.serve import verify_result

        for key, body in self.bodies.items():
            try:
                verify_result(body)
            except Exception as exc:  # a wrong answer: the run is incorrect
                out.fail(f"verify {key}", exc)

    def close(self) -> None:
        self.engine.close()
        self.loop.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def _answer_digest(body: Dict[str, Any]) -> str:
    return _sha([body["separator"]["path"], body["dfs"]["parent"]])


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------
INPUTS = {
    "dfs-lattice": lattice_inputs,
    "dfs-delaunay": delaunay_inputs,
    "churn-delaunay": churn_inputs,
    "serve-zipf": serve_inputs,
}


def input_digest(workload: str, seed: int, smoke: bool = False) -> str:
    """Digest of everything the workload feeds the program for ``seed``."""
    return _sha(INPUTS[workload](seed, smoke))


def build(workload: str, seed: int, smoke: bool, trace_requests: bool = False):
    inputs = INPUTS[workload](seed, smoke)
    if workload == "serve-zipf":
        return ServeWorkload(inputs, smoke, trace_requests)
    if workload == "churn-delaunay":
        return ChurnWorkload(inputs)
    return DfsWorkload(inputs)


def _p90(values: List[float]) -> float:
    """90th percentile, interpolated between neighbours so that a small
    sample does not report its single maximum."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0], values[0]] if values else [0.0, 0.0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def _peak_rss_mb(workload: str) -> float:
    """Peak resident set of this process, plus the largest pool worker for
    ``serve-zipf`` (reaped by the time this is called)."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "serve-zipf":
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss_kb / 1024.0


def _timings(out: Outcome, slowdown: float) -> Dict[str, tuple]:
    rates = [r * slowdown for r in out.rates] or [0.0]
    ms = [1e3 * x / slowdown for x in out.latencies] or [0.0]
    return {
        "throughput_per_s": (statistics.median(rates), "1/s", rates),
        "latency_p50_ms": (statistics.median(ms), "ms", ms),
        "latency_p90_ms": (_p90(ms), "ms", ms),
    }


def end_to_end(workload: str, out: Outcome) -> Dict[str, Any]:
    """Every end-to-end metric except ``setup_s`` (run.py adds it).  Times
    are divided by the run's slowdown (``hostspeed``); ``raw`` holds each
    as measured."""
    slowdown = out.host.slowdown()
    raw = _timings(out, 1.0)
    metrics = {
        name: {"value": v, "unit": unit, "quartiles": _quartiles(samples),
               "samples": len(samples), "raw": raw[name][0]}
        for name, (v, unit, samples) in _timings(out, slowdown).items()
    }
    metrics["peak_rss_mb"] = {"value": _peak_rss_mb(workload), "unit": "MB",
                              "quartiles": None, "samples": 1}
    return metrics


#: Per-layer metrics read from the in-process recorder: self seconds per
#: operation.
SELF_TIME_LAYERS = (
    "core.dfs", "core.separator", "core.augment", "core.certify", "core.config",
    "core.faces.face_view", "core.verify", "planar.embed", "planar.embed_subgraph",
    "planar.checks.require_planar", "planar.rotation.validate", "planar.rotation.copy",
    "dynamic.mutations", "dynamic.repair",
)
#: Recorder counters, reported per operation.
PER_OP_COUNTS = (
    "planar.rotation.validate.calls", "core.augment.candidates", "core.faces.face_view.calls",
    "planar.checks.require_planar.calls", "core.dfs.phases", "core.dfs.components",
    "core.separator.calls", "core.separator.phase4.calls", "core.verify.calls",
)
#: Request-trace span names: parent phases, then the grafted worker subtree.
SERVE_PHASES = ("admit", "queue", "run", "verify", "respond")
SERVE_WORKER_PHASES = ("build", "separator", "certify", "dfs")


def per_layer(workload: str, rec: Recorder, traced: Outcome, untraced: Outcome,
              request_traces: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Every per-layer metric; layers a workload never enters read 0."""
    m: Dict[str, Any] = {}

    def put(name: str, value: float, unit: str) -> None:
        m[name] = {"value": float(value), "unit": unit}

    ops = max(traced.ops, 1)
    for layer in SELF_TIME_LAYERS:
        put(f"{layer}.s", rec.self_s.get(layer, 0.0) / ops, "s/op")
    for name in PER_OP_COUNTS:
        put(name, rec.counts.get(name, 0) / ops, "1/op")
    candidates = rec.counts.get("core.augment.candidates", 0)
    put("core.augment.accept_ratio",
        rec.counts.get("core.augment.variants", 0) / candidates if candidates else 0.0, "ratio")

    c = traced.counts
    applied = c.get("updates_applied", 0)
    put("dynamic.repair.noop_repairs", c.get("noop_repairs", 0) / applied if applied else 0.0, "1/op")
    put("dynamic.repair.region_repairs", c.get("region_repairs", 0) / applied if applied else 0.0, "1/op")
    put("dynamic.repair.fallback_ratio", c.get("fallbacks", 0) / applied if applied else 0.0, "ratio")

    # Serve: seconds per request in each phase of the engine's request
    # traces (inclusive: ``run`` contains the worker phases).
    phase_s: Dict[str, float] = {}
    top_level_s = 0.0
    for record in request_traces:
        for span in record["spans"]:
            took = span["t1"] - span["t0"]
            phase_s[span["name"]] = phase_s.get(span["name"], 0.0) + took
            if span["parent"] == 1:
                top_level_s += took
    for phase in SERVE_PHASES:
        put(f"serve.{phase}.s", phase_s.get(phase, 0.0) / ops, "s/op")
    for phase in SERVE_WORKER_PHASES:
        put(f"serve.worker.{phase}.s", phase_s.get(phase, 0.0) / ops, "s/op")
    put("serve.cache.get.s", rec.self_s.get("serve.cache.get", 0.0) / ops, "s/op")
    put("serve.cache.put.s", rec.self_s.get("serve.cache.put", 0.0) / ops, "s/op")
    answered = traced.ops if workload == "serve-zipf" else 0
    put("serve.cache.hit_ratio", c.get("cache_hits", 0) / answered if answered else 0.0, "ratio")
    for key in ("shed", "retries", "worker_restarts"):
        put(f"serve.{key}", c.get(key, 0), "count")
    # Each distinct answer was computed once, in a worker: the share of
    # those jobs whose top-level separator needed phase 4.
    jobs = c.get("jobs", 0)
    put("serve.worker.phase4.share", c.get("phase4_jobs", 0) / jobs if jobs else 0.0, "ratio")

    put("bench.trace_overhead", traced.wall_s / untraced.wall_s, "ratio")
    # The share of the time that named layers account for: of the summed
    # request latency (serve), else of the traced wall.
    if workload == "serve-zipf":
        attributed = top_level_s / sum(traced.latencies)
    else:
        attributed = sum(rec.self_s.values()) / traced.wall_s
    put("bench.attributed.pct", 100.0 * attributed, "%")
    return m


def _timed_run(w, window: float, limit: Optional[int] = None) -> Outcome:
    t = time.perf_counter()
    out = w.run(window, limit)
    out.wall_s = time.perf_counter() - t
    return out


def measure(w, workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
            out_dir: Optional[pathlib.Path]) -> Dict[str, Any]:
    """Run the set-up workload ``w`` for the window (``trace`` off), or for
    half the window untraced and then the same work again, traced, on a
    fresh set-up (``trace`` on).  ``serve-zipf`` sends its whole request
    block either way."""
    try:
        untraced = _timed_run(w, seconds / 2 if trace else seconds)
        if isinstance(w, ServeWorkload):
            w.verify(untraced)
    finally:
        w.close()
    result: Dict[str, Any] = {"workload": workload, "seed": seed, "trace": int(trace),
                              "smoke": smoke, "seconds": seconds}
    outcomes = [untraced]
    if not trace:
        result["metrics"] = end_to_end(workload, untraced)
    else:
        w = build(workload, seed, smoke, trace_requests=True)
        rec = Recorder()
        try:
            inst = Instrumentation(rec, SERVE_TARGETS if workload == "serve-zipf" else CORE_TARGETS)
            try:
                traced = _timed_run(w, 0.0, limit=untraced.attempted)
            finally:
                inst.restore()
            if isinstance(w, ServeWorkload):
                w.verify(traced)
        finally:
            w.close()
        traces = list(w.engine.request_traces) if isinstance(w, ServeWorkload) else []
        outcomes.append(traced)
        result["metrics"] = per_layer(workload, rec, traced, untraced, traces)
        result.update(traced_ops=traced.ops, traced_wall_s=traced.wall_s)
        if out_dir is not None:
            stem = out_dir / f"{workload}-seed{seed}"
            rec.write_jsonl(f"{stem}-spans.jsonl")
            if isinstance(w, ServeWorkload):
                w.engine.flush_events(f"{stem}-serve-events.jsonl")
    result.update(
        slowdown=untraced.host.slowdown(),
        attempted=sum(o.attempted for o in outcomes),
        failed=sum(o.failed for o in outcomes),
        errors=[e for o in outcomes for e in o.errors],
        ops=untraced.ops,
        passes=untraced.passes,
        latency_max_ms=1e3 * max(untraced.latencies, default=0.0),
        output_digest=untraced.digest,
        input_digest=input_digest(workload, seed, smoke),
    )
    result["correct"] = result["failed"] == 0 and result["attempted"] > 0
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="the parent's time.monotonic() when it started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=pathlib.Path)
    args = parser.parse_args(argv)
    w = build(args.workload, args.seed, args.smoke)
    setup_raw_s = time.monotonic() - args.t0
    setup = {"setup_s": setup_raw_s / HostSpeed().burst(SETUP_PROBE_S).slowdown(),
             "setup_raw_s": setup_raw_s}
    if args.setup_only:
        w.close()
        print(json.dumps(setup))
        return 0
    result = measure(w, args.workload, args.seed, args.seconds, bool(args.trace),
                     args.smoke, args.out)
    result.update(setup)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
