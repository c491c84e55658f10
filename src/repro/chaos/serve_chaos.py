"""Seeded chaos campaign for ``repro serve`` request lifecycles.

The serve stack's contract under adversity (docs/SERVE.md): every
admitted request reaches exactly one terminal response — 200, 400, 429
or 503 — with no hangs, and every 200 body passes the separator/DFS
oracles.  This module attacks that contract deterministically, driving a
real :class:`~repro.serve.engine.ServeEngine` (real worker processes,
real SIGKILLs) through four scripted phases whose outcome sequence is a
pure function of the seed:

1. **lifecycle** — sequential zipf-repeated jobs with a seeded kill
   schedule: single kills shoot the worker about to receive the job and
   must recover via the idempotent retry (200); double kills exhaust the
   retry budget (503 ``worker-died``) and feed the breaker;
2. **breaker** — back-to-back double kills trip the breaker; the
   campaign then observes fast-fail 503s, the count-based cooldown, the
   half-open probe, and recovery (the breaker runs in
   ``cooldown_rejects`` mode so the trajectory replays exactly);
3. **burst** — more simultaneous requests than the admission window;
   the synchronous admission check sheds the overflow as 429s in
   creation order;
4. **drain** — a draining engine refuses with 503 and shuts its pool
   down orphan-free.

Determinism holds because nothing consults a clock or an unordered
collection: job picks and kill placement come from ``random.Random(seed)``,
worker kills are scheduled by request index via the engine's
``on_dispatch`` seam (which fires before the pool dispatch, so a killed
job can never complete first), the breaker cools down by reject count, restart
backoff is zero, and the result cache starts empty in a fresh directory
every campaign.  Two runs of the same seed must produce identical outcome
sequences — :func:`verify_determinism` asserts exactly that, and CI runs
it on every push.

The independent oracle check matters: the harness re-verifies each 200
with :func:`repro.serve.jobs.verify_result` (rebuild the instance, re-run
``check_separator``/``check_dfs_tree`` against the *returned* objects) —
trusting the worker's in-process word would let a corrupted pool
self-certify.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import tempfile
from typing import Any, Dict, List, Optional

from ..core.verify import VerificationError
from ..obs.events import attribution_report
from ..serve.engine import ServeConfig, ServeEngine
from ..serve.jobs import verify_result

__all__ = ["run_serve_campaign", "serve_campaign", "verify_determinism"]

#: Generous per-phase ceiling; hitting it is itself a contract violation
#: (a request failed to reach a terminal response).
PHASE_TIMEOUT_S = 120.0

#: The campaign's job mix: small-to-medium instances across families, so
#: cache keys repeat (zipf) and worker cost varies.
_CATALOG = [
    {"family": "grid", "n": 36, "seed": 1, "root": 0},
    {"family": "grid", "n": 64, "seed": 2, "root": 0},
    {"family": "delaunay", "n": 48, "seed": 3, "root": 0},
    {"family": "random-planar", "n": 40, "seed": 4, "root": 0},
    {"family": "outerplanar", "n": 56, "seed": 5, "root": 0},
    {"family": "tri-grid", "n": 49, "seed": 6, "root": 0},
]


def _chaos_config(cache_dir: str) -> ServeConfig:
    """Engine tuning for deterministic replay: one worker (kills are
    unambiguous), zero backoff (no clocks), count-based breaker cooldown.
    Tracing is on: the campaign doubles as the proof that every killed
    worker's orphaned spans close terminally (and that traced outcomes
    fingerprint identically to the untraced seed trajectory)."""
    return ServeConfig(
        workers=1,
        max_inflight=4,
        deadline_s=60.0,
        job_retries=1,
        breaker_threshold=2,
        breaker_cooldown_rejects=2,
        restart_backoff_s=0.0,
        wedge_grace_s=60.0,
        cache_dir=cache_dir,
        trace_requests=True,
    )


async def run_serve_campaign(
    seed: int, *, requests: int = 18, cache_dir: Optional[str] = None
) -> Dict[str, Any]:
    """Run the four phases against a fresh engine; returns the outcome
    record (sequence, histogram, fingerprint, oracle verdicts, stats)."""
    tmp = None
    if cache_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-serve-chaos-")
        cache_dir = tmp.name
    engine = ServeEngine(_chaos_config(cache_dir))
    outcomes: List[str] = []
    violations: List[Dict[str, Any]] = []
    oracle_checked = 0
    hung = False

    def record(resp) -> None:
        nonlocal oracle_checked
        outcomes.append(resp.status)
        if resp.code == 200:
            oracle_checked += 1
            try:
                verify_result(resp.body)
            except (VerificationError, KeyError, ValueError) as exc:
                violations.append(
                    {"status": resp.status, "key": resp.body.get("key"),
                     "error": f"{type(exc).__name__}: {exc}"}
                )

    rng = random.Random(seed)
    picks = [rng.choice(_CATALOG) for _ in range(requests)]
    # Kills only make sense where the pool is reached: the first
    # occurrence of each distinct job (later repeats are cache hits).
    first_seen: List[int] = []
    seen = set()
    for i, p in enumerate(picks):
        k = json.dumps(p, sort_keys=True)
        if k not in seen:
            seen.add(k)
            first_seen.append(i)
    n_single = min(2, len(first_seen))
    n_double = min(1, max(0, len(first_seen) - n_single))
    chosen = rng.sample(first_seen, n_single + n_double)
    kill_once = set(chosen[:n_single])
    kill_twice = set(chosen[n_single:])

    try:
        # -- phase 1: sequential lifecycle with seeded kills ------------
        for i, payload in enumerate(picks):
            attempts_to_kill = (
                {0} if i in kill_once else {0, 1} if i in kill_twice else set()
            )

            def on_dispatch(eng: ServeEngine, attempt: int) -> None:
                if attempt in attempts_to_kill:
                    eng.pool.kill_worker()

            try:
                resp = await asyncio.wait_for(
                    engine.submit(payload, on_dispatch=on_dispatch),
                    PHASE_TIMEOUT_S,
                )
            except asyncio.TimeoutError:
                hung = True
                outcomes.append("HUNG")
                break
            record(resp)

        # -- phase 2: trip the breaker, watch it recover ----------------
        # Two consecutive double-kills on fresh (uncached) jobs: each
        # exhausts retries (worker-died) and lands two pool deaths, which
        # meets breaker_threshold; the sequel requests document the
        # open -> half-open -> closed trajectory by reject count.
        if not hung:
            fresh = [
                {"family": "grid", "n": 25, "seed": 900 + seed, "root": 0},
                {"family": "grid", "n": 30, "seed": 910 + seed, "root": 0},
            ]
            for payload in fresh:
                resp = await asyncio.wait_for(
                    engine.submit(
                        payload,
                        on_dispatch=lambda eng, a: eng.pool.kill_worker(),
                    ),
                    PHASE_TIMEOUT_S,
                )
                record(resp)
            probe_jobs = [
                {"family": "grid", "n": 20 + 2 * j, "seed": 920 + seed, "root": 0}
                for j in range(4)
            ]
            for payload in probe_jobs:
                resp = await asyncio.wait_for(
                    engine.submit(payload), PHASE_TIMEOUT_S
                )
                record(resp)

        # -- phase 3: admission burst -----------------------------------
        # max_inflight + 3 tasks created back to back; the admission
        # check runs in each coroutine's synchronous prefix, so the
        # overflow sheds 429 in creation order, deterministically.
        if not hung:
            burst_jobs = [
                {"family": "grid", "n": 30 + 2 * j, "seed": 950 + seed, "root": 0}
                for j in range(engine.config.max_inflight + 3)
            ]
            tasks = [
                asyncio.ensure_future(engine.submit(p)) for p in burst_jobs
            ]
            try:
                burst_resps = await asyncio.wait_for(
                    asyncio.gather(*tasks), PHASE_TIMEOUT_S
                )
                for resp in burst_resps:
                    record(resp)
            except asyncio.TimeoutError:
                hung = True
                outcomes.append("HUNG")

        # -- phase 4: drain ---------------------------------------------
        if not hung:
            engine.draining = True
            resp = await asyncio.wait_for(
                engine.submit(picks[0]), PHASE_TIMEOUT_S
            )
            record(resp)
            await engine.drain(timeout_s=PHASE_TIMEOUT_S)
            orphans = engine.pool.worker_pids()
        else:
            orphans = []
    finally:
        engine.close()
        if tmp is not None:
            tmp.cleanup()

    histogram: Dict[str, int] = {}
    for status in outcomes:
        histogram[status] = histogram.get(status, 0) + 1
    fingerprint = hashlib.sha256(
        json.dumps({"seed": seed, "outcomes": outcomes}).encode()
    ).hexdigest()[:16]
    # The tracing contract under chaos: every request's phase spans fully
    # attribute its wall time, and no span a SIGKILLed worker abandoned
    # is left open — both fold into the campaign verdict.
    trace_report = attribution_report(list(engine.request_traces))
    trace_ok = (
        trace_report["complete"] == trace_report["requests"]
        and trace_report["orphan_spans"] == 0
    )
    return {
        "seed": seed,
        "requests": len(outcomes),
        "outcomes": outcomes,
        "histogram": histogram,
        "fingerprint": fingerprint,
        "all_terminal": not hung,
        "oracle_checked": oracle_checked,
        "violations": violations,
        "orphan_pids": orphans,
        "trace": trace_report,
        "ok": not hung and not violations and not orphans and trace_ok,
        "stats": engine.stats(),
    }


def serve_campaign(
    seed: int, *, requests: int = 18, cache_dir: Optional[str] = None
) -> Dict[str, Any]:
    """Synchronous entry point (CLI and tests)."""
    return asyncio.run(
        run_serve_campaign(seed, requests=requests, cache_dir=cache_dir)
    )


def verify_determinism(
    seed: int, *, requests: int = 18
) -> Dict[str, Any]:
    """Run the campaign twice from the same seed (fresh caches) and
    assert identical outcome sequences; returns the first record with
    the comparison verdict attached."""
    first = serve_campaign(seed, requests=requests)
    second = serve_campaign(seed, requests=requests)
    matched = first["outcomes"] == second["outcomes"]
    first["deterministic"] = matched
    first["ok"] = first["ok"] and second["ok"] and matched
    if not matched:
        first["determinism_diff"] = {
            "first": first["outcomes"],
            "second": second["outcomes"],
        }
    return first
