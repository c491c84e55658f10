"""The ``repro serve`` request engine: the degradation ladder in code.

:class:`ServeEngine` owns every robustness decision between "bytes
arrived" and "terminal response", in the order a request meets them:

1. **drain** — a stopping service admits nothing (503 ``draining``);
2. **admission** — a bounded in-flight window; a full window sheds
   *synchronously* (429 ``shed`` + Retry-After) before the request costs
   anything, so overload degrades into fast refusals instead of a queue
   collapse;
3. **cache** — the content-addressed job key (:meth:`JobSpec.key`) hits
   :class:`~repro.analysis.cache.InstanceCache` and skips the pool
   entirely — repeats are free, and the same idempotency makes
   worker-death retries safe;
4. **breaker** — repeated worker deaths trip the
   :class:`~repro.serve.pool.CircuitBreaker`; an open breaker fast-fails
   (503 ``breaker-open``) instead of feeding a dying pool;
5. **deadline** — the absolute deadline travels into the worker (which
   declines expired jobs) and bounds the parent's wait; expiry is a 503
   ``deadline``, and a worker that keeps computing past it is a *wedge*:
   a watchdog SIGKILLs the generation after a grace period so the slot
   comes back;
6. **supervision** — a worker death poisons its generation's futures
   with ``BrokenProcessPool``; the first observer restarts the pool
   (generation-guarded, exponential backoff) and innocent jobs retry up
   to ``job_retries`` times before giving up with 503 ``worker-died``.

Every path lands in exactly one terminal status — ``ok`` (200),
``invalid`` (400), ``shed`` (429), or a 503 flavour — which is the
invariant the chaos harness (:mod:`repro.chaos.serve_chaos`) fingerprints.

The engine is transport-agnostic: :mod:`repro.serve.http` maps
:class:`ServeResponse` onto HTTP, the chaos harness calls
:meth:`ServeEngine.submit` directly.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..analysis.cache import InstanceCache
from ..obs.events import EventLog, RequestTrace, write_events
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import NULL_TRACER
from .jobs import JobError, parse_job, run_job
from .pool import BROKEN_POOL, CircuitBreaker, SupervisedPool

__all__ = ["ServeConfig", "ServeEngine", "ServeResponse", "STATUS_CODES"]

#: Terminal status -> HTTP code; the complete response taxonomy.
STATUS_CODES = {
    "ok": 200,
    "invalid": 400,
    "shed": 429,
    "draining": 503,
    "breaker-open": 503,
    "deadline": 503,
    "worker-died": 503,
    "oracle-violation": 503,
}

#: Latency buckets for ``serve_request_seconds`` (sub-ms cache hits
#: through multi-second big-instance pipelines).
_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


@dataclass
class ServeConfig:
    """Tunables for one engine; the CLI maps flags onto these fields."""

    workers: int = 2
    #: Admission window: max requests past admission at once; the queue
    #: the window implies lives in the pool's submit backlog.
    max_inflight: int = 8
    #: Default per-request deadline (seconds); clients may lower it.
    deadline_s: float = 30.0
    #: Retry-After hint attached to 429s.
    retry_after_s: float = 1.0
    #: Bounded retries for jobs orphaned by a worker death.
    job_retries: int = 1
    #: Worker deaths (without an intervening success) that trip the breaker.
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 5.0
    #: Count-based cooldown override (deterministic chaos mode).
    breaker_cooldown_rejects: Optional[int] = None
    #: Restart backoff (0 = no sleeping, the deterministic test mode).
    restart_backoff_s: float = 0.05
    restart_backoff_cap_s: float = 2.0
    #: Grace before a wedged worker (computing past its deadline) is shot.
    wedge_grace_s: float = 2.0
    #: Result cache location; ``None`` disables caching entirely.
    cache_dir: Optional[str] = "benchmarks/.cache"
    #: Request-scoped tracing (opt-in; a traced run is bit-identical to
    #: an untraced one — spans are observational only).
    trace_requests: bool = False
    #: Finished request records retained for the serve-events flush.
    trace_capacity: int = 100_000
    #: Structured-event ring buffer size (always on; feeds /statusz).
    events_capacity: int = 256


@dataclass
class ServeResponse:
    """One terminal response: HTTP code, JSON body, optional headers."""

    code: int
    body: Dict[str, Any]
    headers: Dict[str, str] = field(default_factory=dict)

    @property
    def status(self) -> str:
        return self.body.get("status", "")


class ServeEngine:
    """The service core — see the module docstring for the ladder."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.config = config or ServeConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.pool = SupervisedPool(
            self.config.workers,
            backoff_base=self.config.restart_backoff_s,
            backoff_cap=self.config.restart_backoff_cap_s,
        )
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
            cooldown_rejects=self.config.breaker_cooldown_rejects,
        )
        self.cache = InstanceCache(
            self.config.cache_dir or ".",
            enabled=self.config.cache_dir is not None,
        )
        self.inflight = 0
        self.draining = False
        self._drained = asyncio.Event()
        self._drained.set()
        self._restart_lock = asyncio.Lock()
        #: Structured service events (pool restarts, breaker flips,
        #: chaos kills, sheds) — always on, bounded, feeds /statusz and
        #: the serve-events JSONL.
        self.events = EventLog(self.config.events_capacity)
        self.pool.on_event = self.events.emit
        #: Finished request-trace records (only fed when
        #: ``config.trace_requests`` is set).
        self.request_traces: deque = deque(maxlen=self.config.trace_capacity)
        self._trace_seq = 0
        m = self.metrics
        self._m_requests = m.counter(
            "serve_requests_total", "Terminal responses by status", labels=("status",)
        )
        self._m_shed = m.counter("serve_shed_total", "Requests refused by admission control")
        self._m_cache_hits = m.counter("serve_cache_hits_total", "Jobs answered from the result cache")
        self._m_retries = m.counter("serve_retries_total", "Jobs re-dispatched after a worker death")
        self._m_restarts = m.counter("serve_worker_restarts_total", "Worker-pool generation restarts")
        self._m_breaker = m.counter("serve_breaker_open_total", "Circuit-breaker trips to open")
        self._m_wedge = m.counter("serve_wedge_kills_total", "Wedged workers killed past deadline")
        self._m_inflight = m.gauge("serve_inflight", "Requests currently past admission")
        self._m_latency = m.histogram(
            "serve_request_seconds", "Terminal-response latency", buckets=_LATENCY_BUCKETS
        )

    # ------------------------------------------------------------------
    def _begin_trace(self, trace_id: Optional[str]):
        """The request's :class:`RequestTrace`, or the shared do-nothing
        :data:`~repro.obs.tracing.NULL_TRACER` when tracing is off."""
        if not self.config.trace_requests:
            return NULL_TRACER
        if trace_id is None:
            self._trace_seq += 1
            trace_id = f"req-{self._trace_seq:06d}"
        return RequestTrace(trace_id)

    async def submit(
        self,
        payload: Any,
        *,
        deadline_s: Optional[float] = None,
        on_dispatch: Optional[Callable[["ServeEngine", int], None]] = None,
        trace_id: Optional[str] = None,
    ) -> ServeResponse:
        """Run one request through the ladder to a terminal response.

        The drain and admission checks (and the shed itself) run in the
        synchronous prefix — before the first ``await`` — so a burst of
        N tasks created in order sheds deterministically: the first
        ``max_inflight`` are admitted, the rest refused, regardless of
        how the event loop later interleaves them.

        ``on_dispatch(engine, attempt)`` fires right before each pool
        dispatch — the chaos harness's seam for killing the worker about
        to receive the job.  A kill there always lands before the job can
        complete, so the death is charged to this request and no other.

        ``trace_id`` adopts a client-minted id for the request trace
        (with ``config.trace_requests`` on); engine-minted ids are
        sequential (``req-000001``), so a deterministic admission order
        yields deterministic ids.
        """
        started = time.monotonic()
        rt = self._begin_trace(trace_id)
        if self.draining:
            rt.add("admit", 0.0, rt.now(), status="draining")
            return self._terminal("draining", {}, started, rt)
        if self.inflight >= self.config.max_inflight:
            self._m_shed.inc()
            self.events.emit("shed", trace=rt.trace_id, inflight=self.inflight)
            now = rt.now()
            rt.add("admit", 0.0, now, status="ok")
            rt.add("shed", now, rt.now(), status="shed")
            return self._terminal(
                "shed",
                {"retry_after": self.config.retry_after_s},
                started,
                rt,
                headers={"Retry-After": f"{self.config.retry_after_s:g}"},
            )
        self.inflight += 1
        self._drained.clear()
        self._m_inflight.set_max(self.inflight)
        try:
            return await self._execute(payload, deadline_s, on_dispatch, started, rt)
        finally:
            self.inflight -= 1
            if self.inflight == 0:
                self._drained.set()

    async def _execute(
        self,
        payload: Any,
        deadline_s: Optional[float],
        on_dispatch: Optional[Callable[["ServeEngine", int], None]],
        started: float,
        rt,
    ) -> ServeResponse:
        # The "admit" phase covers parse + cache lookup + breaker check.
        admit = rt.begin("admit")
        try:
            spec = parse_job(payload)
        except JobError as exc:
            rt.end(admit, "invalid")
            return self._terminal("invalid", {"error": str(exc)}, started, rt)
        key = spec.key()
        hit, cached_result = self.cache.get("serve-job", [key])
        allowed = hit or self.breaker.allow()
        rt.end(admit, "ok")
        if hit:
            self._m_cache_hits.inc()
            return self._terminal("ok", dict(cached_result, cached=True), started, rt)
        if not allowed:
            rt.end(rt.begin("breaker-fastfail"), "breaker-open")
            return self._terminal("breaker-open", {"key": key}, started, rt)

        budget = self.config.deadline_s if deadline_s is None else deadline_s
        deadline_ts = time.time() + budget
        canonical = spec.canonical()
        attempts = 1 + max(0, self.config.job_retries)
        for attempt in range(attempts):
            if attempt:  # the previous attempt's worker died: re-dispatch
                self._m_retries.inc()
                rt.end(rt.begin("retry"), "ok")
            remaining = deadline_ts - time.time()
            if remaining <= 0:
                return self._terminal("deadline", {"key": key}, started, rt)
            generation = self.pool.generation
            dispatch = rt.begin("dispatch")
            dispatch_epoch = time.time()
            try:
                if on_dispatch is not None:
                    on_dispatch(self, attempt)
                fut = self.pool.submit(run_job, canonical, deadline_ts, rt.context)
            except BROKEN_POOL:
                rt.end(dispatch, "killed")
                self.events.emit("worker-died", trace=rt.trace_id, attempt=attempt)
                await self._handle_pool_death(generation)
                continue
            rt.end(dispatch, "ok")
            await_t0 = rt.now()
            try:
                result = await asyncio.wait_for(asyncio.wrap_future(fut), remaining)
            except asyncio.TimeoutError:
                # wait_for cancelled the wrapper; if the concurrent future
                # is already running the worker is wedged — give it grace,
                # then shoot the generation so the slot comes back.
                rt.add("run", await_t0, rt.now(), status="deadline")
                if not fut.cancel() and not fut.done():
                    asyncio.get_running_loop().create_task(
                        self._wedge_watchdog(fut, generation)
                    )
                return self._terminal("deadline", {"key": key}, started, rt)
            except BROKEN_POOL:
                # The worker died mid-span: its records never came back,
                # so the whole awaited interval closes terminally.
                rt.add("run", await_t0, rt.now(), status="killed")
                self.events.emit("worker-died", trace=rt.trace_id, attempt=attempt)
                await self._handle_pool_death(generation)
                continue

            self.pool.note_success()
            breaker_was = self.breaker.state
            self.breaker.record_success()
            if breaker_was != "closed" and self.breaker.state == "closed":
                self.events.emit("breaker-close")
            status = result.get("status", "oracle-violation")
            worker_trace = result.pop("_trace", None)
            done = rt.now()
            if worker_trace is not None:
                # Place the worker's records on the request clock: the
                # dispatch->entry epoch gap is the queue wait.
                queue_s = max(0.0, worker_trace["entry_ts"] - dispatch_epoch)
                pickup = min(await_t0 + queue_s, done)
                rt.add("queue", await_t0, pickup)
                run_span = rt.add("run", pickup, done)
                rt.graft(worker_trace["spans"], run_span, pickup, clamp=done)
            else:
                rt.add("run", await_t0, done)
            verify = rt.begin("verify")
            if status == "ok":
                self.cache.put("serve-job", [key], result)
                rt.end(verify, "ok")
                return self._terminal(
                    "ok", dict(result, cached=False, attempts=attempt + 1), started, rt
                )
            rt.end(verify, status)
            if status == "invalid":
                return self._terminal("invalid", {"error": result.get("error")}, started, rt)
            if status == "expired":
                return self._terminal("deadline", {"key": key}, started, rt)
            return self._terminal(
                "oracle-violation", {"key": key, "error": result.get("error")}, started, rt
            )
        return self._terminal(
            "worker-died", {"key": key, "attempts": attempts}, started, rt
        )

    async def _handle_pool_death(self, generation: int) -> None:
        """One restart (and one breaker failure) per dead generation, no
        matter how many in-flight requests observed the corpse."""
        async with self._restart_lock:
            if generation != self.pool.generation:
                return  # another request already supervised this death
            opens_before = self.breaker.opens
            self.breaker.record_failure()
            if self.breaker.opens > opens_before:
                self._m_breaker.inc()
                self.events.emit("breaker-open", opens=self.breaker.opens)
            delay = self.pool.backoff_delay()
            if delay > 0:
                await asyncio.sleep(delay)
            if self.pool.restart(generation):
                self._m_restarts.inc()

    async def _wedge_watchdog(self, fut, generation: int) -> None:
        await asyncio.sleep(self.config.wedge_grace_s)
        if fut.done() or self.pool.generation != generation:
            return
        self._m_wedge.inc()
        self.events.emit("wedge-kill", generation=generation)
        self.pool.kill_all_workers()  # poisons the generation; the next
        # observer's BrokenProcessPool triggers the normal restart path

    def _terminal(
        self,
        status: str,
        body: Dict[str, Any],
        started: float,
        rt,
        headers: Optional[Dict[str, str]] = None,
    ) -> ServeResponse:
        self._m_requests.inc(status=status)
        self._m_latency.observe(time.monotonic() - started)
        out = {"status": status}
        out.update(body)
        headers = dict(headers or {})
        # Orphan guarantee: any span still open (a worker killed
        # mid-span, an abandoned phase) closes terminally here, so the
        # finished record always validates.
        rt.force_close_open("killed")
        rt.end(rt.begin("respond"), "ok")
        record = rt.finalize(status, STATUS_CODES[status],
                             attempts=int(body.get("attempts", 1)),
                             cached=bool(body.get("cached", False)))
        if record is not None:  # tracing on
            self.request_traces.append(record)
            headers["X-Trace-Id"] = rt.trace_id
        return ServeResponse(STATUS_CODES[status], out, headers)

    # ------------------------------------------------------------------
    async def drain(self, timeout_s: float = 30.0) -> bool:
        """Graceful stop: refuse new work, wait for in-flight requests,
        shut the pool down.  Returns True when everything finished inside
        ``timeout_s`` (stragglers past it resolve as 503s on their own —
        the pool shutdown breaks their futures)."""
        if not self.draining:
            self.events.emit("drain", inflight=self.inflight)
        self.draining = True
        try:
            await asyncio.wait_for(self._drained.wait(), timeout_s)
            clean = True
        except asyncio.TimeoutError:
            clean = False
        self.pool.shutdown()
        return clean

    def close(self) -> None:
        """Synchronous teardown for tests and CLI cleanup paths."""
        self.draining = True
        self.pool.shutdown()

    # ------------------------------------------------------------------
    def healthy(self) -> bool:
        """Liveness: the process is up and the pool is not closed."""
        return not self.pool._closed

    def ready(self) -> bool:
        """Readiness: admitting traffic with a closed (or probing) breaker."""
        return not self.draining and self.breaker.state != "open"

    def latency_quantiles(self) -> Dict[str, float]:
        """Server-side latency quantiles straight from the histogram —
        the :meth:`Histogram.quantile` satellite; consumers no longer
        recompute them from bucket counts."""
        h = self._m_latency
        return {
            "p50": round(h.quantile(0.50), 6),
            "p95": round(h.quantile(0.95), 6),
            "p99": round(h.quantile(0.99), 6),
        }

    def stats(self) -> Dict[str, Any]:
        """Snapshot for ``BENCH_SERVE.json`` and the chaos harness."""
        by_status = {
            ",".join(k): v for k, v in sorted(self._m_requests._values.items())
        }
        return {
            "requests": by_status,
            "shed": self._m_shed.total,
            "cache_hits": self._m_cache_hits.total,
            "retries": self._m_retries.total,
            "worker_restarts": self._m_restarts.total,
            "breaker_opens": self._m_breaker.total,
            "wedge_kills": self._m_wedge.total,
            "pool_generation": self.pool.generation,
            "breaker_state": self.breaker.state,
            "latency_s": self.latency_quantiles(),
            "cache": self.cache.stats(),
        }

    def statusz(self, last_events: int = 32) -> Dict[str, Any]:
        """The ``/statusz`` snapshot: breaker + pool + queue state and
        the tail of the structured-event ring buffer."""
        return {
            "status": "ok",
            "draining": self.draining,
            "inflight": self.inflight,
            "queue_depth": max(0, self.inflight - self.config.workers),
            "breaker": {
                "state": self.breaker.state,
                "failures": self.breaker.failures,
                "opens": self.breaker.opens,
            },
            "pool": {
                "generation": self.pool.generation,
                "restarts": self.pool.restarts,
                "workers": self.config.workers,
            },
            "trace": {
                "enabled": self.config.trace_requests,
                "requests": len(self.request_traces),
            },
            "latency_s": self.latency_quantiles(),
            "events": self.events.snapshot(last_events),
        }

    def flush_events(self, path) -> int:
        """Write the serve-events JSONL (request records interleaved with
        structured events, per-phase histograms, attribution summary).
        Returns the number of lines written."""
        return write_events(path, list(self.request_traces),
                            self.events.snapshot())
