"""Worker supervision for ``repro serve``: restartable pool + breaker.

``concurrent.futures.ProcessPoolExecutor`` treats a dead worker as fatal:
one SIGKILL poisons every in-flight future with ``BrokenProcessPool`` and
the executor is unusable forever after.  :class:`SupervisedPool` wraps it
with the recovery loop a long-running service needs:

* **generations** — each executor is one generation; detecting a broken
  generation swaps in a fresh executor exactly once (concurrent
  observers of the same corpse coordinate via the generation counter);
* **exponential backoff** — consecutive deaths space the restarts out
  (``backoff_base * 2**k``, capped), so a crash-looping workload cannot
  turn the supervisor into a fork bomb; a completed job resets the
  streak;
* **chaos hooks** — :meth:`worker_pids` / :meth:`kill_worker` expose the
  real worker processes so the chaos harness can murder the one about to
  receive a job (SIGKILL, no cleanup) and the test suite can verify
  nothing is orphaned after :meth:`shutdown`.

:class:`CircuitBreaker` is the fast-fail companion: repeated worker
deaths trip it open (503 without touching the pool), a cooldown admits
one half-open probe, and a probe success closes it again.  The cooldown
is wall-clock by default; ``cooldown_rejects`` switches it to
request-count so seeded chaos campaigns stay deterministic.
"""

from __future__ import annotations

import concurrent.futures
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional

__all__ = ["BROKEN_POOL", "CircuitBreaker", "SupervisedPool"]

#: Exception types that mean "the pool is dead, not the job".
BROKEN_POOL = (BrokenProcessPool, concurrent.futures.BrokenExecutor)


class SupervisedPool:
    """A ``ProcessPoolExecutor`` that survives its workers.

    Parameters
    ----------
    workers:
        Worker process count per generation.
    backoff_base:
        Base restart delay in seconds (0 disables sleeping — the chaos
        harness and the test suite run with 0 to stay fast and
        deterministic).
    backoff_cap:
        Ceiling for the exponential restart delay.
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.generation = 0
        self.restarts = 0
        self.death_streak = 0
        self._closed = False
        #: Optional structured-event sink ``(type, **fields)`` — the
        #: engine points this at its :class:`repro.obs.events.EventLog`
        #: so restarts and chaos kills land in the serve-events stream.
        self.on_event: Optional[Callable[..., object]] = None
        self._pool = self._spawn()

    def _emit(self, type_: str, **fields) -> None:
        if self.on_event is not None:
            self.on_event(type_, **fields)

    # ------------------------------------------------------------------
    def _spawn(self) -> concurrent.futures.ProcessPoolExecutor:
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=self.workers)
        # The executor starts its workers on the first submit: start them
        # with the generation, so a kill before a dispatch finds its target.
        # The no-op's future is not read; a generation that breaks shows on
        # its next real job, which the supervision loop handles.
        pool.submit(int)
        return pool

    def submit(self, fn: Callable, *args) -> concurrent.futures.Future:
        """Submit a job to the current generation.

        A submit that finds the executor already broken raises
        :class:`BrokenProcessPool` just like a poisoned future would, so
        callers have exactly one failure path to supervise.
        """
        if self._closed:
            raise RuntimeError("pool is shut down")
        try:
            return self._pool.submit(fn, *args)
        except RuntimeError as exc:  # executor broken or shutting down
            raise BrokenProcessPool(str(exc)) from exc

    def note_success(self) -> None:
        """A job finished: the current generation is healthy, reset the
        death streak so the next restart (if any) starts backoff fresh."""
        self.death_streak = 0

    def backoff_delay(self) -> float:
        """The restart delay the *next* :meth:`restart` deserves."""
        if self.backoff_base <= 0:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * (2 ** self.death_streak))

    def restart(self, generation: Optional[int] = None) -> bool:
        """Replace a broken generation with a fresh executor.

        ``generation`` is the generation the caller observed dying; when
        another caller already performed the swap the call is a no-op
        (returns ``False``).  The caller is responsible for awaiting
        :meth:`backoff_delay` first — the supervisor itself never sleeps,
        so an asyncio service can back off without blocking its loop.
        """
        if self._closed:
            return False
        if generation is not None and generation != self.generation:
            return False
        old = self._pool
        self.generation += 1
        self.restarts += 1
        self.death_streak += 1
        self._pool = self._spawn()
        old.shutdown(wait=False, cancel_futures=True)
        self._reap(old)
        self._emit("pool-restart", generation=self.generation, restarts=self.restarts)
        return True

    @staticmethod
    def _reap(pool: concurrent.futures.ProcessPoolExecutor) -> None:
        """Make sure a retired generation leaves no orphan processes."""
        procs = list((getattr(pool, "_processes", None) or {}).values())
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        deadline = time.monotonic() + 5.0
        for proc in procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():  # pragma: no cover - last resort
                proc.kill()
                proc.join(timeout=1.0)

    # -- chaos hooks ----------------------------------------------------
    def worker_pids(self) -> List[int]:
        """PIDs of the current generation's live workers (started with
        the generation)."""
        return sorted(
            pid
            for pid, proc in (getattr(self._pool, "_processes", None) or {}).items()
            if proc.is_alive()
        )

    def kill_worker(self, pid: Optional[int] = None) -> Optional[int]:
        """SIGKILL one worker (the lowest PID by default); returns the
        killed PID or ``None`` when no worker is up yet.  This is the
        chaos harness's fault injector — the service must recover."""
        pids = self.worker_pids()
        if not pids:
            return None
        target = pid if pid is not None else pids[0]
        try:
            os.kill(target, signal.SIGKILL)
        except ProcessLookupError:  # already gone
            return None
        self._emit("worker-kill", pid=target, generation=self.generation)
        return target

    def kill_all_workers(self) -> int:
        """SIGKILL the whole generation (wedged-pool recovery)."""
        killed = 0
        for pid in self.worker_pids():
            if self.kill_worker(pid) is not None:
                killed += 1
        return killed

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop the pool and join every worker (idempotent; after this
        :meth:`worker_pids` is empty and nothing is orphaned)."""
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True, cancel_futures=True)
        self._reap(self._pool)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SupervisedPool(workers={self.workers}, "
            f"generation={self.generation}, restarts={self.restarts})"
        )


class CircuitBreaker:
    """Three-state breaker over worker health: closed → open → half-open.

    ``record_failure`` counts worker deaths; ``failure_threshold`` deaths
    without an intervening success trip the breaker **open** — every
    :meth:`allow` fast-fails until the cooldown elapses, then exactly one
    probe is admitted (**half-open**); its success closes the breaker,
    its failure re-opens it with a fresh cooldown.

    The cooldown is ``cooldown_s`` of wall clock, or — when
    ``cooldown_rejects`` is set — that many rejected :meth:`allow` calls,
    which is the deterministic mode the seeded chaos campaign runs in
    (request counts replay; clocks do not).
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_s: float = 5.0,
        cooldown_rejects: Optional[int] = None,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.cooldown_rejects = cooldown_rejects
        self.state = "closed"
        self.failures = 0
        self.opens = 0
        self._opened_at = 0.0
        self._rejects_since_open = 0
        self._probing = False

    def _cooled_down(self) -> bool:
        if self.cooldown_rejects is not None:
            return self._rejects_since_open >= self.cooldown_rejects
        return time.monotonic() - self._opened_at >= self.cooldown_s

    def allow(self) -> bool:
        """May a request touch the pool right now?"""
        if self.state == "closed":
            return True
        if self.state == "open" and self._cooled_down():
            self.state = "half-open"
            self._probing = False
        if self.state == "half-open" and not self._probing:
            self._probing = True  # exactly one probe in flight
            return True
        self._rejects_since_open += 1
        return False

    def record_success(self) -> None:
        """A pool interaction succeeded; a half-open probe closes the
        breaker, and any success clears the failure streak."""
        self.failures = 0
        if self.state != "closed":
            self.state = "closed"
        self._probing = False

    def record_failure(self) -> None:
        """A worker died under a request."""
        self.failures += 1
        if self.state == "half-open" or self.failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        if self.state != "open":
            self.opens += 1
        self.state = "open"
        self.failures = 0
        self._opened_at = time.monotonic()
        self._rejects_since_open = 0
        self._probing = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CircuitBreaker(state={self.state!r}, opens={self.opens})"
