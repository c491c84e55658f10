"""Job model for ``repro serve``: parse, validate, execute, certify.

A *job* asks for the paper's full pipeline on one instance — cycle
separator (Theorem 1), DFS tree (Theorem 2) and the cycle certificate —
and comes in two shapes:

* **generator jobs** — ``{"family": "delaunay", "n": 120, "seed": 3}``
  name a seeded instance from the CLI's generator families, so a client
  never ships a graph it can describe;
* **edge-list jobs** — ``{"edges": [[0, 1], [1, 2], ...], "root": 0}``
  ship the graph itself (validated: connected, planar, within the size
  cap).

Either shape may additionally carry ``"updates"`` — an ordered list of
``["insert"|"delete", u, v]`` mutations applied to the instance *before*
the pipeline answers (the dynamic-graph job mode).  Updates run through
:class:`repro.dynamic.repair.DynamicPipeline` in one batch, so the
response reflects the incrementally repaired (and oracle-checked)
post-update state, and the ``"dynamic"`` payload block reports the
repair statistics.  The updates are part of :meth:`JobSpec.canonical`
— and therefore of the content-addressed :meth:`JobSpec.key` — because
they change the graph the answer is about: two jobs differing only in
their update sequence must never share a cache entry.

:func:`parse_job` normalizes either shape into a :class:`JobSpec` whose
:meth:`JobSpec.key` is a content-addressed digest — the idempotency token
the service's result cache (:mod:`repro.analysis.cache`) and its bounded
retry-after-worker-death machinery both key on: re-executing a job is
always safe because the algorithms are deterministic, and re-executing a
*finished* job is free because the cache already holds the result.

:func:`run_job` is the worker-pool entry point (module-level, picklable).
It runs the pipeline **and the oracles**: every ``"ok"`` payload has
already passed ``check_separator`` and ``check_dfs_tree`` inside the
worker, so a degraded service can never hand out an unverified answer —
the contract the chaos harness (:mod:`repro.chaos.serve_chaos`)
re-checks from the outside.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "JobError",
    "JobSpec",
    "MAX_EDGES",
    "MAX_N",
    "MAX_UPDATES",
    "parse_job",
    "run_job",
    "verify_result",
]

#: Hard caps on accepted work — admission control starts at the parser
#: (a 10^7-node job is a denial of service, not a request).
MAX_N = 20_000
MAX_EDGES = 60_000
MAX_UPDATES = 2_000


class JobError(ValueError):
    """A malformed or oversized job request (an HTTP 400, not a crash)."""


@dataclass(frozen=True)
class JobSpec:
    """One validated job: a generator reference or an explicit edge list."""

    kind: str  # "generator" | "edges"
    family: Optional[str] = None
    n: int = 0
    seed: int = 0
    root: int = 0
    edges: Tuple[Tuple[int, int], ...] = ()
    updates: Tuple[Tuple[str, int, int], ...] = ()

    def canonical(self) -> Dict[str, Any]:
        """The JSON-stable identity of the job (what the key digests).

        ``updates`` determine the post-update graph state the job answers
        about, so they are part of the identity whenever present — and
        absent otherwise, keeping static jobs' keys (and their cached
        results) stable across this extension.
        """
        if self.kind == "generator":
            out = {
                "kind": "generator",
                "family": self.family,
                "n": self.n,
                "seed": self.seed,
                "root": self.root,
            }
        else:
            out = {
                "kind": "edges",
                "edges": [list(e) for e in self.edges],
                "root": self.root,
            }
        if self.updates:
            out["updates"] = [list(u) for u in self.updates]
        return out

    def key(self) -> str:
        """Content-addressed job identity (idempotency/cache token)."""
        blob = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()


def _require_int(payload: Dict[str, Any], name: str, default: int, lo: int, hi: int) -> int:
    value = payload.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise JobError(f"{name!r} must be an integer, got {type(value).__name__}")
    if not lo <= value <= hi:
        raise JobError(f"{name!r} must be in [{lo}, {hi}], got {value}")
    return value


def _parse_updates(payload: Dict[str, Any]) -> Tuple[Tuple[str, int, int], ...]:
    updates = payload.get("updates", ())
    if not isinstance(updates, (list, tuple)):
        raise JobError("'updates' must be a list of [op, u, v] triples")
    if len(updates) > MAX_UPDATES:
        raise JobError(f"too many updates ({len(updates)} > {MAX_UPDATES})")
    normalized = []
    for entry in updates:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise JobError(f"update {entry!r} is not an [op, u, v] triple")
        op, u, v = entry
        if op not in ("insert", "delete"):
            raise JobError(f"update op must be 'insert' or 'delete', got {op!r}")
        if any(isinstance(x, bool) or not isinstance(x, int) for x in (u, v)):
            raise JobError(f"update {entry!r} endpoints must be integers")
        if u == v:
            raise JobError(f"self-loop update {entry!r} is not allowed")
        normalized.append((op, u, v))
    return tuple(normalized)


def parse_job(payload: Any) -> JobSpec:
    """Validate a request body into a :class:`JobSpec`; raises
    :class:`JobError` with a client-facing message on any defect."""
    from ..cli import FAMILY_MAKERS

    if not isinstance(payload, dict):
        raise JobError("job body must be a JSON object")
    updates = _parse_updates(payload)
    if "edges" in payload:
        edges = payload["edges"]
        if not isinstance(edges, list) or not edges:
            raise JobError("'edges' must be a non-empty list of [u, v] pairs")
        if len(edges) > MAX_EDGES:
            raise JobError(f"too many edges ({len(edges)} > {MAX_EDGES})")
        normalized = []
        for e in edges:
            if (
                not isinstance(e, (list, tuple))
                or len(e) != 2
                or any(isinstance(x, bool) or not isinstance(x, int) for x in e)
            ):
                raise JobError(f"edge {e!r} is not a pair of integers")
            if e[0] == e[1]:
                raise JobError(f"self-loop {e!r} is not allowed")
            normalized.append((min(e), max(e)))
        root = _require_int(payload, "root", 0, 0, MAX_N)
        return JobSpec(
            kind="edges", root=root, edges=tuple(sorted(set(normalized))),
            updates=updates,
        )
    family = payload.get("family")
    if family not in FAMILY_MAKERS:
        raise JobError(
            f"unknown family {family!r}; choose from {sorted(FAMILY_MAKERS)} "
            f"or supply 'edges'"
        )
    n = _require_int(payload, "n", 0, 2, MAX_N)
    seed = _require_int(payload, "seed", 0, 0, 2**31)
    root = _require_int(payload, "root", 0, 0, MAX_N)
    return JobSpec(
        kind="generator", family=family, n=n, seed=seed, root=root,
        updates=updates,
    )


def _build_graph(spec: JobSpec):
    import networkx as nx

    from ..cli import FAMILY_MAKERS

    if spec.kind == "generator":
        return FAMILY_MAKERS[spec.family](spec.n, spec.seed)
    graph = nx.Graph()
    graph.add_edges_from(spec.edges)
    return graph


def run_job(
    canonical: Dict[str, Any],
    deadline_ts: Optional[float] = None,
    trace_ctx: Optional[Any] = None,
) -> Dict[str, Any]:
    """Execute one job end to end (the worker-pool entry point).

    Returns a terminal payload dict, never raises for a job-shaped
    failure:

    * ``{"status": "ok", ...}`` — separator + DFS tree + certificate,
      all oracles passed *in this worker*;
    * ``{"status": "invalid", ...}`` — the instance is unusable
      (disconnected, non-planar, unknown root): the client's fault;
    * ``{"status": "expired"}`` — the request's deadline passed before
      the worker picked it up, so it declined to burn CPU on an answer
      nobody is waiting for;
    * ``{"status": "oracle-violation", ...}`` — the pipeline produced an
      object that failed its own definition check.  Deterministic
      algorithms should make this unreachable; surfacing it (instead of
      trusting the result) is the point of running oracles in-worker.

    When ``trace_ctx`` (a picklable :class:`repro.obs.events.TraceContext`)
    rides along, the worker records its phases on a
    :class:`repro.obs.Tracer` bound to it and returns that tracer's span
    records in a reserved ``"_trace"`` key (with the trace id and the
    tracer's epoch start) — which the engine strips before caching or
    responding, so payloads are bit-identical with tracing on or off.
    """
    from ..core.certify import certify_cycle
    from ..core.config import PlanarConfiguration
    from ..core.dfs import dfs_tree
    from ..core.separator import cycle_separator
    from ..core.verify import VerificationError, check_dfs_tree, check_separator
    from ..planar.checks import require_connected
    from ..planar.construct import embed

    if deadline_ts is not None and time.time() >= deadline_ts:
        return {"status": "expired"}
    from ..obs.tracing import NULL_TRACER, Tracer

    tracer = NULL_TRACER  # tracing off allocates nothing
    if trace_ctx is not None:
        tracer = Tracer()
        tracer.bind_context(trace_ctx)
    span = tracer.span

    def _finish(payload: Dict[str, Any]) -> Dict[str, Any]:
        if tracer.context is not None:
            payload["_trace"] = {"trace": tracer.context.trace_id,
                                 "entry_ts": tracer.started_ts,
                                 "spans": tracer.records()}
        return payload

    updates = tuple(tuple(u) for u in canonical.get("updates", ()))
    spec = (
        JobSpec(
            kind="edges",
            root=canonical.get("root", 0),
            edges=tuple(tuple(e) for e in canonical.get("edges", ())),
            updates=updates,
        )
        if canonical.get("kind") == "edges"
        else JobSpec(
            kind="generator",
            family=canonical.get("family"),
            n=canonical.get("n", 0),
            seed=canonical.get("seed", 0),
            root=canonical.get("root", 0),
            updates=updates,
        )
    )
    if spec.updates:
        return _run_update_job(spec, span, _finish)
    try:
        with span("build"):
            graph = _build_graph(spec)
            nodes = sorted(graph.nodes)
            root = nodes[spec.root % len(nodes)]
            # One planarity test: the rotation is certified, not re-embedded,
            # by both the configuration and the DFS.
            require_connected(graph)
            rotation = embed(graph)
            cfg = PlanarConfiguration.build(graph, root=root, rotation=rotation)
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        return _finish({"status": "invalid", "error": f"{type(exc).__name__}: {exc}"})
    try:
        with span("separator"):
            sep = cycle_separator(cfg)
            report = check_separator(graph, sep.path)
        with span("certify"):
            certificate = certify_cycle(cfg.graph, cfg.rotation, sep.path)
        with span("dfs"):
            dfs = dfs_tree(graph, root, rotation=rotation)
            check_dfs_tree(graph, dfs.parent, root)
    except VerificationError as exc:
        return _finish({"status": "oracle-violation", "error": str(exc)})
    return _finish({
        "status": "ok",
        "job": spec.canonical(),
        "key": spec.key(),
        "n": len(graph),
        "m": graph.number_of_edges(),
        "root": root,
        "separator": {
            "path": list(sep.path),
            "size": report.separator_size,
            "phase": sep.phase,
            "rule": sep.rule,
            "certificate": certificate,
            "max_fraction": round(report.max_fraction, 6),
            "balanced": report.balanced,
        },
        "dfs": {
            "parent": sorted(
                ([v, p] for v, p in dfs.parent.items()), key=lambda e: repr(e)
            ),
            "height": dfs.to_tree().height(),
            "phases": dfs.phases,
            "separator_phases": dfs.separator_phases,
        },
        "oracles": {"separator": True, "dfs": True},
    })


def _run_update_job(spec: JobSpec, span, _finish) -> Dict[str, Any]:
    """Execute an update-mode job through the incremental repair engine.

    The updates are applied as one batch to a
    :class:`~repro.dynamic.repair.DynamicPipeline`, which oracle-checks
    the repaired state before handing it back — an
    :class:`~repro.dynamic.repair.UnsoundRepairError` becomes the same
    ``"oracle-violation"`` terminal the static path uses, and a rejected
    mutation (planarity break, bridge delete, duplicate edge) is the
    client's fault: ``"invalid"``.
    """
    from ..core.verify import VerificationError, separator_report
    from ..dynamic.mutations import MutationError
    from ..dynamic.repair import DynamicPipeline, UnsoundRepairError
    from ..trees.rooted import RootedTree

    try:
        with span("build"):
            graph = _build_graph(spec)
            nodes = sorted(graph.nodes)
            root = nodes[spec.root % len(nodes)]
            pipeline = DynamicPipeline(graph, root=root, charge_rounds=False)
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        return _finish({"status": "invalid", "error": f"{type(exc).__name__}: {exc}"})
    try:
        with span("updates"):
            pipeline.apply(list(spec.updates))
    except MutationError as exc:
        return _finish({"status": "invalid", "error": f"MutationError: {exc}"})
    except UnsoundRepairError as exc:
        return _finish({"status": "oracle-violation", "error": str(exc)})
    except VerificationError as exc:  # pragma: no cover - wrapped above
        return _finish({"status": "oracle-violation", "error": str(exc)})
    post = pipeline.graph
    report = separator_report(post, list(pipeline.separator_path))
    stats = pipeline.stats
    return _finish({
        "status": "ok",
        "job": spec.canonical(),
        "key": spec.key(),
        "n": len(post),
        "m": post.number_of_edges(),
        "root": root,
        "separator": {
            "path": list(pipeline.separator_path),
            "size": report.separator_size,
            "phase": pipeline.separator_phase,
            "rule": "dynamic-repair",
            "certificate": pipeline.certificate,
            "max_fraction": round(report.max_fraction, 6),
            "balanced": report.balanced,
        },
        "dfs": {
            "parent": sorted(
                ([v, p] for v, p in pipeline.parent.items()),
                key=lambda e: repr(e),
            ),
            "height": RootedTree(pipeline.parent, root).height(),
            "phases": stats["batches"],
            "separator_phases": stats["separator_recomputes"],
        },
        "dynamic": {
            "updates_applied": stats["updates_applied"],
            "region_repairs": stats["region_repairs"],
            "fallbacks": stats["fallbacks"],
            "separator_recomputes": stats["separator_recomputes"],
            "full_recomputes": stats["full_recomputes"],
            "state_fingerprint": pipeline.state_fingerprint(),
        },
        "oracles": {"separator": True, "dfs": True},
    })


def verify_result(result: Dict[str, Any]) -> None:
    """Independently re-run the oracles against an ``"ok"`` payload.

    The chaos harness's outside check: rebuild the instance from the
    response's own job identity — replaying the job's update sequence
    for update-mode jobs, so the oracles judge the answer against the
    *post-update* graph it claims to describe — and hold the *returned*
    separator path and parent map to ``check_separator`` /
    ``check_dfs_tree``.  Raises
    :class:`repro.core.verify.VerificationError` on any defect.
    """
    from ..core.verify import check_dfs_tree, check_separator

    spec = parse_job(result["job"])
    graph = _build_graph(spec)
    if spec.updates:
        from ..dynamic.mutations import apply_updates_graph

        graph = apply_updates_graph(graph, list(spec.updates))
    check_separator(graph, result["separator"]["path"])
    parent = {v: p for v, p in result["dfs"]["parent"]}
    check_dfs_tree(graph, parent, result["root"])
