"""Chaos scenarios: end-to-end workloads with invariant oracles.

A *scenario* is a named function that runs one CONGEST workload on a
generated planar instance — optionally under a fault plan and a transport
— and checks the result against the definitional oracles in
:mod:`repro.core.verify`.  A scenario never returns a wrong answer
quietly: it either returns a stats dict or raises
:class:`~repro.core.verify.VerificationError` (oracle violation) /
``RuntimeError`` (deadlock, round-budget exhaustion).

:func:`run_scenario` is the harness the campaign runner and the shrinker
share: it turns any outcome — success or violation — into one
JSON-serializable dict with a deterministic fingerprint, so a violation
can be compared across reruns, schedulers and processes.

Two scenario groups differ in how they get their resilience:

* ``broadcast`` / ``convergecast`` use the hand-rolled resilient wrappers
  from PR 3 (their own ack layer; ``transport`` is ignored);
* everything else (``dfs``, ``fragments``, ``partwise``, ``weights``,
  ``mst`` and the full ``pipeline``) threads the transport through
  ``Network.run`` — the self-healing layer this package exists to test.

The equality oracles (fragments/partwise/weights) compare the faulted run
against a clean run of the same workload: a fully-recovered transport run
must be *logically indistinguishable* from the clean one.  The
definitional oracles (``check_mst``, ``check_dfs_tree``,
``check_separator``) restate the object's definition independently.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, Hashable, Optional

from ..congest.algorithms import (
    bfs_run,
    resilient_broadcast_run,
    resilient_convergecast_run,
)
from ..congest.awerbuch import resilient_dfs_run
from ..congest.fragments_sim import fragment_merge_run
from ..congest.mst import boruvka_mst_run
from ..congest.network import CongestViolation
from ..congest.partwise_sim import partwise_aggregation_run
from ..congest.weights_sim import weights_problem_run
from ..core.config import PlanarConfiguration
from ..core.separator import cycle_separator
from ..core.verify import (
    VerificationError,
    check_broadcast_coverage,
    check_component_dfs,
    check_mst,
    check_separator,
)
from ..obs import MetricsRegistry
from ..planar import generators as gen
from ..trees import bfs_tree

Node = Hashable

__all__ = [
    "HARDENED",
    "SCENARIOS",
    "hardened_against",
    "make_instance",
    "run_scenario",
    "scenario",
]

#: name -> scenario function ``fn(graph, root, *, faults, transport,
#: metrics, scheduler) -> stats dict`` (raises on violation).
SCENARIOS: Dict[str, Callable] = {}

_ALL_FAULT_KINDS = frozenset({"drop", "duplicate", "corrupt"})

#: Fault kinds a scenario is *hardened* against (can fully recover
#: from).  The PR 3 resilient wrappers have their own ack layer but no
#: checksums, so corruption defeats them — a documented capability gap,
#: not a bug; the campaign grid skips those combinations.  Transported
#: scenarios default to all kinds.
HARDENED: Dict[str, frozenset] = {
    "broadcast": frozenset({"drop", "duplicate"}),
    "convergecast": frozenset({"drop", "duplicate"}),
}


def hardened_against(name: str) -> frozenset:
    """The fault kinds scenario ``name`` claims to survive."""
    return HARDENED.get(name, _ALL_FAULT_KINDS)


def scenario(name: str):
    """Register a scenario under ``name`` (decorator)."""

    def decorate(fn):
        SCENARIOS[name] = fn
        return fn

    return decorate


def make_instance(n: int, graph_seed: int):
    """The campaign instance family: a Delaunay triangulation (connected,
    planar, deterministic in ``(n, graph_seed)``) rooted at its least node."""
    graph = gen.delaunay(n, seed=graph_seed)
    root = min(graph.nodes)
    return graph, root


def _bfs_parent(graph, root):
    return {v: out[1] for v, out in bfs_run(graph, root).outputs.items()}


# -- scenarios --------------------------------------------------------------


@scenario("broadcast")
def _broadcast(graph, root, *, faults=None, transport=None, metrics=None,
               scheduler="active"):
    """Resilient broadcast (its own ack layer; transport unused)."""
    result, report = resilient_broadcast_run(
        graph, root, 42, faults=faults, metrics=metrics, scheduler=scheduler
    )
    if report is not None:
        raise VerificationError(f"broadcast failed: {report.reason}")
    outputs = {v: out[0] for v, out in result.outputs.items() if out is not None}
    check_broadcast_coverage(graph, root, outputs, 42, crashed=result.crashed)
    return {"rounds": result.rounds}


@scenario("convergecast")
def _convergecast(graph, root, *, faults=None, transport=None, metrics=None,
                  scheduler="active"):
    """Resilient convergecast; the root must see every surviving node."""
    parent = _bfs_parent(graph, root)
    values = {v: 1 for v in graph.nodes}
    result, report = resilient_convergecast_run(
        graph, root, values, parent, faults=faults, metrics=metrics,
        scheduler=scheduler,
    )
    if report is not None:
        raise VerificationError(f"convergecast failed: {report.reason}")
    total = result.outputs[root][0]
    expected = len(graph) - len(result.crashed)
    if total < expected:
        raise VerificationError(
            f"convergecast undercounted: root saw {total} < {expected} survivors"
        )
    return {"rounds": result.rounds}


@scenario("dfs")
def _dfs(graph, root, *, faults=None, transport=None, metrics=None,
         scheduler="active"):
    """Awerbuch DFS; the parent map must be a DFS tree of the survivors."""
    result, report = resilient_dfs_run(
        graph, root, faults=faults, metrics=metrics, transport=transport,
        scheduler=scheduler,
    )
    if report is not None:
        raise VerificationError(f"dfs failed: {report.reason}")
    parent = {v: out[0] for v, out in result.outputs.items() if out is not None}
    check_component_dfs(graph, parent, root, crashed=result.crashed)
    return {"rounds": result.rounds}


@scenario("fragments")
def _fragments(graph, root, *, faults=None, transport=None, metrics=None,
               scheduler="active"):
    """Fragment merge dynamic; must match the clean run's iteration count."""
    tree = bfs_tree(graph, root)
    clean = fragment_merge_run(graph, tree)
    run = fragment_merge_run(
        graph, tree, faults=faults, transport=transport, metrics=metrics,
        scheduler=scheduler,
    )
    if run.iterations != clean.iterations:
        raise VerificationError(
            f"fragment merge diverged: {run.iterations} iterations "
            f"!= clean {clean.iterations}"
        )
    return {"rounds": run.rounds, "baseline_rounds": clean.rounds}


def _partwise_setup(graph):
    nodes = sorted(graph.nodes)
    parts = [nodes[i: i + 6] for i in range(0, len(nodes), 6)]
    values = {v: (i * 7) % 13 + 1 for i, v in enumerate(nodes)}
    return parts, values


@scenario("partwise")
def _partwise(graph, root, *, faults=None, transport=None, metrics=None,
              scheduler="active"):
    """Part-wise aggregation; aggregates must equal the direct sums."""
    parts, values = _partwise_setup(graph)
    run = partwise_aggregation_run(
        graph, parts, values, faults=faults, transport=transport,
        metrics=metrics, scheduler=scheduler,
    )
    expected = {
        i: sum(values[v] for v in part) for i, part in enumerate(parts)
    }
    if run.aggregates != expected:
        wrong = sorted(
            i for i in expected if run.aggregates.get(i) != expected[i]
        )
        raise VerificationError(
            f"partwise aggregates wrong for part(s) {wrong[:5]}"
        )
    return {"rounds": run.rounds}


@scenario("weights")
def _weights(graph, root, *, faults=None, transport=None, metrics=None,
             scheduler="active"):
    """Weight computation; must equal the clean run bit for bit."""
    cfg = PlanarConfiguration.build(graph, root=root)
    clean = weights_problem_run(cfg)
    run = weights_problem_run(
        cfg, faults=faults, transport=transport, metrics=metrics,
        scheduler=scheduler,
    )
    if run.weights != clean.weights or run.orders != clean.orders:
        raise VerificationError("weights diverged from the clean run")
    return {"rounds": run.rounds, "baseline_rounds": clean.rounds}


@scenario("mst")
def _mst(graph, root, *, faults=None, transport=None, metrics=None,
         scheduler="active"):
    """Message-level Borůvka; the result must be the (tie-broken) MST."""
    run = boruvka_mst_run(
        graph, faults=faults, transport=transport, metrics=metrics,
        scheduler=scheduler,
    )
    check_mst(graph, run.edges)
    return {"rounds": run.rounds, "phases": run.phases}


@scenario("pipeline")
def _pipeline(graph, root, *, faults=None, transport=None, metrics=None,
              scheduler="active"):
    """The full Theorem 2 shape: fragments -> partwise -> weights (with a
    verified separator) -> MST -> DFS, every phase under the same plan."""
    rounds = 0
    stats = _fragments(
        graph, root, faults=faults, transport=transport, metrics=metrics,
        scheduler=scheduler,
    )
    rounds += stats["rounds"]
    stats = _partwise(
        graph, root, faults=faults, transport=transport, metrics=metrics,
        scheduler=scheduler,
    )
    rounds += stats["rounds"]
    cfg = PlanarConfiguration.build(graph, root=root)
    clean = weights_problem_run(cfg)
    run = weights_problem_run(
        cfg, faults=faults, transport=transport, metrics=metrics,
        scheduler=scheduler,
    )
    if run.weights != clean.weights or run.orders != clean.orders:
        raise VerificationError("pipeline: weights diverged from the clean run")
    rounds += run.rounds
    sep = cycle_separator(cfg)
    check_separator(graph, sep.path)
    stats = _mst(
        graph, root, faults=faults, transport=transport, metrics=metrics,
        scheduler=scheduler,
    )
    rounds += stats["rounds"]
    stats = _dfs(
        graph, root, faults=faults, transport=transport, metrics=metrics,
        scheduler=scheduler,
    )
    rounds += stats["rounds"]
    return {"rounds": rounds, "separator_size": len(sep.path)}


# -- the harness ------------------------------------------------------------

#: Simulator counters mirrored into every outcome (totals across the
#: scenario's runs; zero when the metric never fired).
_COUNTER_NAMES = (
    "congest_lost_messages_total",
    "congest_duplicated_messages_total",
    "congest_corrupted_messages_total",
    "congest_retransmits_total",
    "congest_corruptions_detected_total",
)


def _counter_totals(metrics: MetricsRegistry) -> Dict[str, int]:
    exported = metrics.to_dict()
    totals: Dict[str, int] = {}
    for name in _COUNTER_NAMES:
        family = exported.get(name, {})
        if "value" in family:
            totals[name] = family["value"]
        else:
            totals[name] = sum(family.get("values", {}).values())
    return totals


def outcome_fingerprint(outcome: Dict[str, Any]) -> str:
    """Deterministic digest of an outcome's *logical* content (16 hex
    chars): identity, verdict and counters — never wall-clock noise."""
    payload = {
        k: outcome.get(k)
        for k in (
            "scenario", "n", "graph_seed", "plan", "transport",
            "ok", "violation", "rounds", "counters",
        )
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.blake2b(blob.encode(), digest_size=8).hexdigest()


def run_scenario(
    name: str,
    *,
    n: int = 24,
    graph_seed: int = 1,
    plan=None,
    transport=None,
    scheduler: str = "active",
) -> Dict[str, Any]:
    """Run one scenario and normalize the outcome to a JSON-able dict.

    Never raises for a *failing workload*: oracle violations, deadlocks
    and round-budget exhaustion become ``ok=False`` with a deterministic
    ``violation`` string (the shrinker's comparison key).  Unknown
    scenario names still raise — that is a caller bug, not a finding.

    ``scheduler`` selects the ``Network.run`` dispatcher for every run
    the scenario makes.  It is recorded in the outcome but *excluded*
    from the fingerprint: scheduler equivalence means the same campaign
    under ``--scheduler vectorized`` must fingerprint identically to the
    active-set baseline, and any divergence is itself a finding.
    """
    fn = SCENARIOS[name]
    graph, root = make_instance(n, graph_seed)
    metrics = MetricsRegistry()
    outcome: Dict[str, Any] = {
        "scenario": name,
        "n": n,
        "graph_seed": graph_seed,
        "plan": plan.describe() if plan is not None else None,
        "transport": transport is not None
        and type(transport).__name__ != "NullTransport",
        "scheduler": scheduler,
        "ok": True,
        "violation": None,
        "rounds": None,
    }
    try:
        stats = fn(
            graph, root, faults=plan, transport=transport, metrics=metrics,
            scheduler=scheduler,
        )
    except VerificationError as exc:
        outcome["ok"] = False
        outcome["violation"] = f"VerificationError: {exc}"
    except (RuntimeError, CongestViolation) as exc:
        outcome["ok"] = False
        outcome["violation"] = f"{type(exc).__name__}: {exc}"
    else:
        outcome.update(stats)
        baseline = outcome.get("baseline_rounds")
        if baseline:
            outcome["overhead"] = round(outcome["rounds"] / baseline, 3)
    outcome["counters"] = _counter_totals(metrics)
    outcome["fingerprint"] = outcome_fingerprint(outcome)
    return outcome
