"""Churn campaigns: seeded topology churn.

The message-level campaigns (:mod:`repro.chaos.campaign`) perturb the
*transport*; a churn campaign perturbs the *graph*.  Each unit derives a
deterministic edge-flap schedule from the fault layer's ``edge_flap``
coins (:func:`repro.dynamic.mutations.flap_updates`), drives an
incremental :class:`~repro.dynamic.repair.DynamicPipeline` through it,
and cross-checks the result two ways:

* the pipeline's own post-batch oracles (``check_separator`` /
  ``check_dfs_tree`` / certificate soundness) — an unsound repair raises
  :class:`~repro.dynamic.repair.UnsoundRepairError` and becomes the
  unit's recorded violation;
* a full-recompute pipeline replaying the *same* schedule — the two
  must agree on :meth:`~repro.dynamic.repair.DynamicPipeline.
  state_fingerprint`, or the unit records a divergence violation.

Units run in order in this process, exactly like message-level campaign
units, and the summary/artifact/metrics plumbing is shared:
:func:`~repro.chaos.campaign.summarize_campaign` and
:func:`~repro.chaos.campaign.write_campaign` work unchanged because
churn rows speak the same row dialect (``scenario`` carries the graph
family).

Failing units shrink like fault plans do, but over *update sequences*:
:func:`shrink_churn_unit` delta-debugs the flat update list down to a
1-minimal subsequence that still trips an oracle (replayed one update
per batch, leniently, so subsets stay meaningful) and
:func:`emit_churn_stanza` renders it as a ready-to-paste pytest
regression.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import networkx as nx

from ..congest.faults import FaultPlan
from ..dynamic.mutations import Update, flap_updates
from ..dynamic.repair import KNOWN_REPAIR_BUGS, DynamicPipeline, UnsoundRepairError
from ..planar import generators
from .campaign import summarize_campaign

__all__ = [
    "CHURN_CAMPAIGNS",
    "ChurnCampaignConfig",
    "ChurnShrinkResult",
    "churn_campaign_units",
    "churn_instance",
    "churn_unit_updates",
    "emit_churn_stanza",
    "run_churn_campaign",
    "run_churn_unit",
    "shrink_churn_unit",
]

#: Graph families a churn campaign may sweep.  Deliberately excludes
#: ``outerplanar``: heavy churn on chord-augmented outerplanar instances
#: reaches static graphs on which the core separator's phase-4 emission
#: fails outright (a pre-existing core limitation, tracked in
#: ROADMAP.md), which would misreport as a repair violation.
CHURN_FAMILIES = ("delaunay", "grid", "triangulated_grid")


def churn_instance(family: str, n: int, graph_seed: int) -> nx.Graph:
    """The unit's initial instance (rooted later at the repr-least node)."""
    if family == "delaunay":
        return generators.delaunay(n, seed=graph_seed)
    if family == "grid":
        side = max(2, round(n ** 0.5))
        return generators.grid(side, side)
    if family == "triangulated_grid":
        side = max(2, round(n ** 0.5))
        return generators.triangulated_grid(side, side)
    raise ValueError(f"unknown churn family {family!r}")


@dataclass(frozen=True)
class ChurnCampaignConfig:
    """One churn sweep definition (everything shaping the unit grid).

    Field names mirror :class:`~repro.chaos.campaign.CampaignConfig`
    where the concepts coincide so the shared summarizer needs no
    adapter: ``name`` keys the artifact, ``describe()`` is embedded in
    it verbatim.
    """

    name: str
    families: Tuple[str, ...]
    n: int
    graph_seeds: Tuple[int, ...]
    flap_seeds: Tuple[int, ...]
    flap_rates: Tuple[float, ...]
    rounds: int = 6
    down_for: int = 1
    fallback_fraction: float = 2.0 / 3.0
    #: Injected repair bugs (test/demo sweeps only — the shipped
    #: campaigns must keep this empty and report zero violations).
    repair_bugs: Tuple[str, ...] = ()

    def __post_init__(self):
        unknown = set(self.families) - set(CHURN_FAMILIES)
        if unknown:
            raise ValueError(f"unknown churn families: {sorted(unknown)}")
        bad = set(self.repair_bugs) - KNOWN_REPAIR_BUGS
        if bad:
            raise ValueError(f"unknown repair bugs: {sorted(bad)}")

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "families": list(self.families),
            "n": self.n,
            "graph_seeds": list(self.graph_seeds),
            "flap_seeds": list(self.flap_seeds),
            "flap_rates": list(self.flap_rates),
            "rounds": self.rounds,
            "down_for": self.down_for,
            "fallback_fraction": self.fallback_fraction,
            "repair_bugs": list(self.repair_bugs),
        }


#: The named churn campaigns.  ``smoke`` is the CI grid: 3 families x 3
#: graph seeds x (1 clean control + 6 seeds x 2 rates) = 117 units —
#: over the hundred-unit floor, in well under a CI minute.  ``default``
#: widens seeds and rates for local sweeps.
CHURN_CAMPAIGNS: Dict[str, ChurnCampaignConfig] = {
    "smoke": ChurnCampaignConfig(
        name="churn-smoke",
        families=CHURN_FAMILIES,
        n=24,
        graph_seeds=(1, 2, 3),
        flap_seeds=(3, 7, 11, 18, 23, 31),
        flap_rates=(0.03, 0.06),
        rounds=6,
    ),
    "default": ChurnCampaignConfig(
        name="churn-default",
        families=CHURN_FAMILIES,
        n=36,
        graph_seeds=(1, 2, 3, 4),
        flap_seeds=(3, 7, 11, 18, 23, 31, 42),
        flap_rates=(0.02, 0.05, 0.1),
        rounds=8,
    ),
}


def churn_campaign_units(config: ChurnCampaignConfig) -> List[Dict[str, Any]]:
    """The deterministic unit grid: one clean control point per
    (family, graph seed), then every (flap seed, rate) combination."""
    units: List[Dict[str, Any]] = []
    for family in config.families:
        for graph_seed in config.graph_seeds:
            base = {
                "campaign": config.name,
                "kind": "churn",
                "family": family,
                "n": config.n,
                "graph_seed": graph_seed,
                "rounds": config.rounds,
                "down_for": config.down_for,
                "fallback_fraction": config.fallback_fraction,
            }
            if config.repair_bugs:
                base["repair_bugs"] = list(config.repair_bugs)
            units.append({**base, "seed": 0, "flap_rate": 0.0})
            for seed in config.flap_seeds:
                for rate in config.flap_rates:
                    units.append({**base, "seed": seed, "flap_rate": rate})
    return units


def churn_unit_updates(unit: Dict[str, Any]) -> List[List[Update]]:
    """The unit's seeded update batches (empty list for the clean point)."""
    if not unit["flap_rate"]:
        return []
    graph = churn_instance(unit["family"], unit["n"], unit["graph_seed"])
    return flap_updates(
        graph,
        seed=unit["seed"],
        rate=unit["flap_rate"],
        rounds=unit["rounds"],
        down_for=unit.get("down_for", 1),
    )


def _unit_pipeline(unit: Dict[str, Any], mode: str) -> DynamicPipeline:
    graph = churn_instance(unit["family"], unit["n"], unit["graph_seed"])
    return DynamicPipeline(
        graph,
        mode=mode,
        fallback_fraction=unit.get("fallback_fraction", 2.0 / 3.0),
        repair_bugs=frozenset(unit.get("repair_bugs", ())),
    )


def run_churn_unit(unit: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one grid point; the payload is a campaign-dialect row.

    ``scenario`` carries the graph family so the shared summarizer's
    per-scenario coverage buckets become per-family buckets; ``plan``
    describes the edge-flap coins for the violation listing; ``rounds``
    is the incremental pipeline's charged round total (the clean control
    point charges only the initial build, so ``overhead_vs_clean``
    measures churn-induced repair cost).
    """
    batches = churn_unit_updates(unit)
    inc = _unit_pipeline(unit, "incremental")
    violation: Optional[str] = None
    try:
        for batch in batches:
            inc.apply(batch)
    except UnsoundRepairError as exc:
        violation = f"unsound repair: {exc}"
    if violation is None and batches:
        ref = _unit_pipeline(unit, "recompute")
        for batch in batches:
            ref.apply(batch)
        if inc.state_fingerprint() != ref.state_fingerprint():
            violation = (
                "fingerprint divergence: incremental and full-recompute "
                "pipelines disagree on the same update sequence"
            )
    plan = None
    if unit["flap_rate"]:
        plan = {"seed": unit["seed"], "edge_flap_rate": unit["flap_rate"]}
    stats = inc.stats
    return {
        "ok": violation is None,
        "violation": violation,
        "scenario": unit["family"],
        "campaign": unit["campaign"],
        "n": unit["n"],
        "graph_seed": unit["graph_seed"],
        "plan": plan,
        "rounds": stats["rounds"],
        "updates": stats["updates_applied"],
        "fingerprint": inc.state_fingerprint() if violation is None else (
            f"violation:{unit['family']}:{unit['graph_seed']}:"
            f"{unit['seed']}:{unit['flap_rate']}"
        ),
        "counters": {
            "dynamic_updates_total": stats["updates_applied"],
            "dynamic_region_repairs_total": stats["region_repairs"],
            "dynamic_fallbacks_total": stats["fallbacks"],
            "dynamic_separator_recomputes_total": stats["separator_recomputes"],
            "dynamic_full_recomputes_total": stats["full_recomputes"],
        },
        "stats": dict(stats),
    }


def run_churn_campaign(config: ChurnCampaignConfig) -> Dict[str, Any]:
    """Run every churn unit in order and summarize.

    Returns the shared campaign artifact shape
    (:func:`repro.chaos.campaign.summarize_campaign`), so
    ``write_campaign`` / ``campaign_metrics`` apply verbatim.
    """
    started = time.perf_counter()
    rows = [run_churn_unit(unit) for unit in churn_campaign_units(config)]
    return summarize_campaign(config, rows, time.perf_counter() - started)


# ----------------------------------------------------------------------
# shrinking failing units to minimal update sequences
# ----------------------------------------------------------------------
@dataclass
class ChurnShrinkResult:
    """Outcome of one churn shrink: the minimal update sequence."""

    family: str
    n: int
    graph_seed: int
    seed: int
    flap_rate: float
    rounds: int
    repair_bugs: Tuple[str, ...]
    violation: str
    updates: List[Update] = field(default_factory=list)
    recorded_updates: int = 0
    tests_run: int = 0

    def describe(self) -> Dict[str, Any]:
        return {
            "family": self.family,
            "n": self.n,
            "graph_seed": self.graph_seed,
            "seed": self.seed,
            "flap_rate": self.flap_rate,
            "rounds": self.rounds,
            "repair_bugs": list(self.repair_bugs),
            "violation": self.violation,
            "updates": [[op, repr(u), repr(v)] for op, u, v in self.updates],
            "recorded_updates": self.recorded_updates,
            "tests_run": self.tests_run,
        }


def _replay_fails(
    unit: Dict[str, Any], updates: List[Update]
) -> Optional[str]:
    """Replay ``updates`` one per batch, leniently; the violation or None.

    Lenient single-update batches are the shrink dialect: a subset of a
    recorded sequence may contain deletes of absent edges or duplicate
    inserts, which simply skip, and per-update batches check the oracles
    at the earliest possible point, so the predicate is monotone-friendly
    for ddmin.
    """
    pipeline = _unit_pipeline(unit, "incremental")
    try:
        for update in updates:
            pipeline.apply([update], strict=False)
    except UnsoundRepairError as exc:
        return str(exc)
    return None


def shrink_churn_unit(unit: Dict[str, Any]) -> ChurnShrinkResult:
    """Shrink one failing churn unit to a 1-minimal update sequence.

    Raises ``ValueError`` when the unit's flat update sequence does not
    trip any oracle under the shrink replay dialect (nothing to shrink).
    The result is 1-minimal: dropping any single remaining update makes
    the replay pass.
    """
    from .shrink import ddmin  # same ddmin as fault-plan shrinking

    flat = [u for batch in churn_unit_updates(unit) for u in batch]
    if not flat:
        raise ValueError("unit has an empty update schedule; nothing to shrink")
    if _replay_fails(unit, flat) is None:
        raise ValueError(
            "unit does not fail under shrink replay; nothing to shrink"
        )

    tests = 0

    def fails(subset: List[Update]) -> bool:
        return _replay_fails(unit, subset) is not None

    minimal, tests = ddmin(list(flat), fails)
    violation = _replay_fails(unit, minimal)
    assert violation is not None
    return ChurnShrinkResult(
        family=unit["family"],
        n=unit["n"],
        graph_seed=unit["graph_seed"],
        seed=unit["seed"],
        flap_rate=unit["flap_rate"],
        rounds=unit["rounds"],
        repair_bugs=tuple(unit.get("repair_bugs", ())),
        violation=violation,
        updates=list(minimal),
        recorded_updates=len(flat),
        tests_run=tests + 2,
    )


def emit_churn_stanza(result: ChurnShrinkResult) -> str:
    """A ready-to-paste pytest regression stanza for a shrunk sequence."""
    maker = {
        "delaunay": f"generators.delaunay({result.n}, seed={result.graph_seed})",
        "grid": f"generators.grid({max(2, round(result.n ** 0.5))}, "
                f"{max(2, round(result.n ** 0.5))})",
        "triangulated_grid": (
            f"generators.triangulated_grid({max(2, round(result.n ** 0.5))}, "
            f"{max(2, round(result.n ** 0.5))})"
        ),
    }[result.family]
    bugs = (
        f"repair_bugs=frozenset({sorted(result.repair_bugs)!r})"
        if result.repair_bugs else "repair_bugs=frozenset()"
    )
    updates = ",\n        ".join(repr(u) for u in result.updates)
    slug = f"{result.family}_g{result.graph_seed}_s{result.seed}"
    return (
        f"def test_churn_regression_{slug}():\n"
        f'    """Shrunk churn reproducer ({len(result.updates)} update'
        f'{"" if len(result.updates) == 1 else "s"}).\n'
        f"\n"
        f"    Violation: {result.violation}\n"
        f'    """\n'
        f"    import pytest\n"
        f"    from repro.dynamic import DynamicPipeline, UnsoundRepairError\n"
        f"    from repro.planar import generators\n"
        f"\n"
        f"    pipeline = DynamicPipeline({maker}, {bugs})\n"
        f"    updates = [\n"
        f"        {updates},\n"
        f"    ]\n"
        f"    with pytest.raises(UnsoundRepairError):\n"
        f"        for update in updates:\n"
        f"            pipeline.apply([update], strict=False)\n"
    )
