"""Chaos campaigns: seeded fault-plan grids.

A campaign is a named grid — scenarios × fault seeds × (drop, duplicate,
corrupt) rates — expanded into JSON-serializable *units*, each of which
runs one scenario under one seeded :class:`~repro.congest.faults.FaultPlan`
via :func:`repro.chaos.scenarios.run_scenario`.  :func:`run_campaign`
runs the units in order in this process; a unit that raises (a harness
bug, not a finding — scenarios report oracle violations as rows) stops
the campaign with its traceback.

The campaign summary records coverage, every violation with its
deterministic fingerprint, and the worst observed round overhead of the
transport versus the clean baselines; :func:`campaign_metrics` mirrors it
as ``repro_chaos_*`` counters for the Prometheus exposition and the
``BENCH_SUMMARY.json`` metrics block (via ``summary_dict``'s
``extra_metrics`` — ignored by the ``--compare`` gate).
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..congest.faults import FaultPlan
from ..congest.transport import ReliableTransport
from ..obs import MetricsRegistry
from .scenarios import hardened_against, run_scenario

__all__ = [
    "CAMPAIGNS",
    "CampaignConfig",
    "campaign_metrics",
    "campaign_units",
    "run_campaign",
    "run_campaign_unit",
    "unit_plan",
    "write_campaign",
]

#: Campaign artifact schema (bump on breaking changes; see docs/CHAOS.md).
SCHEMA_VERSION = 2


@dataclass(frozen=True)
class CampaignConfig:
    """One sweep definition (everything that shapes the unit grid)."""

    name: str
    scenarios: Tuple[str, ...]
    n: int
    graph_seed: int
    fault_seeds: Tuple[int, ...]
    drop_rates: Tuple[float, ...]
    duplicate_rates: Tuple[float, ...]
    corrupt_rates: Tuple[float, ...]
    transport: bool = True
    #: Retransmission budget override (``None`` = transport default).  The
    #: default budget deliberately leaves the harshest grid corner exposed
    #: — see docs/CHAOS.md on the bounded-retry envelope.
    transport_retries: Optional[int] = None

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "scenarios": list(self.scenarios),
            "n": self.n,
            "graph_seed": self.graph_seed,
            "fault_seeds": list(self.fault_seeds),
            "drop_rates": list(self.drop_rates),
            "duplicate_rates": list(self.duplicate_rates),
            "corrupt_rates": list(self.corrupt_rates),
            "transport": self.transport,
            "transport_retries": self.transport_retries,
        }


#: The named campaigns.  ``smoke`` is the CI grid (fixed seeds, < 60 s);
#: ``default`` widens the fault space for local sweeps.
CAMPAIGNS: Dict[str, CampaignConfig] = {
    "smoke": CampaignConfig(
        name="smoke",
        scenarios=("broadcast", "convergecast", "dfs", "mst", "pipeline"),
        n=18,
        graph_seed=1,
        fault_seeds=(3, 11),
        drop_rates=(0.0, 0.12),
        duplicate_rates=(0.1,),
        corrupt_rates=(0.0, 0.08),
    ),
    "default": CampaignConfig(
        name="default",
        scenarios=(
            "broadcast",
            "convergecast",
            "dfs",
            "fragments",
            "partwise",
            "weights",
            "mst",
            "pipeline",
        ),
        n=30,
        graph_seed=1,
        fault_seeds=(3, 7, 11, 19),
        drop_rates=(0.0, 0.1, 0.2),
        duplicate_rates=(0.0, 0.15),
        corrupt_rates=(0.0, 0.1),
    ),
}


def campaign_units(config: CampaignConfig) -> List[Dict[str, Any]]:
    """The deterministic unit grid: one clean control point per scenario,
    then every non-trivial (seed, rates) combination the scenario is
    hardened against (see :data:`repro.chaos.scenarios.HARDENED`)."""
    units: List[Dict[str, Any]] = []
    for scenario in config.scenarios:
        kinds = hardened_against(scenario)
        base = {
            "campaign": config.name,
            "scenario": scenario,
            "n": config.n,
            "graph_seed": config.graph_seed,
            "transport": config.transport,
        }
        if config.transport_retries is not None:
            base["transport_retries"] = config.transport_retries
        units.append(
            {**base, "seed": 0, "drop_rate": 0.0,
             "duplicate_rate": 0.0, "corrupt_rate": 0.0}
        )
        for seed in config.fault_seeds:
            for drop in config.drop_rates:
                for dup in config.duplicate_rates:
                    for corrupt in config.corrupt_rates:
                        if not (drop or dup or corrupt):
                            continue
                        if (drop and "drop" not in kinds) or (
                            dup and "duplicate" not in kinds
                        ) or (corrupt and "corrupt" not in kinds):
                            continue
                        units.append(
                            {
                                **base,
                                "seed": seed,
                                "drop_rate": drop,
                                "duplicate_rate": dup,
                                "corrupt_rate": corrupt,
                            }
                        )
    return units


def unit_plan(unit: Dict[str, Any]) -> Optional[FaultPlan]:
    """The unit's fault plan (``None`` for the clean control point)."""
    if not (unit["drop_rate"] or unit["duplicate_rate"] or unit["corrupt_rate"]):
        return None
    return FaultPlan(
        seed=unit["seed"],
        drop_rate=unit["drop_rate"],
        duplicate_rate=unit["duplicate_rate"],
        corrupt_rate=unit["corrupt_rate"],
    )


def run_campaign_unit(unit: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one grid point; the payload is the scenario outcome dict."""
    transport = None
    if unit.get("transport", True):
        retries = unit.get("transport_retries")
        transport = (
            ReliableTransport() if retries is None
            else ReliableTransport(retries=retries)
        )
    return run_scenario(
        unit["scenario"],
        n=unit["n"],
        graph_seed=unit["graph_seed"],
        plan=unit_plan(unit),
        transport=transport,
    )


def run_campaign(config: CampaignConfig) -> Dict[str, Any]:
    """Run every unit in order and summarize."""
    started = time.perf_counter()
    rows = [run_campaign_unit(unit) for unit in campaign_units(config)]
    return summarize_campaign(config, rows, time.perf_counter() - started)


def summarize_campaign(
    config: CampaignConfig, rows: List[Dict[str, Any]], wall_s: float
) -> Dict[str, Any]:
    """The campaign artifact (one outcome row per unit): coverage,
    violations, worst overhead."""
    violations = [row for row in rows if not row.get("ok")]
    by_scenario: Dict[str, Dict[str, int]] = {}
    for row in rows:
        bucket = by_scenario.setdefault(
            row["scenario"], {"units": 0, "violations": 0}
        )
        bucket["units"] += 1
        if not row.get("ok"):
            bucket["violations"] += 1
    # Worst-case overhead: each faulted unit's rounds against its
    # scenario's clean control unit (the seed-0, all-rates-zero point).
    clean_rounds = {
        row["scenario"]: row["rounds"]
        for row in rows
        if row.get("plan") is None and row.get("rounds")
    }
    overheads = []
    for row in rows:
        baseline = clean_rounds.get(row["scenario"])
        if row.get("plan") is not None and row.get("rounds") and baseline:
            row["overhead_vs_clean"] = round(row["rounds"] / baseline, 3)
            overheads.append(row["overhead_vs_clean"])
    counters: Dict[str, int] = {}
    for row in rows:
        for name, value in row.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    return {
        "schema_version": SCHEMA_VERSION,
        "campaign": config.name,
        "config": config.describe(),
        "wall_s": round(wall_s, 6),
        "units": len(rows),
        "coverage": {
            "rows": len(rows),
            "violations": len(violations),
            "by_scenario": by_scenario,
        },
        "worst_overhead": max(overheads) if overheads else None,
        "counters": counters,
        "violations": [
            {
                "scenario": row["scenario"],
                "seed": (row.get("plan") or {}).get("seed"),
                "plan": row.get("plan"),
                "violation": row["violation"],
                "fingerprint": row["fingerprint"],
            }
            for row in violations
        ],
        "fingerprints": {row["fingerprint"]: row["scenario"] for row in rows},
        "rows": rows,
    }


def campaign_metrics(summary: Dict[str, Any]) -> MetricsRegistry:
    """``repro_chaos_*`` counters over one campaign summary."""
    reg = MetricsRegistry()
    units = reg.counter(
        "repro_chaos_units_total",
        "Chaos units by scenario and verdict",
        labels=("scenario", "verdict"),
    )
    violations = reg.counter(
        "repro_chaos_violations_total", "Oracle violations across the campaign"
    )
    retransmits = reg.counter(
        "repro_chaos_retransmits_total",
        "Transport retransmissions across all campaign units",
    )
    corruptions = reg.counter(
        "repro_chaos_corruptions_detected_total",
        "Checksum-detected corruptions across all campaign units",
    )
    overhead = reg.gauge(
        "repro_chaos_worst_overhead",
        "Worst faulted/clean round overhead observed",
    )
    for scenario, bucket in summary["coverage"]["by_scenario"].items():
        bad = bucket["violations"]
        if bucket["units"] - bad:
            units.inc(bucket["units"] - bad, scenario=scenario, verdict="ok")
        if bad:
            units.inc(bad, scenario=scenario, verdict="violation")
    if summary["coverage"]["violations"]:
        violations.inc(summary["coverage"]["violations"])
    counters = summary.get("counters", {})
    if counters.get("congest_retransmits_total"):
        retransmits.inc(counters["congest_retransmits_total"])
    if counters.get("congest_corruptions_detected_total"):
        corruptions.inc(counters["congest_corruptions_detected_total"])
    if summary.get("worst_overhead"):
        overhead.set(summary["worst_overhead"])
    return reg


def write_campaign(
    summary: Dict[str, Any], results_dir: "pathlib.Path | str"
) -> List[pathlib.Path]:
    """Write ``chaos_<name>.json`` plus the metrics exposition; returns
    the written paths."""
    results_dir = pathlib.Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    json_path = results_dir / f"chaos_{summary['campaign']}.json"
    json_path.write_text(json.dumps(summary, indent=2, default=str) + "\n")
    # The exposition is shared with the experiment runner: keep whatever
    # it wrote and replace only the repro_chaos_* families.
    prom_path = results_dir / "metrics.prom"
    kept = ""
    if prom_path.exists():
        kept = "".join(
            line
            for line in prom_path.read_text().splitlines(keepends=True)
            if "repro_chaos_" not in line
        )
        if kept and not kept.endswith("\n"):
            kept += "\n"
    prom_path.write_text(kept + campaign_metrics(summary).to_prometheus())
    return [json_path, prom_path]
