"""The unified experiment runner (the benchmark contract's engine).

This module executes registered experiments (:mod:`.registry`) and turns
them into the machine-readable artifacts that ``docs/BENCHMARKS.md``
documents:

* **execution** — every unit of every requested experiment runs serially
  in this process, in plan order.  The algorithms are deterministic, so a
  unit that raises would raise again: the exception propagates with its
  traceback and the run stops (``repro experiment`` exits non-zero);
* **measurement** — every unit records wall time and the process's peak
  RSS (``ru_maxrss``, a high-water mark, so an upper bound on the unit's
  own footprint);
* **artifacts** — per-experiment ``e<N>.json`` files plus the
  ``BENCH_SUMMARY.json`` rollup, all stamped with the producing commit via
  :mod:`.provenance` and versioned with :data:`SCHEMA_VERSION`;
* **regression gate** — :func:`compare_summaries` diffs two summaries'
  round counts (integer fields matching :data:`ROUND_FIELD_RE`) under a
  configurable tolerance (default 0); the CLI turns a non-empty diff into
  a non-zero exit code.
"""

from __future__ import annotations

import json
import pathlib
import re
import resource
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from . import registry
from ..obs import MetricsRegistry
from .provenance import provenance, stamp_header
from .tables import render_table

__all__ = [
    "SCHEMA_VERSION",
    "ROUND_FIELD_RE",
    "ExperimentRun",
    "artifact_dict",
    "compare_summaries",
    "load_summary",
    "metrics_registry",
    "run_experiments",
    "summary_dict",
    "write_artifacts",
    "write_summary",
    "write_table",
]

#: Version of the JSON artifact schema (bump on breaking field changes and
#: document the migration in docs/BENCHMARKS.md).
SCHEMA_VERSION = 2

#: Integer row fields with these substrings in their name are "round
#: counts" for the regression gate (rounds, phases, iterations).
ROUND_FIELD_RE = re.compile(r"(rounds|phases|iterations)")


@dataclass
class ExperimentRun:
    """One executed experiment: rows plus per-unit timings."""

    key: str
    claim: str
    title: str
    params: Dict[str, Any]
    rows: List[Dict]
    unit_timings: List[Dict[str, Any]]
    wall_s: float


# -- execution --------------------------------------------------------------


def run_experiments(
    keys: Sequence[str],
    *,
    grid: str = "default",
    overrides: Optional[Dict[str, Dict[str, Any]]] = None,
) -> Dict[str, ExperimentRun]:
    """Run experiments and return ``{key: ExperimentRun}`` in key order.

    Parameters
    ----------
    keys:
        Experiment keys (``"e1"`` …); see :func:`registry.all_keys`.
    grid:
        ``"default"`` or ``"small"`` (the CI grid) — selects the
        registered parameter set before ``overrides`` are applied.
    overrides:
        Optional per-experiment parameter overrides,
        ``{"e1": {"sizes": (100,)}}``.

    Every experiment's parameters and unit plan are resolved before any
    unit runs, so a misspelled override fails before the work starts.
    A unit that raises propagates its exception.
    """
    specs = {key: registry.get(key) for key in keys}
    params = {
        key: registry.resolve_params(spec, (overrides or {}).get(key), grid)
        for key, spec in specs.items()
    }
    plans = {key: registry.plan_units(spec, params[key]) for key, spec in specs.items()}

    runs: Dict[str, ExperimentRun] = {}
    for key, spec in specs.items():
        started = time.perf_counter()
        payloads: List[Any] = []
        timings: List[Dict[str, Any]] = []
        for unit in plans[key]:
            unit_start = time.perf_counter()
            payloads.append(spec.run_unit_fn(unit))
            timings.append({
                "unit": registry.jsonable(unit),
                "wall_s": round(time.perf_counter() - unit_start, 6),
                "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            })
        runs[key] = ExperimentRun(
            key=key,
            claim=spec.claim,
            title=spec.title,
            params=registry.jsonable(params[key]),
            rows=spec.combine(payloads),
            unit_timings=timings,
            wall_s=round(time.perf_counter() - started, 6),
        )
    return runs


# -- artifacts --------------------------------------------------------------


def metrics_registry(runs: Dict[str, ExperimentRun]) -> MetricsRegistry:
    """A :class:`repro.obs.MetricsRegistry` over a finished run set.

    Exposes the runner's execution health in the same exposition format
    as the simulator metrics (``repro_*`` vs ``congest_*`` namespaces):
    unit counts by experiment, the unit wall-clock distribution,
    per-experiment wall-clock and the peak RSS.
    """
    reg = MetricsRegistry()
    units = reg.counter(
        "repro_units_total",
        "Experiment units executed",
        labels=("experiment",),
    )
    unit_wall = reg.histogram("repro_unit_wall_seconds", "Wall-clock per unit")
    exp_wall = reg.gauge(
        "repro_experiment_wall_seconds",
        "Total wall-clock per experiment",
        labels=("experiment",),
    )
    max_rss = reg.gauge(
        "repro_unit_max_rss_kb",
        "Peak ru_maxrss observed across unit executions (KB)",
    )
    for key, run in runs.items():
        exp_wall.set(run.wall_s, experiment=key)
        for t in run.unit_timings:
            units.inc(experiment=key)
            unit_wall.observe(t["wall_s"])
            max_rss.set_max(t["max_rss_kb"])
    return reg


def artifact_dict(run: ExperimentRun) -> Dict[str, Any]:
    """The per-experiment JSON artifact (schema in docs/BENCHMARKS.md)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "experiment": run.key,
        "claim_ref": run.claim,
        "title": run.title,
        "params": run.params,
        "rows": run.rows,
        "timings": {
            "total_wall_s": run.wall_s,
            "units_wall_s": round(sum(t["wall_s"] for t in run.unit_timings), 6),
            "units": run.unit_timings,
        },
        "trace_stats": {"units": len(run.unit_timings)},
        **provenance(),
    }


def write_table(path: "pathlib.Path | str", rows: List[Dict], title: str) -> str:
    """Render one provenance-stamped plain-text table and write it."""
    text = stamp_header("repro.analysis.runner") + render_table(rows, title)
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return text


def write_artifacts(
    runs: Dict[str, ExperimentRun],
    results_dir: "pathlib.Path | str",
    *,
    json_only: bool = False,
) -> List[pathlib.Path]:
    """Write ``e<N>.json`` (and, unless ``json_only``, ``e<N>.txt``) for
    every run, plus a ``metrics.prom`` Prometheus exposition of the
    runner metrics (:func:`metrics_registry`); returns the written paths."""
    results_dir = pathlib.Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    written: List[pathlib.Path] = []
    for key, run in runs.items():
        json_path = results_dir / f"{key}.json"
        json_path.write_text(json.dumps(artifact_dict(run), indent=2, default=str) + "\n")
        written.append(json_path)
        if not json_only:
            txt_path = results_dir / f"{key}.txt"
            write_table(txt_path, run.rows, run.title)
            written.append(txt_path)
    if runs:
        prom_path = results_dir / "metrics.prom"
        prom_path.write_text(metrics_registry(runs).to_prometheus())
        written.append(prom_path)
    return written


def summary_dict(
    runs: Dict[str, ExperimentRun],
    *,
    grid: str = "default",
    extra_metrics: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The ``BENCH_SUMMARY.json`` rollup: every experiment's rows and
    timing headline in one self-describing file (the ``--compare`` input).

    Carries a ``metrics`` mirror of :func:`metrics_registry`;
    ``extra_metrics`` (e.g. the ``repro_chaos_*`` counters from a campaign
    summary) is merged into that mirror.  The regression gate only reads
    ``experiments`` so both are inert for comparisons against older
    summaries.
    """
    metrics = metrics_registry(runs).to_dict()
    if extra_metrics:
        metrics.update(extra_metrics)
    return {
        "schema_version": SCHEMA_VERSION,
        "grid": grid,
        **provenance(),
        "metrics": metrics,
        "experiments": {
            key: {
                "claim_ref": run.claim,
                "title": run.title,
                "params": run.params,
                "rows": run.rows,
                "total_wall_s": run.wall_s,
                "units": len(run.unit_timings),
            }
            for key, run in runs.items()
        },
    }


def write_summary(
    path: "pathlib.Path | str",
    runs: Dict[str, ExperimentRun],
    *,
    grid: str = "default",
    extra_metrics: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Write the rollup and return it."""
    summary = summary_dict(runs, grid=grid, extra_metrics=extra_metrics)
    path = pathlib.Path(path)
    if path.parent != pathlib.Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(summary, indent=2, default=str) + "\n")
    return summary


def load_summary(path: "pathlib.Path | str") -> Dict[str, Any]:
    """Load a summary (or per-experiment artifact) JSON file."""
    with open(path) as fh:
        return json.load(fh)


# -- the regression gate ----------------------------------------------------


def _round_fields(row: Dict[str, Any]) -> Dict[str, int]:
    return {
        name: value
        for name, value in row.items()
        if isinstance(value, int)
        and not isinstance(value, bool)
        and ROUND_FIELD_RE.search(name)
    }


def compare_summaries(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    *,
    tolerance: int = 0,
) -> List[str]:
    """Diff two summaries' round counts; returns human-readable problems.

    The contract (docs/BENCHMARKS.md, "Regression gate"): every experiment
    present in the baseline must be present in the current summary with
    the same number of rows, and every *integer* field whose name contains
    ``rounds``/``phases``/``iterations`` must match the baseline value
    within ``tolerance`` (absolute rounds; default 0 — the algorithms are
    deterministic, so any drift is a behavior change).  Non-round fields
    and extra experiments in the current summary are not regressions.
    Only ``experiments[*].rows`` is read, so schema-1 and schema-2
    summaries compare alike.
    """
    problems: List[str] = []
    base_experiments = baseline.get("experiments", {})
    cur_experiments = current.get("experiments", {})
    for key in sorted(base_experiments, key=lambda k: (len(k), k)):
        base = base_experiments[key]
        cur = cur_experiments.get(key)
        if cur is None:
            problems.append(f"{key}: missing from current results")
            continue
        base_rows, cur_rows = base.get("rows", []), cur.get("rows", [])
        if len(base_rows) != len(cur_rows):
            problems.append(
                f"{key}: row count changed ({len(base_rows)} -> {len(cur_rows)})"
            )
            continue
        for i, (brow, crow) in enumerate(zip(base_rows, cur_rows)):
            for name, bval in _round_fields(brow).items():
                cval = crow.get(name)
                if not isinstance(cval, int) or isinstance(cval, bool):
                    problems.append(f"{key} row {i}: {name} missing or non-integer (was {bval})")
                    continue
                if abs(cval - bval) > tolerance:
                    problems.append(
                        f"{key} row {i}: {name} {bval} -> {cval} "
                        f"(|delta| {abs(cval - bval)} > tolerance {tolerance})"
                    )
    return problems
