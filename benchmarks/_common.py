"""Shared helpers for the benchmark harness.

Every ``bench_e*.py`` regenerates one experiment of DESIGN.md §4 through
the unified runner (:mod:`repro.analysis.runner`): :func:`run_and_emit`
executes the experiment, persists the provenance-stamped ``.txt`` table
*and* the versioned ``e<N>.json`` artifact under ``benchmarks/results/``,
prints the table and returns the rows for the bench's shape assertions.
Run with::

    pytest benchmarks/ --benchmark-only

or execute any module directly (``python benchmarks/bench_e1_separator_rounds.py``)
to print its table without timing.  The artifact schema and regression
contract are documented in ``docs/BENCHMARKS.md``; every experiment at
once is ``python -m repro experiment all``.
"""

from __future__ import annotations

import pathlib
from typing import Dict, List

from repro.analysis import runner

BENCH_ROOT = pathlib.Path(__file__).parent
RESULTS_DIR = BENCH_ROOT / "results"

__all__ = ["RESULTS_DIR", "emit", "run_and_emit"]


def emit(name: str, rows: List[Dict], title: str) -> str:
    """Render, stamp, persist and print one table (for the extra
    trace/micro tables that are not registered experiments)."""
    text = runner.write_table(RESULTS_DIR / name, rows, title)
    print()
    print(text)
    return text


def run_and_emit(key: str, name: str, title: str, **overrides) -> List[Dict]:
    """Run one registered experiment through the runner and persist every
    output: the ``.txt`` table under ``name`` plus the ``e<N>.json``
    artifact.  Parameter ``overrides`` go to the experiment's registered
    signature (e.g. ``sizes=...``).  Returns the rows."""
    runs = runner.run_experiments(
        [key], overrides={key: overrides} if overrides else None
    )
    runner.write_artifacts(runs, RESULTS_DIR, json_only=True)
    run = runs[key]
    text = runner.write_table(RESULTS_DIR / name, run.rows, title)
    print()
    print(text)
    return run.rows
