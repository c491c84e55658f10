"""Experiment harness: workloads, registered runners E1–E15, the serial
runner with JSON artifacts, and table rendering.

Module map (the benchmark contract is documented in ``docs/BENCHMARKS.md``):

* :mod:`.workloads` — the instance suites every experiment draws from;
* :mod:`.experiments` — the E1–E15 runners (DESIGN.md §4), registered via
  :mod:`.registry`;
* :mod:`.registry` — the ``@experiment`` decorator and unit plans;
* :mod:`.runner` — timed execution, ``e*.json`` artifacts,
  ``BENCH_SUMMARY.json`` and the ``--compare`` regression gate;
* :mod:`.cache` — the content-addressed on-disk store (the serve
  engine's result cache);
* :mod:`.provenance` — git-SHA/timestamp stamps shared by all writers;
* :mod:`.tables` — plain-text table rendering;
* :mod:`.report` — EXPERIMENTS.md generation.
"""

from . import cache, experiments, registry, report, runner, workloads
from .tables import format_value, render_table

__all__ = [
    "cache",
    "experiments",
    "format_value",
    "registry",
    "render_table",
    "report",
    "runner",
    "workloads",
]
