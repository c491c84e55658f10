"""Command-line interface: ``python -m repro <command> ...``.

Six commands, mirroring the library's public entry points:

* ``separator`` — Theorem 1 on one generated instance, with balance report
  and round ledger;
* ``dfs`` — Theorem 2, with verification, phase stats and the Awerbuch
  comparison;
* ``hierarchy`` — the recursive separator decomposition;
* ``experiment`` — run any of the DESIGN.md §4 experiments (``e1`` …
  ``e14``, or ``all``) through the unified runner
  (:mod:`repro.analysis.runner`): parallel unit fan-out (``--parallel N``),
  on-disk instance/unit caching (``--no-cache`` to bypass), JSON artifacts
  (``benchmarks/results/e*.json`` + ``BENCH_SUMMARY.json``; ``--json-only``
  to skip tables), the quick CI grid (``--grid small``), the regression
  gate (``--compare BASELINE.json``, non-zero exit on round-count drift)
  and EXPERIMENTS.md regeneration (``all --write``).  The full contract is
  documented in ``docs/BENCHMARKS.md``;
* ``trace`` — the observability toolbox (``docs/OBSERVABILITY.md``):
  ``record`` runs a traced E2-style workload and writes a span-annotated
  JSONL dump (plus an optional Prometheus ``--metrics`` exposition);
  ``summarize`` / ``phases`` / ``edges`` analyze a dump offline;
  ``diff`` compares two dumps phase by phase;
* ``chaos`` — seeded chaos campaigns (``docs/CHAOS.md``): ``run`` sweeps
  a named fault-plan grid against the oracle-checked scenarios and
  writes a campaign JSON artifact (``--fail-on-violation`` for CI);
  ``shrink`` reduces one failing grid point to a minimal explicit fault
  plan and prints a ready-to-paste regression test; ``report``
  pretty-prints a campaign artifact.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Callable, Dict

import networkx as nx

from .analysis import render_table
from .congest import CostModel, RoundLedger, awerbuch_dfs_run
from .core.config import PlanarConfiguration
from .core.dfs import dfs_tree
from .core.separator import cycle_separator
from .core.verify import check_dfs_tree, separator_report
from .planar import generators as gen
from .shortcuts import build_shortcuts
from .trees import bfs_tree, dfs_spanning_tree

__all__ = ["main"]

FAMILY_MAKERS: Dict[str, Callable[[int, int], nx.Graph]] = {
    "grid": lambda n, seed: gen.grid(max(2, round(n**0.5)), max(2, round(n**0.5))),
    "tri-grid": lambda n, seed: gen.triangulated_grid(
        max(2, round(n**0.5)), max(2, round(n**0.5))
    ),
    "delaunay": lambda n, seed: gen.delaunay(n, seed=seed),
    "random-planar": lambda n, seed: gen.random_planar(n, density=0.5, seed=seed),
    "outerplanar": lambda n, seed: gen.outerplanar(n, chords=n // 3, seed=seed),
    "apollonian": lambda n, seed: gen.apollonian(max(2, (n - 2).bit_length()), seed=seed),
    "cylinder": lambda n, seed: gen.cylinder(4, max(3, n // 4)),
    "tree": lambda n, seed: gen.random_tree(n, seed=seed),
}


def _make_graph(args) -> nx.Graph:
    try:
        maker = FAMILY_MAKERS[args.family]
    except KeyError:
        raise SystemExit(
            f"unknown family {args.family!r}; choose from {sorted(FAMILY_MAKERS)}"
        )
    return maker(args.n, args.seed)


def _make_ledger(graph: nx.Graph) -> RoundLedger:
    diameter = nx.diameter(graph)
    shortcut = build_shortcuts(graph, [sorted(graph.nodes)])
    return RoundLedger(CostModel(len(graph), diameter, shortcut.quality))


def _cmd_separator(args) -> int:
    graph = _make_graph(args)
    root = args.root % len(graph)
    tree = (dfs_spanning_tree if args.tree == "dfs" else bfs_tree)(graph, root)
    cfg = PlanarConfiguration.build(graph, root=root, tree=tree)
    ledger = _make_ledger(graph)
    result = cycle_separator(cfg, ledger=ledger)
    report = separator_report(graph, result.path)
    print(f"instance: {args.family} n={len(graph)} m={graph.number_of_edges()} root={root}")
    print(f"separator: {report.separator_size} nodes via {result.phase}"
          + (f" ({result.rule})" if result.rule else ""))
    print(f"components after removal: {report.components[:6]}"
          + (" ..." if len(report.components) > 6 else ""))
    print(f"max component fraction: {report.max_fraction:.3f} (bound 0.667)")
    print(f"charged rounds: {ledger.total_rounds} "
          f"(normalized {ledger.normalized():.2f})")
    return 0 if report.balanced else 1


def _cmd_dfs(args) -> int:
    graph = _make_graph(args)
    root = args.root % len(graph)
    ledger = _make_ledger(graph)
    result = dfs_tree(graph, root, ledger=ledger)
    check_dfs_tree(graph, result.parent, root)
    print(f"instance: {args.family} n={len(graph)} m={graph.number_of_edges()} root={root}")
    print(f"DFS tree verified; height {result.to_tree().height()}")
    print(f"phases: {result.phases}; separator phases: {result.separator_phases}")
    print(f"charged rounds: {ledger.total_rounds} "
          f"(normalized {ledger.normalized():.2f})")
    if args.awerbuch:
        baseline = awerbuch_dfs_run(graph, root)
        print(f"Awerbuch baseline (measured): {baseline.rounds} rounds, "
              f"{baseline.messages_sent} messages")
    return 0


def _cmd_hierarchy(args) -> int:
    from .applications import build_hierarchy

    graph = _make_graph(args)
    hierarchy = build_hierarchy(graph)
    print(f"instance: {args.family} n={len(graph)}")
    print(f"hierarchy depth: {hierarchy.depth}")
    for level, count in sorted(hierarchy.level_sizes().items()):
        print(f"  level {level}: {count} separator nodes")
    order = hierarchy.elimination_order()
    print(f"elimination order covers {len(order)} nodes")
    return 0


def _cmd_experiment(args) -> int:
    from .analysis import registry, runner
    from .analysis.cache import InstanceCache

    name = args.id.lower()
    known = registry.all_keys()
    if name != "all" and name not in known:
        raise SystemExit(f"unknown experiment {args.id!r}; choose from {known} or 'all'")
    keys = known if name == "all" else [name]

    # Artifacts land in benchmarks/results (when run from the repo root)
    # or wherever --results-dir points; a single experiment without an
    # explicit destination stays print-only, as before.
    results_dir = args.results_dir
    if results_dir is None and (name == "all" or args.json_only):
        if pathlib.Path("benchmarks").is_dir():
            results_dir = "benchmarks/results"
        elif args.json_only:
            raise SystemExit("--json-only needs benchmarks/ in the cwd or --results-dir")

    cache = None
    if not args.no_cache:
        cache_dir = args.cache_dir
        if cache_dir is None and pathlib.Path("benchmarks").is_dir():
            cache_dir = "benchmarks/.cache"
        if cache_dir is not None:
            cache = InstanceCache(cache_dir)

    runs = runner.run_experiments(
        keys,
        parallel=args.parallel,
        grid=args.grid,
        cache=cache,
        unit_timeout=args.unit_timeout,
        retries=args.retries,
    )
    partial = sorted(key for key, run in runs.items() if run.status != "ok")
    if partial:
        print(
            f"WARNING: {len(partial)} experiment(s) did not finish cleanly "
            f"({', '.join(partial)}); artifacts are annotated as partial"
        )

    if not args.json_only:
        for key in keys:
            spec = registry.get(key)
            print(render_table(runs[key].rows, spec.title))
    if results_dir is not None:
        written = runner.write_artifacts(runs, results_dir, json_only=args.json_only)
        print(f"wrote {len(written)} artifact(s) under {results_dir}")

    summary = None
    if name == "all" or args.summary is not None:
        summary_path = args.summary or "BENCH_SUMMARY.json"
        summary = runner.write_summary(summary_path, runs, grid=args.grid)
        print(f"wrote {summary_path}")
    else:
        summary = runner.summary_dict(runs, grid=args.grid)

    if getattr(args, "write", False):
        from .analysis.report import write_experiments_md

        tables = {
            key: render_table(runs[key].rows, registry.get(key).title) for key in keys
        }
        text = write_experiments_md(tables=tables)
        print(f"EXPERIMENTS.md regenerated ({len(text)} characters)")

    if args.compare is not None:
        baseline = runner.load_summary(args.compare)
        if name != "all":
            # One experiment is gated against its own rows of the baseline.
            baseline["experiments"] = {
                key: exp for key, exp in baseline.get("experiments", {}).items()
                if key in keys
            }
        problems = runner.compare_summaries(summary, baseline, tolerance=args.tolerance)
        if problems:
            print(f"REGRESSION vs {args.compare} ({len(problems)} problem(s)):")
            for problem in problems:
                print(f"  - {problem}")
            return 1
        print(f"compare vs {args.compare}: OK (tolerance {args.tolerance})")
    return 0


def _cmd_trace_record(args) -> int:
    from .congest import RoundTrace
    from .congest.algorithms import bfs_run
    from .congest.awerbuch import awerbuch_dfs_run
    from .obs import MetricsRegistry, Tracer

    graph = _make_graph(args)
    root = args.root % len(graph)
    root = list(graph.nodes)[root] if root not in graph else root
    trace = RoundTrace()
    tracer = Tracer()
    tracer.attach(trace)
    metrics = MetricsRegistry()
    # The E2 shape: build the BFS tree, then run the Awerbuch DFS baseline
    # — each primitive opens its own child span under the workload root.
    with tracer.span("e2", family=args.family, n=len(graph)):
        bfs_run(graph, root, trace=trace, metrics=metrics)
        awerbuch_dfs_run(graph, root, trace=trace, metrics=metrics)
    lines = trace.dump_jsonl(
        args.out,
        top_edges=args.top_edges,
        full_edge_histograms=args.full_edge_histograms,
    )
    print(f"wrote {args.out}: {lines} records, {len(tracer.spans)} spans, "
          f"{len(trace.records)} rounds, {trace.total_messages} messages")
    if args.metrics is not None:
        with open(args.metrics, "w") as fh:
            fh.write(metrics.to_prometheus())
        print(f"wrote {args.metrics}: {len(metrics)} metrics")
    return 0


def _cmd_trace_analyze(args) -> int:
    from .obs import analyze

    doc = analyze.load_dump(args.dump)
    if args.trace_command == "summarize":
        print(analyze.render_summary(doc))
    elif args.trace_command == "phases":
        print(analyze.render_phases(doc))
    elif args.trace_command == "edges":
        print(analyze.render_edges(doc, k=args.top))
    return 0


def _cmd_trace_diff(args) -> int:
    from .obs import analyze

    doc_a = analyze.load_dump(args.dump)
    doc_b = analyze.load_dump(args.other)
    print(analyze.render_diff(doc_a, doc_b))
    return 0


def _cmd_trace_serve(args) -> int:
    from .obs import events as serve_events

    doc = serve_events.load_events(args.dump)
    cmd = args.trace_serve_command
    if cmd == "summarize":
        print(serve_events.render_serve_summary(doc))
    elif cmd == "critical-path":
        print(serve_events.render_critical_path(doc))
    elif cmd == "timeline":
        print(serve_events.render_timeline(doc, trace=args.trace,
                                           limit=args.limit))
    elif cmd == "slow":
        print(serve_events.render_slow(doc, k=args.top))
    if cmd in ("summarize", "critical-path"):
        # The verifying views double as the CI gate: any request whose
        # phases fail to attribute its wall time, or any span left open,
        # is a contract violation.
        report = doc["report"]
        if report["complete"] != report["requests"] or report["orphan_spans"]:
            print("FAIL: incomplete attribution or orphan spans",
                  file=sys.stderr)
            return 1
    return 0


def _campaign_cache(args):
    from .analysis.cache import InstanceCache

    if args.no_cache:
        return None
    cache_dir = args.cache_dir
    if cache_dir is None and pathlib.Path("benchmarks").is_dir():
        cache_dir = "benchmarks/.cache"
    return InstanceCache(cache_dir) if cache_dir is not None else None


def _render_campaign(summary) -> str:
    cov = summary["coverage"]
    lines = [
        f"campaign {summary['campaign']!r}: {cov['rows']} row(s), "
        f"{cov['violations']} violation(s), "
        f"{summary['units_cached']}/{summary['units']} cached, "
        f"{summary['units_failed']} unit failure(s), "
        f"wall {summary['wall_s']:.1f}s",
    ]
    if summary.get("worst_overhead"):
        lines.append(
            f"worst faulted/clean round overhead: {summary['worst_overhead']}"
        )
    width = max(len(s) for s in cov["by_scenario"]) if cov["by_scenario"] else 8
    for scenario in sorted(cov["by_scenario"]):
        bucket = cov["by_scenario"][scenario]
        verdict = (
            "ok" if not bucket["violations"]
            else f"{bucket['violations']} VIOLATION(S)"
        )
        lines.append(f"  {scenario:<{width}}  {bucket['units']:>3} unit(s)  {verdict}")
    for violation in summary["violations"]:
        plan = violation.get("plan") or {}
        rates = ", ".join(
            f"{k}={plan[k]}"
            for k in ("drop_rate", "duplicate_rate", "corrupt_rate")
            if plan.get(k)
        )
        lines.append(
            f"  VIOLATION {violation['scenario']} seed={violation['seed']} "
            f"({rates}): {violation['violation']}"
        )
    return "\n".join(lines)


def _cmd_chaos_run(args) -> int:
    import dataclasses

    from .chaos import campaign as chaos

    config = chaos.CAMPAIGNS.get(args.campaign)
    if config is None:
        raise SystemExit(
            f"unknown campaign {args.campaign!r}; "
            f"choose from {sorted(chaos.CAMPAIGNS)}"
        )
    if args.transport_retries is not None:
        config = dataclasses.replace(
            config, transport_retries=args.transport_retries
        )
    summary = chaos.run_campaign(
        config, cache=_campaign_cache(args), retries=args.retries
    )
    print(_render_campaign(summary))
    results_dir = args.results_dir
    if results_dir is None and pathlib.Path("benchmarks").is_dir():
        results_dir = "benchmarks/results"
    if results_dir is not None:
        written = chaos.write_campaign(summary, results_dir)
        print(f"wrote {len(written)} artifact(s) under {results_dir}")
    bad = summary["coverage"]["violations"] + summary["units_failed"]
    if args.fail_on_violation and bad:
        print(f"FAIL: {bad} violation(s)/unit failure(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_chaos_churn(args) -> int:
    from .chaos import churn

    config = churn.CHURN_CAMPAIGNS.get(args.campaign)
    if config is None:
        raise SystemExit(
            f"unknown churn campaign {args.campaign!r}; "
            f"choose from {sorted(churn.CHURN_CAMPAIGNS)}"
        )
    summary = churn.run_churn_campaign(
        config, cache=_campaign_cache(args), retries=args.retries
    )
    print(_render_campaign(summary))
    results_dir = args.results_dir
    if results_dir is None and pathlib.Path("benchmarks").is_dir():
        results_dir = "benchmarks/results"
    if results_dir is not None:
        from .chaos.campaign import write_campaign

        written = write_campaign(summary, results_dir)
        print(f"wrote {len(written)} artifact(s) under {results_dir}")
    bad = summary["coverage"]["violations"] + summary["units_failed"]
    if args.fail_on_violation and bad:
        print(f"FAIL: {bad} violation(s)/unit failure(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_chaos_shrink_churn(args) -> int:
    from .chaos.churn import emit_churn_stanza, shrink_churn_unit

    unit = {
        "campaign": "cli",
        "kind": "churn",
        "family": args.family,
        "n": args.n,
        "graph_seed": args.graph_seed,
        "seed": args.seed,
        "flap_rate": args.flap_rate,
        "rounds": args.rounds,
        "down_for": args.down_for,
        "fallback_fraction": 2.0 / 3.0,
        "repair_bugs": args.repair_bug or [],
    }
    try:
        result = shrink_churn_unit(unit)
    except (KeyError, ValueError) as exc:
        print(f"shrink failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"shrunk {result.recorded_updates} recorded update(s) to "
        f"{len(result.updates)} in {result.tests_run} test run(s); "
        f"violation: {result.violation}"
    )
    print()
    print(emit_churn_stanza(result))
    if args.max_entries is not None and len(result.updates) > args.max_entries:
        print(
            f"FAIL: minimal sequence has {len(result.updates)} updates "
            f"(> --max-entries {args.max_entries})",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_chaos_shrink(args) -> int:
    from .chaos.shrink import emit_stanza, shrink_unit

    unit = {
        "scenario": args.scenario,
        "n": args.n,
        "graph_seed": args.graph_seed,
        "seed": args.seed,
        "drop_rate": args.drop_rate,
        "duplicate_rate": args.duplicate_rate,
        "corrupt_rate": args.corrupt_rate,
        "transport": not args.no_transport,
    }
    try:
        result = shrink_unit(unit)
    except (KeyError, ValueError) as exc:
        print(f"shrink failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"shrunk {result.recorded_entries} recorded fault(s) to "
        f"{len(result.entries)} in {result.tests_run} test run(s); "
        f"violation: {result.violation}"
    )
    print()
    print(emit_stanza(result))
    if args.max_entries is not None and len(result.entries) > args.max_entries:
        print(
            f"FAIL: minimal plan has {len(result.entries)} entries "
            f"(> --max-entries {args.max_entries})",
            file=sys.stderr,
        )
        return 1
    return 0


def _serve_config(args) -> "ServeConfig":
    from .serve import ServeConfig

    cache_dir = None if args.no_cache else args.cache_dir
    if cache_dir is None and not args.no_cache and pathlib.Path("benchmarks").is_dir():
        cache_dir = "benchmarks/.cache"
    return ServeConfig(
        workers=args.workers,
        max_inflight=args.max_inflight,
        deadline_s=args.deadline,
        job_retries=args.job_retries,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        cache_dir=cache_dir,
        trace_requests=getattr(args, "trace_requests", False),
    )


def _cmd_serve(args) -> int:
    import asyncio

    from .serve import run_server

    if args.trace_events and not args.trace_requests:
        raise SystemExit("--trace-events needs --trace-requests")
    asyncio.run(
        run_server(
            _serve_config(args),
            host=args.host,
            port=args.port,
            metrics_path=args.metrics,
            events_path=args.trace_events,
        )
    )
    return 0


def _cmd_loadgen(args) -> int:
    import asyncio

    from .serve import (
        EngineTarget,
        HttpTarget,
        LoadgenConfig,
        ServeEngine,
        run_loadgen,
        write_bench,
    )

    if args.trace_events and not args.self_contained:
        raise SystemExit(
            "--trace-events is --self-contained only; a live server owns "
            "its own serve-events file (repro serve --trace-events)"
        )
    config = LoadgenConfig(
        seed=args.seed,
        duration_s=args.duration,
        total_requests=args.requests,
        concurrency=args.concurrency,
        rate=args.rate,
        zipf_s=args.zipf,
        catalog_size=args.catalog,
        deadline_s=args.deadline,
        trace=args.trace,
    )

    async def drive() -> dict:
        if args.self_contained:
            serve_config = _serve_config(args)
            if args.trace or args.trace_events:
                serve_config.trace_requests = True
            engine = ServeEngine(serve_config)
            try:
                return await run_loadgen(config, EngineTarget(engine))
            finally:
                await engine.drain()
                if args.trace_events:
                    lines = engine.flush_events(args.trace_events)
                    print(f"wrote {args.trace_events}: {lines} "
                          f"serve-events line(s)")
        host, _, port = args.url.rpartition("//")[2].partition(":")
        return await run_loadgen(config, HttpTarget(host, int(port or "8750")))

    bench = asyncio.run(drive())
    results_dir = args.results_dir
    if results_dir is None and pathlib.Path("benchmarks").is_dir():
        results_dir = "benchmarks/results"
    written = write_bench(bench, args.out, results_dir=results_dir)
    print(
        f"{bench['mode']}-loop: {bench['requests']} request(s) in "
        f"{bench['wall_s']:.2f}s ({bench['throughput_rps']:.1f} rps)"
    )
    print(
        "accepted latency p50/p90/p99: "
        f"{bench['latency_s']['p50'] * 1000:.1f} / "
        f"{bench['latency_s']['p90'] * 1000:.1f} / "
        f"{bench['latency_s']['p99'] * 1000:.1f} ms; "
        f"cache-hit rate {bench['cache_hit_rate']:.0%}"
    )
    statuses = ", ".join(
        f"{k}={v}" for k, v in sorted(bench["status_counts"].items())
    )
    server = bench["server"]
    print(f"statuses: {statuses}")
    print(
        f"server: shed={server['shed']:.0f} retries={server['retries']:.0f} "
        f"restarts={server['worker_restarts']:.0f} "
        f"breaker-opens={server['breaker_opens']:.0f}"
    )
    print(f"wrote {', '.join(str(p) for p in written)}")
    return 0


def _cmd_chaos_serve(args) -> int:
    import json

    from .chaos.serve_chaos import serve_campaign, verify_determinism

    if args.verify_determinism:
        record = verify_determinism(args.seed, requests=args.requests)
    else:
        record = serve_campaign(args.seed, requests=args.requests)
    histogram = ", ".join(
        f"{k}={v}" for k, v in sorted(record["histogram"].items())
    )
    print(
        f"serve campaign seed={record['seed']}: {record['requests']} "
        f"request(s), fingerprint {record['fingerprint']}"
    )
    print(f"outcomes: {histogram}")
    print(
        f"terminal: {record['all_terminal']}; oracles checked on "
        f"{record['oracle_checked']} response(s), "
        f"{len(record['violations'])} violation(s); "
        f"orphans: {len(record['orphan_pids'])}"
    )
    if "deterministic" in record:
        print(f"deterministic across two runs: {record['deterministic']}")
    if args.json is not None:
        pathlib.Path(args.json).write_text(
            json.dumps(record, indent=2, default=str) + "\n"
        )
        print(f"wrote {args.json}")
    if not record["ok"]:
        print("FAIL: serve chaos contract violated", file=sys.stderr)
        return 1
    return 0


def _cmd_chaos_report(args) -> int:
    import json

    summary = json.loads(pathlib.Path(args.path).read_text())
    print(_render_campaign(summary))
    config = summary.get("config", {})
    grid = ", ".join(
        f"{k}={config[k]}"
        for k in (
            "n", "graph_seed", "fault_seeds",
            "drop_rates", "duplicate_rates", "corrupt_rates",
        )
        if k in config
    )
    if grid:
        print(f"grid: {grid}")
    counters = summary.get("counters", {})
    for name in sorted(counters):
        print(f"  {name} = {counters[name]}")
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Deterministic distributed DFS via cycle separators (PODC 2025) — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_args(p):
        p.add_argument("--family", default="delaunay", help=f"one of {sorted(FAMILY_MAKERS)}")
        p.add_argument("--n", type=int, default=100, help="approximate node count")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--root", type=int, default=0)

    p_sep = sub.add_parser("separator", help="run Theorem 1 on one instance")
    add_instance_args(p_sep)
    p_sep.add_argument("--tree", choices=["bfs", "dfs"], default="bfs",
                       help="spanning-tree flavor")
    p_sep.set_defaults(func=_cmd_separator)

    p_dfs = sub.add_parser("dfs", help="run Theorem 2 on one instance")
    add_instance_args(p_dfs)
    p_dfs.add_argument("--awerbuch", action="store_true",
                       help="also measure the Awerbuch baseline")
    p_dfs.set_defaults(func=_cmd_dfs)

    p_h = sub.add_parser("hierarchy", help="recursive separator decomposition")
    add_instance_args(p_h)
    p_h.set_defaults(func=_cmd_hierarchy)

    p_e = sub.add_parser(
        "experiment",
        help="run experiments through the runner (tables + JSON artifacts)",
        description="Run DESIGN.md §4 experiments via repro.analysis.runner. "
        "See docs/BENCHMARKS.md for the artifact schema, cache semantics and "
        "the --compare regression contract.",
    )
    p_e.add_argument("id", help="e1 .. e14, or 'all'")
    p_e.add_argument("--parallel", type=int, default=0, metavar="N",
                     help="fan units out over N worker processes (0/1 = serial)")
    p_e.add_argument("--grid", choices=["default", "small"], default="default",
                     help="parameter grid; 'small' is the quick CI grid")
    p_e.add_argument("--no-cache", action="store_true",
                     help="bypass the on-disk instance/unit cache")
    p_e.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="cache location (default benchmarks/.cache when present)")
    p_e.add_argument("--unit-timeout", type=float, default=None, metavar="SECONDS",
                     dest="unit_timeout",
                     help="wall-clock budget per unit; overruns are recorded "
                     "as 'timeout' instead of hanging the run (forces pool "
                     "mode)")
    p_e.add_argument("--retries", type=int, default=1, metavar="N",
                     help="extra attempts for a unit that raises or whose "
                     "worker dies (default 1)")
    p_e.add_argument("--json-only", action="store_true",
                     help="write only JSON artifacts; no tables on stdout or disk")
    p_e.add_argument("--results-dir", default=None, metavar="DIR",
                     help="artifact destination (default benchmarks/results for 'all')")
    p_e.add_argument("--summary", default=None, metavar="PATH",
                     help="rollup path (default BENCH_SUMMARY.json for 'all')")
    p_e.add_argument("--compare", default=None, metavar="BASELINE.json",
                     help="diff round counts against a baseline summary; "
                     "non-zero exit on drift")
    p_e.add_argument("--tolerance", type=int, default=0, metavar="ROUNDS",
                     help="allowed absolute round-count drift for --compare (default 0)")
    p_e.add_argument("--write", action="store_true",
                     help="with 'all': regenerate EXPERIMENTS.md")
    p_e.set_defaults(func=_cmd_experiment)

    p_t = sub.add_parser(
        "trace",
        help="record and analyze span-annotated trace dumps",
        description="Observability toolbox over RoundTrace JSONL dumps; "
        "see docs/OBSERVABILITY.md for the span model and dump schema.",
    )
    t_sub = p_t.add_subparsers(dest="trace_command", required=True)

    t_rec = t_sub.add_parser(
        "record", help="run a traced E2-style workload and dump it")
    add_instance_args(t_rec)
    t_rec.add_argument("--out", default="e2_trace.jsonl", metavar="PATH",
                       help="dump destination (default e2_trace.jsonl)")
    t_rec.add_argument("--metrics", default=None, metavar="PATH",
                       help="also write a Prometheus text exposition here")
    t_rec.add_argument("--top-edges", type=int, default=16, dest="top_edges",
                       help="edge records to serialize (default 16)")
    t_rec.add_argument("--full-edge-histograms", action="store_true",
                       dest="full_edge_histograms",
                       help="serialize every edge's full word histogram")
    t_rec.set_defaults(func=_cmd_trace_record)

    for name, blurb in (
        ("summarize", "aggregate view of one dump"),
        ("phases", "per-span phase breakdown as a tree"),
        ("edges", "top-k bandwidth edges"),
    ):
        t_p = t_sub.add_parser(name, help=blurb)
        t_p.add_argument("dump", help="trace JSONL dump")
        if name == "edges":
            t_p.add_argument("--top", type=int, default=10,
                             help="edges to show (default 10)")
        t_p.set_defaults(func=_cmd_trace_analyze)

    t_d = t_sub.add_parser("diff", help="compare two dumps phase by phase")
    t_d.add_argument("dump", help="trace A (baseline)")
    t_d.add_argument("other", help="trace B (candidate)")
    t_d.set_defaults(func=_cmd_trace_diff)

    t_srv = t_sub.add_parser(
        "serve",
        help="analyze a serve-events request-trace JSONL",
        description="Reconstruct request lifecycles from a serve-events dump "
        "(written by 'repro serve --trace-requests --trace-events PATH'): "
        "timelines, the critical path at p50/p99, the slowest requests. "
        "summarize and critical-path also verify attribution completeness "
        "the same way 'repro trace phases' verifies round attribution, and "
        "exit non-zero on a violation (the CI gate).",
    )
    ts_sub = t_srv.add_subparsers(dest="trace_serve_command", required=True)
    for name, blurb in (
        ("summarize", "aggregate view + attribution/orphan verdict"),
        ("timeline", "per-request span timelines (worker subtrees included)"),
        ("critical-path", "which phase dominates p50/p99 latency"),
        ("slow", "slowest requests with their phase breakdown"),
    ):
        ts_p = ts_sub.add_parser(name, help=blurb)
        ts_p.add_argument("dump", help="serve-events JSONL")
        if name == "timeline":
            ts_p.add_argument("--trace", default=None, metavar="ID",
                              help="show one request by trace id")
            ts_p.add_argument("--limit", type=int, default=5,
                              help="requests to render (default 5)")
        if name == "slow":
            ts_p.add_argument("--top", type=int, default=5,
                              help="requests to show (default 5)")
        ts_p.set_defaults(func=_cmd_trace_serve)

    p_c = sub.add_parser(
        "chaos",
        help="seeded chaos campaigns with oracle checks and plan shrinking",
        description="Sweep seeded fault-plan grids against oracle-checked "
        "scenarios, shrink failures to minimal reproducers; see "
        "docs/CHAOS.md for the campaign model and artifact schema.",
    )
    c_sub = p_c.add_subparsers(dest="chaos_command", required=True)

    c_run = c_sub.add_parser("run", help="run a named campaign grid")
    c_run.add_argument("--campaign", default="smoke",
                       help="campaign name (default 'smoke'; see CAMPAIGNS)")
    c_run.add_argument("--results-dir", default=None, metavar="DIR",
                       help="artifact destination (default benchmarks/results "
                       "when present)")
    c_run.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk unit cache")
    c_run.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache location (default benchmarks/.cache when present)")
    c_run.add_argument("--retries", type=int, default=1, metavar="N",
                       help="runner retries for a unit that raises (default 1)")
    c_run.add_argument("--transport-retries", type=int, default=None,
                       dest="transport_retries", metavar="N",
                       help="override the transport retransmission budget "
                       "(default: the transport's own default; raise to "
                       "push the bounded-retry envelope)")
    c_run.add_argument("--fail-on-violation", action="store_true",
                       dest="fail_on_violation",
                       help="non-zero exit on any oracle violation or unit "
                       "failure (the CI gate)")
    c_run.set_defaults(func=_cmd_chaos_run)

    c_chn = c_sub.add_parser(
        "churn",
        help="run a named churn campaign (seeded edge flaps + repair)",
        description="Sweep seeded edge-flap schedules through the "
        "incremental separator/DFS repair engine (repro.dynamic); every "
        "unit is oracle-checked and cross-validated against a full "
        "recompute.  See docs/CHAOS.md, 'Churn campaigns'.",
    )
    c_chn.add_argument("--campaign", default="smoke",
                       help="churn campaign name (default 'smoke'; "
                       "see CHURN_CAMPAIGNS)")
    c_chn.add_argument("--results-dir", default=None, metavar="DIR",
                       help="artifact destination (default benchmarks/results "
                       "when present)")
    c_chn.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk unit cache")
    c_chn.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache location (default benchmarks/.cache when present)")
    c_chn.add_argument("--retries", type=int, default=1, metavar="N",
                       help="runner retries for a unit that raises (default 1)")
    c_chn.add_argument("--fail-on-violation", action="store_true",
                       dest="fail_on_violation",
                       help="non-zero exit on any oracle violation or unit "
                       "failure (the CI gate)")
    c_chn.set_defaults(func=_cmd_chaos_churn)

    c_shc = c_sub.add_parser(
        "shrink-churn",
        help="shrink one failing churn unit to a minimal update sequence")
    c_shc.add_argument("--family", required=True,
                       help="graph family (see repro.chaos.churn.CHURN_FAMILIES)")
    c_shc.add_argument("--n", type=int, default=24, help="node count (default 24)")
    c_shc.add_argument("--graph-seed", type=int, default=1, dest="graph_seed")
    c_shc.add_argument("--seed", type=int, required=True, help="edge-flap seed")
    c_shc.add_argument("--flap-rate", type=float, required=True, dest="flap_rate")
    c_shc.add_argument("--rounds", type=int, default=6,
                       help="churn rounds (default 6)")
    c_shc.add_argument("--down-for", type=int, default=1, dest="down_for",
                       help="rounds a flapped edge stays down (default 1)")
    c_shc.add_argument("--repair-bug", action="append", dest="repair_bug",
                       metavar="NAME",
                       help="inject a named unsound repair rule (repeatable; "
                       "see repro.dynamic.KNOWN_REPAIR_BUGS)")
    c_shc.add_argument("--max-entries", type=int, default=None, dest="max_entries",
                       metavar="N",
                       help="non-zero exit when the minimal sequence needs "
                       "more than N updates")
    c_shc.set_defaults(func=_cmd_chaos_shrink_churn)

    c_shr = c_sub.add_parser(
        "shrink", help="shrink one failing grid point to a minimal plan")
    c_shr.add_argument("--scenario", required=True,
                       help="scenario name (see repro.chaos.scenarios.SCENARIOS)")
    c_shr.add_argument("--n", type=int, default=24, help="node count (default 24)")
    c_shr.add_argument("--graph-seed", type=int, default=1, dest="graph_seed")
    c_shr.add_argument("--seed", type=int, required=True, help="fault-plan seed")
    c_shr.add_argument("--drop-rate", type=float, default=0.0, dest="drop_rate")
    c_shr.add_argument("--duplicate-rate", type=float, default=0.0,
                       dest="duplicate_rate")
    c_shr.add_argument("--corrupt-rate", type=float, default=0.0,
                       dest="corrupt_rate")
    c_shr.add_argument("--no-transport", action="store_true", dest="no_transport",
                       help="run the scenario without the reliable transport")
    c_shr.add_argument("--max-entries", type=int, default=None, dest="max_entries",
                       metavar="N",
                       help="non-zero exit when the minimal plan needs more "
                       "than N fault entries")
    c_shr.set_defaults(func=_cmd_chaos_shrink)

    c_rep = c_sub.add_parser("report", help="pretty-print a campaign artifact")
    c_rep.add_argument("path", help="chaos_<name>.json artifact")
    c_rep.set_defaults(func=_cmd_chaos_report)

    c_srv = c_sub.add_parser(
        "serve",
        help="seeded worker-kill campaign against the serve engine",
        description="Drive a real ServeEngine (real worker processes, real "
        "SIGKILLs) through a scripted kill/burst/breaker/drain campaign; "
        "every request must reach a terminal 200/400/429/503 and every 200 "
        "must pass the oracles (docs/SERVE.md).",
    )
    c_srv.add_argument("--seed", type=int, default=1, help="campaign seed")
    c_srv.add_argument("--requests", type=int, default=18,
                       help="lifecycle-phase request count (default 18)")
    c_srv.add_argument("--verify-determinism", action="store_true",
                       dest="verify_determinism",
                       help="run the campaign twice and require identical "
                       "outcome sequences (the CI gate)")
    c_srv.add_argument("--json", default=None, metavar="PATH",
                       help="also write the outcome record as JSON")
    c_srv.set_defaults(func=_cmd_chaos_serve)

    def add_pool_args(p):
        p.add_argument("--workers", type=int, default=2,
                       help="worker processes (default 2)")
        p.add_argument("--max-inflight", type=int, default=8,
                       dest="max_inflight",
                       help="admission window; beyond it requests shed 429 "
                       "(default 8)")
        p.add_argument("--deadline", type=float, default=30.0,
                       help="per-request deadline in seconds (default 30)")
        p.add_argument("--job-retries", type=int, default=1, dest="job_retries",
                       help="retries for jobs orphaned by a worker death "
                       "(default 1)")
        p.add_argument("--breaker-threshold", type=int, default=3,
                       dest="breaker_threshold",
                       help="worker deaths that trip the circuit breaker "
                       "(default 3)")
        p.add_argument("--breaker-cooldown", type=float, default=5.0,
                       dest="breaker_cooldown",
                       help="seconds before the open breaker admits a probe "
                       "(default 5)")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the content-addressed result cache")
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result-cache location (default benchmarks/.cache "
                       "when present)")

    p_srv = sub.add_parser(
        "serve",
        help="run the separator/DFS job service",
        description="Long-running asyncio HTTP service over the supervised "
        "worker pool: POST /jobs, GET /healthz /readyz /metrics; graceful "
        "drain on SIGTERM. Degradation ladder and endpoint contract in "
        "docs/SERVE.md.",
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8750,
                       help="listen port (0 = pick a free one; default 8750)")
    p_srv.add_argument("--metrics", default=None, metavar="PATH",
                       help="flush the final exposition here on shutdown")
    p_srv.add_argument("--trace-requests", action="store_true",
                       dest="trace_requests",
                       help="record request-scoped phase spans (opt-in; "
                       "responses gain X-Trace-Id, client ids adopted from "
                       "an X-Trace-Id request header)")
    p_srv.add_argument("--trace-events", default=None, metavar="PATH",
                       dest="trace_events",
                       help="flush the serve-events JSONL here on shutdown "
                       "(needs --trace-requests; analyze with "
                       "'repro trace serve')")
    add_pool_args(p_srv)
    p_srv.set_defaults(func=_cmd_serve)

    p_lg = sub.add_parser(
        "loadgen",
        help="seeded load generator -> BENCH_SERVE.json",
        description="Zipf-repeated seeded workload against a running server "
        "(--url) or an in-process engine (--self-contained); closed-loop "
        "vusers by default, open-loop arrivals with --rate. Emits "
        "BENCH_SERVE.json (throughput, p50/p99, cache-hit rate, "
        "shed/retry/restart counts); see docs/SERVE.md.",
    )
    p_lg.add_argument("--url", default="http://127.0.0.1:8750",
                      help="server to drive (default http://127.0.0.1:8750)")
    p_lg.add_argument("--self-contained", action="store_true",
                      dest="self_contained",
                      help="run against an in-process engine (no server "
                      "needed; deterministic-friendly)")
    p_lg.add_argument("--seed", type=int, default=1, help="workload seed")
    p_lg.add_argument("--duration", type=float, default=5.0,
                      help="seconds to run (0 = use --requests; default 5)")
    p_lg.add_argument("--requests", type=int, default=0,
                      help="stop after N requests instead of a duration")
    p_lg.add_argument("--concurrency", type=int, default=4,
                      help="closed-loop virtual users (default 4)")
    p_lg.add_argument("--rate", type=float, default=0.0,
                      help="open-loop arrivals/second (> 0 switches modes)")
    p_lg.add_argument("--zipf", type=float, default=1.2,
                      help="zipf exponent for repeat queries (default 1.2)")
    p_lg.add_argument("--catalog", type=int, default=24,
                      help="distinct jobs in the workload (default 24)")
    p_lg.add_argument("--out", default="BENCH_SERVE.json", metavar="PATH",
                      help="bench destination (default BENCH_SERVE.json)")
    p_lg.add_argument("--results-dir", default=None, metavar="DIR",
                      help="also merge repro_serve_* into DIR/metrics.prom "
                      "(default benchmarks/results when present)")
    p_lg.add_argument("--trace", action="store_true",
                      help="mint a deterministic lg-<seed>-<seq> trace id "
                      "per request (sent as X-Trace-Id; the bench stays "
                      "bit-identical with or without it)")
    p_lg.add_argument("--trace-events", default=None, metavar="PATH",
                      dest="trace_events",
                      help="(--self-contained only) flush the in-process "
                      "engine's serve-events JSONL here")
    add_pool_args(p_lg)
    p_lg.set_defaults(func=_cmd_loadgen)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # Ctrl-C during a long chaos/serve run is a clean stop, not
        # a crash: conventional 128 + SIGINT, no traceback.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
