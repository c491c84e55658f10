"""Round semantics pinned as dense vs active-set dispatch.

``Network.run`` offers two dispatchers over one round implementation:

* ``dense`` — every live node, every round (the reference);
* ``active`` — the active-set dispatcher every program runs on.

``run_fingerprint`` hashes everything the network *did* (rounds, stop
reason, message/word counters, per-round trace records, per-edge word
histograms, outputs), so fingerprint equality across dispatchers is the
whole equivalence claim in one assert.  This module pins the primitives'
parity, the wake-aware quiet and deadlock rules, a transport flood that
must not strand mid-recovery, the budget error's context, metrics
parity, the cache-fingerprint completeness guard, and that only
``Network.run`` takes ``scheduler=`` while numpy stays out of a scalar
interpreter.  The file and class names keep the test ids they had when
a third, columnar dispatcher existed.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from repro.analysis import cache as analysis_cache
from repro.congest import (
    CongestViolation,
    FaultPlan,
    Network,
    ReliableTransport,
    RoundTrace,
    bfs_run,
    broadcast_run,
    convergecast_run,
    run_fingerprint,
)
from repro.obs import MetricsRegistry
from repro.planar import generators as gen

from conftest import forced_scheduler

SCHEDULERS = ("dense", "active")

GRAPHS = [
    ("grid_6x6", lambda: gen.grid(6, 6)),
    ("delaunay_60", lambda: gen.delaunay(60, seed=3)),
    ("path_50", lambda: gen.path_graph(50)),
    ("star", lambda: nx.star_graph(12)),
]


def _bfs_parent(graph, root):
    return {v: out[1] for v, out in bfs_run(graph, root).outputs.items()}


def _values(graph):
    return {v: (i * 7) % 23 for i, v in enumerate(sorted(graph.nodes, key=repr))}


def _min_flood_program(values):
    """``(init, on_round, finalize)`` of a min-flood: a node re-sends its
    best value whenever it improves, and never halts."""

    def init(ctx):
        ctx.state["best"] = values[ctx.node]
        ctx.state["dirty"] = True

    def on_round(ctx, inbox):
        for payload in inbox.values():
            if payload[0] < ctx.state["best"]:
                ctx.state["best"] = payload[0]
                ctx.state["dirty"] = True
        if ctx.state["dirty"]:
            ctx.state["dirty"] = False
            return {u: (ctx.state["best"],) for u in ctx.neighbors}
        return None

    def finalize(ctx):
        return ctx.state["best"]

    return init, on_round, finalize


class TestFastPathEngagement:
    def test_unknown_scheduler_still_rejected(self):
        g = nx.path_graph(3)
        for name in ("simd", "vectorized"):
            with pytest.raises(ValueError, match="unknown scheduler"):
                Network(g).run(lambda c: None, lambda c, i: None, 5, scheduler=name)


class TestPrimitiveParity:
    @pytest.mark.parametrize("name,make", GRAPHS)
    def test_bfs_fingerprint_identical(self, name, make):
        g = make()
        root = min(g.nodes, key=repr)
        fps = {}
        for sched in SCHEDULERS:
            trace = RoundTrace()
            with forced_scheduler(sched):
                res = bfs_run(g, root, trace=trace)
            fps[sched] = (run_fingerprint(res, trace), res.rounds, res.messages_sent)
        assert fps["dense"] == fps["active"]

    @pytest.mark.parametrize("name,make", GRAPHS)
    def test_broadcast_fingerprint_identical(self, name, make):
        g = make()
        root = min(g.nodes, key=repr)
        parent = _bfs_parent(g, root)
        fps = {}
        for sched in SCHEDULERS:
            trace = RoundTrace()
            with forced_scheduler(sched):
                res = broadcast_run(g, root, 42, parent, trace=trace)
            fps[sched] = run_fingerprint(res, trace)
        assert fps["dense"] == fps["active"]

    @pytest.mark.parametrize("name,make", GRAPHS)
    def test_convergecast_fingerprint_identical(self, name, make):
        g = make()
        root = min(g.nodes, key=repr)
        parent = _bfs_parent(g, root)
        fps = {}
        for sched in SCHEDULERS:
            trace = RoundTrace()
            with forced_scheduler(sched):
                res = convergecast_run(g, root, _values(g), parent, trace=trace)
            fps[sched] = run_fingerprint(res, trace)
            # And the aggregate is right: the root sums every node's value.
            assert res.outputs[root] == sum(_values(g).values())
        assert fps["dense"] == fps["active"]

    @pytest.mark.parametrize("name,make", GRAPHS)
    def test_min_flood_quiet_stop_identical(self, name, make):
        g = make()
        init, on_round, finalize = _min_flood_program(_values(g))
        fps = {}
        for sched in SCHEDULERS:
            trace = RoundTrace()
            res = Network(g).run(
                init, on_round, max_rounds=4 * len(g), finalize=finalize,
                stop_when_quiet=True, trace=trace, scheduler=sched,
            )
            fps[sched] = (run_fingerprint(res, trace), res.stop_reason)
        assert fps["dense"] == fps["active"]
        assert fps["active"][1] == "quiet"


class TestQuietSemantics:
    """Wake-aware quiet detection and the deadlock fast-forward."""

    def test_zero_delta_round_counts_as_quiet(self):
        # Identical values everywhere: round 1 floods, round 2 delivers
        # mail that improves nothing (nothing is sent), so that silent
        # round must end the run as "quiet" — on both dispatchers, at the
        # same round count.
        g = gen.grid(5, 5)
        values = {v: 7 for v in g.nodes}
        outcomes = {}
        for sched in SCHEDULERS:
            init, on_round, finalize = _min_flood_program(values)
            res = Network(g).run(
                init, on_round, max_rounds=50, finalize=finalize,
                stop_when_quiet=True, scheduler=sched,
            )
            outcomes[sched] = (res.rounds, res.stop_reason, res.messages_sent)
        assert outcomes["active"] == outcomes["dense"]
        assert outcomes["active"] == (2, "quiet", 2 * g.number_of_edges())

    def test_pending_wake_does_not_count_as_quiet(self, monkeypatch):
        # BFS quiet-countdown: after the last announcement there are
        # silent rounds where every node holds an armed wake (the slack
        # countdown).  stop_when_quiet must NOT fire there — the run ends
        # "halted" at the full round count, identically on both.
        run = Network.run

        def quiet_run(self, *args, **kwargs):
            return run(self, *args, **{**kwargs, "stop_when_quiet": True})

        monkeypatch.setattr(Network, "run", quiet_run)
        g = gen.path_graph(20)
        outcomes = {}
        for sched in SCHEDULERS:
            trace = RoundTrace()
            with forced_scheduler(sched):
                res = bfs_run(g, 0, trace=trace)
            outcomes[sched] = (run_fingerprint(res, trace), res.rounds, res.stop_reason)
        assert outcomes["active"] == outcomes["dense"]
        assert outcomes["active"][2] == "halted"

    def test_deadlock_fast_forward_identical(self):
        # A min-flood without stop_when_quiet settles and then no node
        # can ever run again: the active dispatcher fast-forwards to
        # max_rounds with stop_reason "deadlock" and a trace warning; the
        # dense reference spins silently to the same round count.
        g = gen.grid(4, 4)
        outcomes = {}
        for sched in SCHEDULERS:
            init, on_round, finalize = _min_flood_program(_values(g))
            trace = RoundTrace()
            res = Network(g).run(
                init, on_round, max_rounds=99, finalize=finalize,
                trace=trace, scheduler=sched,
            )
            outcomes[sched] = (res, trace)
        (dense, dense_trace), (active, active_trace) = (
            outcomes["dense"], outcomes["active"])
        assert active.rounds == dense.rounds == 99
        assert (active.messages_sent, active.outputs) == (dense.messages_sent, dense.outputs)
        assert active.stop_reason == "deadlock"
        assert dense.stop_reason == "max_rounds"
        assert "deadlock" in active_trace.warnings[0]
        assert not dense_trace.warnings


class TestFallbackUnderIrregularity:
    def test_flood_mid_recovery_not_stranded(self):
        # A flood under ReliableTransport with injected drops: the
        # retransmit timers keep firing through silent rounds, so the run
        # must *complete* as "quiet", never strand at max_rounds, and
        # identically on both dispatchers.
        g = gen.grid(4, 4)
        values = _values(g)
        floor = min(values.values())
        outcomes = {}
        for sched in SCHEDULERS:
            init, on_round, finalize = _min_flood_program(values)
            plan = FaultPlan(drop_rate=0.15, seed=7)
            res = Network(g).run(
                init, on_round, max_rounds=40 * len(g), finalize=finalize,
                stop_when_quiet=True, faults=plan,
                transport=ReliableTransport(), scheduler=sched,
            )
            assert res.stop_reason == "quiet", res.stop_reason
            assert all(out == floor for out in res.outputs.values())
            assert res.lost_messages > 0
            outcomes[sched] = (run_fingerprint(res, transport=res.transport), res.rounds)
        assert outcomes["dense"] == outcomes["active"]


class TestBudgetEnforcement:
    def test_oversized_kernel_payload_raises_with_context(self):
        # 25 nodes -> 5-bit words, budget 8 words = 40 bits; a 2^60
        # value needs 12 words on both dispatchers.
        g = gen.grid(5, 5)
        values = {v: 1 << 60 for v in g.nodes}
        for sched in SCHEDULERS:
            init, on_round, finalize = _min_flood_program(values)
            with pytest.raises(CongestViolation) as err:
                Network(g).run(
                    init, on_round, max_rounds=10, finalize=finalize,
                    stop_when_quiet=True, scheduler=sched,
                )
            assert err.value.round == 1
            assert err.value.node is not None
            assert err.value.edge is not None
            assert "budget" in str(err.value)


class TestMetricsParity:
    def test_counters_identical_across_schedulers(self):
        g = gen.grid(5, 5)
        totals = {}
        for sched in SCHEDULERS:
            metrics = MetricsRegistry()
            with forced_scheduler(sched):
                res = bfs_run(g, 0, metrics=metrics)
            totals[sched] = {
                name: metrics.get(name).total
                for name in (
                    "congest_rounds_total",
                    "congest_messages_total",
                    "congest_words_total",
                    "congest_dropped_messages_total",
                )
            }
            assert res.rounds == totals[sched]["congest_rounds_total"]
        assert totals["active"] == totals["dense"]


class TestCacheFingerprintCompleteness:
    """A simulator change can never serve stale caches."""

    def test_every_congest_module_reachable_from_run_is_fingerprinted(self):
        # Import everything Network.run can reach, then demand each
        # loaded repro.congest source appears in the cache fingerprint set.
        for sched in SCHEDULERS:
            with forced_scheduler(sched):
                bfs_run(gen.grid(3, 3), 0, transport=ReliableTransport(),
                        faults=FaultPlan(drop_rate=0.1, seed=1))
        root = Path(analysis_cache.__file__).resolve().parents[1]
        missing = []
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro.congest"):
                continue
            path = getattr(module, "__file__", None)
            if path is None:
                continue
            rel = Path(path).resolve().relative_to(root).as_posix()
            if rel not in analysis_cache._FINGERPRINTED_SOURCES:
                missing.append(rel)
        assert not missing, (
            f"modules reachable from Network.run missing from "
            f"cache._FINGERPRINTED_SOURCES: {missing}"
        )

    def test_fingerprint_changes_when_vectorized_source_changes(self, tmp_path, monkeypatch):
        # The version is content-addressed over the enumerated sources:
        # stable without edits, different after an edit to the scheduler.
        monkeypatch.delenv(analysis_cache.CODE_VERSION_ENV, raising=False)
        source = tmp_path / "congest" / "network.py"
        source.parent.mkdir()
        source.write_text("SCHEDULERS = ('active', 'dense')\n")
        monkeypatch.setattr(analysis_cache, "_PACKAGE_ROOT", tmp_path)
        monkeypatch.setattr(analysis_cache, "_FINGERPRINTED_SOURCES", ("congest/network.py",))
        monkeypatch.setattr(analysis_cache, "_computed_version", None)
        before = analysis_cache.code_version()
        analysis_cache._computed_version = None
        assert analysis_cache.code_version() == before
        source.write_text("SCHEDULERS = ('active',)\n")
        analysis_cache._computed_version = None
        assert analysis_cache.code_version() != before


class TestDispatchChoice:
    """The dispatcher is chosen only on ``Network.run``, and numpy stays
    out of interpreters that only run the scalar simulator."""

    def test_scheduler_parameter_only_on_kernel_programs(self):
        src = Path(analysis_cache.__file__).resolve().parents[1]
        found = set()
        for path in src.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = node.args
                    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                    if "scheduler" in names:
                        found.add((path.relative_to(src).as_posix(), node.name))
        assert found == {("congest/network.py", "run")}

    def test_numpy_stays_unloaded_until_a_vectorized_run(self):
        script = (
            "import sys\n"
            "import repro.core, repro.dynamic, repro.serve, repro.chaos\n"
            "from repro.congest import Network, bfs_run\n"
            "from repro.planar import generators as gen\n"
            "bfs_run(gen.grid(3, 3), 0)\n"
            "Network(gen.grid(3, 3)).run(lambda c: c.halt(), lambda c, i: None, 5,\n"
            "                            scheduler='dense')\n"
            "print('numpy' in sys.modules)\n"
        )
        src = str(Path(analysis_cache.__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr[-1000:]
        assert proc.stdout.split() == ["False"]
