"""The vectorized bulk-synchronous scheduler: parity, fallback, quiet.

Three scheduler families must be observably interchangeable:

* ``dense`` — every live node, every round (the legacy baseline);
* ``active`` — the PR 1 active-set dispatcher;
* ``vectorized`` — the PR 6 columnar fast path.

``run_fingerprint`` hashes everything the network *did* (rounds, stop
reason, message/word counters, per-round trace records, per-edge word
histograms, outputs), so fingerprint equality across schedulers is the
whole equivalence claim in one assert.  This module also pins the
fallback contract (transport frames or a non-empty fault plan silently
degrade to the active-set dispatcher), the wake-aware quiet rules on the
fast path, the cache-fingerprint completeness guard, and that only the
kernel programs take ``scheduler=`` while numpy stays lazily imported.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

np = pytest.importorskip("numpy")

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
    min_flood_program,
    run_fingerprint,
)
from repro.congest.vectorized import vector_bit_lengths, vector_payload_words
from repro.obs import MetricsRegistry
from repro.planar import generators as gen

SCHEDULERS = ("dense", "active", "vectorized")

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


class TestWordCostHelpers:
    def test_bit_lengths_match_python_everywhere_interesting(self):
        vals = [0, 1, 2, 3, 7, 8, 255, 256, (1 << 31) - 1, 1 << 31, 1 << 62]
        got = vector_bit_lengths(np.array(vals, dtype=np.int64))
        assert got.tolist() == [v.bit_length() for v in vals]

    def test_payload_words_match_scalar_tuple_costs(self):
        from repro.congest import payload_words

        vals = [0, 1, 5, 1000, 1 << 20, 1 << 40]
        for word_bits in (1, 2, 7, 32):
            got = vector_payload_words(np.array(vals, dtype=np.int64), word_bits)
            want = [payload_words((v,), word_bits) for v in vals]
            assert got.tolist() == want


class TestFastPathEngagement:
    def test_bfs_engages(self):
        g = gen.grid(5, 5)
        assert bfs_run(g, 0, scheduler="vectorized").fast_path
        assert not bfs_run(g, 0, scheduler="active").fast_path
        assert not bfs_run(g, 0, scheduler="dense").fast_path

    def test_broadcast_and_convergecast_engage(self):
        g = gen.grid(5, 5)
        root = 0
        parent = _bfs_parent(g, root)
        assert broadcast_run(g, root, 9, parent, scheduler="vectorized").fast_path
        assert convergecast_run(
            g, root, _values(g), parent, scheduler="vectorized"
        ).fast_path

    def test_custom_combiner_falls_back(self):
        g = gen.grid(4, 4)
        root = 0
        parent = _bfs_parent(g, root)
        res = convergecast_run(
            g, root, _values(g), parent, combine=max, scheduler="vectorized"
        )
        assert not res.fast_path
        direct = convergecast_run(g, root, _values(g), parent, combine=max)
        assert res.outputs == direct.outputs

    def test_kernelless_program_falls_back(self):
        g = nx.path_graph(6)

        def on_round(ctx, inbox):
            ctx.halt(ctx.node)
            return None

        res = Network(g).run(lambda c: None, on_round, 5, scheduler="vectorized")
        assert not res.fast_path
        assert res.stop_reason == "halted"

    def test_unknown_scheduler_still_rejected(self):
        g = nx.path_graph(3)
        with pytest.raises(ValueError):
            Network(g).run(lambda c: None, lambda c, i: None, 5, scheduler="simd")


class TestPrimitiveParity:
    @pytest.mark.parametrize("name,make", GRAPHS)
    def test_bfs_fingerprint_identical(self, name, make):
        g = make()
        root = min(g.nodes, key=repr)
        fps = {}
        for sched in SCHEDULERS:
            trace = RoundTrace()
            res = bfs_run(g, root, trace=trace, scheduler=sched)
            fps[sched] = (run_fingerprint(res, trace), res.rounds, res.messages_sent)
        assert fps["dense"] == fps["active"] == fps["vectorized"]

    @pytest.mark.parametrize("name,make", GRAPHS)
    def test_broadcast_fingerprint_identical(self, name, make):
        g = make()
        root = min(g.nodes, key=repr)
        parent = _bfs_parent(g, root)
        fps = {}
        for sched in SCHEDULERS:
            trace = RoundTrace()
            res = broadcast_run(g, root, 42, parent, trace=trace, scheduler=sched)
            fps[sched] = run_fingerprint(res, trace)
        assert fps["dense"] == fps["active"] == fps["vectorized"]

    @pytest.mark.parametrize("name,make", GRAPHS)
    def test_convergecast_fingerprint_identical(self, name, make):
        g = make()
        root = min(g.nodes, key=repr)
        parent = _bfs_parent(g, root)
        fps = {}
        for sched in SCHEDULERS:
            trace = RoundTrace()
            res = convergecast_run(
                g, root, _values(g), parent, trace=trace, scheduler=sched
            )
            fps[sched] = run_fingerprint(res, trace)
        assert fps["dense"] == fps["active"] == fps["vectorized"]
        # And the aggregate is right: the root sums every node's value.
        res = convergecast_run(g, root, _values(g), parent, scheduler="vectorized")
        assert res.outputs[root] == sum(_values(g).values())

    @pytest.mark.parametrize("name,make", GRAPHS)
    def test_min_flood_quiet_stop_identical(self, name, make):
        g = make()
        init, on_round, finalize = min_flood_program(_values(g))
        fps = {}
        for sched in SCHEDULERS:
            trace = RoundTrace()
            res = Network(g).run(
                init, on_round, max_rounds=4 * len(g), finalize=finalize,
                stop_when_quiet=True, trace=trace, scheduler=sched,
            )
            fps[sched] = (run_fingerprint(res, trace), res.stop_reason)
        assert fps["dense"] == fps["active"] == fps["vectorized"]
        assert fps["vectorized"][1] == "quiet"


class TestQuietSemantics:
    """Satellite 2: wake-aware quiet detection on the bulk path."""

    def test_zero_delta_round_counts_as_quiet(self):
        # Identical values everywhere: round 1 floods, round 2 delivers a
        # mat-vec whose delta is all-zero (nothing improves, nothing is
        # sent), so the next silent round must end the run as "quiet" —
        # on both schedulers, at the same round count.
        g = gen.grid(5, 5)
        values = {v: 7 for v in g.nodes}
        outcomes = {}
        for sched in ("active", "vectorized"):
            init, on_round, finalize = min_flood_program(values)
            res = Network(g).run(
                init, on_round, max_rounds=50, finalize=finalize,
                stop_when_quiet=True, scheduler=sched,
            )
            outcomes[sched] = (res.rounds, res.stop_reason, res.messages_sent)
        assert outcomes["active"] == outcomes["vectorized"]
        assert outcomes["vectorized"][1] == "quiet"

    def test_pending_wake_does_not_count_as_quiet(self):
        # BFS quiet-countdown: after the last announcement there are
        # silent rounds where every node holds an armed wake (the slack
        # countdown).  stop_when_quiet must NOT fire there — the run ends
        # "halted" at the full round count, identically to active.
        g = gen.path_graph(20)
        outcomes = {}
        for sched in ("active", "vectorized"):
            trace = RoundTrace()
            res = bfs_run(g, 0, trace=trace, scheduler=sched)
            base = (run_fingerprint(res, trace), res.rounds, res.stop_reason)
            outcomes[sched] = base
        assert outcomes["active"] == outcomes["vectorized"]
        assert outcomes["vectorized"][2] == "halted"

    def test_deadlock_fast_forward_identical(self):
        # A min-flood without stop_when_quiet settles and then no node
        # can ever run again: the scheduler fast-forwards to max_rounds
        # with stop_reason "deadlock" and the same trace warning.
        g = gen.grid(4, 4)
        outcomes = {}
        for sched in ("active", "vectorized"):
            init, on_round, finalize = min_flood_program(_values(g))
            trace = RoundTrace()
            res = Network(g).run(
                init, on_round, max_rounds=99, finalize=finalize,
                trace=trace, scheduler=sched,
            )
            outcomes[sched] = (
                run_fingerprint(res, trace), res.stop_reason, trace.warnings,
            )
        assert outcomes["active"] == outcomes["vectorized"]
        assert outcomes["vectorized"][1] == "deadlock"
        assert "deadlock" in outcomes["vectorized"][2][0]


class TestFallbackUnderIrregularity:
    """Transport frames and fault plans force the message-level path."""

    def test_empty_fault_plan_keeps_fast_path(self):
        g = gen.grid(5, 5)
        res = bfs_run(g, 0, faults=FaultPlan(), scheduler="vectorized")
        assert res.fast_path

    def test_nonempty_fault_plan_falls_back_with_parity(self):
        g = gen.grid(5, 5)
        fps = {}
        for sched in ("active", "vectorized"):
            plan = FaultPlan(drop_rate=0.1, seed=13)
            trace = RoundTrace()
            res = bfs_run(g, 0, faults=plan, trace=trace, scheduler=sched)
            fps[sched] = (run_fingerprint(res, trace), res.fast_path)
        assert fps["vectorized"][0] == fps["active"][0]
        assert not fps["vectorized"][1]

    def test_transport_falls_back_with_parity(self):
        g = gen.grid(4, 4)
        fps = {}
        for sched in ("active", "vectorized"):
            res = bfs_run(g, 0, transport=ReliableTransport(), scheduler=sched)
            fps[sched] = (
                run_fingerprint(res, transport=res.transport),
                res.fast_path,
                res.stop_reason,
            )
        assert fps["vectorized"] == fps["active"]
        assert not fps["vectorized"][1]

    def test_flood_mid_recovery_not_stranded(self):
        # Satellite 2's acceptance case: a flood under ReliableTransport
        # with injected drops, requested on the fast path.  The frames in
        # flight make the run irregular, so it must degrade to the
        # message-level dispatcher and *complete* (retransmit timers keep
        # firing through silence), never strand at max_rounds.
        g = gen.grid(4, 4)
        values = _values(g)
        floor = min(values.values())
        outcomes = {}
        for sched in ("active", "vectorized"):
            init, on_round, finalize = min_flood_program(values)
            plan = FaultPlan(drop_rate=0.15, seed=7)
            res = Network(g).run(
                init, on_round, max_rounds=40 * len(g), finalize=finalize,
                stop_when_quiet=True, faults=plan,
                transport=ReliableTransport(), scheduler=sched,
            )
            assert res.stop_reason == "quiet", res.stop_reason
            assert all(out == floor for out in res.outputs.values())
            outcomes[sched] = (
                run_fingerprint(res, transport=res.transport),
                res.rounds,
                res.fast_path,
            )
        assert outcomes["vectorized"] == outcomes["active"]
        assert not outcomes["vectorized"][2]


class TestBudgetEnforcement:
    def test_oversized_kernel_payload_raises_with_context(self):
        # 25 nodes -> 5-bit words, budget 8 words = 40 bits; a 2^60
        # value needs 12 words on both paths.
        g = gen.grid(5, 5)
        values = {v: 1 << 60 for v in g.nodes}
        for sched in ("active", "vectorized"):
            init, on_round, finalize = min_flood_program(values)
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
        for sched in ("active", "vectorized"):
            metrics = MetricsRegistry()
            res = bfs_run(g, 0, metrics=metrics, scheduler=sched)
            totals[sched] = {
                name: metrics.get(name).total
                for name in (
                    "congest_rounds_total",
                    "congest_messages_total",
                    "congest_words_total",
                    "congest_dropped_messages_total",
                    "congest_node_dispatch_total",
                )
            }
            assert res.rounds == totals[sched]["congest_rounds_total"]
        assert totals["active"] == totals["vectorized"]


class TestCacheFingerprintCompleteness:
    """Satellite 3: the scheduler rewrite can never serve stale caches."""

    def test_vectorized_module_is_fingerprinted(self):
        assert "congest/vectorized.py" in analysis_cache._FINGERPRINTED_SOURCES

    def test_every_congest_module_reachable_from_run_is_fingerprinted(self):
        # Import everything Network.run can reach (the vectorized branch
        # included), then demand each loaded repro.congest source appears
        # in the cache fingerprint set.
        bfs_run(gen.grid(3, 3), 0, scheduler="vectorized")
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
        monkeypatch.delenv(analysis_cache.CODE_VERSION_ENV, raising=False)
        before = analysis_cache.code_version()
        # The version is content-addressed over the enumerated sources;
        # recomputing without edits is stable.
        analysis_cache._computed_version = None
        assert analysis_cache.code_version() == before


class TestDispatchChoice:
    """A dispatcher is offered only where a columnar kernel exists, and
    the columnar engine's numpy stays out of interpreters that never ask
    for it."""

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
        assert found == {
            ("congest/network.py", "run"),
            ("congest/algorithms.py", "bfs_run"),
            ("congest/algorithms.py", "broadcast_run"),
            ("congest/algorithms.py", "convergecast_run"),
        }

    def test_numpy_stays_unloaded_until_a_vectorized_run(self):
        script = (
            "import sys\n"
            "import repro.core, repro.dynamic, repro.serve, repro.chaos\n"
            "from repro.congest import bfs_run\n"
            "from repro.planar import generators as gen\n"
            "bfs_run(gen.grid(3, 3), 0)\n"
            "print('numpy' in sys.modules)\n"
            "bfs_run(gen.grid(3, 3), 0, scheduler='vectorized')\n"
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
        assert proc.stdout.split() == ["False", "True"]
