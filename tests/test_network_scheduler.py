"""Active-set scheduler: regression locks, wake contract, tracing.

The round counts below were captured from the pre-rewrite (dense, every
node every round) simulator on fixed instances.  The active-set scheduler
must reproduce them exactly — the dispatch layer changed, the protocols'
public behaviour did not.
"""

import networkx as nx
import pytest

from repro.congest import (
    FaultPlan,
    Network,
    RoundTrace,
    awerbuch_dfs_run,
    bfs_run,
    boruvka_mst_run,
    broadcast_run,
    convergecast_run,
    fragment_merge_run,
    mark_path_merge_run,
    partwise_aggregation_run,
    partwise_broadcast_run,
    read_jsonl,
    weights_problem_run,
)
from repro.core.config import PlanarConfiguration
from repro.obs import MetricsRegistry
from repro.planar import generators as gen
from repro.trees import bfs_tree


class TestRoundCountRegression:
    """Exact (rounds, messages, max_words) as measured on the seed code."""

    @pytest.mark.parametrize(
        "graph_name,expected",
        [
            ("grid_5x7", (104, 184, 2)),
            ("delaunay_40", (119, 298, 2)),
            ("path_64", (191, 252, 2)),
            ("apollonian", (29, 66, 2)),
        ],
    )
    def test_awerbuch_locked(self, graph_name, expected):
        graphs = {
            "grid_5x7": gen.grid(5, 7),
            "delaunay_40": gen.delaunay(40, seed=3),
            "path_64": gen.path_graph(64),
            "apollonian": gen.apollonian(3, seed=1),
        }
        r = awerbuch_dfs_run(graphs[graph_name], 0)
        assert (r.rounds, r.messages_sent, r.max_words) == expected

    @pytest.mark.parametrize(
        "graph_name,bfs_exp,bcast_exp,ccast_exp",
        [
            ("grid_6x6", (15, 120, 1), (11, 35, 1), (11, 35, 1)),
            ("delaunay_50", (9, 278, 1), (5, 49, 1), (5, 49, 1)),
            ("path_100", (104, 198, 1), (100, 99, 1), (100, 99, 1)),
        ],
    )
    def test_tree_primitives_locked(self, graph_name, bfs_exp, bcast_exp, ccast_exp):
        graphs = {
            "grid_6x6": gen.grid(6, 6),
            "delaunay_50": gen.delaunay(50, seed=5),
            "path_100": gen.path_graph(100),
        }
        g = graphs[graph_name]
        r = bfs_run(g, 0)
        assert (r.rounds, r.messages_sent, r.max_words) == bfs_exp
        parent = {v: o[1] for v, o in r.outputs.items()}
        b = broadcast_run(g, 0, 42, parent)
        assert (b.rounds, b.messages_sent, b.max_words) == bcast_exp
        c = convergecast_run(g, 0, {v: 1 for v in g.nodes}, parent)
        assert (c.rounds, c.messages_sent, c.max_words) == ccast_exp

    def test_mst_locked(self):
        assert (boruvka_mst_run(gen.grid(5, 5)).rounds,
                boruvka_mst_run(gen.grid(5, 5)).phases) == (29, 2)
        m = boruvka_mst_run(gen.delaunay(36, seed=2))
        assert (m.rounds, m.phases) == (25, 2)

    def test_fragment_merge_locked(self):
        g = gen.path_graph(128)
        run = fragment_merge_run(g, bfs_tree(g, 0))
        assert (run.iterations, run.rounds) == (7, 147)
        g = gen.grid(6, 6)
        run = fragment_merge_run(g, bfs_tree(g, 0))
        assert (run.iterations, run.rounds) == (4, 21)

    def test_mark_path_locked(self):
        g = gen.grid(7, 7)
        run = mark_path_merge_run(g, bfs_tree(g, 0), 0, 48)
        assert (run.iterations, run.rounds) == (4, 24)
        assert tuple(run.merge_edge) == (43, 44)

    def test_partwise_locked(self):
        g = gen.grid(6, 8)
        nodes = sorted(g.nodes)
        parts = [nodes[i: i + 8] for i in range(0, len(nodes), 8)]
        values = {v: (v * 13) % 17 for v in g.nodes}
        pa = partwise_aggregation_run(g, parts, values)
        assert pa.rounds == 13
        assert pa.aggregates == {
            i: sum(values[v] for v in p) for i, p in enumerate(parts)
        }
        pb = partwise_broadcast_run(g, parts, {i: i * 3 + 1 for i in range(len(parts))})
        assert pb.rounds == 17
        assert pb.aggregates == {i: i * 3 + 1 for i in range(len(parts))}

    def test_weights_locked(self):
        cfg = PlanarConfiguration.build(gen.grid(5, 6), root=0)
        w = weights_problem_run(cfg)
        assert (w.rounds, sum(w.weights.values())) == (22, 100)
        cfg = PlanarConfiguration.build(gen.delaunay(30, seed=4), root=0)
        w = weights_problem_run(cfg)
        assert (w.rounds, sum(w.weights.values())) == (14, 400)


def _flood_program():
    """A min-flood: message/wake-contract-clean under both schedulers."""

    def init(ctx):
        ctx.state["best"] = ctx.node
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

    return init, on_round


def observe_faulty_flood(**run_kwargs):
    """Flood a token from node 0 of ``grid(6, 6)`` under drops,
    duplicates, corruption and two round-3 crashes; return the run, its
    trace warnings and its ``congest_*`` metrics (wall time excluded).

    Even nodes halt as they forward the token, so later mail to them is
    dropped; odd nodes stay idle and un-halted, so the active loop ends in
    a deadlock.
    """
    g = gen.grid(6, 6)
    faults = FaultPlan(
        seed=7, drop_rate=0.1, duplicate_rate=0.15, corrupt_rate=0.15,
        crashes=[(2, 3), (35, 3)],
    )

    def init(ctx):
        ctx.state["token"] = ctx.node == 0
        ctx.state["sent"] = False

    def on_round(ctx, inbox):
        if inbox:
            ctx.state["token"] = True
        if not ctx.state["token"] or ctx.state["sent"]:
            return None
        ctx.state["sent"] = True
        if ctx.node % 2 == 0:
            ctx.halt(ctx.node)
        return {u: (ctx.node,) for u in ctx.neighbors}

    trace, metrics = RoundTrace(), MetricsRegistry()
    res = Network(g).run(
        init, on_round, 60, trace=trace, metrics=metrics, faults=faults,
        **run_kwargs,
    )
    congest = {
        name: value
        for name, value in metrics.to_dict().items()
        if name.startswith("congest_") and name != "congest_round_wall_seconds"
    }
    return res, trace.warnings, congest


class TestSchedulerEquivalence:
    @pytest.mark.parametrize("make", [
        lambda: gen.grid(6, 9),
        lambda: gen.delaunay(70, seed=11),
        lambda: gen.path_graph(90),
    ])
    def test_active_matches_dense(self, make):
        init, on_round = _flood_program()
        results = {}
        for scheduler in ("active", "dense"):
            g = make()
            res = Network(g).run(
                init, on_round, max_rounds=4 * len(g),
                finalize=lambda ctx: ctx.state["best"],
                stop_when_quiet=True, scheduler=scheduler,
            )
            results[scheduler] = (res.rounds, res.messages_sent, res.outputs)
        assert results["active"] == results["dense"]

    def test_unknown_scheduler_rejected(self):
        init, on_round = _flood_program()
        with pytest.raises(ValueError):
            Network(nx.path_graph(3)).run(init, on_round, 5, scheduler="mystery")

    def test_observations_match_across_engines(self):
        """Trace warnings and ``congest_*`` metrics of the active loop on a
        run with drops, duplicates, corruption, mail to halted nodes, two
        same-round crashes and a deadlock; dense agrees on the warnings
        up to the deadlock line and on the message counters."""
        res, warnings, congest = observe_faulty_flood()
        assert res.stop_reason == "deadlock"
        assert res.dropped_messages and res.lost_messages
        assert res.duplicated_messages and res.corrupted_messages
        assert [w for w in warnings if "crashed" in w] == [
            "run 1: round 3: node 2 crashed (crash-stop)",
            "run 1: round 3: node 35 crashed (crash-stop)",
        ]

        _, dense_warnings, dense_congest = observe_faulty_flood(scheduler="dense")
        assert "deadlock" in warnings[-1]
        assert dense_warnings == warnings[:-1]
        for name in (
            "congest_messages_total",
            "congest_words_total",
            "congest_dropped_messages_total",
            "congest_lost_messages_total",
            "congest_duplicated_messages_total",
            "congest_corrupted_messages_total",
        ):
            assert dense_congest[name] == congest[name], name


class TestHaltSentinel:
    def test_halt_with_none_records_output(self):
        def on_round(ctx, inbox):
            if ctx.node == 0:
                ctx.halt(None)
            else:
                ctx.halt(ctx.node)
            return None

        res = Network(nx.path_graph(3)).run(lambda ctx: None, on_round, 5)
        assert res.outputs == {0: None, 1: 1, 2: 2}

    def test_output_set_distinguishes_none_from_unset(self):
        seen = {}

        def on_round(ctx, inbox):
            if ctx.node == 0:
                ctx.halt(None)
            else:
                ctx.halt()
            return None

        def finalize(ctx):
            seen[ctx.node] = ctx.output_set
            return ctx.output

        Network(nx.path_graph(3)).run(lambda ctx: None, on_round, 5, finalize=finalize)
        assert seen == {0: True, 1: False, 2: False}


class TestWakeContract:
    def test_timer_program_runs_via_wake(self):
        """A node acting on silent rounds stays scheduled through wake()."""

        def init(ctx):
            ctx.state["ticks"] = 0

        def on_round(ctx, inbox):
            ctx.state["ticks"] += 1
            if ctx.state["ticks"] >= 3:
                ctx.halt(ctx.state["ticks"])
            else:
                ctx.wake()
            return None

        res = Network(nx.path_graph(4)).run(init, on_round, max_rounds=50)
        assert res.rounds == 3
        assert res.stop_reason == "halted"
        assert all(out == 3 for out in res.outputs.values())

    def test_without_wake_idle_nodes_deadlock(self):
        """The same timer without wake() can never be scheduled again; the
        scheduler fast-forwards to max_rounds and says why."""

        def init(ctx):
            ctx.state["ticks"] = 0

        def on_round(ctx, inbox):
            ctx.state["ticks"] += 1
            if ctx.state["ticks"] >= 3:
                ctx.halt(ctx.state["ticks"])
            return None

        trace = RoundTrace()
        res = Network(nx.path_graph(4)).run(init, on_round, max_rounds=50, trace=trace)
        assert res.rounds == 50  # same count the dense dispatch would report
        assert res.stop_reason == "deadlock"
        assert any("deadlock" in w for w in trace.warnings)


class TestStopSemantics:
    def test_quiet_stop_counts_final_consuming_round(self):
        """Documented semantics: the quiet round that consumed the last
        in-flight messages and produced none IS counted."""
        init, on_round = _flood_program()
        g = nx.path_graph(5)
        res = Network(g).run(
            init, on_round, max_rounds=50, stop_when_quiet=True,
            finalize=lambda ctx: ctx.state["best"],
        )
        # Flood from node 0 takes 4 hops (rounds 2-5 deliver); round 6
        # consumes the last delivery without sending and is counted.
        assert res.rounds == 6
        assert res.stop_reason == "quiet"

    def test_all_halted_stop_reason(self):
        def on_round(ctx, inbox):
            ctx.halt(ctx.node)
            return None

        res = Network(nx.path_graph(4)).run(lambda ctx: None, on_round, 10)
        assert res.rounds == 1 and res.stop_reason == "halted"

    def test_max_rounds_stop_reason(self):
        def on_round(ctx, inbox):
            ctx.wake()
            return None

        res = Network(nx.path_graph(3)).run(lambda ctx: None, on_round, 7)
        assert res.rounds == 7 and res.stop_reason == "max_rounds"

    def test_mail_to_halted_node_is_dropped_and_surfaced(self):
        def init(ctx):
            ctx.state["round"] = 0

        def on_round(ctx, inbox):
            ctx.state["round"] += 1
            if ctx.node == 0:
                ctx.halt()  # leaves the protocol immediately
                return None
            if ctx.state["round"] == 1:
                ctx.wake()
                return {0: (1,)}  # lands in round 2, after 0 halted
            ctx.halt()
            return None

        trace = RoundTrace()
        res = Network(nx.path_graph(2)).run(init, on_round, 10, trace=trace)
        assert res.dropped_messages == 1
        assert res.messages_sent == 1  # the sender still paid for it
        assert any("halted" in w for w in trace.warnings)


class TestRoundTrace:
    def test_per_round_records_sum_to_totals(self):
        trace = RoundTrace()
        r = bfs_run(gen.grid(5, 5), 0, trace=trace)
        assert sum(rec.messages for rec in trace.records) == r.messages_sent
        assert len(trace.records) == r.rounds
        assert trace.total_messages == r.messages_sent
        assert trace.peak_active <= len(gen.grid(5, 5))
        assert trace.records[0].active == 25  # synchronous start: all nodes

    def test_active_set_shrinks_on_path_wavefront(self):
        n = 200
        trace = RoundTrace()
        bfs_run(gen.path_graph(n), 0, trace=trace)
        # After the synchronous start, only the wavefront (plus the quiet
        # countdown window) is scheduled — far below n.
        later = [rec.active for rec in trace.records[2:]]
        assert later and max(later) < n // 4

    def test_edge_histograms_and_offender(self):
        trace = RoundTrace()
        awerbuch_dfs_run(gen.grid(4, 4), 0, trace=trace)
        assert trace.max_words == 2  # the (TOKEN, depth) message
        run, rnd, src, dst, words = trace.offender
        assert words == 2
        hist = trace.edge_words[(src, dst)]
        assert hist[2] >= 1
        assert all(cost <= 2 for h in trace.edge_words.values() for cost in h)

    def test_trace_spans_multiple_runs(self):
        trace = RoundTrace()
        boruvka_mst_run(gen.grid(4, 4), trace=trace)
        assert trace.runs >= 3  # flood + MOE passes across phases

    def test_jsonl_round_trip(self, tmp_path):
        trace = RoundTrace()
        bfs_run(gen.grid(4, 4), 0, trace=trace)
        path = tmp_path / "trace.jsonl"
        lines = trace.dump_jsonl(path)
        records = read_jsonl(path)
        assert len(records) == lines
        kinds = [rec["kind"] for rec in records]
        assert kinds.count("round") == len(trace.records)
        assert kinds[-1] == "summary"
        summary = records[-1]
        assert summary["messages"] == trace.total_messages
        assert summary["peak_active"] == trace.peak_active

    def test_summary_shape(self):
        trace = RoundTrace()
        bfs_run(gen.grid(4, 4), 0, trace=trace)
        s = trace.summary()
        assert s["runs"] == 1
        assert s["rounds"] == len(trace.records)
        assert s["mean_active"] > 0
        assert s["dropped"] == 0

    def test_histograms_can_be_disabled(self):
        trace = RoundTrace(edge_histograms=False)
        bfs_run(gen.grid(4, 4), 0, trace=trace)
        assert trace.edge_words == {}
        assert trace.total_messages > 0


class TestNetworkReuse:
    def test_csr_structure_survives_multiple_runs(self):
        g = gen.grid(5, 5)
        net = Network(g)
        init, on_round = _flood_program()
        first = net.run(init, on_round, 200, stop_when_quiet=True,
                        finalize=lambda ctx: ctx.state["best"])
        second = net.run(init, on_round, 200, stop_when_quiet=True,
                         finalize=lambda ctx: ctx.state["best"])
        assert first.rounds == second.rounds
        assert first.outputs == second.outputs

    def test_neighbor_order_matches_graph(self):
        g = gen.delaunay(25, seed=1)
        net = Network(g)
        seen = {}

        def init(ctx):
            seen[ctx.node] = ctx.neighbors
            ctx.halt()

        net.run(init, lambda ctx, inbox: None, 2)
        for v in g.nodes:
            assert seen[v] == tuple(g.neighbors(v))
