"""Separator-sharded execution: determinism and composability (PR 7).

The contract under test (``docs/ARCHITECTURE.md``): a run partitioned by
its own cycle-separator decomposition — one engine per shard, cross-shard
edges as channels, rounds advanced by barrier — must be *bit-identical*
to the single-process simulator.  ``run_fingerprint`` covers outputs,
crashed sets, per-round delivered-message records and per-edge word
histograms, so every test here pins the whole observable surface, not
just the answer.

Most A/B legs run ``shard_mode="inline"``: the same sharded engine and
barrier protocol, stepped sequentially in-process — bit-identical to the
forked path by construction, and an order of magnitude faster to test.
``TestProcessMode`` spot-checks that the forked path really does agree.
"""

import pickle

import pytest

from repro.congest import (
    CrashFault,
    FaultPlan,
    ReliableTransport,
    RoundTrace,
    TransportStats,
    awerbuch_dfs_run,
    bfs_run,
    boruvka_mst_run,
    fragment_merge_run,
    partition_summary,
    partwise_aggregation_run,
    run_fingerprint,
    separator_shard_partition,
    weights_problem_run,
)
from repro.congest.network import Network
from repro.congest.sharded import _fork_context
from repro.core.config import PlanarConfiguration
from repro.obs import MetricsRegistry
from repro.planar import generators as gen
from repro.trees import bfs_tree

from test_exhaustive_small import _trace_digest
from test_network_scheduler import observe_faulty_flood

GRAPHS = [
    ("grid_6x6", lambda: gen.grid(6, 6)),
    ("delaunay_32", lambda: gen.delaunay(32, seed=5)),
]

SHARD_COUNTS = (2, 4)


def _fingerprints(run_one):
    """``run_one(**kwargs) -> (fingerprint, rounds)`` for single-process
    and every sharded variant; returns the observation dict."""
    obs = {"single": run_one()}
    for k in SHARD_COUNTS:
        obs[f"shards={k}"] = run_one(shards=k, shard_mode="inline")
    return obs


def _assert_parity(obs, context):
    baseline = obs["single"]
    for label, value in obs.items():
        assert value == baseline, f"{context}: {label} diverges from single-process"


# ---------------------------------------------------------------------------
# the partition itself
# ---------------------------------------------------------------------------


class TestPartition:
    @pytest.mark.parametrize("name,make", GRAPHS)
    @pytest.mark.parametrize("shards", (1, 2, 3, 4, 7))
    def test_covers_every_node_exactly_once(self, name, make, shards):
        g = make()
        parts = separator_shard_partition(g, shards)
        flat = [v for part in parts for v in part]
        assert sorted(flat, key=repr) == sorted(g.nodes, key=repr)
        assert len(flat) == len(g)
        assert len(parts) == min(shards, len(g))
        assert all(part for part in parts)

    def test_clamps_to_node_count(self):
        g = gen.grid(2, 2)
        parts = separator_shard_partition(g, 16)
        assert len(parts) == 4
        assert all(len(part) == 1 for part in parts)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            separator_shard_partition(gen.grid(3, 3), 0)
        import networkx as nx

        with pytest.raises(ValueError):
            separator_shard_partition(nx.Graph(), 2)

    def test_summary_shape(self):
        g = gen.grid(6, 6)
        parts = separator_shard_partition(g, 3)
        summary = partition_summary(g, parts)
        assert summary["shards"] == 3
        assert sum(summary["sizes"]) == len(g)
        assert summary["imbalance"] >= 1.0
        assert 0 < summary["cut_edges"] < g.number_of_edges()
        assert 0.0 < summary["cut_fraction"] < 1.0

    def test_explicit_partition_must_cover(self):
        g = gen.grid(3, 3)
        nodes = sorted(g.nodes)
        net = Network(g)
        bad = [nodes[:4], nodes[4:-1]]  # one node missing
        with pytest.raises(ValueError, match="cover every node"):
            net.run(
                lambda ctx: None,
                lambda ctx, inbox: None,
                4,
                shard_partition=bad,
            )

    def test_unknown_shard_mode_rejected(self):
        g = gen.grid(3, 3)
        root = min(g.nodes, key=repr)
        with pytest.raises(ValueError, match="shard_mode"):
            bfs_run(g, root, shards=2, shard_mode="threads")


# ---------------------------------------------------------------------------
# fingerprint parity across every simulation
# ---------------------------------------------------------------------------


class TestShardedParity:
    @pytest.mark.parametrize("name,make", GRAPHS)
    def test_bfs(self, name, make):
        g = make()
        root = min(g.nodes, key=repr)

        def run_one(**kw):
            trace = RoundTrace()
            res = bfs_run(g, root, trace=trace, **kw)
            return run_fingerprint(res, trace), res.rounds

        _assert_parity(_fingerprints(run_one), f"bfs/{name}")

    @pytest.mark.parametrize("name,make", GRAPHS)
    def test_awerbuch_dfs(self, name, make):
        g = make()
        root = min(g.nodes, key=repr)

        def run_one(**kw):
            trace = RoundTrace()
            res = awerbuch_dfs_run(g, root, trace=trace, **kw)
            return run_fingerprint(res, trace), res.rounds

        _assert_parity(_fingerprints(run_one), f"dfs/{name}")

    @pytest.mark.parametrize("name,make", GRAPHS)
    def test_fragment_merge(self, name, make):
        g = make()
        tree = bfs_tree(g, min(g.nodes, key=repr))

        def run_one(**kw):
            trace = RoundTrace()
            run = fragment_merge_run(g, tree, trace=trace, **kw)
            return run.iterations, run.rounds, _trace_digest(trace)

        _assert_parity(_fingerprints(run_one), f"fragments/{name}")

    @pytest.mark.parametrize("name,make", GRAPHS)
    def test_partwise_aggregation(self, name, make):
        g = make()
        nodes = sorted(g.nodes)
        size = (len(nodes) + 3) // 4
        parts = [nodes[i: i + size] for i in range(0, len(nodes), size)]
        values = {v: (i * 13) % 17 for i, v in enumerate(nodes)}

        def run_one(**kw):
            trace = RoundTrace()
            run = partwise_aggregation_run(g, parts, values, trace=trace, **kw)
            return run.aggregates, run.rounds, run.charge, _trace_digest(trace)

        _assert_parity(_fingerprints(run_one), f"partwise/{name}")

    @pytest.mark.parametrize("name,make", GRAPHS)
    def test_weights_problem(self, name, make):
        g = make()
        cfg = PlanarConfiguration.build(g, root=min(g.nodes, key=repr))

        def run_one(**kw):
            trace = RoundTrace()
            run = weights_problem_run(cfg, trace=trace, **kw)
            return run.weights, run.rounds, run.orders, _trace_digest(trace)

        _assert_parity(_fingerprints(run_one), f"weights/{name}")

    @pytest.mark.parametrize("name,make", GRAPHS)
    def test_boruvka_mst(self, name, make):
        g = make()

        def run_one(**kw):
            trace = RoundTrace()
            run = boruvka_mst_run(g, trace=trace, **kw)
            return run.edges, run.phases, run.rounds, _trace_digest(trace)

        _assert_parity(_fingerprints(run_one), f"mst/{name}")

    def test_run_result_reports_shard_count(self):
        g = gen.grid(5, 5)
        root = min(g.nodes, key=repr)
        single = bfs_run(g, root)
        assert single.shards == 1
        sharded = bfs_run(g, root, shards=3, shard_mode="inline")
        assert sharded.shards == 3

    def test_shards_one_is_plain_single_process(self):
        g = gen.grid(5, 5)
        root = min(g.nodes, key=repr)
        t1, t2 = RoundTrace(), RoundTrace()
        a = bfs_run(g, root, trace=t1)
        b = bfs_run(g, root, trace=t2, shards=1)
        assert b.shards == 1
        assert run_fingerprint(a, t1) == run_fingerprint(b, t2)


# ---------------------------------------------------------------------------
# cross-shard edge cases: crashes, faults, transport
# ---------------------------------------------------------------------------


class TestCrossShardFaults:
    def test_whole_shard_crash_mid_round(self):
        """Crash *every* node of one shard at the same round: the other
        shards must observe the loss exactly as the single-process
        simulator would (messages in flight to the dead shard count as
        ``lost``, the run still terminates)."""
        g = gen.grid(6, 6)
        root = min(g.nodes, key=repr)
        parts = separator_shard_partition(g, 3)
        victims = parts[1]
        faults = FaultPlan(crashes=[CrashFault(v, 4) for v in victims])

        obs = {}
        for label, kw in (
            ("single", {}),
            ("sharded", {"shards": 3, "shard_mode": "inline"}),
        ):
            trace = RoundTrace()
            res = bfs_run(g, root, trace=trace, faults=faults, **kw)
            obs[label] = (run_fingerprint(res, trace), sorted(res.crashed, key=repr))
        assert obs["sharded"] == obs["single"]
        assert obs["single"][1] == sorted(victims, key=repr)

    def test_rate_faults_across_boundary(self):
        g = gen.grid(6, 6)
        root = min(g.nodes, key=repr)
        faults = FaultPlan(
            seed=11, drop_rate=0.1, duplicate_rate=0.05, corrupt_rate=0.05
        )

        obs = {}
        for label, kw in (
            ("single", {}),
            ("sharded", {"shards": 4, "shard_mode": "inline"}),
        ):
            trace = RoundTrace()
            res = bfs_run(g, root, trace=trace, faults=faults, **kw)
            obs[label] = run_fingerprint(res, trace)
        assert obs["sharded"] == obs["single"]

    def test_transport_retransmit_across_boundary(self):
        """Drops on cut edges must be recovered by the reliable transport
        exactly as in one process: identical logical fingerprint
        (delivery digests), retransmits actually happened, nothing was
        given up on."""
        g = gen.grid(5, 5)
        root = min(g.nodes, key=repr)
        faults = FaultPlan(seed=7, drop_rate=0.15)

        obs = {}
        stats = {}
        for label, kw in (
            ("single", {}),
            ("sharded", {"shards": 2, "shard_mode": "inline"}),
        ):
            res = awerbuch_dfs_run(
                g, root, faults=faults, transport=ReliableTransport(), **kw
            )
            assert res.transport is not None
            obs[label] = run_fingerprint(res, transport=res.transport)
            stats[label] = res.transport
        assert obs["sharded"] == obs["single"]
        assert stats["sharded"].retransmits > 0
        assert stats["sharded"].unrecovered == []
        assert stats["sharded"].retransmits == stats["single"].retransmits

    def test_clean_transport_matches_physical_and_logical(self):
        g = gen.grid(5, 5)
        root = min(g.nodes, key=repr)
        obs = {}
        for label, kw in (
            ("single", {}),
            ("sharded", {"shards": 3, "shard_mode": "inline"}),
        ):
            trace = RoundTrace()
            res = bfs_run(
                g, root, trace=trace, transport=ReliableTransport(), **kw
            )
            obs[label] = (
                run_fingerprint(res, trace),
                run_fingerprint(res, transport=res.transport),
            )
        assert obs["sharded"] == obs["single"]

    def test_observations_match_single_process(self):
        """Trace warnings and ``congest_*`` metrics of the sharded engine,
        inline and forked, equal the active loop's on the faulty flood of
        ``test_network_scheduler`` (drops, duplicates, corruption, mail to
        halted nodes, two same-round crashes, a deadlock)."""
        g = gen.grid(6, 6)
        # The plan lists the two round-3 crashes against their shards'
        # order; every engine must warn in the plan's order.
        shard_of = {
            v: s
            for s, part in enumerate(separator_shard_partition(g, 3))
            for v in part
        }
        assert shard_of[2] > shard_of[35]
        engines = {
            "active": {},
            "sharded-inline": {"shards": 3, "shard_mode": "inline"},
        }
        if _fork_context() is not None:
            engines["sharded-process"] = {"shards": 3, "shard_mode": "process"}
        seen = {label: observe_faulty_flood(**kw) for label, kw in engines.items()}
        _, warnings, congest = seen["active"]
        for label, (_, other_warnings, other_congest) in seen.items():
            assert other_warnings == warnings, label
            assert other_congest == congest, label


# ---------------------------------------------------------------------------
# forked workers agree with the inline engine
# ---------------------------------------------------------------------------


@pytest.mark.skipif(_fork_context() is None, reason="platform lacks fork")
class TestProcessMode:
    def test_process_equals_inline_equals_single(self):
        g = gen.grid(6, 6)
        root = min(g.nodes, key=repr)
        faults = FaultPlan(seed=3, drop_rate=0.05, duplicate_rate=0.05)

        obs = {}
        for label, kw in (
            ("single", {}),
            ("inline", {"shards": 3, "shard_mode": "inline"}),
            ("process", {"shards": 3, "shard_mode": "process"}),
        ):
            trace = RoundTrace()
            res = awerbuch_dfs_run(g, root, trace=trace, faults=faults, **kw)
            obs[label] = (run_fingerprint(res, trace), res.rounds)
        assert obs["process"] == obs["inline"] == obs["single"]

    def test_congest_violation_propagates_from_worker(self):
        from repro.congest import CongestViolation

        g = gen.grid(4, 4)
        net = Network(g, max_words=1)

        def init(ctx):
            return None

        def on_round(ctx, inbox):
            return {nbr: [1, 2, 3, 4, 5, 6, 7, 8] for nbr in ctx.neighbors}

        with pytest.raises(CongestViolation):
            net.run(init, on_round, 4, shards=2, shard_mode="process")


# ---------------------------------------------------------------------------
# composability: metrics, cache keys, campaign plumbing
# ---------------------------------------------------------------------------


class TestComposition:
    def test_metrics_merge_matches_single_process(self):
        """Shard-local registries merged by the coordinator must equal
        the single-process registry on every counter except wall-clock
        histograms."""
        g = gen.grid(6, 6)

        def counters(metrics):
            return {
                line
                for line in metrics.to_prometheus().splitlines()
                if line and not line.startswith("#")
                and "wall_seconds" not in line
            }

        root = min(g.nodes, key=repr)
        m_single, m_sharded = MetricsRegistry(), MetricsRegistry()
        bfs_run(g, root, metrics=m_single)
        bfs_run(g, root, metrics=m_sharded, shards=3, shard_mode="inline")
        assert counters(m_sharded) == counters(m_single)

    def test_metrics_registry_merge_primitive(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        ca = a.counter("x_total", "help")
        cb = b.counter("x_total", "help")
        ca.inc(3)
        cb.inc(4)
        a.merge(b)
        assert ca.value() == 7

    def test_transport_stats_pickle_and_merge(self):
        g = gen.grid(4, 4)
        root = min(g.nodes, key=repr)
        res_a = bfs_run(g, root, transport=ReliableTransport())
        a = res_a.transport

        clone = pickle.loads(pickle.dumps(a))
        assert clone.inner_sends == a.inner_sends
        assert clone.delivery_log() == a.delivery_log()

        # Shard-local stats cover disjoint directed-edge sets; the
        # coordinator's merge sums the counters and unions the logs —
        # and refuses a double-counted edge outright.
        x, y = TransportStats(), TransportStats()
        x.inner_sends, y.inner_sends = 3, 4
        x.log_delivery("u", "v", [1])
        y.log_delivery("v", "w", [2])
        merged = TransportStats()
        merged.merge_from(x)
        merged.merge_from(y)
        assert merged.inner_sends == 7
        assert len(merged.delivery_log()) == 2
        with pytest.raises(ValueError, match="present in both"):
            merged.merge_from(x)

    def test_shards_changes_the_unit_cache_key(self):
        """``shards`` is part of the campaign unit, so switching it must
        be a cache miss — a sharded sweep can never serve results
        recorded single-process (or vice versa)."""
        import dataclasses

        from repro.analysis import registry
        from repro.chaos.campaign import CAMPAIGNS, campaign_units, _campaign_spec

        base = CAMPAIGNS["smoke"]
        sharded = dataclasses.replace(base, shards=2)

        units_base = campaign_units(base)
        units_sharded = campaign_units(sharded)
        assert all("shards" not in u for u in units_base)
        assert all(u["shards"] == 2 for u in units_sharded)

        spec = _campaign_spec(base)
        keys_base = {repr(registry.unit_cache_key(spec, u)) for u in units_base}
        keys_sharded = {
            repr(registry.unit_cache_key(spec, u)) for u in units_sharded
        }
        assert keys_base.isdisjoint(keys_sharded)

    def test_scenario_outcome_records_shards(self):
        from repro.chaos.scenarios import run_scenario

        single = run_scenario("dfs", n=16, graph_seed=1)
        sharded = run_scenario("dfs", n=16, graph_seed=1, shards=2)
        assert single["shards"] == 1
        assert sharded["shards"] == 2
        assert sharded["ok"] and single["ok"]
        # shards is execution strategy, not behavior: fingerprints agree.
        assert sharded["fingerprint"] == single["fingerprint"]

    def test_code_version_covers_sharded_module(self):
        from repro.analysis.cache import _FINGERPRINTED_SOURCES

        assert "congest/sharded.py" in _FINGERPRINTED_SOURCES
