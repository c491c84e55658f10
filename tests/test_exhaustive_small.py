"""Exhaustive verification on ALL small connected planar graphs.

The networkx graph atlas enumerates every graph on up to seven nodes; this
module runs Theorem 1 and Theorem 2 on *every* connected planar graph with
up to six nodes (and a deterministic sample of the seven-node ones), from
every root.  Combined with the property-based suite this pins the
algorithms down at the small end, where every phase boundary and off-by-one
lives.
"""

import hashlib

import networkx as nx
import pytest

from repro.congest import (
    CostModel,
    RoundLedger,
    RoundTrace,
    awerbuch_dfs_run,
    bfs_run,
    boruvka_mst_run,
    fragment_merge_run,
    partwise_aggregation_run,
    run_fingerprint,
    weights_problem_run,
)
from repro.core.certify import certify_cycle
from repro.core.config import PlanarConfiguration
from repro.core.dfs import dfs_tree
from repro.core.separator import cycle_separator
from repro.core.verify import check_dfs_tree, check_separator
from repro.planar import generators as gen
from repro.trees import bfs_tree

from conftest import forced_scheduler


def small_planar_graphs(max_nodes=6):
    from networkx.generators.atlas import graph_atlas_g

    for graph in graph_atlas_g():
        if len(graph) < 1 or len(graph) > max_nodes:
            continue
        if not nx.is_connected(graph):
            continue
        if not nx.check_planarity(graph, counterexample=False)[0]:
            continue
        yield graph


ALL_SMALL = list(small_planar_graphs(6))
SEVEN_SAMPLE = [
    g
    for i, g in enumerate(small_planar_graphs(7))
    if len(g) == 7 and i % 7 == 0
]


class TestExhaustiveSmall:
    def test_atlas_has_expected_coverage(self):
        assert len(ALL_SMALL) > 100  # all connected planar graphs, n <= 6

    def test_separator_on_every_small_graph_every_root(self):
        for graph in ALL_SMALL:
            for root in graph.nodes:
                cfg = PlanarConfiguration.build(graph, root=root)
                res = cycle_separator(cfg)
                check_separator(graph, res.path, cfg.tree)

    def test_dfs_on_every_small_graph_every_root(self):
        for graph in ALL_SMALL:
            for root in graph.nodes:
                res = dfs_tree(graph, root)
                check_dfs_tree(graph, res.parent, root)

    def test_seven_node_sample(self):
        assert SEVEN_SAMPLE
        for graph in SEVEN_SAMPLE:
            for root in (0, len(graph) - 1):
                cfg = PlanarConfiguration.build(graph, root=root)
                check_separator(graph, cycle_separator(cfg).path, cfg.tree)
                check_dfs_tree(graph, dfs_tree(graph, root).parent, root)

    def test_determinism_on_small_graphs(self):
        for graph in ALL_SMALL[::10]:
            cfg1 = PlanarConfiguration.build(graph, root=0)
            cfg2 = PlanarConfiguration.build(graph, root=0)
            assert cycle_separator(cfg1).path == cycle_separator(cfg2).path


def trees_plus_one_chord(n):
    """Every tree on ``n`` nodes (up to isomorphism) with one non-tree
    edge added, once per possible chord."""
    for tree in nx.nonisomorphic_trees(n):
        for a, b in nx.non_edges(tree):
            graph = tree.copy()
            graph.add_edge(a, b)
            yield graph


#: Certificates of a cycle separator (Theorem 1): the endpoints are
#: adjacent, share a face, or the path is too short to need closing.
CYCLE_CERTIFICATES = {"real-edge", "virtual-edge", "trivial"}


class TestTreeChordCensus:
    """A census slice past the atlas: every tree on 3-8 nodes plus one
    chord, from every root (5,496 runs).  A failure here is shrunk to a
    witness and committed as a strict xfail; the family is not narrowed."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_every_root(self, n):
        for graph in trees_plus_one_chord(n):
            for root in graph.nodes:
                check_dfs_tree(graph, dfs_tree(graph, root).parent, root)
                cfg = PlanarConfiguration.build(graph, root=root)
                path = cycle_separator(cfg).path
                check_separator(graph, path, cfg.tree)
                cert = certify_cycle(cfg.graph, cfg.rotation, path)
                assert cert in CYCLE_CERTIFICATES, (sorted(graph.edges), root, path, cert)


# ---------------------------------------------------------------------------
# Scheduler-equivalence A/B harness.
#
# Every message-level simulation in the repo, on every small instance
# below, under both ``Network.run`` schedulers — asserting identical
# ``run_fingerprint`` (or, for composite sims that make many ``run``
# calls, identical result fields plus an identical trace digest), round
# counts, and charged-ledger totals.  Any divergence between the dense
# reference and the active-set dispatcher fails here first.
# ---------------------------------------------------------------------------

SCHEDULERS = ("dense", "active")

HARNESS_GRAPHS = [
    ("grid_8x8", lambda: gen.grid(8, 8)),
    ("delaunay_48", lambda: gen.delaunay(48, seed=5)),
    ("grid_4x6", lambda: gen.grid(4, 6)),
]


def _trace_digest(trace):
    """Per-round delivery tuples + per-edge word histograms, hashed.

    The same projection :func:`repro.congest.run_fingerprint` uses: the
    ``active`` field is excluded (dispatch sets differ across schedulers
    by design), everything the network *delivered* is included.
    """
    digest = hashlib.sha256()
    for rec in trace.records:
        digest.update(
            repr(
                (
                    rec.run,
                    rec.round,
                    rec.messages,
                    rec.words,
                    rec.dropped,
                    rec.lost,
                    rec.duplicated,
                    rec.corrupted,
                    rec.max_words,
                )
            ).encode()
        )
    for src, dst, hist in sorted(
        (repr(s), repr(d), tuple(sorted(h.items())))
        for (s, d), h in trace.edge_words.items()
    ):
        digest.update(f"{src}->{dst}:{hist};".encode())
    return digest.hexdigest()


def _ledger_totals(graph, result):
    """A measured run booked on a charged ledger, and its message volume."""
    ledger = RoundLedger(CostModel(len(graph), nx.diameter(graph)))
    ledger.charge_rounds("ab", result.rounds)
    return ledger.total_rounds, result.messages_sent


def _assert_all_equal(per_scheduler, context):
    assert per_scheduler["active"] == per_scheduler["dense"], (
        f"{context}: scheduler 'active' diverges from dense"
    )


class TestSchedulerEquivalence:
    @pytest.mark.parametrize("name,make", HARNESS_GRAPHS)
    def test_bfs(self, name, make):
        g = make()
        root = min(g.nodes, key=repr)
        obs = {}
        for sched in SCHEDULERS:
            trace = RoundTrace()
            with forced_scheduler(sched):
                res = bfs_run(g, root, trace=trace)
            obs[sched] = (
                run_fingerprint(res, trace),
                res.rounds,
                res.messages_sent,
                _ledger_totals(g, res),
            )
        _assert_all_equal(obs, f"bfs/{name}")

    @pytest.mark.parametrize("name,make", HARNESS_GRAPHS)
    def test_awerbuch_dfs(self, name, make):
        g = make()
        root = min(g.nodes, key=repr)
        obs = {}
        for sched in SCHEDULERS:
            trace = RoundTrace()
            with forced_scheduler(sched):
                res = awerbuch_dfs_run(g, root, trace=trace)
            obs[sched] = (
                run_fingerprint(res, trace),
                res.rounds,
                _ledger_totals(g, res),
            )
        _assert_all_equal(obs, f"awerbuch/{name}")

    @pytest.mark.parametrize("name,make", HARNESS_GRAPHS)
    def test_fragment_merge(self, name, make):
        g = make()
        tree = bfs_tree(g, min(g.nodes, key=repr))
        obs = {}
        for sched in SCHEDULERS:
            trace = RoundTrace()
            with forced_scheduler(sched):
                run = fragment_merge_run(g, tree, trace=trace)
            obs[sched] = (run.iterations, run.rounds, _trace_digest(trace))
        _assert_all_equal(obs, f"fragments/{name}")

    @pytest.mark.parametrize("name,make", HARNESS_GRAPHS)
    def test_partwise_aggregation(self, name, make):
        g = make()
        nodes = sorted(g.nodes)
        size = (len(nodes) + 3) // 4
        parts = [nodes[i: i + size] for i in range(0, len(nodes), size)]
        values = {v: (i * 13) % 17 for i, v in enumerate(nodes)}
        obs = {}
        for sched in SCHEDULERS:
            trace = RoundTrace()
            with forced_scheduler(sched):
                run = partwise_aggregation_run(g, parts, values, trace=trace)
            obs[sched] = (
                run.aggregates,
                run.rounds,
                run.charge,
                _trace_digest(trace),
            )
        _assert_all_equal(obs, f"partwise/{name}")

    @pytest.mark.parametrize("name,make", HARNESS_GRAPHS)
    def test_weights_problem(self, name, make):
        g = make()
        cfg = PlanarConfiguration.build(g, root=min(g.nodes, key=repr))
        obs = {}
        for sched in SCHEDULERS:
            trace = RoundTrace()
            with forced_scheduler(sched):
                run = weights_problem_run(cfg, trace=trace)
            obs[sched] = (
                run.weights,
                run.rounds,
                run.orders,
                _trace_digest(trace),
            )
        _assert_all_equal(obs, f"weights/{name}")

    @pytest.mark.parametrize("name,make", HARNESS_GRAPHS)
    def test_boruvka_mst(self, name, make):
        g = make()
        obs = {}
        for sched in SCHEDULERS:
            trace = RoundTrace()
            with forced_scheduler(sched):
                run = boruvka_mst_run(g, trace=trace)
            obs[sched] = (
                run.edges,
                run.phases,
                run.rounds,
                _trace_digest(trace),
            )
        _assert_all_equal(obs, f"mst/{name}")
