"""End-to-end tests for Theorem 2 (deterministic DFS trees)."""

import gc
import hashlib
import math
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import dfs as dfs_module
from repro.core.certify import certify_cycle
from repro.core.config import PlanarConfiguration
from repro.core.dfs import DFSError, dfs_tree
from repro.core.separator import cycle_separator
from repro.core.verify import check_dfs_tree, check_separator
from repro.congest import CostModel, RoundLedger
from repro.planar import embed
from repro.planar import generators as gen
from repro.planar.checks import NotConnectedError, NotPlanarError
from repro.planar.rotation import RotationSystem
from repro.trees.rooted import RootedTree


class TestCorrectness:
    def test_all_families(self):
        for seed in range(2):
            for name, g in gen.FAMILIES(seed):
                root = seed % len(g)
                res = dfs_tree(g, root)
                tree = check_dfs_tree(g, res.parent, root)
                assert tree.root == root

    def test_depths_are_consistent(self):
        g = gen.delaunay(50, seed=3)
        res = dfs_tree(g, 0)
        tree = res.to_tree()
        assert res.depth == tree.depth

    def test_deterministic(self):
        g = gen.random_planar(40, density=0.5, seed=6)
        a = dfs_tree(g, 0)
        b = dfs_tree(g, 0)
        assert a.parent == b.parent

    def test_every_root(self):
        g = gen.grid(4, 5)
        for root in range(0, len(g), 3):
            res = dfs_tree(g, root)
            check_dfs_tree(g, res.parent, root)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_sweep(self, seed):
        for density in (0.25, 0.6, 1.0):
            g = gen.random_planar(50, density=density, seed=seed)
            root = seed % len(g)
            res = dfs_tree(g, root)
            check_dfs_tree(g, res.parent, root)


class TestMainLoopGolden:
    """``dfs_tree``'s phase statistics and parent maps, pinned per family.

    Each phase's components of ``G - T_d`` are computed once, at the
    phase start, and the previous phase's shrink factor is read from
    them; these digests were taken when a second component pass ran at
    every phase end, so they lock the two as equal.  Instances are
    rebuilt with sorted nodes and edges, so a dependency's insertion
    order (scipy's Delaunay simplices) cannot move them.
    """

    GOLDEN = {
        "grid": "9c36d01302ea86a2",
        "triangulated_grid": "f485de729126c48b",
        "cylinder": "603beeed5c355830",
        "delaunay": "fc2db48b1aa8631d",
        "random_planar": "e56cb232b4a5fc83",
        "outerplanar": "ad2f4c59d32ed925",
        "apollonian": "e45d274355f2b702",
        "wheel": "c28aea4c3be21724",
        "theta": "f9c4a0dc66a18d49",
        "path": "3a75735da8533b46",
        "star": "4fe779b776f2db43",
        "broom": "4117eb846ce6f848",
        "caterpillar": "b148c0f160349b35",
        "random_tree": "ab8a47f73acffe91",
        "binary_tree": "2ab4f5572cc1fb19",
        "ladder": "2cc3ef1bdb060786",
        "nested_triangles": "7a9321ab021795f6",
        "hexagonal": "e22b176c85e66282",
        "fan": "75a83899fd7a9eba",
        "double_wheel": "6816f53b4de5498d",
        "series_parallel": "8ae2b9c8fc024bfd",
    }

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_phases_shrink_factors_and_parents(self, name):
        raw = dict(gen.FAMILIES())[name]
        g = nx.Graph()
        g.add_nodes_from(sorted(raw))
        g.add_edges_from(sorted(tuple(sorted(e)) for e in raw.edges()))
        res = dfs_tree(g, 0)
        assert len(res.shrink_factors) == len(res.join_iterations) == res.phases
        key = repr((res.phases, res.shrink_factors, sorted(res.parent.items())))
        assert hashlib.sha256(key.encode()).hexdigest()[:16] == self.GOLDEN[name]


def _sorted_copy(raw):
    """``raw`` rebuilt with sorted nodes and edges, so a dependency's
    insertion order (scipy's Delaunay simplices) cannot move a digest."""
    g = nx.Graph()
    g.add_nodes_from(sorted(raw))
    g.add_edges_from(sorted(tuple(sorted(e)) for e in raw.edges()))
    return g


class TestDriverLocks:
    """The per-phase component pass and the JOIN re-split, locked by output
    and by work.

    The digests were taken while both passes ran ``nx.connected_components``
    over ``graph.subgraph`` views and JOIN re-copied its component, so they
    lock ``induced_components`` and the handed-over copy as equal to them.
    """

    DELAUNAY = {
        (1, 0): "4cf3d42bc31193e1",
        (2, 61): "1b186a43e0db1961",
        (3, 128): "95ca0ae5c3fce255",
        (4, 249): "e26caa27ab112348",
    }

    @pytest.mark.parametrize("seed,root", list(DELAUNAY))
    def test_delaunay_parents_and_phase_statistics(self, seed, root):
        res = dfs_tree(_sorted_copy(gen.delaunay(250, seed=seed)), root)
        key = repr(
            (
                res.phases,
                res.shrink_factors,
                res.join_iterations,
                sorted(res.separator_phases.items()),
                sorted(res.parent.items()),
            )
        )
        assert hashlib.sha256(key.encode()).hexdigest()[:16] == self.DELAUNAY[seed, root]

    @staticmethod
    def _count_builds(monkeypatch):
        """Count, from here on, the driver's induced copies, attachment
        scans and per-part sizes, and every rotation system, spanning tree,
        configuration and separator call."""
        calls = {"induced_copy": 0, "_deepest_attachment": 0}
        for name in calls:
            original = getattr(dfs_module, name)

            def counted(*args, _original=original, _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(dfs_module, name, counted)
        parts = []
        absorb = dfs_module._absorb_part

        def recording(graph, rotation, component, *args):
            parts.append(len(component))
            return absorb(graph, rotation, component, *args)

        monkeypatch.setattr(dfs_module, "_absorb_part", recording)
        builds = {"rotation": 0, "tree": 0, "config": 0, "separator": 0}
        separator = dfs_module.cycle_separator

        def separating(*args, **kwargs):
            builds["separator"] += 1
            return separator(*args, **kwargs)

        monkeypatch.setattr(dfs_module, "cycle_separator", separating)

        def counting(kind, original):
            def build(*args, **kwargs):
                builds[kind] += 1
                return original(*args, **kwargs)

            return build

        monkeypatch.setattr(
            RotationSystem, "__init__", counting("rotation", RotationSystem.__init__)
        )
        monkeypatch.setattr(
            RotationSystem, "adopt", classmethod(counting("rotation", RotationSystem.adopt.__func__))
        )
        monkeypatch.setattr(RootedTree, "__init__", counting("tree", RootedTree.__init__))
        monkeypatch.setattr(
            PlanarConfiguration, "__init__", counting("config", PlanarConfiguration.__init__)
        )
        return calls, parts, builds

    def test_one_copy_and_one_attachment_scan_per_component(self, monkeypatch):
        calls, parts, builds = self._count_builds(monkeypatch)
        res = dfs_tree(gen.grid(9, 9), 0)
        components = sum(res.separator_phases.values())
        large = sum(1 for size in parts if size > 2)
        assert len(parts) == components and 0 < large < components
        assert res.separator_phases.get("trivial", 0) == components - large
        # Every JOIN takes one iteration, which reuses the separator's copy
        # and attachment instead of rebuilding them.
        assert res.join_iterations == [1] * res.phases
        assert calls == {"induced_copy": large, "_deepest_attachment": components}
        # One rotation system per part of more than two nodes (restricted
        # and normalized in one build) plus the embedding, and one spanning
        # tree per such part, the separator's: JOIN walks its search's
        # parent map.  A part of at most two nodes builds none of them.
        assert builds == {"rotation": large + 1, "tree": large, "config": large,
                          "separator": large}

    def test_parts_of_at_most_two_nodes_build_nothing(self, monkeypatch):
        calls, parts, builds = self._count_builds(monkeypatch)
        # Removing the middle of a 5-path leaves two 2-node parts; the
        # middle of a 3-path leaves two single nodes.
        runs = [(graph, root, dfs_tree(graph, root))
                for graph, root in ((nx.path_graph(5), 2), (nx.path_graph(3), 1))]
        assert parts == [2, 2, 1, 1]
        assert calls == {"induced_copy": 0, "_deepest_attachment": 4}
        # The embeddings only: no part copy, tree, configuration or
        # separator call.
        assert builds == {"rotation": 2, "tree": 0, "config": 0, "separator": 0}
        for graph, root, res in runs:
            assert res.separator_phases == {"trivial": 2}
            assert res.join_iterations == [1] and res.shrink_factors == [0.0]
            check_dfs_tree(graph, res.parent, root)

    #: ``dfs_tree(graph, 0, ledger=...)`` totals, recorded while every part
    #: went through ``cycle_separator`` and ``_join``: the trivial-part path
    #: charges what they charged.
    ROUNDS = {
        "grid-9x9": (53762, {
            "join-iteration": 33120, "mark-path": 15680, "partwise-aggregation": 640,
            "planar-embedding": 1120, "precomputation": 2880, "weights": 322,
        }),
        "delaunay-250-seed1": (72004, {
            "join-iteration": 404544, "mark-path": 104448, "not-contained": 384,
            "partwise-aggregation": 3168, "planar-embedding": 768,
            "precomputation": 16320, "weights": 1261,
        }),
    }

    @pytest.mark.parametrize("name", list(ROUNDS))
    def test_charged_rounds_by_subroutine(self, name):
        graph = gen.grid(9, 9) if name == "grid-9x9" else gen.delaunay(250, seed=1)
        ledger = RoundLedger(CostModel(len(graph), nx.diameter(graph)))
        dfs_tree(graph, 0, ledger=ledger)
        assert (ledger.total_rounds, ledger.by_subroutine) == self.ROUNDS[name]


class TestNoCyclicGarbage:
    """Per-component copies are freed by reference counting.  networkx
    caches its ``nodes``/``edges`` views on a graph, and those views point
    back at it, so reading them on a component copy made every copy cyclic
    garbage that only the cycle collector frees."""

    @pytest.mark.parametrize(
        "build",
        [lambda: gen.delaunay(250, seed=7), lambda: gen.triangulated_grid(16, 16)],
        ids=["delaunay", "triangulated_grid"],
    )
    def test_dfs_tree_leaves_no_cyclic_garbage(self, build):
        # networkx compiles each dispatched function on its first call,
        # which leaves a few cyclic objects once per process.
        dfs_tree(gen.grid(3, 3), 0)
        graph = build()
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            dfs_tree(graph, 0)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_caller_graph_is_freed_by_reference_counting(self):
        # The embedding, a supplied rotation's certificate and the DFS
        # check read the caller's graph without caching a networkx view
        # on it, so a dropped input graph does not wait for the collector.
        dfs_tree(gen.grid(3, 3), 0)
        graph = gen.delaunay(250, seed=7)
        rotation = embed(graph)
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            check_dfs_tree(graph, dfs_tree(graph, 0).parent, 0)
            check_dfs_tree(graph, dfs_tree(graph, 0, rotation=rotation).parent, 0)
            del graph, rotation
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestComplexityShape:
    def test_logarithmic_phases(self):
        for n_side in (5, 7, 9):
            g = gen.grid(n_side, n_side)
            res = dfs_tree(g, 0)
            n = len(g)
            assert res.phases <= 3 * math.ceil(math.log2(n)) + 3

    def test_component_shrink_factor(self):
        # Theorem 2: the max component shrinks by >= 1/3 per phase once a
        # separator of it has been absorbed.
        g = gen.delaunay(80, seed=4)
        res = dfs_tree(g, 0)
        for factor in res.shrink_factors[:-1]:
            assert factor <= 2 / 3 + 1e-9

    def test_join_iterations_logarithmic(self):
        g = gen.triangulated_grid(8, 8)
        res = dfs_tree(g, 0)
        n = len(g)
        assert max(res.join_iterations) <= 2 * math.ceil(math.log2(n)) + 2

    def test_charged_rounds_scale_with_diameter(self):
        g = gen.grid(7, 7)
        ledger = RoundLedger(CostModel(len(g), nx.diameter(g)))
        res = dfs_tree(g, 0, ledger=ledger)
        assert ledger.total_rounds > 0
        # Õ(D) sanity: far below the O(n * D) a naive approach would charge.
        assert ledger.normalized() < 1000


class TestEdgeCasesAndErrors:
    def test_singleton(self):
        g = nx.Graph()
        g.add_node(5)
        res = dfs_tree(g, 5)
        assert res.parent == {5: None} and res.phases == 0

    def test_two_nodes(self):
        res = dfs_tree(nx.path_graph(2), 0)
        assert res.parent == {0: None, 1: 0}

    def test_tree_input(self):
        g = gen.random_tree(30, seed=8)
        res = dfs_tree(g, 0)
        check_dfs_tree(g, res.parent, 0)

    def test_bad_root_rejected(self):
        with pytest.raises(ValueError):
            dfs_tree(gen.grid(3, 3), 99)

    def test_nonplanar_rejected(self):
        with pytest.raises(NotPlanarError):
            dfs_tree(nx.complete_graph(6), 0)

    def test_disconnected_rejected(self):
        with pytest.raises(NotConnectedError):
            dfs_tree(nx.Graph([(0, 1), (2, 3)]), 0)

    def test_path_with_one_chord(self):
        g = nx.path_graph(14)
        g.add_edge(2, 4)
        res = dfs_tree(g, 0)
        check_dfs_tree(g, res.parent, 0)


def _path_chord_cases():
    for n in range(5, 19):
        for k in range(2, 5):
            for a in range(n - k):
                for root in (0, n - 1):
                    yield pytest.param(n, a, k, root, id=f"n{n}-a{a}-k{k}-r{root}")


class TestPathWithOneChordSweep:
    """``path_graph(n)`` plus one chord ``(a, a + k)``, n 5..18, k 2..4,
    every chord start, rooted at either path end."""

    @pytest.mark.parametrize("n,a,k,root", _path_chord_cases())
    def test_sweep(self, n, a, k, root):
        g = nx.path_graph(n)
        g.add_edge(a, a + k)
        res = dfs_tree(g, root)
        check_dfs_tree(g, res.parent, root)


def _star_with_hub_triangle(k=8):
    """``star_graph(k)`` plus a triangle through the hub: two new nodes
    joined to each other and to the hub."""
    g = nx.star_graph(k)
    g.add_edges_from([(0, k + 1), (0, k + 2), (k + 1, k + 2)])
    return g


class TestRescueEveryRoot:
    """Inputs where the paper's phases leave some roots without a balanced
    separator (a lattice, hub roots), so the rescue's face-chord scan
    separates: every root must yield a verified DFS tree, and every
    separator ``dfs_tree`` asks for must certify as a cycle separator."""

    @pytest.mark.parametrize(
        "graph",
        [gen.grid(12, 12), nx.windmill_graph(5, 3), nx.windmill_graph(12, 3),
         _star_with_hub_triangle()],
        ids=["grid-12x12", "friendship-F5", "friendship-F12", "star8-hub-triangle"],
    )
    def test_every_root(self, graph, monkeypatch):
        separate = dfs_module.cycle_separator
        certificates = Counter()

        def certified(cfg, **kwargs):
            result = separate(cfg, **kwargs)
            certificates[certify_cycle(cfg.graph, cfg.rotation, result.path)] += 1
            return result

        monkeypatch.setattr(dfs_module, "cycle_separator", certified)
        fired = 0
        for root in graph.nodes:
            res = dfs_tree(graph, root)
            check_dfs_tree(graph, res.parent, root)
            fired += res.separator_phases.get("rescue", 0)
        assert fired > 0
        assert set(certificates) <= {"real-edge", "virtual-edge", "trivial"}, certificates


@st.composite
def spines_with_legs_and_chords(draw):
    """A path (the spine) of 10-60 nodes, 0-5 pendant legs on spine nodes
    and 1-3 distinct chords between spine nodes at most 6 apart, with a
    root anywhere.  A tree plus at most 3 chords is planar (K5 and K3,3
    need cyclomatic number 6 and 4)."""
    n = draw(st.integers(10, 60))
    g = nx.path_graph(n)
    for leg in range(draw(st.integers(0, 5))):
        g.add_edge(draw(st.integers(0, n - 1)), n + leg)
    chords = draw(st.lists(
        st.integers(2, 6).flatmap(
            lambda k: st.tuples(st.integers(0, n - 1 - k), st.just(k))),
        min_size=1, max_size=3, unique=True))
    g.add_edges_from((a, a + k) for a, k in chords)
    return g, draw(st.sampled_from(sorted(g.nodes)))


class TestSpineCensusSlice:
    """The spine family of the failure census, where the paper's phases
    first left inputs without a balanced separator (from n = 14).  A
    1,500-case sweep found no failure; tier-1 runs a seeded slice."""

    @given(spines_with_legs_and_chords())
    @settings(derandomize=True, deadline=None, max_examples=150)
    def test_dfs_and_separator_are_certified(self, instance):
        g, root = instance
        res = dfs_tree(g, root)
        check_dfs_tree(g, res.parent, root)
        cfg = PlanarConfiguration.build(g, root=root)
        check_separator(g, cycle_separator(cfg).path, cfg.tree)


def _build(graph, root, rotation=None):
    return PlanarConfiguration.build(graph, root=root, rotation=rotation)


class TestErrorPrecedence:
    """Disconnected before non-planar before a missing root, with or
    without a caller-supplied rotation."""

    K5_PLUS_EDGE = nx.disjoint_union(nx.complete_graph(5), nx.path_graph(2))
    CASES = [
        (K5_PLUS_EDGE, 99, NotConnectedError),
        (nx.Graph([(0, 1), (2, 3)]), 99, NotConnectedError),
        (nx.complete_graph(5), 99, NotPlanarError),
        (nx.complete_bipartite_graph(3, 3), 99, NotPlanarError),
        (gen.grid(3, 3), 99, ValueError),
    ]

    @pytest.mark.parametrize("entry", [dfs_tree, _build], ids=["dfs_tree", "build"])
    @pytest.mark.parametrize("supplied", [False, True], ids=["embedded", "supplied"])
    @pytest.mark.parametrize("graph,root,error", CASES)
    def test_first_failing_hypothesis_wins(self, entry, supplied, graph, root, error):
        rotation = embed(gen.grid(3, 3)) if supplied else None
        with pytest.raises(error) as info:
            entry(graph, root, rotation=rotation)
        if error is ValueError:
            assert not isinstance(info.value, (NotConnectedError, NotPlanarError))
            assert "root 99 is not a graph node" in str(info.value)

    def test_embed_reports_non_planar_graph(self):
        with pytest.raises(NotPlanarError, match=r"^graph with 5 nodes / 10 edges is not planar$"):
            embed(nx.complete_graph(5))


class TestDFSRuleInvariants:
    def test_parents_are_graph_edges(self):
        g = gen.cylinder(4, 9)
        res = dfs_tree(g, 0)
        for v, p in res.parent.items():
            if p is not None:
                assert g.has_edge(v, p)

    def test_depth_is_parent_plus_one(self):
        g = gen.apollonian(5, seed=2)
        res = dfs_tree(g, 0)
        for v, p in res.parent.items():
            if p is not None:
                assert res.depth[v] == res.depth[p] + 1

    def test_separator_phase_stats_recorded(self):
        g = gen.delaunay(60, seed=1)
        res = dfs_tree(g, 0)
        assert sum(res.separator_phases.values()) >= res.phases
