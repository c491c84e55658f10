"""Tests for the applications package (hierarchy, biconnectivity)."""

import math
from collections import Counter

import networkx as nx
import pytest

from repro.applications import (
    biconnectivity,
    build_hierarchy,
    low_points,
)
from repro.congest import CostModel, RoundLedger
from repro.core.certify import certify_cycle
from repro.core.config import PlanarConfiguration
from repro.core.dfs import dfs_tree
from repro.core.separator import cycle_separator
from repro.planar import generators as gen


class TestHierarchy:
    def test_elimination_order_is_permutation(self):
        for seed in range(3):
            g = gen.delaunay(80, seed=seed)
            h = build_hierarchy(g)
            order = h.elimination_order()
            assert sorted(order) == sorted(g.nodes)

    def test_depth_is_logarithmic(self):
        g = gen.delaunay(300, seed=1)
        h = build_hierarchy(g)
        # 2/3 balance: depth <= log_{3/2}(n) + slack.
        assert h.depth <= math.log(len(g), 1.5) + 4

    def test_every_region_split_is_balanced(self):
        g = gen.triangulated_grid(9, 9)
        h = build_hierarchy(g)
        for region in h.regions():
            if region.is_leaf:
                continue
            for child in region.children:
                assert 3 * len(child.nodes) <= 2 * len(region.nodes)

    def test_level_of_consistent(self):
        g = gen.grid(7, 7)
        h = build_hierarchy(g)
        # The first region in preorder whose separator holds a node removed it.
        removed_by = {}
        for region in h.regions():
            for v in region.separator:
                removed_by.setdefault(v, region)
        assert set(removed_by) == set(g.nodes)
        assert h.level_sizes() == Counter(r.level for r in removed_by.values())

    def test_leaf_size_respected(self):
        g = gen.delaunay(60, seed=4)
        h = build_hierarchy(g, leaf_size=6)
        for region in h.regions():
            if region.is_leaf and region.phase == "leaf":
                assert len(region.nodes) <= 6

    def test_charges_ledger(self):
        g = gen.grid(6, 6)
        ledger = RoundLedger(CostModel(36, 10))
        build_hierarchy(g, ledger=ledger)
        assert ledger.total_rounds > 0

    def test_rejects_bad_input(self):
        with pytest.raises(Exception):
            build_hierarchy(nx.complete_graph(5))


class TestBiconnectivity:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_networkx(self, seed):
        g = gen.random_planar(70, density=0.35, seed=seed)
        res = biconnectivity(g)
        assert res.articulation_points == set(nx.articulation_points(g))
        assert res.bridges == {tuple(sorted(e, key=repr)) for e in nx.bridges(g)}

    def test_biconnected_graph_has_no_cuts(self):
        g = gen.triangulated_grid(5, 5)
        res = biconnectivity(g)
        assert not res.articulation_points
        assert not res.bridges

    def test_tree_input_all_internal_nodes_cut(self):
        g = gen.random_tree(30, seed=2)
        res = biconnectivity(g)
        internal = {v for v in g.nodes if g.degree[v] >= 2}
        assert res.articulation_points == internal
        assert len(res.bridges) == g.number_of_edges()

    def test_low_points_definition(self):
        g = gen.delaunay(50, seed=3)
        dfs = dfs_tree(g, 0)
        tree = dfs.to_tree()
        low = low_points(g, tree)
        for v in g.nodes:
            subtree = tree.subtree_nodes(v)
            best = min(tree.depth[x] for x in subtree)
            for x in subtree:
                for u in g.neighbors(x):
                    if tree.parent.get(x) == u or tree.parent.get(u) == x:
                        continue
                    best = min(best, tree.depth[u])
            assert low[v] == best

    def test_reuses_supplied_dfs(self):
        g = gen.grid(5, 5)
        dfs = dfs_tree(g, 0)
        res = biconnectivity(g, dfs=dfs)
        assert res.tree.root == 0


class TestCertify:
    def test_phase3_outputs_have_real_closing_edge(self):
        g = gen.delaunay(60, seed=0)
        cfg = PlanarConfiguration.build(g, root=0)
        res = cycle_separator(cfg)
        cert = certify_cycle(cfg.graph, cfg.rotation, res.path)
        if res.phase in ("phase3", "phase3b"):
            assert cert == "real-edge"
        assert cert != "none"

    def test_certificates_across_families(self):
        certs = {}
        for name, g in gen.FAMILIES(3):
            cfg = PlanarConfiguration.build(g, root=0)
            res = cycle_separator(cfg)
            cert = certify_cycle(cfg.graph, cfg.rotation, res.path)
            certs[name] = (res.phase, cert)
            assert cert in {"real-edge", "virtual-edge", "trivial"}, certs
        assert any(c == "real-edge" for _, c in certs.values())


class TestPieces:
    def test_pieces_partition_non_separator_nodes(self):
        g = gen.delaunay(150, seed=6)
        h = build_hierarchy(g, leaf_size=12)
        pieces = h.pieces()
        covered = set()
        for piece in pieces:
            assert not covered & piece.interior  # vertex-disjoint
            covered |= piece.interior
        # interiors + all separators cover V
        separators = {
            v for r in h.regions() if not r.is_leaf for v in r.separator
        }
        assert covered | separators == set(g.nodes)

    def test_piece_interiors_respect_leaf_size(self):
        g = gen.triangulated_grid(10, 10)
        h = build_hierarchy(g, leaf_size=9)
        for piece in h.pieces():
            assert len(piece.interior) <= 9

    def test_boundaries_are_ancestor_separators(self):
        g = gen.grid(9, 9)
        h = build_hierarchy(g, leaf_size=8)
        separators = {
            v for r in h.regions() if not r.is_leaf for v in r.separator
        }
        for piece in h.pieces():
            assert piece.boundary <= separators

    def test_interpiece_paths_cross_boundaries(self):
        g = gen.delaunay(80, seed=2)
        h = build_hierarchy(g, leaf_size=10)
        pieces = h.pieces()
        if len(pieces) >= 2:
            a, b = pieces[0], pieces[1]
            blocked = g.subgraph(
                set(g.nodes) - (a.boundary | b.boundary)
            )
            for u in a.interior:
                for v in b.interior:
                    if u in blocked and v in blocked:
                        assert not nx.has_path(blocked, u, v)
