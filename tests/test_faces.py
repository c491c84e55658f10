"""Unit tests for fundamental faces: borders, interiors, containment.

The central invariant (tested exhaustively here and by property tests):
:class:`FaceView`'s arc-based interior equals the region oracle's dual
flood fill for every real fundamental edge.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.core.config import PlanarConfiguration
from repro.core.faces import face_view
from repro.core.regions import RegionError, cycle_regions
from repro.core.weights import weight
from repro.planar import generators as gen
from repro.planar.rotation import RotationSystem
from repro.trees.rooted import RootedTree

from conftest import configs_for, make_config
from test_properties import COMMON, planar_instances


def oracle_interior(cfg, fv):
    root = cfg.tree.root
    anchor = cfg.t(root)[0]
    return cycle_regions(cfg.rotation, fv.border, (root, anchor)).inside_nodes


def oracle_inside_positions(cfg, fv):
    """Per border node, the rotation positions the region oracle puts inside.

    Each chord between two border nodes is subdivided by a fresh node, so
    every position of a border node leads either along the cycle or to a
    node off the cycle, which the dual flood fill places on one side.
    """
    on_border = set(fv.border)
    cycle_edges = {frozenset(p) for p in zip(fv.border, fv.border[1:])}
    cycle_edges.add(frozenset((fv.u, fv.v)))

    def through(x, y):
        if {x, y} <= on_border and frozenset((x, y)) not in cycle_edges:
            return ("mid",) + tuple(sorted((x, y), key=repr))
        return y

    order = {x: [through(x, y) for y in cfg.t(x)] for x in cfg.rotation.nodes}
    for x in on_border:
        for y in cfg.t(x):
            mid = through(x, y)
            if mid != y:
                order[mid] = [x, y]
    root = cfg.tree.root
    outside = (root, through(root, cfg.t(root)[0]))
    inside = cycle_regions(RotationSystem(order), fv.border, outside).inside_nodes
    return {
        x: {p for p, y in enumerate(order[x]) if y in inside} for x in fv.border
    }


class TestFaceView:
    def test_border_is_tree_path_plus_edge(self):
        cfg = make_config(gen.triangulated_grid(4, 5))
        for e in cfg.real_fundamental_edges():
            fv = face_view(cfg, e)
            assert fv.border[0] == fv.u and fv.border[-1] == fv.v
            for a, b in zip(fv.border, fv.border[1:]):
                assert cfg.is_tree_edge(a, b)
            assert cfg.graph.has_edge(fv.u, fv.v)

    def test_interior_matches_oracle_all_families(self):
        for name, g in gen.FAMILIES(2):
            if g.number_of_edges() < len(g):
                continue
            for kind, cfg in configs_for(g, seed=2):
                for e in cfg.real_fundamental_edges():
                    fv = face_view(cfg, e)
                    assert fv.interior() == oracle_interior(cfg, fv), (name, kind, e)

    def test_interior_matches_oracle_nonzero_root(self):
        g = gen.wheel(16)
        for root in (3, 7, 11):
            for kind, cfg in configs_for(g, root=root, seed=root):
                for e in cfg.real_fundamental_edges():
                    fv = face_view(cfg, e)
                    assert fv.interior() == oracle_interior(cfg, fv)

    def test_interior_is_union_of_full_subtrees(self):
        cfg = make_config(gen.delaunay(40, seed=4), kind="rand", seed=4)
        for e in cfg.real_fundamental_edges():
            fv = face_view(cfg, e)
            interior = fv.interior()
            for z in interior:
                assert set(cfg.tree.subtree_nodes(z)) <= interior

    def test_p_values_sum_child_subtrees(self):
        cfg = make_config(gen.triangulated_grid(4, 4))
        for e in cfg.real_fundamental_edges():
            fv = face_view(cfg, e)
            interior = fv.interior()
            for x in (fv.u, fv.v):
                direct = sum(
                    1
                    for z in interior
                    if cfg.tree.is_ancestor(x, z)
                    and cfg.tree.first_step(x, z) in cfg.tree.children[x]
                )
                assert fv.p_value(x) == direct

    def test_inside_positions_match_oracle_at_every_border_node(self):
        rng = random.Random(5)
        graphs = [gen.triangulated_grid(5, 5), gen.delaunay(40, seed=3), gen.wheel(12)]
        for g in graphs:
            for kind, cfg in configs_for(g, seed=3):
                for e in cfg.real_fundamental_edges():
                    expected = oracle_inside_positions(cfg, face_view(cfg, e))
                    border = list(expected)
                    shuffled = border[:]
                    rng.shuffle(shuffled)
                    # A fresh view per order: arcs are computed on the
                    # first query, so the order must not matter.
                    for order in (border, border[::-1], shuffled):
                        fv = face_view(cfg, e)
                        for x in order:
                            assert set(fv.inside_positions(x)) == expected[x], (kind, e, x)

    def test_interior_is_computed_once(self):
        cfg = make_config(gen.delaunay(40, seed=4))
        for e in cfg.real_fundamental_edges():
            fv = face_view(cfg, e)
            interior = fv.interior()
            assert isinstance(interior, frozenset)
            assert fv.interior() is interior
            assert fv.face_nodes() == interior | set(fv.border)

    def test_weight_reads_only_the_endpoints(self, monkeypatch):
        # Definition 2's weight is local to u and v (Lemma 12): the number
        # of rotation lookups must not grow with the border, and neither
        # the view nor the weight walks the tree path or climbs to the LCA.
        # A BFS tree of a long 3-row grid makes borders of up to 80 nodes.
        cfg = make_config(gen.grid(3, 40))
        calls = []
        walks = []
        original = PlanarConfiguration.t_position

        def counting(self, v, u):
            calls.append(v)
            return original(self, v, u)

        class CountingRows(dict):
            # The endpoint frame reads position maps row by row.
            def __getitem__(self, v):
                calls.append(v)
                return dict.__getitem__(self, v)

        monkeypatch.setattr(PlanarConfiguration, "t_position", counting)
        cfg._pos = CountingRows(cfg._pos)
        for name in ("path", "lca"):
            walk = getattr(RootedTree, name)

            def counting_walk(self, a, b, _name=name, _walk=walk):
                walks.append(_name)
                return _walk(self, a, b)

            monkeypatch.setattr(RootedTree, name, counting_walk)
        longest = 0
        for e in cfg.real_fundamental_edges():
            calls.clear()
            fv = face_view(cfg, e)
            weight(cfg, fv)
            # One per endpoint for the other endpoint's slot, one for z
            # (ancestor pairs only); parents sit at position 0.
            bound = 3 if fv.z is not None else 2
            assert 0 < len(calls) <= bound, (e, len(calls))
            assert set(calls) <= {fv.u, fv.v}, (e, calls)
            assert walks == [], (e, walks)
            # p-values are range sums: no set of inside positions is built.
            assert fv._inside_positions == {}, e
            longest = max(longest, len(fv.border))
            walks.clear()
        assert longest >= 50

    @given(planar_instances())
    @settings(**COMMON)
    def test_endpoint_arcs_match_oracle_on_a_fresh_view(self, instance):
        # Querying only u and v never builds the border walk, so this
        # checks the O(1) endpoint walk neighbours on their own.
        g, cfg = instance
        for e in cfg.real_fundamental_edges():
            fv = face_view(cfg, e)
            arcs = {x: set(fv.inside_positions(x)) for x in (fv.u, fv.v)}
            assert fv._border is None
            expected = oracle_inside_positions(cfg, fv)
            assert arcs == {x: expected[x] for x in arcs}, e

    def test_rejects_tree_and_missing_edges(self):
        cfg = make_config(gen.grid(3, 4))
        p, c = next(iter(cfg.tree.edges()))
        with pytest.raises(ValueError):
            face_view(cfg, (p, c))
        with pytest.raises(ValueError):
            face_view(cfg, (0, 99))


class TestContainment:
    def test_contains_edge_implies_region_containment(self):
        cfg = make_config(gen.delaunay(30, seed=9))
        edges = cfg.real_fundamental_edges()
        views = {e: face_view(cfg, e) for e in edges}
        regions = {
            e: views[e].interior() | set(views[e].border) for e in edges
        }
        for e in edges:
            for f in edges:
                if f == e:
                    continue
                if views[e].contains_edge(f):
                    assert regions[f] <= regions[e], (e, f)

    def test_edge_not_contained_in_itself(self):
        cfg = make_config(gen.triangulated_grid(3, 4))
        for e in cfg.real_fundamental_edges():
            fv = face_view(cfg, e)
            assert not fv.contains_edge((fv.u, fv.v))
            assert not fv.contains_edge((fv.v, fv.u))


class TestRegions:
    def test_rejects_non_cycle(self):
        cfg = make_config(gen.grid(3, 4))
        root, anchor = cfg.tree.root, cfg.t(cfg.tree.root)[0]
        with pytest.raises(RegionError):
            cycle_regions(cfg.rotation, [0, 1], (root, anchor))
        with pytest.raises(RegionError):
            cycle_regions(cfg.rotation, [0, 1, 5], (root, anchor))  # not edges

    def test_rejects_repeated_nodes(self):
        cfg = make_config(gen.grid(3, 4))
        root, anchor = cfg.tree.root, cfg.t(cfg.tree.root)[0]
        with pytest.raises(RegionError):
            cycle_regions(cfg.rotation, [0, 1, 0], (root, anchor))

    def test_two_sides_partition(self):
        cfg = make_config(gen.triangulated_grid(4, 4))
        root, anchor = cfg.tree.root, cfg.t(cfg.tree.root)[0]
        for e in cfg.real_fundamental_edges()[:6]:
            fv = face_view(cfg, e)
            reg = cycle_regions(cfg.rotation, fv.border, (root, anchor))
            all_nodes = reg.inside_nodes | reg.outside_nodes | reg.cycle_nodes
            assert all_nodes == set(cfg.graph.nodes)
            assert not reg.inside_nodes & reg.outside_nodes
