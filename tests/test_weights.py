"""Unit tests for Definition 2 weights — the lemma-exactness core (E7).

Lemma 3: for ``u`` not an ancestor of ``v``, the weight equals
``|interior| + |path(lca..v)|``.  Lemma 4: for ``u`` an ancestor, the
weight equals ``|interior|`` exactly.  Also covered: Definition 1
orientations, Remark 1 membership, Lemma 8's side sets, and the augmented
weights of Phase 4 (exact for compatible leaves in the not-ancestor case).
"""

import networkx as nx
import pytest

from repro.core.augment import _anchors, _Insertion, insertion_variants, planar_slot_pairs
from repro.core.faces import endpoint_frame, face_view
from repro.core.weights import (
    augmented_weight,
    endpoint_weights,
    face_order,
    fundamental_weights,
    interior_by_orders,
    orientation,
    side_sets,
    weight,
)
from repro.planar import generators as gen

from conftest import configs_for, make_config


def expected_weight(cfg, fv):
    tree = cfg.tree
    interior = fv.interior()
    if tree.is_ancestor(fv.u, fv.v):
        return len(interior)
    return len(interior) + (tree.depth[fv.v] - tree.depth[fv.lca] + 1)


def reference_frame(cfg, u, v):
    """:func:`~repro.core.faces.endpoint_frame` through the configuration's
    and the tree's methods: the rotation position lookups, the ancestor
    test and the first step."""
    tree = cfg.tree
    at_u = cfg.t_position(u, v)
    at_v = cfg.t_position(v, u)
    if not tree.is_ancestor(u, v):
        return None, False, (0, at_u), (at_v, 0)
    z = tree.first_step(u, v)
    to_z = cfg.t_position(u, z)
    if at_u < to_z:
        return z, True, (at_u, to_z), (0, at_v)
    return z, False, (to_z, at_u), (at_v, 0)


def reference_weights(cfg, edges):
    """Definition 2 per edge from :func:`reference_frame` and
    ``cfg.child_size_between``'s range sums: the method-call form of
    :func:`~repro.core.weights.endpoint_weights`."""
    tree = cfg.tree
    out = {}
    for u, v in edges:
        z, inside_is_A, arc_u, arc_v = reference_frame(cfg, u, v)
        p = cfg.child_size_between(u, *arc_u) + cfg.child_size_between(v, *arc_v)
        if z is None:
            out[u, v] = p + cfg.pi_left[v] - (cfg.pi_left[u] + tree.subtree_size[u]) + 2
        else:
            pi = cfg.pi_right if inside_is_A else cfg.pi_left
            out[u, v] = p + (pi[v] - pi[z]) - (tree.depth[v] - tree.depth[z])
    return out


class TestEndpointFrameOracle:
    """The endpoint frame and the weight pass read position maps, Euler
    intervals and prefix sums directly.  ``fundamental_weights`` and
    ``weight(face_view)`` both go through that one frame, so their parity
    cannot catch a frame bug; the method-call reference above can."""

    @staticmethod
    def _check(cfg):
        edges = cfg.real_fundamental_edges()
        for u, v in edges:
            assert endpoint_frame(cfg, u, v) == reference_frame(cfg, u, v), (u, v)
        expected = reference_weights(cfg, edges)
        assert endpoint_weights(cfg, edges) == expected
        assert fundamental_weights(cfg) == expected
        return len(edges)

    @pytest.mark.parametrize("family", ["grid", "triangulated_grid"])
    @pytest.mark.parametrize("kind", ["bfs", "dfs"])
    def test_every_root_of_the_6x6_lattices(self, family, kind):
        graph = getattr(gen, family)(6, 6)
        edges = sum(self._check(make_config(graph, root=root, kind=kind)) for root in graph)
        assert edges > 10 * len(graph)

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_delaunay(self, seed):
        graph = gen.delaunay(100, seed=seed)
        for root in (0, 37 + seed, 99):
            for kind, cfg in configs_for(graph, root=root, seed=seed):
                self._check(cfg)

    @pytest.mark.parametrize("family", ["grid", "triangulated_grid", "delaunay"])
    def test_insertion_rows_match_the_built_configuration(self, family):
        # ``_Insertion`` holds only the two endpoint rows a virtual edge
        # ``ab`` would change; the configuration insertion_variants builds
        # for the same slot pair and anchor is the reference.
        graph = gen.delaunay(24, seed=5) if family == "delaunay" else getattr(gen, family)(4, 4)
        # Root the trees on the longest face, so re-anchored insertions
        # at the root occur.
        root = max(make_config(graph).rotation.faces(), key=len)[0]
        seen = {False: 0, True: 0}
        for kind in ("bfs", "dfs"):
            cfg = make_config(graph, root=root, kind=kind)
            pairs = {
                (a, b)
                for walk in cfg.rotation.faces()
                for a in walk
                for b in walk
                if a != b and not graph.has_edge(a, b)
            }
            for a, b in sorted(pairs, key=repr):
                slots = [
                    (ref_a, ref_b, reanchor)
                    for ref_a, ref_b in planar_slot_pairs(cfg, a, b)
                    for reanchor in _anchors(cfg, a, b)
                ]
                built = list(insertion_variants(cfg, a, b))
                assert len(built) == len(slots)
                for (ref_a, ref_b, reanchor), (cfg2, _) in zip(slots, built):
                    rows = _Insertion(cfg, a, b, ref_a, ref_b, reanchor)
                    e = (a, b) if cfg.pi_left[a] < cfg.pi_left[b] else (b, a)
                    assert endpoint_frame(rows, *e) == reference_frame(cfg2, *e), (e, reanchor)
                    assert endpoint_weights(rows, [e]) == reference_weights(cfg2, [e])
                    seen[reanchor] += 1
        assert seen[False] > 50 and seen[True] > 5, seen


class TestDefinition2Exactness:
    def test_all_families_all_trees(self):
        for name, g in gen.FAMILIES(1):
            if g.number_of_edges() < len(g):
                continue
            for kind, cfg in configs_for(g, seed=1):
                for e in cfg.real_fundamental_edges():
                    fv = face_view(cfg, e)
                    assert weight(cfg, fv) == expected_weight(cfg, fv), (name, kind, e)

    def test_nonzero_roots(self):
        g = gen.delaunay(35, seed=8)
        for root in (5, 17, 29):
            for kind, cfg in configs_for(g, root=root, seed=root):
                for e in cfg.real_fundamental_edges():
                    fv = face_view(cfg, e)
                    assert weight(cfg, fv) == expected_weight(cfg, fv)

    def test_weight_monotone_under_containment(self):
        # The paper: "omega is an increasing function for contained faces".
        cfg = make_config(gen.delaunay(30, seed=3))
        edges = cfg.real_fundamental_edges()
        views = {e: face_view(cfg, e) for e in edges}
        for e in edges:
            for f in edges:
                if f != e and views[e].contains_edge(f):
                    assert weight(cfg, views[f]) <= weight(cfg, views[e])


class TestOrientation:
    def test_orientation_cases(self):
        cfg = make_config(gen.triangulated_grid(4, 5), kind="dfs")
        seen = set()
        for e in cfg.real_fundamental_edges():
            o = orientation(cfg, e)
            seen.add(o)
            u, v = cfg.orient(e)
            assert (o == "none") == (not cfg.tree.is_ancestor(u, v))
        assert "none" in seen or len(seen) > 0

    def test_face_order_picks_right_for_right_oriented(self):
        for name, g in gen.FAMILIES(4):
            if g.number_of_edges() < len(g):
                continue
            cfg = make_config(g, kind="dfs", seed=4)
            for e in cfg.real_fundamental_edges():
                pi = face_order(cfg, e)
                if orientation(cfg, e) == "right":
                    assert pi is cfg.pi_right
                else:
                    assert pi is cfg.pi_left


class TestRemark1Membership:
    def test_matches_first_principles(self):
        for name, g in gen.FAMILIES(3):
            if g.number_of_edges() < len(g):
                continue
            for kind, cfg in configs_for(g, seed=3):
                for e in cfg.real_fundamental_edges():
                    fv = face_view(cfg, e)
                    assert interior_by_orders(cfg, fv) == fv.interior(), (name, kind, e)


class TestSideSets:
    def test_partition_of_outside(self):
        cfg = make_config(gen.delaunay(40, seed=2), kind="rand", seed=2)
        for e in cfg.real_fundamental_edges():
            fv = face_view(cfg, e)
            interior = fv.interior()
            left, right = side_sets(cfg, fv)
            outside = set(cfg.graph.nodes) - interior - set(fv.border)
            assert left | right == outside
            assert not left & right

    def test_right_side_is_high_left_positions(self):
        cfg = make_config(gen.grid(5, 5))
        for e in cfg.real_fundamental_edges()[:8]:
            fv = face_view(cfg, e)
            left, right = side_sets(cfg, fv)
            for x in right:
                assert cfg.pi_left[x] > cfg.pi_left[fv.v]


class TestAugmentedWeights:
    def test_exact_for_compatible_not_ancestor_leaves(self):
        """For a leaf z inside F_e with u not its ancestor, a compatible
        insertion exists whose face count equals the formula (the paper's
        Definition-2 extension); we assert the formula value is realized by
        at least one planar insertion."""
        checked = 0
        for name, g in gen.FAMILIES(2):
            if g.number_of_edges() < len(g):
                continue
            cfg = make_config(g, seed=2)
            tree = cfg.tree
            for e in cfg.real_fundamental_edges():
                fv = face_view(cfg, e)
                interior = fv.interior()
                for z in sorted(interior, key=repr):
                    if tree.children[z] or cfg.graph.has_edge(fv.u, z):
                        continue
                    if tree.is_ancestor(fv.u, z):
                        continue
                    predicted = augmented_weight(cfg, fv, z)
                    u_children = set()
                    for c in fv.children_inside(fv.u):
                        u_children.update(tree.subtree_nodes(c))
                    realized = set()
                    for cfg2, view in insertion_variants(cfg, fv.u, z, prefer_a=fv.v):
                        inside = view.interior()
                        if not inside <= interior | set(fv.border):
                            continue
                        # Definition 3 compatibility: u's inside children
                        # remain enclosed by the augmented face.
                        if not u_children - set(view.border) <= inside | {z}:
                            continue
                        w2 = len(inside) + (
                            tree.depth[z] - tree.depth[tree.lca(fv.u, z)] + 1
                        )
                        realized.add(w2)
                    if realized:
                        checked += 1
                        assert predicted in realized, (name, e, z)
                    if checked > 30:
                        return
        assert checked > 5

    def test_augmented_weight_of_extreme_leaf_covers_face(self):
        """Claim 7: the leaf with the highest sweep position counts every
        interior node (not-ancestor faces)."""
        hits = 0
        for name, g in gen.FAMILIES(6):
            if g.number_of_edges() < len(g):
                continue
            cfg = make_config(g, kind="rand", seed=6)
            tree = cfg.tree
            for e in cfg.real_fundamental_edges():
                fv = face_view(cfg, e)
                if tree.is_ancestor(fv.u, fv.v):
                    continue
                interior = fv.interior()
                leaves = [z for z in interior if not tree.children[z]
                          and not tree.is_ancestor(fv.u, z)]
                if not leaves:
                    continue
                order = face_order(cfg, fv.edge)
                top = max(leaves, key=lambda z: order[z])
                if order[top] < max(order[x] for x in interior):
                    continue  # extreme node is in a u-subtree; skip
                w = augmented_weight(cfg, fv, top)
                assert w >= len(interior), (name, e, top)
                hits += 1
        assert hits > 3
