"""Property-based tests (hypothesis) for the core invariants.

Instances are drawn from the generator families with randomized sizes,
densities, seeds, roots and spanning-tree flavors; the properties are the
paper's load-bearing statements:

* Definition 2 weights are exact (Lemmas 3/4);
* arc-based face interiors equal the dual flood fill;
* every emitted separator is a balanced T-path (Theorem 1);
* every DFS tree satisfies the ancestor property (Theorem 2);
* rooted-tree algebra (reroot, paths, LCA) is self-consistent.
"""

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import PlanarConfiguration
from repro.core.dfs import dfs_tree
from repro.core.faces import face_view
from repro.core.regions import cycle_regions
from repro.core.separator import (
    _containment_maximal,
    _containment_minimal,
    cycle_separator,
)
from repro.core.verify import check_dfs_tree, check_separator
from repro.core.weights import face_size, fundamental_weights, interior_by_orders, weight
from repro.planar import generators as gen
from repro.trees import bfs_tree, dfs_spanning_tree, random_spanning_tree

COMMON = dict(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def planar_instances(draw, min_n=8, max_n=45):
    """A random planar graph + spanning-tree flavor + root."""
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 10_000))
    family = draw(st.sampled_from(["delaunay", "sparse", "medium", "outer", "tree"]))
    if family == "delaunay":
        g = gen.delaunay(n, seed=seed)
    elif family == "sparse":
        g = gen.random_planar(n, density=0.25, seed=seed)
    elif family == "medium":
        g = gen.random_planar(n, density=0.6, seed=seed)
    elif family == "outer":
        g = gen.outerplanar(n, chords=n // 3, seed=seed)
    else:
        g = gen.random_tree(n, seed=seed)
    kind = draw(st.sampled_from(["bfs", "dfs", "rand"]))
    root = draw(st.integers(0, n - 1)) % len(g)
    if kind == "bfs":
        tree = bfs_tree(g, root)
    elif kind == "dfs":
        tree = dfs_spanning_tree(g, root)
    else:
        tree = random_spanning_tree(g, root, seed)
    return g, PlanarConfiguration.build(g, root=root, tree=tree)


class TestWeightExactness:
    @given(planar_instances())
    @settings(**COMMON)
    def test_definition2_is_exact(self, instance):
        g, cfg = instance
        tree = cfg.tree
        for e in cfg.real_fundamental_edges():
            fv = face_view(cfg, e)
            interior = fv.interior()
            if tree.is_ancestor(fv.u, fv.v):
                expected = len(interior)
            else:
                expected = len(interior) + (
                    tree.depth[fv.v] - tree.depth[fv.lca] + 1
                )
            assert weight(cfg, fv) == expected

    @given(planar_instances())
    @settings(**COMMON)
    def test_remark1_membership(self, instance):
        g, cfg = instance
        for e in cfg.real_fundamental_edges():
            fv = face_view(cfg, e)
            assert interior_by_orders(cfg, fv) == fv.interior()


class TestPrefixSumWeights:
    """p-values from the configuration's prefix sums of child subtree sizes,
    and the one-pass Definition 2, against the arc-walking oracle."""

    @given(planar_instances())
    @settings(**COMMON)
    def test_p_value_matches_the_inside_arc_oracle(self, instance):
        g, cfg = instance
        tree = cfg.tree
        for e in cfg.real_fundamental_edges():
            oracle = face_view(cfg, e)
            for x in oracle.border:
                t = cfg.t(x)
                expected = sum(
                    tree.subtree_size[t[p]]
                    for p in oracle.inside_positions(x)
                    if tree.parent[t[p]] == x
                )
                assert face_view(cfg, e).p_value(x) == expected, (e, x)

    @given(planar_instances())
    @settings(**COMMON)
    def test_one_pass_equals_weight_of_each_view(self, instance):
        g, cfg = instance
        fundamental = cfg.real_fundamental_edges()
        weights = fundamental_weights(cfg)
        assert list(weights) == fundamental
        assert weights == {e: weight(cfg, face_view(cfg, e)) for e in fundamental}


class TestFaceInteriors:
    @given(planar_instances())
    @settings(**COMMON)
    def test_arc_interior_equals_flood_fill(self, instance):
        g, cfg = instance
        root = cfg.tree.root
        if not cfg.t(root):
            return
        anchor = cfg.t(root)[0]
        for e in cfg.real_fundamental_edges():
            fv = face_view(cfg, e)
            oracle = cycle_regions(cfg.rotation, fv.border, (root, anchor))
            assert fv.interior() == oracle.inside_nodes


class TestContainmentBySize:
    """NOT-CONTAINED / NOT-CONTAINS from weight-derived face sizes agree
    with a full scan that builds every face's node set and tests every
    candidate pair."""

    @staticmethod
    def _oracle_maximal(views, candidates):
        order = sorted(candidates, key=lambda e: (-len(views[e].face_nodes()), repr(e)))
        for e in order:
            if not any(f != e and views[f].contains_edge(e) for f in candidates):
                return e

    @staticmethod
    def _oracle_minimal(views, candidates):
        order = sorted(candidates, key=lambda e: (len(views[e].face_nodes()), repr(e)))
        for e in order:
            if not any(f != e and views[e].contains_edge(f) for f in candidates):
                return e

    @given(planar_instances(), st.randoms(use_true_random=False))
    @settings(**COMMON)
    def test_helpers_match_full_scan(self, instance, rnd):
        g, cfg = instance
        fundamental = cfg.real_fundamental_edges()
        for e in fundamental:
            fv = face_view(cfg, e)
            assert sum(face_size(cfg, fv.edge, weight(cfg, fv))) == len(fv.face_nodes())
        if not fundamental:
            return
        for _ in range(4):
            subset = rnd.sample(fundamental, rnd.randint(1, len(fundamental)))
            views = {e: face_view(cfg, e) for e in subset}
            assert _containment_maximal(cfg, views, subset) == \
                self._oracle_maximal(views, subset)
            views = {e: face_view(cfg, e) for e in subset}
            assert _containment_minimal(cfg, views, subset) == \
                self._oracle_minimal(views, subset)


class TestTheorem1:
    @given(planar_instances())
    @settings(**COMMON)
    def test_separator_is_balanced_tree_path(self, instance):
        g, cfg = instance
        res = cycle_separator(cfg)
        check_separator(g, res.path, cfg.tree)


class TestTheorem2:
    @given(planar_instances(max_n=35))
    @settings(**COMMON)
    def test_dfs_tree_ancestor_property(self, instance):
        g, cfg = instance
        root = cfg.tree.root
        res = dfs_tree(g, root)
        check_dfs_tree(g, res.parent, root)


class TestTreeAlgebra:
    @given(planar_instances(max_n=30), st.integers(0, 10_000))
    @settings(**COMMON)
    def test_reroot_and_paths(self, instance, pick):
        g, cfg = instance
        tree = cfg.tree
        nodes = sorted(tree.nodes, key=repr)
        a = nodes[pick % len(nodes)]
        b = nodes[(pick * 31 + 7) % len(nodes)]
        path = tree.path(a, b)
        assert path[0] == a and path[-1] == b
        assert len(path) == tree.path_length(a, b) + 1
        rerooted = tree.reroot(a)
        assert rerooted.depth[b] == tree.path_length(a, b)
        # Rerooting twice returns to an equivalent tree.
        back = rerooted.reroot(tree.root)
        assert back.depth == tree.depth
        w = tree.lca(a, b)
        assert tree.is_ancestor(w, a) and tree.is_ancestor(w, b)


class TestInsertionSoundness:
    @given(planar_instances(max_n=30), st.integers(0, 10_000))
    @settings(**COMMON)
    def test_balanced_insertion_certificates_are_sound(self, instance, pick):
        """Whenever balanced_insertion certifies a pair, removing the T-path
        really leaves components of at most 2n/3 nodes."""
        from repro.core.augment import balanced_insertion
        from repro.core.verify import separator_report

        g, cfg = instance
        n = cfg.n
        nodes = sorted(g.nodes, key=repr)
        a = nodes[pick % len(nodes)]
        b = nodes[(pick * 17 + 3) % len(nodes)]
        if a == b or g.has_edge(a, b):
            return
        if balanced_insertion(cfg, a, b, n) is None:
            return
        assert separator_report(g, cfg.tree.path(a, b)).balanced

    @given(planar_instances(max_n=30))
    @settings(**COMMON)
    def test_insertion_variants_preserve_planarity(self, instance):
        from repro.core.augment import insertion_variants

        g, cfg = instance
        nodes = sorted(g.nodes, key=repr)
        a, b = nodes[0], nodes[-1]
        if a == b or g.has_edge(a, b):
            return
        for cfg2, view in insertion_variants(cfg, a, b):
            cfg2.rotation.validate()
            assert view.border[0] == view.u and view.border[-1] == view.v
            break  # one variant suffices per example


def physical_balanced_insertion(cfg, a, b, n, prefer_a=None, prefer_b=None):
    """The oracle: build every insertion and count its face's interior."""
    from repro.core.augment import insertion_variants

    path_len = cfg.tree.path_length(a, b) + 1
    for _, view in insertion_variants(cfg, a, b, prefer_a, prefer_b):
        inside = len(view.interior())
        if 3 * inside <= 2 * n and 3 * (n - inside - path_len) <= 2 * n:
            return inside
    return None


class TestInsertionSizing:
    """Insertions sized from the parent configuration equal the built ones."""

    @given(planar_instances(max_n=30), st.data())
    @settings(**COMMON)
    def test_sizes_match_every_built_variant(self, instance, data):
        from repro.core.augment import (
            balanced_insertion,
            insertion_interiors,
            insertion_variants,
        )

        g, cfg = instance
        root = cfg.tree.root
        nodes = sorted(g.nodes, key=repr)
        pairs = [(a, b) for a in nodes for b in nodes if a != b and not g.has_edge(a, b)]
        if not pairs:
            return
        drawn = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4))
        rooted = [(a, b) for a, b in pairs if root in (a, b)]
        if rooted:  # both root anchors
            drawn += data.draw(st.lists(st.sampled_from(rooted), min_size=1, max_size=3))
        for a, b in drawn:
            prefer_a = data.draw(st.sampled_from((None,) + cfg.t(a)))
            prefer_b = data.draw(st.sampled_from((None,) + cfg.t(b)))
            built = [len(view.interior())
                     for _, view in insertion_variants(cfg, a, b, prefer_a, prefer_b)]
            assert list(insertion_interiors(cfg, a, b, prefer_a, prefer_b)) == built, (a, b)
            assert balanced_insertion(cfg, a, b, cfg.n, prefer_a, prefer_b) == (
                physical_balanced_insertion(cfg, a, b, cfg.n, prefer_a, prefer_b))


class TestCertifyProperty:
    @given(planar_instances(max_n=30))
    @settings(**COMMON)
    def test_every_separator_gets_a_certificate(self, instance):
        from repro.core.certify import certify_cycle

        g, cfg = instance
        res = cycle_separator(cfg)
        cert = certify_cycle(cfg.graph, cfg.rotation, res.path)
        assert cert in {"real-edge", "virtual-edge", "trivial"}


class TestMessageLevelProperty:
    @given(planar_instances(min_n=6, max_n=25))
    @settings(deadline=None, max_examples=12,
              suppress_health_check=[HealthCheck.too_slow])
    def test_message_weights_match_charged(self, instance):
        from repro.congest import weights_problem_run
        from repro.core.faces import face_view
        from repro.core.weights import weight

        g, cfg = instance
        run = weights_problem_run(cfg)
        for e in cfg.real_fundamental_edges():
            assert run.weights[cfg.orient(e)] == weight(cfg, face_view(cfg, e))
