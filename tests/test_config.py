"""Unit tests for planar configurations and DFS orders."""

import functools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ConfigurationError, PlanarConfiguration
from repro.planar import embed, embed_subgraph, induced_components, induced_copy
from repro.planar import generators as gen
from repro.trees import bfs_tree, dfs_spanning_tree

from conftest import configs_for, make_config


class TestNormalization:
    def test_parent_first(self):
        for kind, cfg in configs_for(gen.grid(4, 5)):
            for v in cfg.graph.nodes:
                parent = cfg.tree.parent[v]
                if parent is not None:
                    assert cfg.t(v)[0] == parent, (kind, v)

    def test_rotation_is_same_cyclic_order(self):
        g = gen.delaunay(25, seed=1)
        rot = embed(g)
        cfg = PlanarConfiguration.build(g, root=0, rotation=rot, tree=bfs_tree(g, 0))
        for v in g.nodes:
            original = rot.neighbors_cw(v)
            normalized = cfg.t(v)
            i = original.index(normalized[0])
            assert original[i:] + original[:i] == normalized

    def test_root_anchor_respected(self):
        g = gen.grid(3, 4)
        rot = embed(g)
        anchor = rot.neighbors_cw(0)[-1]
        cfg = PlanarConfiguration(g, rot, bfs_tree(g, 0), root_anchor=anchor)
        assert cfg.t(0)[0] == anchor


class TestOrders:
    def test_orders_are_permutations(self):
        for kind, cfg in configs_for(gen.triangulated_grid(4, 4)):
            n = cfg.n
            assert sorted(cfg.pi_left.values()) == list(range(1, n + 1))
            assert sorted(cfg.pi_right.values()) == list(range(1, n + 1))
            assert cfg.pi_left[cfg.tree.root] == 1
            assert cfg.pi_right[cfg.tree.root] == 1

    def test_orders_are_preorders(self):
        for kind, cfg in configs_for(gen.delaunay(30, seed=2)):
            for pi in (cfg.pi_left, cfg.pi_right):
                for v in cfg.graph.nodes:
                    p = cfg.tree.parent[v]
                    if p is not None:
                        assert pi[p] < pi[v]

    def test_subtree_ranges_are_contiguous(self):
        for kind, cfg in configs_for(gen.grid(5, 5), seed=3):
            for v in cfg.graph.nodes:
                lo, hi = cfg.left_range(v)
                members = sorted(cfg.pi_left[x] for x in cfg.tree.subtree_nodes(v))
                assert members == list(range(lo, hi + 1))
                lo = cfg.pi_right[v]
                members = sorted(cfg.pi_right[x] for x in cfg.tree.subtree_nodes(v))
                assert members == list(range(lo, lo + cfg.tree.subtree_size[v]))

    def test_left_right_are_mirrors_on_children(self):
        cfg = make_config(gen.triangulated_grid(4, 5))
        # Right order lists the T-children by rotation position; left order
        # is its mirror.
        for v in cfg.graph.nodes:
            children = set(cfg.tree.children[v])
            in_rot = [u for u in cfg.t(v) if u in children]
            assert cfg._order_children_right[v] == in_rot
            assert cfg._order_children_left[v] == in_rot[::-1]

    def test_ancestor_via_ranges_matches_tree(self):
        cfg = make_config(gen.delaunay(35, seed=5), kind="dfs")
        nodes = sorted(cfg.graph.nodes)
        for a in nodes[::3]:
            for b in nodes[::4]:
                assert cfg.is_ancestor(a, b) == cfg.tree.is_ancestor(a, b)


class TestFundamentalEdges:
    def test_count(self):
        cfg = make_config(gen.grid(4, 5))
        m, n = cfg.graph.number_of_edges(), cfg.n
        assert len(cfg.real_fundamental_edges()) == m - (n - 1)

    def test_orientation_convention(self):
        cfg = make_config(gen.triangulated_grid(4, 4), kind="rand", seed=2)
        for u, v in cfg.real_fundamental_edges():
            assert cfg.pi_left[u] < cfg.pi_left[v]
            assert not cfg.is_tree_edge(u, v)


class TestValidation:
    def test_tree_must_span(self):
        g = gen.grid(3, 3)
        sub = bfs_tree(g.subgraph(range(6)).copy(), 0)
        with pytest.raises(ConfigurationError):
            PlanarConfiguration(g, embed(g), sub)

    def test_rotation_must_match_graph(self):
        g = gen.grid(3, 3)
        other = embed(gen.grid(3, 4))
        with pytest.raises(ConfigurationError):
            PlanarConfiguration(g, other, bfs_tree(g, 0))

    def test_tree_edges_must_exist(self):
        g = gen.grid(3, 3)
        fake = bfs_tree(g, 0)
        fake.parent[8] = 0  # 8 is not adjacent to 0
        with pytest.raises(ConfigurationError):
            PlanarConfiguration(g, embed(g), fake)

    def test_supergraph_rotation_is_restricted(self):
        g = gen.delaunay(40, seed=3)
        part = max(induced_components(g, range(25)), key=len)
        sub = induced_copy(g, part)
        tree = bfs_tree(sub, min(part))
        cfg = PlanarConfiguration(sub, embed(g), tree)
        restricted = PlanarConfiguration(sub, embed_subgraph(embed(g), part), tree)
        assert rows_of(cfg) == rows_of(restricted)

    def test_rotation_missing_a_graph_node_raises(self):
        g = gen.grid(3, 3)
        with pytest.raises(ConfigurationError):
            PlanarConfiguration(g, embed_subgraph(embed(g), range(8)), bfs_tree(g, 0))

    def test_rotation_missing_a_row_edge_raises(self):
        g = gen.grid(3, 3)
        rot = embed(g)
        rot.delete_edge(4, 5)
        with pytest.raises(ConfigurationError):
            PlanarConfiguration(g, rot, bfs_tree(g, 0))

    def test_rotation_with_an_edge_between_graph_nodes_raises(self):
        # Only nodes outside ``graph`` are dropped: an extra neighbour
        # inside it is a mismatch, as before restriction existed.
        g = gen.grid(3, 3)
        rot = embed(g)
        h = g.copy()
        h.remove_edge(4, 5)
        with pytest.raises(ConfigurationError):
            PlanarConfiguration(h, rot, bfs_tree(h, 0))

    def test_build_rejects_disconnected(self):
        g = nx.Graph([(0, 1), (2, 3)])
        with pytest.raises(Exception):
            PlanarConfiguration.build(g)


class TestSubgraphEmbedding:
    def test_restriction_preserves_relative_order(self):
        g = gen.delaunay(30, seed=6)
        rot = embed(g)
        keep = set(range(15))
        sub = embed_subgraph(rot, keep)
        for v in keep:
            expected = [u for u in rot.neighbors_cw(v) if u in keep]
            assert list(sub.neighbors_cw(v)) == expected

    def test_restriction_is_planar(self):
        g = gen.delaunay(30, seed=6)
        rot = embed(g)
        sub = embed_subgraph(rot, range(12))
        sub.validate()


def rows_of(cfg):
    return {v: cfg.rotation.neighbors_cw(v) for v in cfg.rotation.nodes}


def tree_plus_chord(n, seed):
    g = gen.random_tree(n, seed=seed)
    rng = random.Random(seed)
    u, v = rng.sample(sorted(g), 2)
    while g.has_edge(u, v):
        u, v = rng.sample(sorted(g), 2)
    g.add_edge(u, v)
    return g


def random_connected_partition(graph, rng, parts):
    """Grow ``parts`` regions from random seeds, one random frontier node
    at a time: every region stays connected and the regions cover the
    graph."""
    owner = {s: i for i, s in enumerate(rng.sample(sorted(graph), parts))}
    frontier = list(owner)
    while frontier:
        v = frontier.pop(rng.randrange(len(frontier)))
        for u in sorted(graph[v]):
            if u not in owner:
                owner[u] = owner[v]
                frontier.append(u)
    regions = [[] for _ in range(parts)]
    for v, i in owner.items():
        regions[i].append(v)
    return regions


PARTITION_FAMILIES = {
    "delaunay": lambda seed: gen.delaunay(60, seed=seed),
    "grid": lambda seed: gen.grid(7, 8),
    "outerplanar": lambda seed: gen.outerplanar(40, chords=12, seed=seed),
    "tree-plus-chord": lambda seed: tree_plus_chord(40, seed),
}


class TestSingleBuild:
    """A part's configuration built from the whole graph's rotation equals
    the two-step build that first restricts the rotation to the part
    (:func:`embed_subgraph`) and then normalizes it, field for field."""

    @pytest.mark.parametrize("family", sorted(PARTITION_FAMILIES))
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_restrict_then_normalize(self, family, seed):
        rng = random.Random(seed)
        graph = PARTITION_FAMILIES[family](seed)
        rotation = embed(graph)
        for part in random_connected_partition(graph, rng, rng.randint(1, 8)):
            sub = induced_copy(graph, part)
            root = rng.choice(sorted(part))
            tree = (bfs_tree if rng.random() < 0.5 else dfs_spanning_tree)(sub, root)
            anchor = None
            if len(sub[root]) > 1 and rng.random() < 0.5:
                anchor = rng.choice(sorted(sub[root]))
            one = PlanarConfiguration(sub, rotation, tree, root_anchor=anchor)
            two = PlanarConfiguration(
                sub, embed_subgraph(rotation, part), tree, root_anchor=anchor
            )
            assert rows_of(one) == rows_of(two)
            for field in ("n", "pi_left", "pi_right", "_order_children_left",
                          "_order_children_right", "_child_prefix"):
                assert getattr(one, field) == getattr(two, field), field
            # The rows themselves, from first principles: the parent's
            # clockwise order kept on the part, started at the parent
            # (at the anchor, else the first kept neighbour, for the root).
            for v in part:
                kept = [u for u in rotation.neighbors_cw(v) if u in sub]
                if not kept:
                    assert one.t(v) == ()
                    continue
                if v != root:
                    first = tree.parent[v]
                else:
                    first = anchor if anchor is not None else kept[0]
                i = kept.index(first)
                assert one.t(v) == tuple(kept[i:] + kept[:i])


def assert_same_copy(graph, make_nodes):
    """``induced_copy`` equals networkx's view-then-copy in every order."""
    expected = graph.subgraph(make_nodes()).copy()
    got = induced_copy(graph, make_nodes())
    assert type(got) is type(expected)
    assert list(got) == list(expected)
    for v in expected:
        assert list(got.adj[v]) == list(expected.adj[v]), v
        assert got.adj[v] == expected.adj[v], v
        assert got.nodes[v] == expected.nodes[v], v
    assert list(got.edges(data=True)) == list(expected.edges(data=True))
    assert got.graph == expected.graph


class TestInducedCopy:
    GRAPHS = {
        "delaunay": lambda: gen.delaunay(80, seed=2),
        "grid": lambda: gen.grid(7, 9),
        "tri-grid": lambda: gen.triangulated_grid(6, 7),
        "strings": lambda: nx.relabel_nodes(gen.delaunay(50, seed=4), lambda v: f"n{v}"),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_matches_subgraph_copy(self, name):
        g = self.GRAPHS[name]()
        g.graph["name"] = name
        for v in g:
            g.nodes[v]["label"] = repr(v)
        for a, b in g.edges:
            g.edges[a, b]["w"] = [a, b]
        rng = random.Random(name)
        nodes = list(g)
        half = len(nodes) // 2
        # Both sides of networkx's order switch: kept sets under half the
        # graph iterate in set order, larger ones in graph order.
        for k in (1, 3, half - 1, half, half + 1, len(nodes) - 2, len(nodes)):
            for _ in range(5):
                sample = rng.sample(nodes, k)
                assert_same_copy(g, lambda: sample)
                assert_same_copy(g, lambda: set(sample))
                assert_same_copy(g, lambda: (v for v in sample))
                assert_same_copy(g, lambda: sample + ["absent", -1])

    def test_empty_and_absent_nodes(self):
        g = gen.grid(3, 3)
        assert len(induced_copy(g, [])) == 0
        assert len(induced_copy(g, ["absent", 99])) == 0

    def test_data_dicts_are_independent(self):
        g = gen.grid(3, 4)
        g.graph["tag"] = "original"
        g.nodes[0]["label"] = "zero"
        g.edges[0, 1]["w"] = 1
        sub = induced_copy(g, [0, 1, 4, 5])
        sub.graph["tag"] = "copy"
        sub.nodes[0]["label"] = "changed"
        sub.edges[0, 1]["w"] = 2
        sub.add_edge(0, 5)
        assert g.graph["tag"] == "original"
        assert g.nodes[0]["label"] == "zero"
        assert g.edges[0, 1]["w"] == 1
        assert not g.has_edge(0, 5)
        assert sub.edges[1, 0] is sub.edges[0, 1]


def assert_same_components(graph, nodes):
    """``induced_components`` equals networkx's components of the induced
    view: the same sets, the same list order, the same order in each set."""
    expected = [set(c) for c in nx.connected_components(graph.subgraph(nodes))]
    got = induced_components(graph, nodes)
    assert got == expected
    assert [list(c) for c in got] == [list(c) for c in expected]


COMPONENT_GRAPHS = {
    "delaunay": lambda: gen.delaunay(250, seed=5),
    "grid": lambda: gen.grid(12, 15),
    "tri-grid": lambda: gen.triangulated_grid(10, 11),
    "wheel": lambda: nx.wheel_graph(60),
    "star": lambda: nx.star_graph(60),
}


@functools.lru_cache(maxsize=None)
def component_graph(name):
    return COMPONENT_GRAPHS[name]()


class TestInducedComponents:
    @settings(deadline=None, max_examples=80)
    @given(
        name=st.sampled_from(sorted(COMPONENT_GRAPHS)),
        fraction=st.floats(0, 1),
        seed=st.integers(0, 2**32 - 1),
        absent=st.booleans(),
    )
    def test_matches_networkx_components(self, name, fraction, seed, absent):
        g = component_graph(name)
        nodes = random.Random(seed).sample(list(g), round(fraction * len(g)))
        if absent:
            nodes += ["absent", -1]
        assert_same_components(g, set(nodes))

    @pytest.mark.parametrize("name", sorted(COMPONENT_GRAPHS))
    def test_both_sides_of_the_order_switch(self, name):
        # Kept sets under half the graph are searched from in set order,
        # larger ones in graph order; samples straddle the switch.
        g = component_graph(name)
        rng = random.Random(name)
        nodes = list(g)
        half = len(nodes) // 2
        for k in (1, 2, 5, half - 1, half, half + 1, len(nodes) - 3, len(nodes)):
            for _ in range(5):
                sample = rng.sample(nodes, k)
                assert_same_components(g, set(sample))
                assert_same_components(g, sample)
                assert_same_components(g, sample + ["absent"])

    def test_hub_with_a_few_leaves(self):
        # The hub's row is far longer than the kept set: its neighbours
        # still come in row order.
        g = nx.star_graph(60)
        for leaves in ([7, 3, 50], [59, 1], list(range(60, 30, -1))):
            assert_same_components(g, {0, *leaves})
            assert_same_components(g, set(leaves))

    def test_empty_and_absent_nodes(self):
        g = gen.grid(3, 3)
        assert induced_components(g, []) == []
        assert induced_components(g, set()) == []
        assert induced_components(g, ["absent", 99]) == []
        assert_same_components(g, {"absent", 99, 4})

    def test_search_stops_once_every_kept_node_is_seen(self):
        # networkx's BFS returns as soon as it has seen every unseen kept
        # node: from the hub of a star, no leaf's row is read.
        g = nx.star_graph(30)
        reads = []

        class Rows(dict):
            def __getitem__(self, v):
                reads.append(v)
                return dict.__getitem__(self, v)

        g._adj = Rows(g._adj)
        assert induced_components(g, set(g)) == [set(g)]
        assert reads == [0]
