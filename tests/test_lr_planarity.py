"""Parity of the in-repo LR-planarity port with networkx's ``check_planarity``.

:func:`repro.planar.construct.lr_rotation` must return networkx's rotation
row for row, so that every digest and round baseline built on an embedding
stays put.  Two kinds of check pin that:

* golden digests of the rotation, committed here, which hold whatever
  networkx version is installed;
* a live comparison with networkx, the test oracle: row equality on the
  reference version the port was made from, and agreement on planar versus
  non-planar on any other version.
"""

import hashlib
import random

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.planar import (
    EmbeddingError,
    NotPlanarError,
    RotationSystem,
    embed,
    require_planar,
)
from repro.planar import generators as gen
from repro.planar.construct import lr_rotation

from test_properties import COMMON, planar_instances

#: The networkx version whose ``LRPlanarity`` the port reproduces.
REFERENCE_NETWORKX = "3.6.1"

#: A second, larger instance of every ``gen.FAMILIES`` entry.
LARGER = {
    "grid": lambda: gen.grid(11, 13),
    "triangulated_grid": lambda: gen.triangulated_grid(9, 10),
    "cylinder": lambda: gen.cylinder(7, 12),
    "delaunay": lambda: gen.delaunay(150, seed=1),
    "random_planar": lambda: gen.random_planar(120, density=0.5, seed=1),
    "outerplanar": lambda: gen.outerplanar(80, chords=25, seed=1),
    "apollonian": lambda: gen.apollonian(5, seed=1),
    "wheel": lambda: gen.wheel(60),
    "theta": lambda: gen.theta_graph(9, 12),
    "path": lambda: gen.path_graph(90),
    "star": lambda: gen.star_graph(70),
    "broom": lambda: gen.broom(40, 30),
    "caterpillar": lambda: gen.caterpillar(30, 3),
    "random_tree": lambda: gen.random_tree(120, seed=1),
    "binary_tree": lambda: gen.binary_tree(7),
    "ladder": lambda: gen.ladder(50),
    "nested_triangles": lambda: gen.nested_triangles(20),
    "hexagonal": lambda: gen.hexagonal(7, 8),
    "fan": lambda: gen.fan(60),
    "double_wheel": lambda: gen.double_wheel(60),
    "series_parallel": lambda: gen.series_parallel(100, seed=1),
}

#: Rotation digests of each family's ``gen.FAMILIES()`` instance and its
#: ``LARGER`` instance, both in :func:`canonical` form.
GOLDEN = {
    "grid": ("73596bcb74bbe635", "b6137f17d0635d0a"),
    "triangulated_grid": ("4b73b43a95429d70", "e8a00281047ac4ae"),
    "cylinder": ("dca8998f32ccce62", "fd17cc05733fde67"),
    "delaunay": ("040c9c264f34d763", "8f7d572fec0f8452"),
    "random_planar": ("48f697d6f9ca0ca3", "d80d40add1713a60"),
    "outerplanar": ("dd43ad630c4bdac8", "33b5ae8e846d8b36"),
    "apollonian": ("a0acd97fae4dd079", "de6a445fd2482119"),
    "wheel": ("d9b782593801c0b9", "5b579bd394171f22"),
    "theta": ("3544383b0b9bf2ae", "bc808b71ca9cdaf7"),
    "path": ("1ee23d4e05d85deb", "9d3976943ffa9dc1"),
    "star": ("ce10829768a43d49", "da054a4e42e9fa84"),
    "broom": ("e910c3848ef327f1", "bf047c2b887f7b51"),
    "caterpillar": ("a2cbc0df4130075a", "09e17f62decfb64e"),
    "random_tree": ("5b4d31bff4db914d", "79569cff1d4da9ac"),
    "binary_tree": ("f5875ca14fa4ef16", "72abfbd2a3c60f92"),
    "ladder": ("17e56317172a529e", "608f973b9fa8eac5"),
    "nested_triangles": ("31a719c69a307938", "0a469c7db81b2695"),
    "hexagonal": ("dd1e07bfd6c3bb14", "e05cf67b9697a59d"),
    "fan": ("66a5c8f556177800", "6d8d16e45296a8ae"),
    "double_wheel": ("0a04e064c2cceedb", "d9be6f42602f857a"),
    "series_parallel": ("79cee63503d90578", "f92837d0a47433a6"),
}


def canonical(graph: nx.Graph) -> nx.Graph:
    """``graph`` rebuilt with sorted nodes and edges, so its digest does
    not depend on the insertion order of a generator's dependencies (the
    simplex order of scipy's Delaunay triangulation, say)."""
    out = nx.Graph()
    out.add_nodes_from(sorted(graph))
    out.add_edges_from(sorted(tuple(sorted(e)) for e in graph.edges()))
    return out


def digest(order) -> str:
    return hashlib.sha256(repr(list(order.items())).encode()).hexdigest()[:16]


def networkx_rows(graph: nx.Graph):
    """The oracle: networkx's rotation rows, or ``None`` if non-planar."""
    is_planar, embedding = nx.check_planarity(graph, counterexample=False)
    if not is_planar:
        return None
    return {v: list(embedding.neighbors_cw_order(v)) for v in embedding.nodes()}


def assert_matches_networkx(graph: nx.Graph) -> None:
    ours, oracle = lr_rotation(graph), networkx_rows(graph)
    if nx.__version__ != REFERENCE_NETWORKX:
        assert (ours is None) == (oracle is None)
        return
    assert ours == oracle
    if ours is not None:
        assert list(ours) == list(oracle)  # row order is node order too


def _self_loops_and_isolated():
    # Edges in a deliberately unsorted order: the port must follow the
    # graph's edge-iteration order, and drop the self-loops.
    g = nx.Graph()
    g.add_nodes_from([7, 3, 0])
    g.add_edges_from([(5, 1), (1, 1), (1, 2), (5, 2), (2, 4), (4, 4), (5, 4), (4, 1)])
    g.add_node(9)
    return g


def _components():
    g = nx.disjoint_union_all([gen.wheel(6), gen.path_graph(4), gen.grid(3, 3)])
    g.add_node("solo")
    return g


def _shuffled_edges():
    # Adjacency order unlike the edge-iteration order: each node's later
    # neighbours often come before its earlier ones.
    rng = random.Random(5)
    edges = [e if rng.random() < 0.5 else e[::-1] for e in gen.triangulated_grid(6, 7).edges()]
    rng.shuffle(edges)
    g = nx.Graph()
    g.add_nodes_from(range(42))
    g.add_edges_from(edges)
    return g


def _labelled():
    g = gen.delaunay(30, seed=4)
    return nx.relabel_nodes(canonical(g), {v: f"n{(7 * v) % 30}" for v in g})


EDGE_CASES = {
    "self_loops_and_isolated": (_self_loops_and_isolated, "8e4e41332db9ae10"),
    "shuffled_edges": (_shuffled_edges, "2351024080de33b6"),
    "components": (_components, "1e10d8b7596dadfd"),
    "string_labels": (_labelled, "2d10fbf3af67b080"),
    "single_node": (lambda: nx.empty_graph(1), "06626e2d19d4cd31"),
    "empty": (nx.Graph, "4f53cda18c2baa0c"),
}


def _k5_plus_pendant():
    g = nx.complete_graph(5)
    g.add_edge(4, 5)
    return g


NON_PLANAR = {
    "K5": (nx.complete_graph(5), "graph with 5 nodes / 10 edges is not planar"),
    "K33": (nx.complete_bipartite_graph(3, 3), "graph with 6 nodes / 9 edges is not planar"),
    "petersen": (nx.petersen_graph(), "graph with 10 nodes / 15 edges is not planar"),
    "K5_plus_pendant": (_k5_plus_pendant(), "graph with 6 nodes / 11 edges is not planar"),
}


class TestGoldenDigests:
    def test_larger_table_covers_every_family(self):
        assert [name for name, _ in gen.FAMILIES()] == list(LARGER) == list(GOLDEN)

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_family_rotations(self, name):
        small = dict(gen.FAMILIES())[name]
        for graph, expected in zip((small, LARGER[name]()), GOLDEN[name]):
            assert digest(lr_rotation(canonical(graph))) == expected

    @pytest.mark.parametrize("name", list(EDGE_CASES))
    def test_edge_case_rotations(self, name):
        build, expected = EDGE_CASES[name]
        assert digest(lr_rotation(build())) == expected

    def test_self_loops_are_dropped_and_isolated_nodes_kept(self):
        order = lr_rotation(_self_loops_and_isolated())
        assert list(order) == [7, 3, 0, 5, 1, 2, 4, 9]
        assert order[7] == order[3] == order[0] == order[9] == []
        assert all(v not in row for v, row in order.items())
        RotationSystem(order).validate()


class TestLiveOracle:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_families(self, seed):
        for _, graph in gen.FAMILIES(seed):
            assert_matches_networkx(graph)
        for build in LARGER.values():
            assert_matches_networkx(build())

    @pytest.mark.parametrize("name", list(EDGE_CASES))
    def test_edge_cases(self, name):
        assert_matches_networkx(EDGE_CASES[name][0]())

    @given(planar_instances())
    @settings(**COMMON)
    def test_planar_instances(self, instance):
        graph, _ = instance
        assert_matches_networkx(graph)

    def test_random_graphs_both_sides_of_planarity(self):
        planar = 0
        for seed in range(60):
            graph = nx.gnp_random_graph(12 + seed % 9, 0.25, seed=seed)
            assert_matches_networkx(graph)
            planar += lr_rotation(graph) is not None
        assert 0 < planar < 60


class TestRejections:
    @pytest.mark.parametrize("name", list(NON_PLANAR))
    def test_same_error_as_networkx(self, name):
        graph, message = NON_PLANAR[name]
        assert not nx.check_planarity(graph)[0]
        assert lr_rotation(graph) is None
        for check in (embed, require_planar):
            with pytest.raises(NotPlanarError) as info:
                check(graph)
            assert str(info.value) == message
        with pytest.raises(EmbeddingError, match="graph is not planar"):
            RotationSystem.from_graph(graph)

    def test_from_graph_uses_the_port(self):
        g = gen.delaunay(60, seed=2)
        rotation = RotationSystem.from_graph(g)
        assert {v: list(rotation.neighbors_cw(v)) for v in rotation.nodes} == lr_rotation(g)
