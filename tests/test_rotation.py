"""Unit tests for rotation systems (repro.planar.rotation)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.planar import (
    EmbeddingError,
    NotPlanarError,
    RotationSystem,
    embed,
    require_planar_rotation,
)
from repro.planar import generators as gen

from test_properties import COMMON, planar_instances


def square_with_diagonal() -> RotationSystem:
    return embed(nx.Graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))


class TestConstruction:
    def test_from_graph_roundtrip(self):
        g = gen.grid(4, 5)
        rot = RotationSystem.from_graph(g)
        assert nx.is_isomorphic(rot.to_graph(), g)
        assert set(rot.nodes) == set(g.nodes)

    def test_from_graph_rejects_nonplanar(self):
        with pytest.raises(EmbeddingError):
            RotationSystem.from_graph(nx.complete_graph(5))

    def test_duplicate_neighbor_rejected(self):
        with pytest.raises(EmbeddingError):
            RotationSystem({0: [1, 1], 1: [0]})

    def test_copy_is_independent(self):
        rot = square_with_diagonal()
        clone = rot.copy()
        clone.insert_edge(1, 3, after_u=0, after_v=0)
        assert not rot.has_edge(1, 3)
        assert clone.has_edge(1, 3)


class TestQueries:
    def test_positions_match_order(self):
        rot = square_with_diagonal()
        for v in rot.nodes:
            for i, u in enumerate(rot.neighbors_cw(v)):
                assert rot.position(v, u) == i

    def test_position_of_non_neighbor_raises(self):
        rot = square_with_diagonal()
        with pytest.raises(EmbeddingError):
            rot.position(1, 3)

    def test_successor_and_predecessor_are_inverse(self):
        rot = square_with_diagonal()
        for v in rot.nodes:
            for u in rot.neighbors_cw(v):
                assert rot.predecessor_cw(v, rot.successor_cw(v, u)) == u

    def test_edges_enumerated_once(self):
        rot = square_with_diagonal()
        edges = list(rot.edges())
        assert len(edges) == 5
        assert len({frozenset(e) for e in edges}) == 5

    def test_num_edges(self):
        assert square_with_diagonal().num_edges() == 5


class TestFaces:
    def test_euler_formula_on_families(self):
        for name, g in gen.FAMILIES(3):
            rot = embed(g)
            n, m, f = len(g), g.number_of_edges(), rot.num_faces()
            assert n - m + f == 2, name

    def test_face_walk_closes(self):
        rot = square_with_diagonal()
        face, half_edge = [], (0, 1)
        for _ in range(2 * rot.num_edges()):
            face.append(half_edge[0])
            half_edge = rot.next_face_half_edge(*half_edge)
            if half_edge == (0, 1):
                break
        assert half_edge == (0, 1)
        assert len(face) >= 3

    def test_every_half_edge_in_exactly_one_face(self):
        rot = embed(gen.grid(3, 4))
        seen = {}
        for idx, walk in enumerate(rot.faces()):
            for he in zip(walk, walk[1:] + walk[:1]):
                assert he not in seen
                seen[he] = idx
        assert len(seen) == 2 * rot.num_edges()

    def test_tree_has_single_face(self):
        rot = embed(gen.random_tree(12, seed=1))
        assert rot.num_faces() == 1

    def test_face_count_equals_face_walks(self):
        for name, g in gen.FAMILIES(1):
            rot = embed(g)
            assert rot.num_faces() == len(list(rot.faces())), name


class TestRotationCertificate:
    """``require_planar_rotation``: rows match the graph, Euler holds."""

    def test_accepts_every_family_embedding(self):
        for name, g in gen.FAMILIES(2):
            require_planar_rotation(g, embed(g))

    def test_accepts_a_single_node(self):
        g = nx.empty_graph(1)
        require_planar_rotation(g, embed(g))

    def test_rejects_a_different_node_set(self):
        g = gen.grid(3, 3)
        with pytest.raises(NotPlanarError, match="different node sets"):
            require_planar_rotation(g, embed(gen.grid(3, 4)))

    def test_rejects_a_row_that_misses_an_edge(self):
        g = gen.grid(3, 3)
        rot = embed(g)
        g.add_edge(0, 4)
        with pytest.raises(NotPlanarError, match="rotation of 0 does not match"):
            require_planar_rotation(g, rot)

    def test_rejects_a_self_loop(self):
        g = gen.grid(3, 3)
        rot = embed(g)
        g.add_edge(4, 4)
        with pytest.raises(NotPlanarError, match="rotation of 4 does not match"):
            require_planar_rotation(g, rot)


class TestMutation:
    def test_insert_edge_valid(self):
        # 1-3 can be drawn outside the square: some slot pair keeps the
        # embedding planar and splits a face (faces go 3 -> 4).
        valid = 0
        base = square_with_diagonal()
        for ref_u in (None, 0, 2):
            for ref_v in (None, 0, 2):
                rot = base.copy()
                rot.insert_edge(1, 3, after_u=ref_u, after_v=ref_v)
                try:
                    rot.validate()
                except Exception:
                    continue
                assert rot.num_faces() == 4
                valid += 1
        assert valid > 0

    def test_insert_existing_edge_rejected(self):
        rot = square_with_diagonal()
        with pytest.raises(EmbeddingError):
            rot.insert_edge(0, 1, after_u=None, after_v=None)

    def test_insert_self_loop_rejected(self):
        rot = square_with_diagonal()
        with pytest.raises(EmbeddingError):
            rot.insert_edge(2, 2, after_u=None, after_v=None)

    def test_bad_insertion_fails_validation(self):
        # 0-2 and 1-3 both drawn inside the square must cross: inserting 1-3
        # into the faces on opposite sides of 0-2 merges two faces, which
        # the Euler check flags.
        rot = square_with_diagonal()
        merged = None
        for ref_u in (0, 2):
            for ref_v in (0, 2):
                attempt = rot.copy()
                attempt.insert_edge(1, 3, after_u=ref_u, after_v=ref_v)
                try:
                    attempt.validate()
                except EmbeddingError:
                    merged = attempt
        assert merged is not None


def insertion_stays_planar(rot, u, after_u, v, after_v) -> bool:
    """The global oracle: copy, insert, and run the Euler check."""
    attempt = rot.copy()
    attempt.insert_edge(u, v, after_u=after_u, after_v=after_v)
    try:
        attempt.validate()
    except EmbeddingError:
        return False
    return True


def corners_share_face(rot, u, after_u, v, after_v) -> bool:
    """The local test: both corners in the face index of ``u``'s corners."""
    faces = rot.corner_faces(u)
    return faces[rot.corner(u, after_u)] == faces.get(rot.corner(v, after_v))


def slot_pairs(rot, u, v):
    for after_u in (None,) + rot.neighbors_cw(u):
        for after_v in (None,) + rot.neighbors_cw(v):
            yield after_u, after_v


def cut_vertices_and_bridges() -> nx.Graph:
    """Two triangles sharing node 2, a bridge 4-5 and a pendant path."""
    return nx.Graph(
        [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (4, 5), (5, 6), (6, 7), (5, 8)]
    )


CORNER_GRAPHS = [
    ("grid3x3", gen.grid(3, 3)),
    ("grid3x4", gen.grid(3, 4)),
    ("tree", gen.random_tree(9, seed=3)),
    ("star", gen.star_graph(6)),
    ("wheel", gen.wheel(7)),
    ("outerplanar", gen.outerplanar(9, chords=3, seed=1)),
    ("cuts_and_bridges", cut_vertices_and_bridges()),
]


class TestCornersShareFace:
    """The face index (``corner_faces``) decides exactly what copy + insert
    + validate do."""

    @pytest.mark.parametrize("name,graph", CORNER_GRAPHS, ids=[n for n, _ in CORNER_GRAPHS])
    def test_matches_validate_on_every_slot_pair(self, name, graph):
        rot = embed(graph)
        nodes = sorted(graph.nodes)
        accepted = rejected = 0
        for i, u in enumerate(nodes):
            for v in nodes[i + 1:]:
                if graph.has_edge(u, v):
                    continue
                for after_u, after_v in slot_pairs(rot, u, v):
                    local = corners_share_face(rot, u, after_u, v, after_v)
                    assert local == insertion_stays_planar(rot, u, after_u, v, after_v), (
                        u, after_u, v, after_v)
                    accepted += local
                    rejected += not local
        assert accepted > 0
        if name not in ("tree", "star"):  # one face: every slot pair is planar
            assert rejected > 0

    def test_none_is_the_corner_before_the_first_neighbor(self):
        rot = square_with_diagonal()
        last = rot.neighbors_cw(1)[-1]
        for after_v in (None,) + rot.neighbors_cw(3):
            assert corners_share_face(rot, 1, None, 3, after_v) == corners_share_face(
                rot, 1, last, 3, after_v)

    def test_does_not_mutate(self):
        rot = square_with_diagonal()
        before = {v: rot.neighbors_cw(v) for v in rot.nodes}
        for after_u, after_v in slot_pairs(rot, 1, 3):
            corners_share_face(rot, 1, after_u, 3, after_v)
        assert {v: rot.neighbors_cw(v) for v in rot.nodes} == before

    @given(planar_instances(max_n=30), st.data())
    @settings(**COMMON)
    def test_matches_validate_on_random_instances(self, instance, data):
        g, cfg = instance
        rot = cfg.rotation
        nodes = sorted(g.nodes)
        pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]
                 if not g.has_edge(u, v)]
        if not pairs:
            return
        for u, v in data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=5)):
            for after_u, after_v in slot_pairs(rot, u, v):
                assert corners_share_face(rot, u, after_u, v, after_v) == (
                    insertion_stays_planar(rot, u, after_u, v, after_v))


class TestIncrementalPositions:
    """Mutations re-index only the touched rows and keep them exact."""

    def assert_positions_exact(self, rot):
        for v in rot.nodes:
            for i, u in enumerate(rot.neighbors_cw(v)):
                assert rot.position(v, u) == i
            assert set(rot._pos[v]) == set(rot.neighbors_cw(v))

    def test_insert_and_delete_keep_positions(self):
        rot = embed(gen.grid(4, 4))
        rot.insert_edge(0, 5, after_u=None, after_v=rot.neighbors_cw(5)[0])
        self.assert_positions_exact(rot)
        rot.delete_edge(0, 1)
        self.assert_positions_exact(rot)
        rot.delete_edge(0, 5)
        self.assert_positions_exact(rot)

    def test_untouched_rows_are_not_rebuilt(self):
        rot = embed(gen.grid(4, 4))
        maps = {v: rot._pos[v] for v in rot.nodes}
        rot.insert_edge(0, 5, after_u=None, after_v=None)
        rot.delete_edge(14, 15)
        touched = {0, 5, 14, 15}
        for v in rot.nodes:
            assert (rot._pos[v] is maps[v]) == (v not in touched), v

    def test_duplicate_neighbor_still_rejected_on_insert(self):
        rot = square_with_diagonal()
        rot._order[1].append(0)  # corrupt row 1 behind the API's back
        with pytest.raises(EmbeddingError, match="duplicate"):
            rot.insert_edge(1, 3, after_u=None, after_v=None)


class TestExport:
    def test_networkx_roundtrip_preserves_rotation(self):
        rot = embed(gen.delaunay(25, seed=2))
        back = RotationSystem.from_networkx_embedding(rot.to_networkx_embedding())
        for v in rot.nodes:
            nbrs = rot.neighbors_cw(v)
            other = back.neighbors_cw(v)
            assert set(nbrs) == set(other)
            if len(nbrs) > 2:
                # Same cyclic order (possibly rotated).
                i = other.index(nbrs[0])
                rotated = other[i:] + other[:i]
                assert rotated == nbrs
