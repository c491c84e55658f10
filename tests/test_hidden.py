"""Unit tests for hidden-node detection (Definition 4 / Lemma 6)."""

import networkx as nx
import pytest

from repro.core import separator
from repro.core.augment import balanced_insertion, insertion_variants
from repro.core.config import PlanarConfiguration
from repro.core.faces import FaceView, face_view
from repro.core.hidden import hiding_edges, is_hidden
from repro.planar import generators as gen
from repro.trees import bfs_tree

from conftest import configs_for, make_config


def star_with_chords():
    """A hand-embedded instance with a provably hidden leaf.

    Star tree at 0 with leaves 1..5 in rotation order (1,2,3,4,5); the
    fundamental edge (5,1) closes a face whose interior is {2,3,4}, and the
    chord (2,4) — avoiding both endpoints — walls leaf 3 off: 3 is hidden
    (Definition 4, condition 1) and the virtual edge to it is not
    insertable.
    """
    from repro.planar import RotationSystem
    from repro.trees import RootedTree

    g = nx.Graph()
    g.add_edges_from([(0, k) for k in range(1, 6)])
    g.add_edges_from([(5, 1), (2, 4)])
    rotation = RotationSystem(
        {
            0: [1, 2, 3, 4, 5],
            1: [0, 5],
            2: [0, 4],
            3: [0],
            4: [2, 0],
            5: [1, 0],
        }
    )
    rotation.validate()
    tree = RootedTree({0: None, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0}, 0)
    return g, PlanarConfiguration(g, rotation, tree, root_anchor=1)


class TestHiddenBasics:
    def test_no_hiding_in_chordless_faces(self):
        cfg = make_config(gen.grid(4, 4))
        for e in cfg.real_fundamental_edges():
            fv = face_view(cfg, e)
            interior = fv.interior()
            for z in interior:
                if not cfg.tree.children[z]:
                    assert not is_hidden(cfg, fv, z)

    def test_rejects_non_interior_node(self):
        cfg = make_config(gen.triangulated_grid(3, 4))
        e = cfg.real_fundamental_edges()[0]
        fv = face_view(cfg, e)
        with pytest.raises(ValueError):
            hiding_edges(cfg, fv, fv.u)

    def test_hiding_edge_faces_enclose_the_node(self):
        for name, g in gen.FAMILIES(7):
            if g.number_of_edges() < len(g):
                continue
            cfg = make_config(g, kind="rand", seed=7)
            for e in cfg.real_fundamental_edges():
                fv = face_view(cfg, e)
                interior = fv.interior()
                for z in sorted(interior, key=repr):
                    if cfg.tree.children[z]:
                        continue
                    for f, f_view in hiding_edges(cfg, fv, z):
                        assert z in f_view.interior()
                        assert fv.contains_edge(f)


class TestLemma6:
    def test_unhidden_window_leaves_are_insertable(self):
        """Lemma 6's operative direction: a leaf inside F_e that is not
        hidden admits a planar insertion of the edge from u (i.e. it is
        (T, F_e)-compatible)."""
        checked = 0
        for name, g in gen.FAMILIES(3):
            if g.number_of_edges() < len(g):
                continue
            cfg = make_config(g, kind="bfs", seed=3)
            for e in cfg.real_fundamental_edges():
                fv = face_view(cfg, e)
                interior = fv.interior()
                for z in sorted(interior, key=repr):
                    if cfg.tree.children[z] or cfg.graph.has_edge(fv.u, z):
                        continue
                    if is_hidden(cfg, fv, z):
                        continue
                    variants = list(insertion_variants(cfg, fv.u, z, prefer_a=fv.v))
                    assert variants, (name, e, z)
                    checked += 1
                    if checked >= 25:
                        return
        assert checked > 0

    def test_hidden_node_construction(self):
        g, cfg = star_with_chords()
        fv = face_view(cfg, (5, 1))
        interior = fv.interior()
        assert interior == {2, 3, 4}
        hidden = hiding_edges(cfg, fv, 3)
        assert len(hidden) == 1
        assert set(hidden[0][0]) == {2, 4}
        # The walled-off leaf admits no planar insertion from u.
        assert not list(insertion_variants(cfg, fv.u, 3, prefer_a=fv.v))
        # Its siblings in front of the chord are not hidden.
        for z in (2, 4):
            if not cfg.graph.has_edge(fv.u, z):
                assert not is_hidden(cfg, fv, z)


def materialized_hiding_edges(cfg, fv, z):
    """Definition 4 read off built interiors: every contained face's
    interior and border as sets, no order-interval membership."""
    interior = fv.interior()
    t_u_nodes = {fv.u} | {
        y
        for c in fv.children_inside(fv.u)
        for y in cfg.tree.subtree_nodes(c)
    }
    out = []
    for f in cfg.real_fundamental_edges():
        a, b = f
        if {a, b} == {fv.u, fv.v}:
            continue
        if not all(
            cfg.t_position(x, y) in fv.inside_positions(x) if x in fv.border else x in interior
            for x, y in ((a, b), (b, a))
        ):
            continue
        f_view = face_view(cfg, f)
        f_interior = f_view.interior()
        if z not in f_interior:
            continue
        if fv.u not in f or not t_u_nodes <= (f_interior | set(f_view.border)):
            out.append(f)
    return out


class TestHidingEdgesFromOrders:
    """``hiding_edges`` answers membership with ``FaceView.encloses``."""

    def test_matches_materialized_interiors(self):
        seen = {"avoids u": 0, "at u": 0}
        for name, g in gen.FAMILIES(0):
            if g.number_of_edges() < len(g):
                continue
            nodes = sorted(g, key=repr)
            for kind in ("bfs", "dfs"):
                for root in (nodes[0], nodes[len(nodes) // 2]):
                    cfg = make_config(g, root=root, kind=kind)
                    for e in cfg.real_fundamental_edges():
                        fv = face_view(cfg, e)
                        for z in sorted(fv.interior(), key=repr):
                            if cfg.tree.children[z]:
                                continue
                            got = [(f, view.edge) for f, view in hiding_edges(cfg, fv, z)]
                            want = materialized_hiding_edges(cfg, fv, z)
                            assert got == [(f, cfg.orient(f)) for f in want], (
                                name, kind, root, e, z,
                            )
                            for f in want:
                                seen["at u" if fv.u in f else "avoids u"] += 1
        # Both conditions of Definition 4 occur.
        assert all(seen.values()), seen

    def test_scan_builds_no_other_interior(self, monkeypatch):
        """On a run that reaches Claim 6's fallback, the scan builds no
        interior but that of the face it scans."""
        built = []
        real_interior = FaceView.interior

        def counted_interior(view):
            if view._interior is None:
                built.append(view.edge)
            return real_interior(view)

        calls = []
        real_hiding_edges = separator.hiding_edges

        def counted_hiding_edges(cfg, fv, z):
            fv.interior()
            built.clear()
            out = real_hiding_edges(cfg, fv, z)
            calls.append((fv.edge, list(built), len(out)))
            return out

        monkeypatch.setattr(FaceView, "interior", counted_interior)
        monkeypatch.setattr(separator, "hiding_edges", counted_hiding_edges)
        cfg = make_config(gen.delaunay(200, seed=196), root=0, kind="rand", seed=196)
        assert separator.cycle_separator(cfg).phase == "phase4.1-hidden"
        assert calls
        for edge, others, found in calls:
            assert found and others == [], (edge, others)
