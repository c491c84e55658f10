"""White-box tests for the separator phase machine on hand-built embeddings.

Random sweeps hit the rarer branches (hidden fallback, containment
descent) only occasionally; these tests drive them deterministically on
rotation systems constructed by hand, where every face and arc is known.
"""

import networkx as nx
import pytest

from repro.core.config import PlanarConfiguration
from repro.core.faces import face_view
from repro.core.separator import _hidden_fallback, cycle_separator
from repro.core.verify import check_separator
from repro.planar import RotationSystem
from repro.trees import RootedTree


def star_with_closing_edge(k, chord):
    """Star at 0, leaves 1..k in rotation order, closing edge (k,1), plus
    one chord between two leaves (drawn inside the closing face)."""
    a, b = chord
    g = nx.Graph()
    g.add_edges_from((0, i) for i in range(1, k + 1))
    g.add_edges_from([(k, 1), (a, b)])
    order = {0: list(range(1, k + 1)), 1: [0, k], k: [1, 0]}
    for i in range(2, k):
        order[i] = [0]
    order[a] = [0, b]
    order[b] = [a, 0]
    rotation = RotationSystem(order)
    rotation.validate()
    tree = RootedTree({0: None, **{i: 0 for i in range(1, k + 1)}}, 0)
    return g, PlanarConfiguration(g, rotation, tree, root_anchor=1)


class TestHandBuiltInstances:
    @pytest.mark.parametrize("k", [10, 12, 15, 18, 24, 30])
    def test_star_with_inner_chord(self, k):
        g, cfg = star_with_closing_edge(k, (3, k - 2))
        res = cycle_separator(cfg)
        check_separator(g, res.path, cfg.tree)

    @pytest.mark.parametrize("k", [10, 15, 20])
    def test_star_with_endpoint_chord(self, k):
        g, cfg = star_with_closing_edge(k, (2, k - 1))
        res = cycle_separator(cfg)
        check_separator(g, res.path, cfg.tree)

    def test_nested_chords(self):
        # Two nested chords: forces containment decisions.
        k = 16
        g = nx.Graph()
        g.add_edges_from((0, i) for i in range(1, k + 1))
        g.add_edges_from([(k, 1), (3, k - 2), (5, k - 4)])
        order = {0: list(range(1, k + 1)), 1: [0, k], k: [1, 0]}
        for i in range(2, k):
            order[i] = [0]
        order[3] = [0, k - 2]
        order[k - 2] = [3, 0]
        order[5] = [0, k - 4]
        order[k - 4] = [5, 0]
        rotation = RotationSystem(order)
        rotation.validate()
        tree = RootedTree({0: None, **{i: 0 for i in range(1, k + 1)}}, 0)
        cfg = PlanarConfiguration(g, rotation, tree, root_anchor=1)
        res = cycle_separator(cfg)
        check_separator(g, res.path, cfg.tree)


class TestHiddenFallbackDirect:
    def test_fallback_emits_balanced_path(self):
        """Drive Claim 6's fallback directly on the known hidden instance
        (leaf 3 walled off by chord (2,4) inside the face of (5,1))."""
        from test_hidden import star_with_chords

        g, cfg = star_with_chords()
        fv = face_view(cfg, (5, 1))
        result = _hidden_fallback(cfg, fv, 3, "", None)
        check_separator(g, result.path, cfg.tree)
        assert result.phase.startswith("phase4.1-hidden") or result.phase == "rescue"
