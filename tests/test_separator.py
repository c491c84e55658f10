"""End-to-end tests for Theorem 1 (cycle separators)."""

import networkx as nx
import pytest

from repro.core.certify import certify_cycle
from repro.core.config import PlanarConfiguration
from repro.core.faces import face_view
from repro.core.separator import (
    SeparatorError,
    _containment_maximal,
    _containment_minimal,
    compute_cycle_separators,
    cycle_separator,
)
from repro.core.verify import check_separator, separator_report
from repro.congest import CostModel, RoundLedger
from repro.planar import embed
from repro.planar import generators as gen
from repro.planar.checks import NotConnectedError
from repro.trees import bfs_tree, dfs_spanning_tree

from conftest import configs_for, make_config


class TestAllFamilies:
    def test_valid_on_every_family_and_tree(self):
        for seed in range(3):
            for name, g in gen.FAMILIES(seed):
                for kind, cfg in configs_for(g, root=seed % len(g), seed=seed):
                    res = cycle_separator(cfg)
                    report = check_separator(g, res.path, cfg.tree)
                    assert report.balanced, (name, kind, seed)

    def test_separator_is_simple_tree_path(self):
        for name, g in gen.FAMILIES(1):
            cfg = make_config(g, seed=1)
            res = cycle_separator(cfg)
            assert len(set(res.path)) == len(res.path)
            for a, b in zip(res.path, res.path[1:]):
                assert cfg.is_tree_edge(a, b)

    def test_deterministic(self):
        g = gen.delaunay(50, seed=9)
        a = cycle_separator(make_config(g, seed=9))
        b = cycle_separator(make_config(g, seed=9))
        assert a.path == b.path and a.phase == b.phase


class TestTrivialAndTreeCases:
    def test_singleton(self):
        g = nx.Graph()
        g.add_node(0)
        res = cycle_separator(PlanarConfiguration.build(g, root=0))
        assert res.path == [0] and res.phase == "trivial"

    def test_two_nodes(self):
        res = cycle_separator(PlanarConfiguration.build(nx.path_graph(2), root=0))
        assert set(res.path) == {0, 1}

    def test_triangle(self):
        g = nx.cycle_graph(3)
        res = cycle_separator(PlanarConfiguration.build(g, root=0))
        check_separator(g, res.path)

    def test_tree_inputs_use_phase2(self):
        for maker in (lambda: gen.path_graph(30), lambda: gen.star_graph(15),
                      lambda: gen.broom(8, 9), lambda: gen.random_tree(40, seed=2)):
            g = maker()
            cfg = make_config(g)
            res = cycle_separator(cfg)
            assert res.phase == "phase2"
            check_separator(g, res.path, cfg.tree)

    def test_star_uses_centroid_fallback(self):
        cfg = make_config(gen.star_graph(13))
        res = cycle_separator(cfg)
        assert res.rule == "centroid-fallback"

    def test_phase2_path_starts_at_root(self):
        cfg = make_config(gen.random_tree(25, seed=4))
        res = cycle_separator(cfg)
        assert res.path[0] == cfg.tree.root


class TestPhaseBehaviour:
    def test_phase3_weight_in_window(self):
        # Triangulated grids with BFS trees reliably have a window face.
        cfg = make_config(gen.triangulated_grid(5, 5))
        res = cycle_separator(cfg)
        g = cfg.graph
        check_separator(g, res.path, cfg.tree)
        assert res.phase in {"phase3", "phase3b", "phase4.1", "phase4.1-hidden",
                             "phase4.2", "phase5", "rescue"}

    def test_grid_dfs_tree_uses_rooted_phase5(self):
        # The Hamiltonian-snake configuration from DESIGN.md's errata.
        from repro.trees import dfs_spanning_tree

        g = gen.grid(6, 7)
        cfg = make_config(g, kind="dfs")
        res = cycle_separator(cfg)
        check_separator(g, res.path, cfg.tree)

    def test_wheel_exercises_phase4(self):
        cfg = make_config(gen.wheel(16))
        res = cycle_separator(cfg)
        check_separator(cfg.graph, res.path, cfg.tree)

    def test_hub_rooted_star_with_triangle_takes_the_rescue(self):
        # Every node is adjacent to the hub root, so no root edge can be
        # inserted; a chord of the outer face closes a balanced cycle.
        g = nx.star_graph(8)
        g.add_edges_from([(0, 9), (0, 10), (9, 10)])
        cfg = PlanarConfiguration.build(g, root=0)
        ledger = RoundLedger(CostModel(len(g), 2))
        res = cycle_separator(cfg, ledger=ledger)
        check_separator(g, res.path, cfg.tree)
        assert res.phase == "rescue"
        assert certify_cycle(g, cfg.rotation, res.path) == "virtual-edge"
        assert ledger.by_subroutine["mark-path"] > 0

    def test_balance_guarantee_is_two_thirds(self):
        worst = 0.0
        for seed in range(5):
            g = gen.delaunay(60, seed=seed)
            cfg = make_config(g, seed=seed)
            res = cycle_separator(cfg)
            report = separator_report(g, res.path)
            worst = max(worst, report.max_fraction)
        assert worst <= 2 / 3 + 1e-9


class TestRescueSlice:
    """Every root of ``grid(12, 12)`` under a DFS spanning tree: the
    phases leave 21 of the 144 roots to the rescue.  Each output must be
    a balanced T-path certified as a cycle separator."""

    def test_every_root_of_a_dfs_tree_grid(self):
        g = gen.grid(12, 12)
        rotation = embed(g)
        rescued = 0
        for root in g.nodes:
            cfg = PlanarConfiguration(g, rotation, dfs_spanning_tree(g, root))
            res = cycle_separator(cfg)
            check_separator(g, res.path, cfg.tree)
            cert = certify_cycle(g, cfg.rotation, res.path)
            assert cert in {"real-edge", "virtual-edge", "trivial"}, (root, res.phase)
            rescued += res.phase == "rescue"
        assert rescued >= 10

    def test_charges_the_longest_face_walk(self):
        g = gen.grid(12, 12)
        rotation = embed(g)
        root = next(
            r for r in g.nodes
            if cycle_separator(
                PlanarConfiguration(g, rotation, dfs_spanning_tree(g, r))
            ).phase == "rescue"
        )
        cfg = PlanarConfiguration(g, rotation, dfs_spanning_tree(g, root))
        ledger = RoundLedger(CostModel(len(g), 22))
        assert cycle_separator(cfg, ledger=ledger).phase == "rescue"
        # The outer face of the 12x12 lattice: 44 corners.
        assert ledger.by_subroutine["face-walk"] == 44
        assert ledger.invocations["face-walk"] == 1


class TestContainmentTieGroup:
    """Nested faces of equal size: the size order alone cannot tell them
    apart, so the helpers must still test containment inside the tie."""

    @staticmethod
    def _setup(graph, candidates):
        cfg = PlanarConfiguration.build(graph, root=1)
        views = {e: face_view(cfg, e) for e in candidates}
        sizes = {len(views[e].face_nodes()) for e in candidates}
        assert len(sizes) == 1
        return cfg, views

    def test_minimal_skips_a_tied_face_that_contains_another(self):
        candidates = [(0, 5), (4, 5)]
        cfg, views = self._setup(gen.triangulated_grid(3, 4), candidates)
        assert views[(0, 5)].contains_edge((4, 5))
        assert _containment_minimal(cfg, views, candidates) == (4, 5)

    def test_maximal_skips_a_tied_face_contained_in_another(self):
        candidates = [(12, 13), (4, 5)]
        cfg, views = self._setup(gen.grid(4, 4), candidates)
        assert views[(4, 5)].contains_edge((12, 13))
        assert _containment_maximal(cfg, views, candidates) == (4, 5)


class TestMultiPart:
    def test_partition_separators(self):
        g = gen.grid(6, 6)
        parts = [list(range(0, 12)), list(range(12, 24)), list(range(24, 36))]
        results = compute_cycle_separators(g, parts)
        for i, part in enumerate(parts):
            sub = g.subgraph(part)
            check_separator(sub, results[i].path)

    def test_disconnected_part_rejected(self):
        g = gen.grid(4, 4)
        with pytest.raises(NotConnectedError):
            compute_cycle_separators(g, [[0, 15]])

    def test_with_ledger_charges_rounds(self):
        g = gen.grid(6, 6)
        parts = [list(range(0, 18)), list(range(18, 36))]
        ledger = RoundLedger(CostModel(len(g), nx.diameter(g)))
        compute_cycle_separators(g, parts, ledger=ledger)
        assert ledger.total_rounds > 0
        assert "mark-path" in ledger.by_subroutine


class TestStress:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_planar_sweep(self, seed):
        for density in (0.2, 0.5, 0.9):
            g = gen.random_planar(45, density=density, seed=seed)
            for kind, cfg in configs_for(g, root=seed % len(g), seed=seed):
                res = cycle_separator(cfg)
                check_separator(g, res.path, cfg.tree)
