"""The paper's boxed problems (Sections 5.2-5.3, 6.1), one core call each.

``docs/ALGORITHM.md`` maps each problem to the code that solves it; these
tests hold every entry of that map to the problem's input/output contract
on a two-part partition of a grid.
"""

import networkx as nx
import pytest

from repro.congest import CostModel, RoundLedger
from repro.core.config import PlanarConfiguration
from repro.core.faces import face_view
from repro.core.hidden import hiding_edges
from repro.core.separator import (
    _containment_maximal,
    _containment_minimal,
    compute_cycle_separators,
)
from repro.core.subroutines import dfs_order_phases, lca_problem, mark_path_phases
from repro.core.verify import check_separator
from repro.core.weights import fundamental_weights, weight
from repro.planar import generators as gen
from repro.planar.construct import embed, induced_copy
from repro.trees.spanning import boruvka_part_spanning_trees

from test_faces import oracle_interior


def part_configurations(graph: nx.Graph, parts):
    """Each part's planar configuration, built as
    :func:`~repro.core.separator.compute_cycle_separators` builds it: one
    embedding of ``graph``, per-part Borůvka trees (Lemma 9), and the
    embedding restricted to each induced part."""
    rotation = embed(graph)
    trees = boruvka_part_spanning_trees(graph, parts).trees
    return [
        PlanarConfiguration(induced_copy(graph, part), rotation, trees[i])
        for i, part in enumerate(parts)
    ]


@pytest.fixture
def setting():
    g = gen.grid(6, 8)
    parts = [list(range(0, 24)), list(range(24, 48))]
    return g, parts, part_configurations(g, parts)


class TestStandingInput:
    def test_contexts_cover_parts(self, setting):
        g, parts, cfgs = setting
        assert len(cfgs) == len(parts)
        for part, cfg in zip(parts, cfgs):
            assert set(cfg.graph.nodes) == set(part)

    def test_ledger_charges_preamble(self):
        g = gen.grid(4, 4)
        ledger = RoundLedger(CostModel(16, 6))
        compute_cycle_separators(
            g, [list(range(8)), list(range(8, 16))], ledger=ledger
        )
        assert "planar-embedding" in ledger.invocations
        assert "part-spanning-trees" in ledger.invocations


class TestOrderAndWeights:
    def test_dfs_order_problem(self, setting):
        """DFS-ORDER-PROBLEM (Lemma 11): every node learns π_ℓ and π_r."""
        g, parts, cfgs = setting
        for cfg in cfgs:
            run = dfs_order_phases(cfg)
            assert run.pi_left == cfg.pi_left
            assert run.pi_right == cfg.pi_right

    def test_weights_problem(self, setting):
        """WEIGHTS-PROBLEM (Lemma 12): the Definition-2 weight of every
        real fundamental edge's face."""
        g, parts, cfgs = setting
        for cfg in cfgs:
            for e, w in fundamental_weights(cfg).items():
                assert w == weight(cfg, face_view(cfg, e))


class TestPathProblems:
    def test_mark_path_problem(self, setting):
        """MARK-PATH-PROBLEM (Lemma 13)."""
        g, parts, cfgs = setting
        for part, cfg in zip(parts, cfgs):
            u, v = min(part), max(part)
            assert mark_path_phases(cfg, u, v).marked == cfg.tree.path(u, v)

    def test_lca_problem(self, setting):
        """LCA-PROBLEM (Lemma 14)."""
        g, parts, cfgs = setting
        for part, cfg in zip(parts, cfgs):
            u, v = part[1], part[-1]
            assert lca_problem(cfg, u, v) == cfg.tree.lca(u, v)

    def test_re_root_problem(self, setting):
        """RE-ROOT-PROBLEM (Lemma 19)."""
        g, parts, cfgs = setting
        for part, cfg in zip(parts, cfgs):
            assert cfg.tree.reroot(part[-1]).root == part[-1]


class TestFaceProblems:
    def test_detect_face_problem(self, setting):
        """DETECT-FACE-PROBLEM (Lemma 15): the nodes on F_e, border or
        interior, against the dual flood-fill region oracle."""
        g, parts, cfgs = setting
        for cfg in cfgs:
            fund = cfg.real_fundamental_edges()
            if not fund:
                continue
            fv = face_view(cfg, fund[0])
            assert fv.face_nodes() == set(fv.border) | oracle_interior(cfg, fv)

    def test_hidden_problem_runs(self, setting):
        """HIDDEN-PROBLEM (Lemma 16): the real fundamental edges hiding a
        leaf inside a face."""
        g, parts, cfgs = setting
        for cfg in cfgs:
            fund = cfg.real_fundamental_edges()
            for e in fund:
                fv = face_view(cfg, e)
                leaves = [z for z in fv.interior() if not cfg.tree.children[z]]
                if leaves:
                    hiding = [f for f, _ in hiding_edges(cfg, fv, leaves[0])]
                    assert set(hiding) <= set(fund)
                    break

    def test_containment_problems_agree_with_definitions(self, setting):
        """NOT-CONTAINED-PROBLEM (Lemma 17) and NOT-CONTAINS-PROBLEM
        (Lemma 18)."""
        g, parts, cfgs = setting
        for cfg in cfgs:
            fund = cfg.real_fundamental_edges()
            if len(fund) < 2:
                continue
            views = {e: face_view(cfg, e) for e in fund}
            maximal = _containment_maximal(cfg, views, fund)
            minimal = _containment_minimal(cfg, views, fund)
            for f in fund:
                if f == maximal:
                    continue
                assert not views[f].contains_edge(maximal)
            for f in fund:
                if f == minimal:
                    continue
                assert not views[minimal].contains_edge(f)


class TestSeparatorProblem:
    def test_matches_public_entry(self, setting):
        """SEPARATOR-PROBLEM (Section 5.3, Theorem 1)."""
        g, parts, cfgs = setting
        out = compute_cycle_separators(g, parts)
        for i, part in enumerate(parts):
            check_separator(g.subgraph(part), out[i].path)
