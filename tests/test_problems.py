"""Tests for the paper's problem-by-problem API (repro.core.problems)."""

import networkx as nx
import pytest

from repro.congest import CostModel, RoundLedger
from repro.core.faces import face_view
from repro.core.problems import (
    detect_face_problem,
    dfs_order_problem,
    hidden_problem,
    lca_problem,
    mark_path_problem,
    not_contained_problem,
    not_contains_problem,
    part_contexts,
    re_root_problem,
    separator_problem,
    weights_problem,
)
from repro.core.verify import check_separator
from repro.core.weights import weight
from repro.planar import generators as gen


@pytest.fixture
def setting():
    g = gen.grid(6, 8)
    parts = [list(range(0, 24)), list(range(24, 48))]
    contexts = part_contexts(g, parts)
    return g, parts, contexts


class TestStandingInput:
    def test_contexts_cover_parts(self, setting):
        g, parts, contexts = setting
        assert [set(c.nodes) for c in contexts] == [set(p) for p in parts]
        for ctx in contexts:
            assert set(ctx.cfg.graph.nodes) == set(ctx.nodes)

    def test_ledger_charges_preamble(self):
        g = gen.grid(4, 4)
        ledger = RoundLedger(CostModel(16, 6))
        part_contexts(g, [list(range(8)), list(range(8, 16))], ledger=ledger)
        assert "planar-embedding" in ledger.invocations
        assert "part-spanning-trees" in ledger.invocations


class TestOrderAndWeights:
    def test_dfs_order_problem(self, setting):
        g, parts, contexts = setting
        out = dfs_order_problem(contexts)
        for ctx in contexts:
            left, right = out[ctx.index]
            assert left == ctx.cfg.pi_left
            assert right == ctx.cfg.pi_right

    def test_weights_problem(self, setting):
        g, parts, contexts = setting
        out = weights_problem(contexts)
        for ctx in contexts:
            cfg = ctx.cfg
            for e, w in out[ctx.index].items():
                assert w == weight(cfg, face_view(cfg, e))


class TestPathProblems:
    def test_mark_path_problem(self, setting):
        g, parts, contexts = setting
        endpoints = {
            ctx.index: (min(ctx.nodes), max(ctx.nodes)) for ctx in contexts
        }
        out = mark_path_problem(contexts, endpoints)
        for ctx in contexts:
            u, v = endpoints[ctx.index]
            assert out[ctx.index] == ctx.cfg.tree.path(u, v)

    def test_lca_problem(self, setting):
        g, parts, contexts = setting
        endpoints = {ctx.index: (ctx.nodes[1], ctx.nodes[-1]) for ctx in contexts}
        out = lca_problem(contexts, endpoints)
        for ctx in contexts:
            u, v = endpoints[ctx.index]
            assert out[ctx.index] == ctx.cfg.tree.lca(u, v)

    def test_re_root_problem(self, setting):
        g, parts, contexts = setting
        roots = {ctx.index: ctx.nodes[-1] for ctx in contexts}
        out = re_root_problem(contexts, roots)
        for ctx in contexts:
            assert out[ctx.index].root == roots[ctx.index]


class TestFaceProblems:
    def test_detect_face_problem(self, setting):
        g, parts, contexts = setting
        edges = {}
        for ctx in contexts:
            fund = ctx.cfg.real_fundamental_edges()
            if fund:
                edges[ctx.index] = fund[0]
        out = detect_face_problem(contexts, edges)
        for idx, e in edges.items():
            ctx = contexts[idx]
            fv = face_view(ctx.cfg, e)
            assert out[idx] == fv.face_nodes()

    def test_hidden_problem_runs(self, setting):
        g, parts, contexts = setting
        queries = {}
        for ctx in contexts:
            for e in ctx.cfg.real_fundamental_edges():
                fv = face_view(ctx.cfg, e)
                leaves = [
                    z for z in fv.interior() if not ctx.cfg.tree.children[z]
                ]
                if leaves:
                    queries[ctx.index] = (e, leaves[0])
                    break
        out = hidden_problem(contexts, queries)
        for idx in queries:
            assert isinstance(out[idx], list)

    def test_containment_problems_agree_with_definitions(self, setting):
        g, parts, contexts = setting
        for ctx in contexts:
            fund = ctx.cfg.real_fundamental_edges()
            if len(fund) < 2:
                continue
            maximal = not_contained_problem(contexts, {ctx.index: fund})[ctx.index]
            minimal = not_contains_problem(contexts, {ctx.index: fund})[ctx.index]
            views = {e: face_view(ctx.cfg, e) for e in fund}
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
        g, parts, contexts = setting
        out = separator_problem(g, parts)
        for i, part in enumerate(parts):
            check_separator(g.subgraph(part), out[i].path)
