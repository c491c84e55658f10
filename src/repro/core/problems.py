"""The paper's boxed problem statements as a problem-by-problem API.

Section 5 defines the separator machinery as a stack of named CONGEST
problems — DFS-ORDER-PROBLEM, WEIGHTS-PROBLEM, MARK-PATH-PROBLEM,
LCA-PROBLEM, DETECT-FACE-PROBLEM, HIDDEN-PROBLEM, NOT-CONTAINED-PROBLEM,
NOT-CONTAINS-PROBLEM (Section 5.2), SEPARATOR-PROBLEM (Section 5.3),
RE-ROOT-PROBLEM and JOIN-PROBLEM (Section 6.1).  This module exposes each
with the paper's exact input/output contract, in the multi-part form the
paper states them (a partition :math:`\\mathcal{P}`, everything solved in
parallel per part, rounds charged per part-block to the ledger).

These are thin, documented veneers over the core machinery — the value is
the one-to-one correspondence with the paper, which the test suite and any
downstream reader can navigate lemma by lemma.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

import networkx as nx

from ..planar.construct import embed, induced_copy
from ..planar.rotation import RotationSystem
from ..trees.rooted import RootedTree
from ..trees.spanning import boruvka_part_spanning_trees
from .config import PlanarConfiguration
from .faces import face_view
from .hidden import hiding_edges
from .separator import (
    SeparatorResult,
    _containment_maximal,
    _containment_minimal,
    compute_cycle_separators,
)
from .subroutines import dfs_order_phases, lca_problem as _lca, mark_path_phases
from .weights import fundamental_weights

Node = Hashable
Edge = Tuple[Node, Node]

__all__ = [
    "PartContext",
    "part_contexts",
    "dfs_order_problem",
    "weights_problem",
    "mark_path_problem",
    "lca_problem",
    "detect_face_problem",
    "hidden_problem",
    "not_contained_problem",
    "not_contains_problem",
    "separator_problem",
    "re_root_problem",
]


class PartContext:
    """One part's slice of the paper's standing input.

    The boxed problems all share the same preamble: a planar configuration
    :math:`(G, \\mathcal{E}, T)`, a partition of :math:`V`, and a spanning
    tree :math:`T_i` of each induced subgraph.  A :class:`PartContext` is
    that preamble for one part (graph, inherited embedding, tree — already
    normalized into a :class:`PlanarConfiguration`).
    """

    __slots__ = ("index", "nodes", "cfg")

    def __init__(self, index: int, nodes: Sequence[Node], cfg: PlanarConfiguration):
        self.index = index
        self.nodes = list(nodes)
        self.cfg = cfg


def part_contexts(
    graph: nx.Graph,
    parts: Sequence[Sequence[Node]],
    rotation: Optional[RotationSystem] = None,
    trees: Optional[Dict[int, RootedTree]] = None,
    ledger=None,
) -> List[PartContext]:
    """Materialize the standing input: embedding + per-part spanning trees.

    The embedding costs one Proposition-1 charge; the trees one Lemma-9
    (per-part Borůvka) charge.
    """
    if rotation is None:
        rotation = embed(graph)
        if ledger is not None:
            ledger.charge_subroutine("planar-embedding")
    if trees is None:
        trees = boruvka_part_spanning_trees(graph, parts).trees
        if ledger is not None:
            ledger.charge_subroutine("part-spanning-trees")
    out = []
    for i, part in enumerate(parts):
        subgraph = induced_copy(graph, part)
        cfg = PlanarConfiguration(subgraph, rotation, trees[i])
        out.append(PartContext(i, part, cfg))
    return out


def dfs_order_problem(
    contexts: Sequence[PartContext], ledger=None
) -> Dict[int, Tuple[Dict[Node, int], Dict[Node, int]]]:
    """DFS-ORDER-PROBLEM (Lemma 11): every node learns π_ℓ and π_r.

    Returns part index -> (pi_left, pi_right).  Computed with the
    fragment-merging dynamics, so the charged rounds reflect the
    O(log n) phase structure rather than the tree depth.
    """
    out = {}
    for ctx in contexts:
        run = dfs_order_phases(ctx.cfg, ledger=ledger)
        out[ctx.index] = (run.pi_left, run.pi_right)
    return out


def weights_problem(
    contexts: Sequence[PartContext], ledger=None
) -> Dict[int, Dict[Edge, int]]:
    """WEIGHTS-PROBLEM (Lemma 12): the endpoints of every real fundamental
    edge learn the Definition-2 weight of its face."""
    out: Dict[int, Dict[Edge, int]] = {}
    for ctx in contexts:
        cfg = ctx.cfg
        if ledger is not None:
            ledger.charge_subroutine("weights")
        out[ctx.index] = fundamental_weights(cfg)
    return out


def mark_path_problem(
    contexts: Sequence[PartContext],
    endpoints: Dict[int, Tuple[Node, Node]],
    ledger=None,
) -> Dict[int, List[Node]]:
    """MARK-PATH-PROBLEM (Lemma 13): per part, every node of the
    :math:`T_i`-path between the two designated nodes is marked."""
    out = {}
    for ctx in contexts:
        if ctx.index not in endpoints:
            continue
        u, v = endpoints[ctx.index]
        out[ctx.index] = mark_path_phases(ctx.cfg, u, v, ledger=ledger).marked
    return out


def lca_problem(
    contexts: Sequence[PartContext],
    endpoints: Dict[int, Tuple[Node, Node]],
    ledger=None,
) -> Dict[int, Node]:
    """LCA-PROBLEM (Lemma 14): per part, the LCA of the designated nodes is
    identified."""
    out = {}
    for ctx in contexts:
        if ctx.index not in endpoints:
            continue
        u, v = endpoints[ctx.index]
        out[ctx.index] = _lca(ctx.cfg, u, v, ledger=ledger)
    return out


def detect_face_problem(
    contexts: Sequence[PartContext],
    edges: Dict[int, Edge],
    ledger=None,
) -> Dict[int, Set[Node]]:
    """DETECT-FACE-PROBLEM (Lemma 15): per part, every node learns whether
    it lies on :math:`F_e` (border or interior) for the designated edge."""
    out = {}
    for ctx in contexts:
        if ctx.index not in edges:
            continue
        if ledger is not None:
            ledger.charge_subroutine("detect-face")
        fv = face_view(ctx.cfg, edges[ctx.index])
        out[ctx.index] = fv.face_nodes()
    return out


def hidden_problem(
    contexts: Sequence[PartContext],
    queries: Dict[int, Tuple[Edge, Node]],
    ledger=None,
) -> Dict[int, List[Edge]]:
    """HIDDEN-PROBLEM (Lemma 16): per part, all real fundamental edges
    hiding the designated leaf inside the designated face."""
    out = {}
    for ctx in contexts:
        if ctx.index not in queries:
            continue
        if ledger is not None:
            ledger.charge_subroutine("hidden-problem")
        e, z = queries[ctx.index]
        fv = face_view(ctx.cfg, e)
        out[ctx.index] = [f for f, _ in hiding_edges(ctx.cfg, fv, z)]
    return out


def not_contained_problem(
    contexts: Sequence[PartContext],
    candidate_edges: Dict[int, Sequence[Edge]],
    ledger=None,
) -> Dict[int, Edge]:
    """NOT-CONTAINED-PROBLEM (Lemma 17): per part, a candidate edge whose
    face is contained in no other candidate's face."""
    out = {}
    for ctx in contexts:
        if ctx.index not in candidate_edges:
            continue
        if ledger is not None:
            ledger.charge_subroutine("not-contained")
        cfg = ctx.cfg
        views = {e: face_view(cfg, e) for e in candidate_edges[ctx.index]}
        out[ctx.index] = _containment_maximal(cfg, views, list(views))
    return out


def not_contains_problem(
    contexts: Sequence[PartContext],
    candidate_edges: Dict[int, Sequence[Edge]],
    ledger=None,
) -> Dict[int, Edge]:
    """NOT-CONTAINS-PROBLEM (Lemma 18): per part, a candidate edge whose
    face contains no other candidate's face."""
    out = {}
    for ctx in contexts:
        if ctx.index not in candidate_edges:
            continue
        if ledger is not None:
            ledger.charge_subroutine("not-contains")
        cfg = ctx.cfg
        views = {e: face_view(cfg, e) for e in candidate_edges[ctx.index]}
        out[ctx.index] = _containment_minimal(cfg, views, list(views))
    return out


def separator_problem(
    graph: nx.Graph,
    parts: Sequence[Sequence[Node]],
    ledger=None,
) -> Dict[int, SeparatorResult]:
    """SEPARATOR-PROBLEM (Section 5.3 / Theorem 1): a marked cycle
    separator per part.  Alias of :func:`repro.core.separator.
    compute_cycle_separators` under the paper's problem name."""
    return compute_cycle_separators(graph, parts, ledger=ledger)


def re_root_problem(
    contexts: Sequence[PartContext],
    new_roots: Dict[int, Node],
    ledger=None,
) -> Dict[int, RootedTree]:
    """RE-ROOT-PROBLEM (Lemma 19): per part, the spanning tree re-rooted at
    the designated node (same edges; parents and depths updated)."""
    out = {}
    for ctx in contexts:
        if ctx.index not in new_roots:
            continue
        if ledger is not None:
            ledger.charge_subroutine("re-root")
        out[ctx.index] = ctx.cfg.tree.reroot(new_roots[ctx.index])
    return out
