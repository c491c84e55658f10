"""Building rotation systems for graphs (the paper's Proposition 1).

In the paper, a planar combinatorial embedding is computed distributively in
:math:`\\tilde{O}(D)` rounds (Ghaffari–Haeupler, PODC'16).  Here the
embedding is computed centrally via left-right planarity; the CONGEST round
cost is charged by the ledger (see :mod:`repro.congest.ledger`), as recorded
in DESIGN.md's substitution table.
"""

from __future__ import annotations

import networkx as nx

from .checks import NotPlanarError
from .rotation import RotationSystem

__all__ = ["embed", "embed_subgraph", "induced_copy"]


def embed(graph: nx.Graph) -> RotationSystem:
    """Compute a rotation system for a planar graph.

    Runs the left-right planarity test once and raises
    :class:`repro.planar.checks.NotPlanarError` on non-planar input.
    """
    is_planar, embedding = nx.check_planarity(graph, counterexample=False)
    if not is_planar:
        raise NotPlanarError.of(graph)
    return RotationSystem.from_networkx_embedding(embedding)


def embed_subgraph(rotation: RotationSystem, nodes) -> RotationSystem:
    """Restrict a rotation system to an induced subgraph.

    The paper uses this implicitly: each part :math:`P_i` of the partition
    inherits "the induced combinatorial planar embedding given by
    :math:`\\mathcal{E}` restricted to :math:`G[P_i]`" (DFS-ORDER-PROBLEM,
    Section 5.2.1).  Restriction preserves the relative clockwise order of
    the surviving neighbors, so the result is again a valid embedding.
    """
    keep = set(nodes)
    order = {
        v: [u for u in rotation.neighbors_cw(v) if u in keep]
        for v in rotation.nodes
        if v in keep
    }
    return RotationSystem(order)


def induced_copy(graph: nx.Graph, nodes) -> nx.Graph:
    """An independent copy of the subgraph of ``graph`` induced on ``nodes``.

    Equal to copying networkx's ``graph.subgraph(nodes)`` view in node
    order, per-node adjacency order and (freshly copied) node/edge data,
    but read straight from ``graph._adj`` instead of through the view's
    filters.  The
    orders matter: spanning-tree searches walk neighbours in adjacency
    order, so another order yields other trees.  Nodes absent from
    ``graph`` are ignored; ``graph`` must be a simple undirected graph.
    """
    adj = graph._adj
    keep = set(n for n in nodes if n in adj)
    # networkx's filtered views iterate the kept set when it is under half
    # the graph, and the graph's own order otherwise.
    order = keep if 2 * len(keep) < len(adj) else [n for n in adj if n in keep]
    sub_adj = {n: {} for n in order}
    for u in order:
        row = sub_adj[u]
        for v, data in adj[u].items():
            if v in keep and v not in row:
                row[v] = sub_adj[v][u] = data.copy()
    node_data = graph._node
    sub = graph.__class__()
    sub.graph.update(graph.graph)
    sub._node = {n: node_data[n].copy() for n in order}
    sub._adj = sub_adj
    return sub
