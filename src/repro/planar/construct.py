"""Building rotation systems for graphs (the paper's Proposition 1).

In the paper, a planar combinatorial embedding is computed distributively in
:math:`\\tilde{O}(D)` rounds (Ghaffari–Haeupler, PODC'16).  Here the
embedding is computed centrally by :func:`lr_rotation`, an in-repo port of
Brandes' left-right planarity test that reproduces networkx's
``check_planarity`` rotation exactly (networkx stays the test oracle); the
CONGEST round cost is charged by the ledger (see
:mod:`repro.congest.ledger`), as recorded in DESIGN.md's substitution table.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set

import networkx as nx

from .checks import NotPlanarError
from .rotation import RotationSystem

__all__ = ["embed", "embed_subgraph", "induced_components", "induced_copy", "lr_rotation"]

Node = Hashable


def embed(graph: nx.Graph) -> RotationSystem:
    """Compute a rotation system for a planar graph.

    Runs the left-right planarity test once and raises
    :class:`repro.planar.checks.NotPlanarError` on non-planar input.
    """
    order = lr_rotation(graph)
    if order is None:
        raise NotPlanarError.of(graph)
    return RotationSystem.adopt(order)


def lr_rotation(graph: nx.Graph) -> Optional[Dict[Node, List[Node]]]:
    """Clockwise rotation rows of ``graph`` by Brandes' left-right
    planarity test, or ``None`` when ``graph`` is not planar.

    A port of networkx 3.6.1's ``LRPlanarity`` to flat lists over node
    and edge indices.  It keeps every order the result depends on, so
    each row equals networkx's ``neighbors_cw_order`` of the
    ``check_planarity`` embedding:

    * the adjacency of the self-loop-free copy is built in edge-iteration
      order (``graph.edges()``'s, read from ``graph._adj``: the cached
      edge view would point back at ``graph`` and make the caller's graph
      cyclic garbage), not ``graph``'s own adjacency order;
    * the oriented graph's out-edges keep insertion order, and both
      nesting-depth sorts are stable sorts of that order;
    * signs are resolved edge by edge in that same order;
    * each row starts at networkx's *leftmost* neighbour: the first
      neighbour of the initial row, replaced by a node inserted directly
      counterclockwise of it (``add_half_edge_first``, and
      ``add_half_edge(cw=leftmost)``).

    networkx links each row into a cyclic list and splices the back
    edges into it while its embedding DFS runs; here each row is written
    once, in its final clockwise order, by the same DFS.  A non-root
    row starts at the parent (networkx's ``add_half_edge_first``), so
    it reads from the leftmost neighbour as networkx's does; a root row
    starts at the first tree child's block, whose newest side -1 insert
    is the leftmost there.  The rest of the row follows the out-edges in
    signed nesting order (the comment at the embedding step says what
    each contributes).

    Conflict-pair intervals are ``[low, high]`` slots of a 4-list
    ``[left.low, left.high, right.low, right.high]``.  Rows are keyed
    and ordered like ``graph``'s nodes; isolated nodes get empty rows.
    """
    nodes = list(graph)
    n = len(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    adjs: List[List[int]] = [[] for _ in range(n)]
    done = set()
    for a, nbrs in graph._adj.items():
        i = index[a]
        for b in nbrs:
            if b not in done and a != b:
                j = index[b]
                adjs[i].append(j)
                adjs[j].append(i)
        done.add(a)
    m = sum(map(len, adjs)) // 2
    if n > 2 and m > 3 * n - 6:
        return None

    # Orientation by DFS: heights, lowpoints and nesting depths.  An edge
    # {v, w} met from v is already oriented towards v exactly when w is
    # v's parent or a deeper node (a descendant's back edge).
    height: List[Optional[int]] = [None] * n
    parent_edge: List[Optional[int]] = [None] * n
    out: List[List[int]] = [[] for _ in range(n)]  # v's out-edges, oriented order
    tail, head = [0] * m, [0] * m
    lowpt, lowpt2, nesting = [0] * m, [0] * m, [0] * m
    roots: List[int] = []
    ind, resume = [0] * n, [False] * n
    edges = 0
    for r in range(n):
        if height[r] is not None:
            continue
        height[r] = 0
        roots.append(r)
        stack = [r]
        while stack:
            v = stack.pop()
            e = parent_edge[v]
            up = -1 if e is None else tail[e]
            hv = height[v]
            row, out_v = adjs[v], out[v]
            i = ind[v]
            while i < len(row):
                w = row[i]
                if resume[v]:  # back from the tree edge v->w
                    resume[v] = False
                    vw = parent_edge[w]
                else:
                    hw = height[w]
                    if w == up or (hw is not None and hw > hv):  # already w->v
                        i += 1
                        continue
                    vw = edges
                    edges += 1
                    out_v.append(vw)
                    tail[vw], head[vw] = v, w
                    lowpt[vw] = lowpt2[vw] = hv
                    if hw is None:  # tree edge
                        parent_edge[w] = vw
                        height[w] = hv + 1
                        ind[v], resume[v] = i, True
                        stack.append(v)
                        stack.append(w)
                        break
                    lowpt[vw] = hw  # back edge
                low = lowpt[vw]
                nesting[vw] = 2 * low + (lowpt2[vw] < hv)
                if e is not None:
                    if low < lowpt[e]:
                        lowpt2[e] = min(lowpt[e], lowpt2[vw])
                        lowpt[e] = low
                    elif low > lowpt[e]:
                        lowpt2[e] = min(lowpt2[e], low)
                    else:
                        lowpt2[e] = min(lowpt2[e], lowpt2[vw])
                i += 1

    # Testing: the LR partition, recorded as ref/side constraints.
    ordered = [sorted(out_v, key=nesting.__getitem__) for out_v in out]
    ref: List[Optional[int]] = [None] * m
    side = [1] * m
    lowpt_edge: List[Optional[int]] = [None] * m
    stack_bottom: List[Optional[list]] = [None] * m
    S: List[list] = []

    def conflicting(low, high, b):
        return (low is not None or high is not None) and lowpt[high] > lowpt[b]

    def add_constraints(ei: int, e: int) -> bool:
        P = [None, None, None, None]
        bottom = stack_bottom[ei]
        while True:  # merge return edges of ei into P.right
            Q = S.pop()
            if Q[0] is not None or Q[1] is not None:
                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
            if Q[0] is not None or Q[1] is not None:
                return False
            if lowpt[Q[2]] > lowpt[e]:  # merge intervals
                if P[2] is None and P[3] is None:
                    P[3] = Q[3]
                else:
                    ref[P[2]] = Q[3]
                P[2] = Q[2]
            else:  # align
                ref[Q[2]] = lowpt_edge[e]
            if (S[-1] if S else None) is bottom:
                break
        # merge conflicting return edges of earlier siblings into P.left
        while S and (conflicting(S[-1][0], S[-1][1], ei)
                     or conflicting(S[-1][2], S[-1][3], ei)):
            Q = S.pop()
            if conflicting(Q[2], Q[3], ei):
                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
            if conflicting(Q[2], Q[3], ei):
                return False
            if P[2] is not None:  # networkx writes a ref[None] nothing reads
                ref[P[2]] = Q[3]
            if Q[2] is not None:
                P[2] = Q[2]
            if P[0] is None and P[1] is None:
                P[1] = Q[1]
            else:
                ref[P[0]] = Q[1]
            P[0] = Q[0]
        if P[0] is not None or P[1] is not None or P[2] is not None or P[3] is not None:
            S.append(P)
        return True

    def lowest(P) -> int:
        if P[0] is None and P[1] is None:
            return lowpt[P[2]]
        if P[2] is None and P[3] is None:
            return lowpt[P[0]]
        return min(lowpt[P[0]], lowpt[P[2]])

    def remove_back_edges(e: int) -> None:
        u = tail[e]
        hu = height[u]
        while S and lowest(S[-1]) == hu:  # drop whole pairs
            P = S.pop()
            if P[0] is not None:
                side[P[0]] = -1
        if S:  # trim the next pair in place
            P = S[-1]
            while P[1] is not None and head[P[1]] == u:
                P[1] = ref[P[1]]
            if P[1] is None and P[0] is not None:  # just emptied
                ref[P[0]] = P[2]
                side[P[0]] = -1
                P[0] = None
            while P[3] is not None and head[P[3]] == u:
                P[3] = ref[P[3]]
            if P[3] is None and P[2] is not None:  # just emptied
                ref[P[2]] = P[0]
                side[P[2]] = -1
                P[2] = None
        if lowpt[e] < hu:  # side of e is side of a highest return edge
            hl, hr = S[-1][1], S[-1][3]
            if hl is not None and (hr is None or lowpt[hl] > lowpt[hr]):
                ref[e] = hl
            else:
                ref[e] = hr

    ind, resume = [0] * n, [False] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack.pop()
            e = parent_edge[v]
            hv = height[v]
            adj = ordered[v]
            i = ind[v]
            descended = False
            while i < len(adj):
                ei = adj[i]
                if resume[v]:  # back from the tree edge ei
                    resume[v] = False
                else:
                    stack_bottom[ei] = S[-1] if S else None
                    if parent_edge[head[ei]] == ei:  # tree edge
                        ind[v], resume[v] = i, True
                        stack.append(v)
                        stack.append(head[ei])
                        descended = True
                        break
                    lowpt_edge[ei] = ei  # back edge
                    S.append([None, None, ei, ei])
                if lowpt[ei] < hv:  # ei has a return edge
                    if i == 0:
                        lowpt_edge[e] = lowpt_edge[ei]
                    elif not add_constraints(ei, e):
                        return None
                i += 1
            if not descended and e is not None:
                remove_back_edges(e)

    # Embedding: resolve signs, sort again, then write each row in its
    # final clockwise order.  A row is the parent (none at a root), then
    # per out-edge in signed nesting order: a back edge's head, or for a
    # tree edge to w the side -1 back edges into the row made while w's
    # subtree ran (newest first, each went counterclockwise of the last),
    # w, and the side +1 ones (newest first, each went directly clockwise
    # of w).
    for out_v in out:
        for e in out_v:
            if ref[e] is None:
                nesting[e] *= side[e]
                continue
            chain = [e]  # e's ref chain, each ref cleared once followed
            while ref[chain[-1]] is not None:
                x = chain[-1]
                chain.append(ref[x])
                ref[x] = None
            s = 1
            for x in reversed(chain):
                s = side[x] = side[x] * s
            nesting[e] *= s
    ordered = [sorted(out_v, key=nesting.__getitem__) for out_v in out]
    rows: List[List[int]] = [[] for _ in range(n)]
    left: List[List[int]] = [[] for _ in range(n)]  # side -1 inserts, oldest first
    right: List[List[int]] = [[] for _ in range(n)]  # side +1 inserts, oldest first
    ind = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack.pop()
            adj = ordered[v]
            row = rows[v]
            i = ind[v]
            if i:  # back from the tree edge adj[i - 1]
                left_v, right_v = left[v], right[v]
                row.extend(reversed(left_v))
                row.append(head[adj[i - 1]])
                row.extend(reversed(right_v))
                left_v.clear()
                right_v.clear()
            while i < len(adj):
                ei = adj[i]
                i += 1
                w = head[ei]
                if parent_edge[w] == ei:  # tree edge: v leads w's row
                    rows[w].append(v)
                    ind[v] = i
                    stack.append(v)
                    stack.append(w)
                    break
                row.append(w)
                (right if side[ei] == 1 else left)[w].append(v)

    return {node: [nodes[u] for u in rows[v]] for v, node in enumerate(nodes)}


def embed_subgraph(rotation: RotationSystem, nodes) -> RotationSystem:
    """Restrict a rotation system to an induced subgraph.

    The paper uses this implicitly: each part :math:`P_i` of the partition
    inherits "the induced combinatorial planar embedding given by
    :math:`\\mathcal{E}` restricted to :math:`G[P_i]`" (DFS-ORDER-PROBLEM,
    Section 5.2.1).  Restriction preserves the relative clockwise order of
    the surviving neighbors, so the result is again a valid embedding.
    :class:`repro.core.config.PlanarConfiguration` restricts the rotation
    it is given in the same way while normalizing it, so the algorithm
    hands it the whole graph's rotation instead of calling this.

    The kept nodes come in ``nodes``' order, and the call costs
    O(k + kept degrees) for k kept nodes.  Nodes absent from ``rotation``
    are ignored.
    """
    rows = rotation._order
    kept = [v for v in nodes if v in rows]
    keep = set(kept)
    return RotationSystem.adopt({v: [u for u in rows[v] if u in keep] for v in kept})


def _view_nodes(adj, nodes):
    """The node set of networkx's ``graph.subgraph(nodes)`` view, built as
    the view builds it, and the order the view iterates it in: the set's
    own when it is under half the graph, the graph's otherwise."""
    keep = set(n for n in nodes if n in adj)
    return keep, (keep if 2 * len(keep) < len(adj) else [n for n in adj if n in keep])


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
    keep, order = _view_nodes(adj, nodes)
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


def induced_components(graph: nx.Graph, nodes) -> List[Set[Node]]:
    """The connected components of the subgraph of ``graph`` induced on
    ``nodes``, as fresh sets.

    Equal to ``[set(c) for c in nx.connected_components(graph.subgraph(nodes))]``
    in the sets, the list order and each set's iteration order, but read
    straight from ``graph._adj``.  Searches start in the view's node order
    (:func:`_view_nodes`); neighbours come in adjacency order (networkx's
    per-node filter has no node set to iterate instead), and each search
    stops once every unseen kept node is reached.  Nodes absent from
    ``graph`` are ignored.
    """
    adj = graph._adj
    keep, order = _view_nodes(adj, nodes)
    components: List[Set[Node]] = []
    unseen = len(keep)
    done: Set[Node] = set()
    for source in order:
        if source not in done:
            seen = _induced_bfs(adj, keep, source, unseen)
            unseen -= len(seen)
            done.update(seen)
            components.append(set(seen))
    return components


def _induced_bfs(adj, keep: Set[Node], source: Node, unseen: int) -> Set[Node]:
    """networkx's ``_plain_bfs`` on the view of ``adj`` induced on ``keep``:
    the nodes reached from ``source``, in its insertion order, stopping once
    all ``unseen`` kept nodes are reached."""
    seen = {source}
    level = [source]
    while level:
        below = []
        for v in level:
            for w in adj[v]:
                if w in keep and w not in seen:
                    seen.add(w)
                    below.append(w)
            if len(seen) == unseen:
                return seen
        level = below
    return seen
