"""Message-level Borůvka MST — the Proposition 3 substrate, simulated.

The paper's spanning-tree computations (Proposition 3, Lemma 9) simulate
Borůvka: fragments repeatedly pick their minimum outgoing edge and merge.
This module runs that algorithm *at the message level*: every phase is
three passes on the CONGEST simulator —

1. **leader flood** — each fragment's leader identity floods along the
   fragment's tree edges (rounds = fragment diameter);
2. **neighbor exchange** — one round in which every node tells its
   neighbors its fragment leader;
3. **MOE convergecast** — the minimum outgoing edge is aggregated up the
   fragment tree to the leader and the decision floods back down.

The pass orchestration is centralized (the simulator is re-armed per pass),
but every bit of information a node acts on arrived in messages, so the
accumulated round count is model-honest.  Without low-congestion shortcuts
a phase costs the largest fragment diameter — measured here — which is
exactly the cost the shortcut machinery of Proposition 2 removes; the test
suite compares both numbers.

Weights must be distinct; ties are broken by edge identifier, as the
paper's ID-based symmetry breaking does.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

import networkx as nx

from ..obs import trace_span
from .network import Network, NodeContext, RunResult
from .trace import RoundTrace
from .transport import scale_rounds

Node = Hashable
EdgeKey = Tuple[float, str, str]

__all__ = ["boruvka_mst_run", "MSTRun"]


class MSTRun:
    """Outcome of the message-level Borůvka execution.

    Attributes
    ----------
    edges:
        The MST edges (frozensets).
    phases:
        Borůvka merge phases executed (:math:`O(\\log n)`).
    rounds:
        Total simulated CONGEST rounds across all passes.
    """

    __slots__ = ("edges", "phases", "rounds")

    def __init__(self, edges: Set[FrozenSet[Node]], phases: int, rounds: int):
        self.edges = edges
        self.phases = phases
        self.rounds = rounds


def _edge_key(graph: nx.Graph, a: Node, b: Node) -> EdgeKey:
    weight = graph[a][b].get("weight", 1.0)
    lo, hi = sorted((repr(a), repr(b)))
    return (float(weight), lo, hi)


def _flood_leaders(
    graph: nx.Graph,
    fragment_edges: Set[FrozenSet[Node]],
    trace: Optional[RoundTrace] = None,
    faults=None,
    metrics=None,
    transport=None,
) -> Tuple[Dict[Node, Node], int]:
    """Pass 1: flood the (repr-) smallest member along fragment edges."""

    def init(ctx: NodeContext) -> None:
        ctx.state["leader"] = ctx.node
        ctx.state["dirty"] = True

    def on_round(ctx: NodeContext, inbox) -> Optional[Dict[Node, object]]:
        for payload in inbox.values():
            candidate = payload[0]
            if repr(candidate) < repr(ctx.state["leader"]):
                ctx.state["leader"] = candidate
                ctx.state["dirty"] = True
        if ctx.state["dirty"]:
            ctx.state["dirty"] = False
            return {
                u: (ctx.state["leader"],)
                for u in ctx.neighbors
                if frozenset((ctx.node, u)) in fragment_edges
            }
        return None

    result = Network(graph).run(
        init,
        on_round,
        max_rounds=scale_rounds(transport, 2 * len(graph) + 8),
        finalize=lambda ctx: ctx.state["leader"],
        stop_when_quiet=True,
        trace=trace,
        faults=faults,
        metrics=metrics,
        transport=transport,
    )
    return dict(result.outputs), result.rounds


def _exchange_and_moe(
    graph: nx.Graph,
    leader: Dict[Node, Node],
    fragment_edges: Set[FrozenSet[Node]],
    trace: Optional[RoundTrace] = None,
    faults=None,
    metrics=None,
    transport=None,
) -> Tuple[Dict[Node, Optional[Tuple[EdgeKey, Node, Node]]], int]:
    """Passes 2+3: learn neighbor fragments, convergecast the MOE.

    Returns each fragment leader's chosen minimum outgoing edge.  The
    convergecast runs on the fragment tree with the leader as root (every
    node forwards the best candidate seen from its subtree side; leaves
    fire first).
    """
    # Pass 2 costs exactly one round: model it directly.
    local_best: Dict[Node, Optional[Tuple[EdgeKey, Node, Node]]] = {}
    for v in graph.nodes:
        best = None
        for u in graph.neighbors(v):
            if leader[u] == leader[v]:
                continue
            key = _edge_key(graph, v, u)
            if best is None or key < best[0]:
                best = (key, v, u)
        local_best[v] = best

    # Fragment trees: orient fragment edges toward the leader by BFS.
    children: Dict[Node, List[Node]] = {v: [] for v in graph.nodes}
    parent: Dict[Node, Optional[Node]] = {}
    for v in graph.nodes:
        if leader[v] == v:
            parent[v] = None
    frontier = [v for v in graph.nodes if leader[v] == v]
    while frontier:
        nxt = []
        for v in frontier:
            for u in graph.neighbors(v):
                if u in parent or frozenset((v, u)) not in fragment_edges:
                    continue
                parent[u] = v
                children[v].append(u)
                nxt.append(u)
        frontier = nxt

    def init(ctx: NodeContext) -> None:
        ctx.state["best"] = local_best[ctx.node]
        ctx.state["waiting"] = len(children[ctx.node])

    def on_round(ctx: NodeContext, inbox) -> Optional[Dict[Node, object]]:
        for payload in inbox.values():
            ctx.state["waiting"] -= 1
            if payload[0] is not None:
                incoming = (tuple(payload[0]), payload[1], payload[2])
                if ctx.state["best"] is None or incoming[0] < ctx.state["best"][0]:
                    ctx.state["best"] = incoming
        if ctx.state["waiting"] == 0:
            best = ctx.state["best"]
            up = parent[ctx.node]
            ctx.halt(best)
            if up is not None:
                if best is None:
                    return {up: (None, None, None)}
                return {up: (best[0], best[1], best[2])}
        return None

    result = Network(graph, max_words=8).run(
        init, on_round, max_rounds=scale_rounds(transport, 2 * len(graph) + 8),
        trace=trace, faults=faults, metrics=metrics, transport=transport,
    )
    moes = {
        v: result.outputs[v] for v in graph.nodes if leader[v] == v
    }
    return moes, result.rounds + 1  # +1 for the neighbor-exchange round


def boruvka_mst_run(
    graph: nx.Graph,
    trace: Optional[RoundTrace] = None,
    faults=None,
    metrics=None,
    transport=None,
) -> MSTRun:
    """Run message-level Borůvka to completion.

    Requires a connected graph; weights default to 1 with edge-ID
    tie-breaking, so the result is the unique MST of the perturbed weights.
    """
    if len(graph) == 0:
        raise ValueError("empty graph")
    if not nx.is_connected(graph):
        raise ValueError("graph must be connected")
    fragment_edges: Set[FrozenSet[Node]] = set()
    phases = 0
    rounds = 0
    with trace_span(trace, "boruvka-mst"):
        while True:
            with trace_span(trace, "leader-flood", phase=phases + 1):
                leader, flood_rounds = _flood_leaders(
                    graph, fragment_edges, trace=trace,
                    faults=faults, metrics=metrics, transport=transport,
                )
            rounds += flood_rounds
            if len(set(leader.values())) == 1:
                break
            with trace_span(trace, "moe-convergecast", phase=phases + 1):
                moes, moe_rounds = _exchange_and_moe(
                    graph, leader, fragment_edges, trace=trace,
                    faults=faults, metrics=metrics, transport=transport,
                )
            rounds += moe_rounds
            phases += 1
            added = False
            for chosen in moes.values():
                if chosen is None:
                    continue
                _, a, b = chosen
                edge = frozenset((a, b))
                if edge not in fragment_edges:
                    fragment_edges.add(edge)
                    added = True
            if not added:  # pragma: no cover - disconnected guard
                raise RuntimeError("no progress; graph disconnected?")
            if phases > 2 * max(len(graph), 2).bit_length():
                raise RuntimeError("Boruvka did not converge in O(log n) phases")
    return MSTRun(fragment_edges, phases, rounds)
