"""Message-level WEIGHTS-PROBLEM: Definition 2 computed by real messages.

Lemma 12's distributed content, executed on the simulator end to end:

1. **size convergecast** — every node reports its subtree size to its
   parent (1 word; a node fires once all children reported);
2. **order downcast** — the root starts with positions (1, 1, depth 0);
   every node, knowing its children's sizes from pass 1 and their rotation
   order locally, assigns each child its :math:`\\pi_\\ell, \\pi_r` and
   depth (3 words per child edge);
3. **endpoint exchange** — the two endpoints of every real fundamental
   edge swap ``(pi_l, pi_r, n_T, d_T)`` (4 words, 1 round);
4. **p-value exchange** — the deeper endpoint computes its inside-arc
   p-values for both possible orientations from its local rotation and its
   children's sizes, and ships both (2 words, 1 round);
5. every endpoint evaluates Definition 2 locally.

Measured cost: ``2·height + O(1)`` rounds — ``O(D)`` on BFS trees, which is
why the paper can afford this directly there, and :math:`\\Theta(n)` on
deep trees, which is exactly the problem Lemma 11's fragment merging (see
:func:`repro.core.subroutines.dfs_order_phases`) solves.  The computed
weights are tested equal to the charged layer's
:func:`repro.core.weights.weight` on every fundamental edge.

The arc-side rules used in step 5 are the calibrated, chirality-fixed
versions of the paper's Claims 1 and 4 (see DESIGN.md §3): for
:math:`\\pi_\\ell(u) < \\pi_\\ell(v)` and ``u`` not an ancestor, ``u``'s
inside children sit strictly between its parent slot and ``v`` in rotation
order, and ``v``'s strictly after ``u``; in the ancestor case ``u``'s sit
strictly between the path child and ``v``, and ``v``'s side follows the
Definition 1 orientation.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

import networkx as nx

from ..core.config import PlanarConfiguration
from ..obs import trace_span
from .network import Network, NodeContext, RunResult
from .trace import RoundTrace
from .transport import scale_rounds

Node = Hashable
Edge = Tuple[Node, Node]

__all__ = ["weights_problem_run", "WeightsRun"]


class WeightsRun:
    """Outcome of the message-level weight computation.

    Attributes
    ----------
    weights:
        Fundamental edge (oriented by the computed left order) -> weight.
    rounds:
        Total measured rounds across the passes.
    orders:
        The message-computed ``(pi_left, pi_right, depth)`` per node.
    """

    __slots__ = ("weights", "rounds", "orders")

    def __init__(self, weights: Dict[Edge, int], rounds: int, orders: Dict[Node, Tuple[int, int, int]]):
        self.weights = weights
        self.rounds = rounds
        self.orders = orders


def _size_convergecast(
    cfg: PlanarConfiguration,
    trace: Optional[RoundTrace] = None,
    scheduler: str = "active",
    faults=None,
    metrics=None,
    transport=None,
) -> Tuple[Dict[Node, Dict[Node, int]], int]:
    """Pass 1: child subtree sizes, learned at each parent by messages."""
    tree = cfg.tree

    def init(ctx: NodeContext) -> None:
        ctx.state["child_sizes"] = {}
        ctx.state["waiting"] = len(tree.children[ctx.node])

    def on_round(ctx: NodeContext, inbox) -> Optional[Dict[Node, object]]:
        for sender, payload in inbox.items():
            ctx.state["child_sizes"][sender] = payload[0]
            ctx.state["waiting"] -= 1
        if ctx.state["waiting"] == 0:
            size = 1 + sum(ctx.state["child_sizes"].values())
            parent = tree.parent[ctx.node]
            ctx.halt(dict(ctx.state["child_sizes"]))
            if parent is not None:
                return {parent: (size,)}
        return None

    result = Network(cfg.graph).run(
        init, on_round, max_rounds=scale_rounds(transport, 2 * cfg.n + 8),
        trace=trace, scheduler=scheduler, faults=faults, metrics=metrics,
        transport=transport,
    )
    return dict(result.outputs), result.rounds


def _order_downcast(
    cfg: PlanarConfiguration,
    child_sizes: Dict[Node, Dict[Node, int]],
    trace: Optional[RoundTrace] = None,
    scheduler: str = "active",
    faults=None,
    metrics=None,
    transport=None,
) -> Tuple[Dict[Node, Tuple[int, int, int]], int]:
    """Pass 2: assign (pi_l, pi_r, depth) top-down."""
    tree = cfg.tree

    def init(ctx: NodeContext) -> None:
        if ctx.node == tree.root:
            ctx.state["me"] = (1, 1, 0)
        else:
            ctx.state["me"] = None
        ctx.state["sent"] = False

    def on_round(ctx: NodeContext, inbox) -> Optional[Dict[Node, object]]:
        for payload in inbox.values():
            ctx.state["me"] = tuple(payload)
        if ctx.state["me"] is None or ctx.state["sent"]:
            if ctx.state["me"] is not None:
                ctx.halt(ctx.state["me"])
            return None
        ctx.state["sent"] = True
        pi_l, pi_r, depth = ctx.state["me"]
        sizes = child_sizes[ctx.node]
        # Children in rotation order: RIGHT order ascends it, LEFT descends.
        in_rot = [
            u for u in cfg.t(ctx.node) if u in sizes
        ]
        sends: Dict[Node, object] = {}
        acc_r = 1
        for c in in_rot:
            sends[c] = [None, pi_r + acc_r, depth + 1]
            acc_r += sizes[c]
        acc_l = 1
        for c in reversed(in_rot):
            sends[c][0] = pi_l + acc_l
            acc_l += sizes[c]
        for c in sends:
            sends[c] = tuple(sends[c])
        ctx.halt(ctx.state["me"])
        return sends

    result = Network(cfg.graph).run(
        init, on_round, max_rounds=scale_rounds(transport, 2 * cfg.n + 8),
        stop_when_quiet=True,
        finalize=lambda ctx: ctx.state["me"],
        trace=trace, scheduler=scheduler, faults=faults, metrics=metrics,
        transport=transport,
    )
    return dict(result.outputs), result.rounds


def weights_problem_run(
    cfg: PlanarConfiguration,
    trace: Optional[RoundTrace] = None,
    scheduler: str = "active",
    faults=None,
    metrics=None,
    transport=None,
) -> WeightsRun:
    """Run the full message-level WEIGHTS-PROBLEM on one configuration."""
    tree = cfg.tree
    with trace_span(trace, "weights-problem"):
        with trace_span(trace, "size-convergecast"):
            child_sizes, rounds1 = _size_convergecast(
                cfg, trace=trace, scheduler=scheduler, faults=faults,
                metrics=metrics, transport=transport,
            )
        with trace_span(trace, "order-downcast"):
            orders, rounds2 = _order_downcast(
                cfg, child_sizes, trace=trace, scheduler=scheduler,
                faults=faults, metrics=metrics, transport=transport,
            )
    pi_l = {v: orders[v][0] for v in cfg.graph.nodes}
    pi_r = {v: orders[v][1] for v in cfg.graph.nodes}
    depth = {v: orders[v][2] for v in cfg.graph.nodes}
    sizes = {v: 1 + sum(child_sizes[v].values()) for v in cfg.graph.nodes}
    # Children's assigned orders are known at the parent (it computed them).
    child_pi_l: Dict[Node, Dict[Node, int]] = {v: {} for v in cfg.graph.nodes}
    child_pi_r: Dict[Node, Dict[Node, int]] = {v: {} for v in cfg.graph.nodes}
    for v in cfg.graph.nodes:
        p = tree.parent[v]
        if p is not None:
            child_pi_l[p][v] = pi_l[v]
            child_pi_r[p][v] = pi_r[v]

    # Passes 3+4 are two exchange rounds per fundamental edge, all parallel.
    weights: Dict[Edge, int] = {}
    for a, b in cfg.real_fundamental_edges():
        u, v = (a, b) if pi_l[a] < pi_l[b] else (b, a)
        # -- exchanged values (pass 3) --
        u_vals = (pi_l[u], pi_r[u], sizes[u], depth[u])
        v_vals = (pi_l[v], pi_r[v], sizes[v], depth[v])
        u_is_ancestor = pi_l[u] <= pi_l[v] <= pi_l[u] + sizes[u] - 1

        def arc_sum(x: Node, lo: int, hi: int) -> int:
            """Sum of child subtree sizes at rotation positions in (lo, hi)."""
            t = cfg.t(x)
            total = 0
            for pos in range(lo + 1, hi):
                c = t[pos]
                if c in child_sizes[x]:
                    total += child_sizes[x][c]
            return total

        if not u_is_ancestor:
            p_u = arc_sum(u, 0, cfg.t_position(u, v))
            p_v = arc_sum(v, cfg.t_position(v, u), cfg.rotation.degree(v))
            w = p_v + p_u + pi_l[v] - (pi_l[u] + sizes[u]) + 2
        else:
            # z1 = u's child whose left range contains pi_l(v).
            z1 = next(
                c
                for c in child_pi_l[u]
                if child_pi_l[u][c] <= pi_l[v] <= child_pi_l[u][c] + child_sizes[u][c] - 1
            )
            pos_z1 = cfg.t_position(u, z1)
            pos_v = cfg.t_position(u, v)
            left_oriented = pos_v > pos_z1
            p_u = arc_sum(u, min(pos_z1, pos_v), max(pos_z1, pos_v))
            j = cfg.t_position(v, u)
            if left_oriented:
                p_v = arc_sum(v, j, cfg.rotation.degree(v))
                w = p_v + p_u + (pi_l[v] - child_pi_l[u][z1]) - (depth[v] - (depth[u] + 1))
            else:
                p_v = arc_sum(v, 0, j)
                w = p_v + p_u + (pi_r[v] - child_pi_r[u][z1]) - (depth[v] - (depth[u] + 1))
        weights[(u, v)] = w

    total_rounds = rounds1 + rounds2 + 2
    return WeightsRun(weights, total_rounds, orders)
