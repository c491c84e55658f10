"""Message-level fragment merging — the engine behind Lemmas 11 and 13.

The paper's deep-tree subroutines all run the same dynamic: partition the
spanning tree into rooted fragments, and each iteration merge every
fragment whose root sits at *odd fragment depth* into its parent's
fragment, so the maximum fragment depth halves and :math:`O(\\log n)`
iterations suffice.  This module runs that dynamic with real messages:

* a fragment root learns its parent's fragment identifier in one round
  (it is the parent's state from the previous iteration — one request /
  reply exchange);
* the new identifier floods through the joining fragment along its tree
  edges (measured rounds = fragment diameter — the cost that, in the
  paper, is collapsed to :math:`\\tilde{O}(D)` by routing the floods over
  low-congestion shortcuts instead of fragment edges).

:func:`mark_path_merge_run` additionally reproduces Lemma 13's first
phase: run the merge until the fragments containing ``u`` and ``v``
coalesce, and report the *merge edge* — which the paper claims lies on the
u-v path.  The test suite validates the claim on every run.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Tuple

import networkx as nx

from ..obs import trace_span
from ..trees.rooted import RootedTree
from .network import Network, NodeContext
from .trace import RoundTrace
from .transport import scale_rounds

Node = Hashable

__all__ = ["fragment_merge_run", "mark_path_merge_run", "FragmentRun", "MarkPathMergeRun"]


class FragmentRun:
    """Outcome of running the merge dynamic to a single fragment.

    Attributes
    ----------
    iterations:
        Merge iterations executed (Lemma 11/13: :math:`O(\\log n)`).
    rounds:
        Total measured message rounds across all flood passes.
    """

    __slots__ = ("iterations", "rounds")

    def __init__(self, iterations: int, rounds: int):
        self.iterations = iterations
        self.rounds = rounds


class MarkPathMergeRun(FragmentRun):
    """Outcome of the Lemma-13 middle-edge search.

    Attributes
    ----------
    merge_edge:
        The tree edge whose merge united ``u``'s and ``v``'s fragments.
    """

    __slots__ = ("merge_edge",)

    def __init__(self, iterations: int, rounds: int, merge_edge: Tuple[Node, Node]):
        super().__init__(iterations, rounds)
        self.merge_edge = merge_edge


def _flood_fragment_ids(
    graph: nx.Graph,
    tree: RootedTree,
    fragment: Dict[Node, Node],
    updates: Dict[Node, Node],
    trace: Optional[RoundTrace] = None,
    scheduler: str = "active",
    faults=None,
    metrics=None,
    transport=None,
) -> int:
    """Flood new fragment ids from the re-pointed roots; returns rounds.

    ``updates`` maps each joining fragment root to its new fragment id; the
    flood travels along tree edges between nodes of the (old) joining
    fragments, exactly the paper's intra-fragment broadcast.
    """
    old_of = dict(fragment)

    def init(ctx: NodeContext) -> None:
        v = ctx.node
        ctx.state["frag"] = fragment[v]
        ctx.state["dirty"] = False
        if v in updates:
            ctx.state["frag"] = updates[v]
            ctx.state["dirty"] = True

    def on_round(ctx: NodeContext, inbox) -> Optional[Dict[Node, object]]:
        v = ctx.node
        for sender, payload in inbox.items():
            new_id, old_id = payload
            if old_id == old_of[v] and ctx.state["frag"] != new_id:
                ctx.state["frag"] = new_id
                ctx.state["dirty"] = True
        if ctx.state["dirty"]:
            ctx.state["dirty"] = False
            sends = {}
            for u in ctx.neighbors:
                if tree.parent.get(u) == v or tree.parent.get(v) == u:
                    if old_of[u] == old_of[v]:
                        sends[u] = (ctx.state["frag"], old_of[v])
            return sends
        return None

    result = Network(graph).run(
        init,
        on_round,
        max_rounds=scale_rounds(transport, 2 * len(graph) + 8),
        finalize=lambda ctx: ctx.state["frag"],
        stop_when_quiet=True,
        trace=trace,
        scheduler=scheduler,
        faults=faults,
        metrics=metrics,
        transport=transport,
    )
    for v, frag in result.outputs.items():
        fragment[v] = frag
    return result.rounds


def fragment_merge_run(
    graph: nx.Graph,
    tree: RootedTree,
    stop: Optional[Tuple[Node, Node]] = None,
    trace: Optional[RoundTrace] = None,
    scheduler: str = "active",
    faults=None,
    metrics=None,
    transport=None,
) -> FragmentRun | MarkPathMergeRun:
    """Run the odd-depth merge dynamic; optionally stop at a coalescence.

    Parameters
    ----------
    graph, tree:
        The network and its rooted spanning tree.
    stop:
        Optional pair ``(u, v)``: stop as soon as their fragments merge and
        report the uniting tree edge (Lemma 13's middle-edge search).
    """
    fragment: Dict[Node, Node] = {v: v for v in tree.nodes}
    iterations = 0
    rounds = 0
    path = tree.path(*stop) if stop is not None else []
    with trace_span(trace, "fragment-merge"):
        while len(set(fragment.values())) > 1:
            iterations += 1
            scale = 1 << (iterations - 1)
            before = dict(fragment)
            # Each odd-fragment-depth root re-points to its parent's fragment;
            # the parent's id travels one request/reply exchange.  Chained joins
            # resolve top-down within the iteration, as the paper's pipelined
            # broadcasts do.
            rounds += 2
            updates: Dict[Node, Node] = {}
            resolved: Dict[Node, Node] = {}
            joining_roots = [
                r
                for r in set(fragment.values())
                if r != tree.root and (tree.depth[r] // scale) % 2 == 1
            ]
            for r in sorted(joining_roots, key=lambda r: tree.depth[r]):
                parent = tree.parent[r]
                assert parent is not None
                target = fragment[parent]
                target = resolved.get(target, target)
                updates[r] = target
                resolved[r] = target
            with trace_span(trace, "merge-iteration", iteration=iterations):
                rounds += _flood_fragment_ids(
                    graph, tree, fragment, updates, trace=trace,
                    scheduler=scheduler, faults=faults, metrics=metrics,
                    transport=transport,
                )
            if stop is not None and fragment[stop[0]] == fragment[stop[1]]:
                # The merge edge: the first path edge whose endpoints were in
                # different fragments before this iteration and are united now
                # (each path edge checks this with one message exchange).
                rounds += 1
                merge_edge = next(
                    (a, b)
                    for a, b in zip(path, path[1:])
                    if before[a] != before[b] and fragment[a] == fragment[b]
                )
                return MarkPathMergeRun(iterations, rounds, merge_edge)
            if iterations > 2 * max(len(graph), 2).bit_length() + 4:
                raise RuntimeError("fragment merging did not converge")
    return FragmentRun(iterations, rounds)


def mark_path_merge_run(
    graph: nx.Graph,
    tree: RootedTree,
    u: Node,
    v: Node,
    trace: Optional[RoundTrace] = None,
    scheduler: str = "active",
    faults=None,
    metrics=None,
    transport=None,
) -> MarkPathMergeRun:
    """Lemma 13's first phase: merge until ``u`` and ``v`` coalesce."""
    run = fragment_merge_run(
        graph, tree, stop=(u, v), trace=trace, scheduler=scheduler,
        faults=faults, metrics=metrics, transport=transport,
    )
    assert isinstance(run, MarkPathMergeRun)
    return run
