"""Awerbuch's distributed DFS (IPL 1985) — the classic O(n) baseline.

This is the algorithm the paper's Theorem 2 improves on: a token performs
the depth-first traversal, but before forwarding, a freshly visited node
notifies all neighbors in one round ("I am visited") so the token never
travels to a visited node.  Total rounds :math:`\\le 4n`; the lower-order
per-visit overhead is what makes DFS inherently sequential without the
paper's separator machinery.

Implemented at the message level on the simulator, so the measured rounds
in experiment E2 are the real thing, not a formula.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional, Tuple

import networkx as nx

from ..obs import MetricsRegistry, trace_span
from .faults import FailureReport, FaultPlan, diagnose_run
from .network import Network, NodeContext, RunResult
from .trace import RoundTrace
from .transport import scale_rounds

Node = Hashable

__all__ = ["awerbuch_dfs_run", "awerbuch_dfs", "resilient_dfs_run"]

# message kinds
_VISITED = 0  # "I have been visited" notification
_TOKEN = 1    # DFS token, forwarding the search
_RETURN = 2   # token returning to the parent


def awerbuch_dfs_run(
    graph: nx.Graph,
    root: Node,
    trace: Optional[RoundTrace] = None,
    scheduler: str = "active",
    faults: Optional[FaultPlan] = None,
    metrics: Optional[MetricsRegistry] = None,
    transport=None,
) -> RunResult:
    """Run Awerbuch's DFS; each node outputs ``(parent, depth)``."""

    def init(ctx: NodeContext) -> None:
        ctx.state.update(
            visited=ctx.node == root,
            parent=None,
            depth=0 if ctx.node == root else None,
            neighbors_visited=set(),
            has_token=ctx.node == root,
            pending_notify=ctx.node == root,
            waiting_on=None,
            done=False,
        )

    def _next_child(ctx: NodeContext):
        for u in ctx.neighbors:
            if u not in ctx.state["neighbors_visited"] and u != ctx.state["parent"]:
                return u
        return None

    def on_round(ctx: NodeContext, inbox: Dict[Node, Any]) -> Optional[Dict[Node, Any]]:
        state = ctx.state
        sends: Dict[Node, Any] = {}
        for sender, payload in inbox.items():
            kind = payload[0]
            if kind == _VISITED:
                state["neighbors_visited"].add(sender)
                if sender == state["waiting_on"] and payload[1] != ctx.node:
                    # Delay race (only reachable under faults/transport):
                    # the child we forwarded the token to was visited by
                    # someone else first — its notify, naming another
                    # parent, was still in flight when we forwarded.  The
                    # child drops our token (it may even have halted
                    # already), so reclaim it from the notify instead of
                    # waiting for a return that can never come.
                    state["waiting_on"] = None
                    state["has_token"] = True
            elif kind == _TOKEN:
                if not state["visited"]:
                    state["visited"] = True
                    state["parent"] = sender
                    state["depth"] = payload[1] + 1
                    state["pending_notify"] = True
                    state["has_token"] = True
                # else: a late or duplicated token to a visited node is
                # dropped; our own notify (already in flight, naming our
                # real parent) tells the sender to reclaim it.
            elif kind == _RETURN:
                state["has_token"] = True
                if sender == state["waiting_on"]:
                    state["waiting_on"] = None

        if state["pending_notify"]:
            # Notification round: tell everyone we are visited (naming
            # our parent, so a racing token-holder can tell a notify it
            # caused from one it lost to); hold the token for one round
            # so neighbors mark us before it moves.
            state["pending_notify"] = False
            ctx.wake()  # still holding the token: forward it next round
            for u in ctx.neighbors:
                sends[u] = (_VISITED, state["parent"])
            return sends

        if state["has_token"]:
            state["has_token"] = False
            child = _next_child(ctx)
            if child is not None:
                state["neighbors_visited"].add(child)
                state["waiting_on"] = child
                sends[child] = (_TOKEN, state["depth"])
            elif state["parent"] is not None:
                sends[ctx.state["parent"]] = (_RETURN,)
                ctx.halt((state["parent"], state["depth"]))
            else:
                ctx.halt((state["parent"], state["depth"]))
            return sends
        # A visited node with no token idles; it halts lazily when the
        # traversal finishes (handled by the max-round cap on completion).
        if state["visited"] and state["done"]:
            ctx.halt((state["parent"], state["depth"]))
        return None

    network = Network(graph)
    with trace_span(trace, "awerbuch-dfs", root=repr(root)):
        result = network.run(
            init, on_round,
            max_rounds=scale_rounds(transport, 6 * len(graph) + 16),
            finalize=_finalize, trace=trace, scheduler=scheduler,
            faults=faults, metrics=metrics, transport=transport,
        )
    return result


def _finalize(ctx: NodeContext) -> Tuple[Optional[Node], Optional[int]]:
    if ctx.output_set:
        return ctx.output
    return (ctx.state.get("parent"), ctx.state.get("depth"))


def awerbuch_dfs(graph: nx.Graph, root: Node) -> Tuple[Dict[Node, Optional[Node]], int]:
    """Convenience wrapper: returns ``(parent map, measured rounds)``."""
    result = awerbuch_dfs_run(graph, root)
    parent = {v: out[0] for v, out in result.outputs.items()}
    return parent, result.rounds


def resilient_dfs_run(
    graph: nx.Graph,
    root: Node,
    trace: Optional[RoundTrace] = None,
    scheduler: str = "active",
    faults: Optional[FaultPlan] = None,
    metrics: Optional[MetricsRegistry] = None,
    transport=None,
) -> Tuple[RunResult, Optional[FailureReport]]:
    """Awerbuch's DFS under faults, with graceful abort instead of a hang.

    A DFS token is a single point of failure: if its holder crashes or a
    token/return message is destroyed, the traversal can never finish —
    no retransmit can conjure the token back without breaking the
    depth-first order.  This wrapper therefore does not mask faults; it
    *detects* the three ways a faulted traversal goes wrong and converts
    each into a :class:`~repro.congest.faults.FailureReport`:

    * the run deadlocks or hits ``max_rounds`` (orphaned token) —
      reported with reason ``"deadlock"``/``"max_rounds"``;
    * a surviving node finished without joining the tree — reason
      ``"missing-outputs"``;
    * the traversal completed but the parent map fails
      :func:`repro.core.verify.check_component_dfs` on the surviving
      component — reason ``"verify-failed"``.

    Returns ``(result, report)``; ``report is None`` means the run
    completed *and* the surviving component's tree verified as a DFS
    tree.
    """
    with trace_span(trace, "resilient-dfs", root=repr(root)):
        result = awerbuch_dfs_run(
            graph, root, trace=trace, scheduler=scheduler, faults=faults,
            metrics=metrics, transport=transport,
        )
    report = diagnose_run(result, kind="dfs", require_outputs=False)
    if report is not None:
        return result, report
    crashed = set(result.crashed)
    unfinished = tuple(
        sorted(
            (
                v
                for v, out in result.outputs.items()
                if v not in crashed and (out is None or (v != root and out[0] is None))
            ),
            key=repr,
        )
    )
    if unfinished:
        return result, FailureReport(
            kind="dfs",
            reason="missing-outputs",
            rounds=result.rounds,
            stop_reason=result.stop_reason,
            crashed=tuple(result.crashed),
            missing=unfinished,
            detail=f"{len(unfinished)} surviving node(s) never joined the DFS tree",
            partial_outputs=dict(result.outputs),
        )
    from ..core.verify import VerificationError, check_component_dfs

    parent = {
        v: out[0] for v, out in result.outputs.items() if v not in crashed and out is not None
    }
    try:
        check_component_dfs(graph, parent, root, crashed=result.crashed)
    except VerificationError as exc:
        return result, FailureReport(
            kind="dfs",
            reason="verify-failed",
            rounds=result.rounds,
            stop_reason=result.stop_reason,
            crashed=tuple(result.crashed),
            detail=str(exc),
            partial_outputs=dict(result.outputs),
        )
    return result, None
