"""Message-level CONGEST primitives: BFS, broadcast, convergecast.

These are the building blocks whose measured round counts anchor the
charged layer (DESIGN.md §1): BFS-tree construction in :math:`O(D)` rounds,
downcast/broadcast in :math:`O(D)`, convergecast aggregation in
:math:`O(D)`.  The test suite checks both the results (against direct
computation) and the round counts (against the analytic bounds).

All runs accept ``faults=`` (a :class:`repro.congest.faults.FaultPlan`).
The plain primitives assume a fault-free network and simply stall or lose
data under injected faults.  The ``resilient_*`` variants layer the
classic end-to-end defences on top — per-link ack / bounded retransmit,
idempotent duplicate handling, timeout-based crash suspicion — and
return ``(RunResult, FailureReport | None)`` so a faulted run is always
an explicit outcome, never a hang (docs/MODEL.md, "The fault model").
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Optional, Tuple

import networkx as nx

from ..obs import MetricsRegistry, trace_span
from .faults import FailureReport, FaultPlan, diagnose_run
from .network import Network, NodeContext, RunResult
from .trace import RoundTrace
from .transport import scale_rounds

Node = Hashable

__all__ = [
    "bfs_run",
    "broadcast_run",
    "convergecast_run",
    "resilient_broadcast_run",
    "resilient_convergecast_run",
]


def bfs_run(
    graph: nx.Graph,
    root: Node,
    slack: int = 4,
    trace: Optional[RoundTrace] = None,
    faults: Optional[FaultPlan] = None,
    metrics: Optional[MetricsRegistry] = None,
    transport=None,
) -> RunResult:
    """Distributed BFS from ``root``.

    Each node's output is ``(distance, parent)``.  Terminates in
    ``D + O(1)`` rounds: a node joins the tree the round after its first
    neighbor does, then halts once no new frontier message arrives.
    """

    def init(ctx: NodeContext) -> None:
        ctx.state["dist"] = 0 if ctx.node == root else None
        ctx.state["parent"] = None
        ctx.state["announced"] = False
        ctx.state["quiet"] = 0

    def on_round(ctx: NodeContext, inbox: Dict[Node, Any]) -> Optional[Dict[Node, Any]]:
        for sender, payload in sorted(inbox.items(), key=lambda kv: repr(kv[0])):
            dist = payload[0]
            if ctx.state["dist"] is None or dist + 1 < ctx.state["dist"]:
                ctx.state["dist"] = dist + 1
                ctx.state["parent"] = sender
                ctx.state["announced"] = False
        if ctx.state["dist"] is not None and not ctx.state["announced"]:
            ctx.state["announced"] = True
            ctx.state["quiet"] = 0
            ctx.wake()  # keep counting quiet rounds after announcing
            return {u: (ctx.state["dist"],) for u in ctx.neighbors}
        ctx.state["quiet"] += 1
        if ctx.state["dist"] is not None:
            if ctx.state["quiet"] >= slack:
                ctx.halt((ctx.state["dist"], ctx.state["parent"]))
            else:
                ctx.wake()
        return None

    with trace_span(trace, "bfs", root=repr(root)):
        return Network(graph).run(
            init, on_round,
            max_rounds=scale_rounds(transport, 4 * len(graph) + 16),
            trace=trace, faults=faults,
            metrics=metrics, transport=transport,
        )


def broadcast_run(
    graph: nx.Graph,
    root: Node,
    value: int,
    parent: Dict[Node, Optional[Node]],
    trace: Optional[RoundTrace] = None,
    faults: Optional[FaultPlan] = None,
    metrics: Optional[MetricsRegistry] = None,
    transport=None,
) -> RunResult:
    """Downcast ``value`` from ``root`` along a known spanning tree.

    Each node outputs the received value; terminates in (tree height + 1)
    rounds.
    """
    children: Dict[Node, list] = {v: [] for v in parent}
    for v, p in parent.items():
        if p is not None:
            children[p].append(v)

    def init(ctx: NodeContext) -> None:
        if ctx.node == root:
            ctx.state["value"] = value
            ctx.state["sent"] = False
        else:
            ctx.state["value"] = None
            ctx.state["sent"] = False

    def on_round(ctx: NodeContext, inbox: Dict[Node, Any]) -> Optional[Dict[Node, Any]]:
        for payload in inbox.values():
            ctx.state["value"] = payload[0]
        if ctx.state["value"] is not None and not ctx.state["sent"]:
            ctx.state["sent"] = True
            sends = {c: (ctx.state["value"],) for c in children[ctx.node]}
            if not children[ctx.node]:
                ctx.halt(ctx.state["value"])
            else:
                ctx.wake()  # come back next round to halt
            return sends
        if ctx.state["sent"]:
            ctx.halt(ctx.state["value"])
        return None

    with trace_span(trace, "broadcast", root=repr(root)):
        return Network(graph).run(
            init, on_round,
            max_rounds=scale_rounds(transport, 2 * len(graph) + 8),
            trace=trace, faults=faults,
            metrics=metrics, transport=transport,
        )


def convergecast_run(
    graph: nx.Graph,
    root: Node,
    values: Dict[Node, int],
    parent: Dict[Node, Optional[Node]],
    combine: Callable[[int, int], int] = lambda a, b: a + b,
    trace: Optional[RoundTrace] = None,
    faults: Optional[FaultPlan] = None,
    metrics: Optional[MetricsRegistry] = None,
    transport=None,
) -> RunResult:
    """Aggregate ``values`` up a known spanning tree (sum by default).

    The root's output is the aggregate over all nodes; terminates in (tree
    height + 1) rounds — each node fires once all its children reported.
    """
    children: Dict[Node, list] = {v: [] for v in parent}
    for v, p in parent.items():
        if p is not None:
            children[p].append(v)

    def init(ctx: NodeContext) -> None:
        ctx.state["acc"] = values[ctx.node]
        ctx.state["waiting"] = len(children[ctx.node])

    def on_round(ctx: NodeContext, inbox: Dict[Node, Any]) -> Optional[Dict[Node, Any]]:
        for payload in inbox.values():
            ctx.state["acc"] = combine(ctx.state["acc"], payload[0])
            ctx.state["waiting"] -= 1
        if ctx.state["waiting"] == 0:
            p = parent[ctx.node]
            if p is None:
                ctx.halt(ctx.state["acc"])
                return None
            ctx.halt(ctx.state["acc"])
            return {p: (ctx.state["acc"],)}
        return None

    with trace_span(trace, "convergecast", root=repr(root)):
        return Network(graph).run(
            init, on_round,
            max_rounds=scale_rounds(transport, 2 * len(graph) + 8),
            trace=trace, faults=faults,
            metrics=metrics, transport=transport,
        )


# -- resilience wrappers -----------------------------------------------------
#
# Message flag bits, combined so one payload per (edge, round) suffices —
# CONGEST allows a single message per directed edge per round, so DATA and
# ACK travelling the same link in the same round must share it.
_DATA = 1
_ACK = 2


def resilient_broadcast_run(
    graph: nx.Graph,
    root: Node,
    value: int,
    *,
    retries: int = 3,
    retry_every: int = 2,
    give_up: Optional[int] = None,
    trace: Optional[RoundTrace] = None,
    faults: Optional[FaultPlan] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Tuple[RunResult, Optional[FailureReport]]:
    """Flooding broadcast with per-link ack/retransmit and crash suspicion.

    Every node holding the value retransmits ``(DATA, value)`` to each
    neighbor every ``retry_every`` rounds until that neighbor acks, up to
    ``retries`` retransmissions; a neighbor that never acks is *suspected*
    (crash detection by timeout) and abandoned.  Receipt is idempotent —
    duplicates and retransmissions just trigger a fresh ack — so the
    wrapper tolerates drop, duplication, link-down and crash-stop faults
    alike.  A node that never hears the value gives up after ``give_up``
    local rounds and outputs ``None``.

    Guarantee (locked by ``tests/test_resilience.py``): under crash-stop
    faults alone, every surviving node still connected to ``root``
    outputs ``value`` — :func:`repro.core.verify.check_broadcast_coverage`
    passes.  Under message loss the bounded retransmit recovers from any
    burst shorter than the retry budget; a longer burst is reported, not
    hidden.  Returns ``(result, report)`` where ``report`` is ``None``
    for a clean completion.
    """
    n = len(graph)
    if give_up is None:
        give_up = 2 * n + retry_every * (retries + 2) + 8
    linger = retry_every * (retries + 1)

    def init(ctx: NodeContext) -> None:
        ctx.state.update(
            value=value if ctx.node == root else None,
            r=0,
            unacked=None,       # neighbors yet to ack our DATA (None = not started)
            retries_left=None,
            next_send=0,
            suspected=set(),
            settled_at=None,    # local round when every neighbor acked/was suspected
        )

    def on_round(ctx: NodeContext, inbox: Dict[Node, Any]) -> Optional[Dict[Node, Any]]:
        state = ctx.state
        state["r"] += 1
        r = state["r"]
        ack_now = []
        for sender, payload in sorted(inbox.items(), key=lambda kv: repr(kv[0])):
            flags = payload[0]
            if flags & _DATA:
                if state["value"] is None:
                    state["value"] = payload[1]
                ack_now.append(sender)
            if flags & _ACK and state["unacked"] is not None:
                state["unacked"].discard(sender)
        sends: Dict[Node, Any] = {s: (_ACK, None) for s in ack_now}
        if state["value"] is not None:
            if state["unacked"] is None:
                state["unacked"] = set(ctx.neighbors)
                state["retries_left"] = {u: retries for u in ctx.neighbors}
                state["next_send"] = r
            if state["unacked"] and r >= state["next_send"]:
                for u in sorted(state["unacked"], key=repr):
                    if state["retries_left"][u] < 0:
                        continue
                    state["retries_left"][u] -= 1
                    flags = _DATA | (sends[u][0] if u in sends else 0)
                    sends[u] = (flags, state["value"])
                state["next_send"] = r + retry_every
                exhausted = [
                    u for u in state["unacked"] if state["retries_left"][u] < 0
                ]
                for u in exhausted:
                    state["unacked"].discard(u)
                    state["suspected"].add(u)
            if not state["unacked"]:
                if state["settled_at"] is None:
                    state["settled_at"] = r
                # Linger to re-ack late retransmissions from neighbors whose
                # view of us is behind (our earlier ack may have been lost).
                if r - state["settled_at"] >= linger and not sends:
                    ctx.halt((state["value"], tuple(sorted(state["suspected"], key=repr))))
                    return None
        elif r > give_up:
            ctx.halt((None, ()))
            return None
        ctx.wake()
        return sends or None

    with trace_span(trace, "resilient-broadcast", root=repr(root)):
        result = Network(graph).run(
            init,
            on_round,
            max_rounds=give_up + linger + retry_every * (retries + 2) + 16,
            finalize=lambda ctx: ctx.output if ctx.output_set else (None, ()),
            trace=trace,
            faults=faults,
            metrics=metrics,
        )
    report = _diagnose_broadcast(graph, root, value, result)
    return result, report


def _diagnose_broadcast(
    graph: nx.Graph, root: Node, value: int, result: RunResult
) -> Optional[FailureReport]:
    """Post-run check: did the broadcast cover the surviving component?"""
    report = diagnose_run(result, kind="broadcast", require_outputs=False)
    if report is not None:
        return report
    crashed = set(result.crashed)
    if root in crashed:
        return FailureReport(
            kind="broadcast",
            reason="root-crashed",
            rounds=result.rounds,
            stop_reason=result.stop_reason,
            crashed=tuple(result.crashed),
            detail=f"root {root!r} crashed; no surviving component",
            partial_outputs=dict(result.outputs),
        )
    rest = graph.subgraph(set(graph.nodes) - crashed)
    component = set(nx.node_connected_component(rest, root))
    missed = tuple(
        sorted(
            (
                v
                for v in component
                if result.outputs.get(v) is None or result.outputs[v][0] != value
            ),
            key=repr,
        )
    )
    if missed:
        suspected = set()
        for v, out in result.outputs.items():
            if out is not None and len(out) > 1:
                suspected.update(out[1])
        return FailureReport(
            kind="broadcast",
            reason="uncovered-component",
            rounds=result.rounds,
            stop_reason=result.stop_reason,
            crashed=tuple(result.crashed),
            suspected=tuple(sorted(suspected, key=repr)),
            missing=missed,
            detail=(
                f"{len(missed)} surviving node(s) in the root's component "
                f"never received the value (retry budget exhausted?)"
            ),
            partial_outputs=dict(result.outputs),
        )
    return None


def resilient_convergecast_run(
    graph: nx.Graph,
    root: Node,
    values: Dict[Node, int],
    parent: Dict[Node, Optional[Node]],
    combine: Callable[[int, int], int] = lambda a, b: a + b,
    *,
    retries: int = 3,
    retry_every: int = 2,
    child_timeout: Optional[int] = None,
    trace: Optional[RoundTrace] = None,
    faults: Optional[FaultPlan] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Tuple[RunResult, Optional[FailureReport]]:
    """Tree aggregation with acked reports and timeout-based crash suspicion.

    Each node sends its aggregate to its tree parent until acked (bounded
    by ``retries`` retransmissions, ``retry_every`` rounds apart); the
    parent combines each child's report exactly once (duplicates re-ack
    without re-combining) and *suspects* a child that has not reported
    within its timeout, aggregating without it.  A node whose parent
    never acks (crashed) halts with its partial aggregate — the orphaned
    subtree's contribution is lost, which the root's report records via
    the suspected set.

    Timeouts are *depth-staggered*: a node at depth ``d`` waits
    ``child_timeout`` plus a per-level margin for each level below it, so
    that when a deep node crashes, its parent's recovery report can climb
    to the root faster than the ancestors' own timers expire — otherwise
    every ancestor would suspect its (live) child simultaneously and the
    salvaged aggregate would be thrown away level by level.

    Each node outputs ``(aggregate, suspected_children)``; the root's
    aggregate covers every node whose tree path to the root survived.
    Returns ``(result, report)``; ``report`` is ``None`` when the run
    terminated cleanly (suspicions are data, not failures).
    """
    n = len(graph)
    if child_timeout is None:
        child_timeout = 2 * n + retry_every * (retries + 2) + 8
    children: Dict[Node, list] = {v: [] for v in parent}
    for v, p in parent.items():
        if p is not None:
            children[p].append(v)
    depth: Dict[Node, int] = {}

    def _depth(v: Node) -> int:
        if v not in depth:
            p = parent[v]
            depth[v] = 0 if p is None else _depth(p) + 1
        return depth[v]

    for v in parent:
        _depth(v)
    max_depth = max(depth.values(), default=0)
    # Per-level margin: one ack/retransmit budget plus slack, enough for a
    # timeout fired one level down to propagate a report one level up.
    level_margin = retry_every * (retries + 2) + 4
    timeout_of = {
        v: child_timeout + level_margin * (max_depth - depth[v]) for v in parent
    }

    def init(ctx: NodeContext) -> None:
        ctx.state.update(
            acc=values[ctx.node],
            r=0,
            reported=set(),
            suspected=set(),
            waiting=set(children[ctx.node]),
            sent_up=False,
            acked=False,
            tries=retries,
            next_send=0,
        )

    def on_round(ctx: NodeContext, inbox: Dict[Node, Any]) -> Optional[Dict[Node, Any]]:
        state = ctx.state
        state["r"] += 1
        r = state["r"]
        p = parent[ctx.node]
        sends: Dict[Node, Any] = {}
        for sender, payload in sorted(inbox.items(), key=lambda kv: repr(kv[0])):
            flags = payload[0]
            if flags & _DATA:
                if sender not in state["reported"]:
                    state["reported"].add(sender)
                    state["acc"] = combine(state["acc"], payload[1])
                    state["waiting"].discard(sender)
                sends[sender] = (_ACK, None)
            if flags & _ACK:
                state["acked"] = True
        if state["waiting"] and r > timeout_of[ctx.node]:
            # Crash detection by timeout: a surviving child of a surviving
            # parent reports within the budget; silence past it means the
            # child (or its link) is gone.
            state["suspected"].update(state["waiting"])
            state["waiting"].clear()
        if not state["waiting"]:
            done = tuple(sorted(state["suspected"], key=repr))
            if p is None:
                ctx.halt((state["acc"], done))
                return sends or None
            if state["acked"]:
                ctx.halt((state["acc"], done))
                return sends or None
            if state["tries"] < 0:
                # Parent never acked: orphaned subtree, give up gracefully.
                ctx.halt((state["acc"], done))
                return sends or None
            if r >= state["next_send"]:
                state["tries"] -= 1
                state["next_send"] = r + retry_every
                flags = _DATA | (sends[p][0] if p in sends else 0)
                sends[p] = (flags, state["acc"])
        ctx.wake()
        return sends or None

    with trace_span(trace, "resilient-convergecast", root=repr(root)):
        result = Network(graph).run(
            init,
            on_round,
            max_rounds=child_timeout
            + level_margin * (max_depth + 1)
            + retry_every * (retries + 2)
            + 2 * n
            + 16,
            finalize=lambda ctx: ctx.output if ctx.output_set else None,
            trace=trace,
            faults=faults,
            metrics=metrics,
        )
    report = diagnose_run(result, kind="convergecast", require_outputs=False)
    return result, report
