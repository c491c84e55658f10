"""Message-level part-wise aggregation over tree-restricted shortcuts.

This closes the loop between the two execution layers (DESIGN.md §1): the
charged layer prices one part-wise aggregation at ``c + d`` (shortcut
congestion + dilation); here the aggregation actually runs on the CONGEST
simulator, so the measured round count can be compared against the charge
(experiment E13).

Protocol (the standard pipelined upcast of Ghaffari–Haeupler):

* every part aggregates toward the BFS-tree root along its shortcut edges
  (the root paths of its members);
* a node holds one accumulator per part it relays; each round it forwards
  **one** ``(part, value)`` pair per tree edge — the CONGEST bandwidth
  constraint — choosing the lowest-indexed ready part (deterministic
  round-robin);
* a part's value is *ready* at a node once every tree child relaying that
  part has delivered its contribution (counts are precomputed from the
  static structure, as the deterministic shortcut scheduler of
  Haeupler–Hershkowitz–Wajc does);
* the BFS root learns every part's aggregate; the downcast back to members
  is symmetric and costs the same, so the upcast round count is the
  quantity of interest.

The pipelining is what makes the total ``O(c + d)`` instead of
``O(c * d)``: while a deep part's value climbs, other parts use the edge.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple

import networkx as nx

from ..obs import trace_span
from ..shortcuts.shortcuts import ShortcutStructure, build_shortcuts
from ..trees.rooted import RootedTree
from ..trees.spanning import bfs_tree
from .network import Network, NodeContext, RunResult
from .trace import RoundTrace
from .transport import scale_rounds

Node = Hashable

__all__ = ["partwise_aggregation_run", "partwise_broadcast_run", "PartwiseRun"]


class PartwiseRun:
    """Outcome of one simulated part-wise aggregation.

    Attributes
    ----------
    aggregates:
        Part index -> the aggregate the BFS root computed.
    rounds:
        Measured upcast rounds.
    charge:
        The ``c + d`` the ledger would have charged for this structure.
    """

    __slots__ = ("aggregates", "rounds", "charge")

    def __init__(self, aggregates: Dict[int, int], rounds: int, charge: int):
        self.aggregates = aggregates
        self.rounds = rounds
        self.charge = charge


def partwise_aggregation_run(
    graph: nx.Graph,
    parts: Sequence[Sequence[Node]],
    values: Dict[Node, int],
    combine: Callable[[int, int], int] = lambda a, b: a + b,
    tree: Optional[RootedTree] = None,
    shortcuts: Optional[ShortcutStructure] = None,
    trace: Optional[RoundTrace] = None,
    faults=None,
    metrics=None,
    transport=None,
) -> PartwiseRun:
    """Aggregate every part's values at the BFS root, at message level."""
    if tree is None:
        tree = bfs_tree(graph, min(graph.nodes, key=repr))
    if shortcuts is None:
        shortcuts = build_shortcuts(graph, parts, tree)
    root = tree.root

    # Static relay structure: node v relays part i iff a member of part i
    # sits in v's subtree (equivalently, v lies on a member's root path).
    relays: Dict[Node, Set[int]] = {v: set() for v in graph.nodes}
    for i, part in enumerate(parts):
        for member in part:
            x = member
            while x is not None and i not in relays[x]:
                relays[x].add(i)
                x = tree.parent[x]
    expected: Dict[Node, Dict[int, int]] = {
        v: {
            i: sum(1 for c in tree.children[v] if i in relays[c])
            for i in relays[v]
        }
        for v in graph.nodes
    }
    membership: Dict[Node, Set[int]] = {v: set() for v in graph.nodes}
    for i, part in enumerate(parts):
        for member in part:
            membership[member].add(i)

    def init(ctx: NodeContext) -> None:
        v = ctx.node
        ctx.state["acc"] = {
            i: values[v] if i in membership[v] else None for i in relays[v]
        }
        ctx.state["waiting"] = dict(expected[v])
        ctx.state["sent"] = set()

    def _absorb(ctx: NodeContext, part: int, value: int) -> None:
        acc = ctx.state["acc"]
        acc[part] = value if acc[part] is None else combine(acc[part], value)
        ctx.state["waiting"][part] -= 1

    def on_round(ctx: NodeContext, inbox) -> Optional[Dict[Node, object]]:
        for payload in inbox.values():
            _absorb(ctx, payload[0], payload[1])
        v = ctx.node
        up = tree.parent[v]
        ready = sorted(
            i
            for i in relays[v]
            if i not in ctx.state["sent"]
            and ctx.state["waiting"][i] == 0
            and ctx.state["acc"][i] is not None
        )
        if v == root:
            # The root forwards nothing; it is done the moment every part's
            # contributions have been absorbed.
            if all(w == 0 for w in ctx.state["waiting"].values()):
                ctx.halt(dict(ctx.state["acc"]))
            return None
        if not ready:
            if not ctx.state["waiting"] or (
                ctx.state["sent"] == set(relays[v])
            ):
                ctx.halt(None)
            return None
        part = ready[0]  # one (part, value) pair per edge per round
        ctx.state["sent"].add(part)
        if len(ctx.state["sent"]) == len(relays[v]):
            ctx.halt(None)
        elif len(ready) > 1:
            ctx.wake()  # more parts already ready to pipeline upward
        return {up: (part, ctx.state["acc"][part])}

    with trace_span(trace, "partwise-upcast", parts=len(parts)):
        result = Network(graph).run(
            init,
            on_round,
            max_rounds=scale_rounds(transport, 8 * len(graph) + len(parts) + 32),
            stop_when_quiet=True,
            trace=trace,
            faults=faults,
            metrics=metrics,
            transport=transport,
        )
    root_out = result.outputs.get(root)
    if root_out is None:  # pragma: no cover - root halted without output
        raise RuntimeError("aggregation did not complete")
    charge = shortcuts.congestion + shortcuts.dilation
    return PartwiseRun(
        {i: root_out[i] for i in root_out if root_out[i] is not None},
        result.rounds,
        charge,
    )


def partwise_broadcast_run(
    graph: nx.Graph,
    parts: Sequence[Sequence[Node]],
    values: Dict[int, int],
    tree: Optional[RootedTree] = None,
    shortcuts: Optional[ShortcutStructure] = None,
    trace: Optional[RoundTrace] = None,
    faults=None,
    metrics=None,
    transport=None,
) -> PartwiseRun:
    """The downcast half of Prop. 4: deliver each part's value to all its
    members over the shortcut edges, pipelined one (part, value) pair per
    edge per round.

    Mirrors :func:`partwise_aggregation_run`: a relay forwards a part's
    value to exactly the children relaying that part; members record it.
    Returns the values as received by one designated member per part (all
    members are asserted equal by the tests).
    """
    if tree is None:
        tree = bfs_tree(graph, min(graph.nodes, key=repr))
    if shortcuts is None:
        shortcuts = build_shortcuts(graph, parts, tree)
    root = tree.root
    relays: Dict[Node, Set[int]] = {v: set() for v in graph.nodes}
    for i, part in enumerate(parts):
        for member in part:
            x = member
            while x is not None and i not in relays[x]:
                relays[x].add(i)
                x = tree.parent[x]
    membership: Dict[Node, Set[int]] = {v: set() for v in graph.nodes}
    for i, part in enumerate(parts):
        for member in part:
            membership[member].add(i)

    def init(ctx: NodeContext) -> None:
        v = ctx.node
        ctx.state["have"] = dict(values) if v == root else {}
        ctx.state["sent"] = set()
        ctx.state["received"] = {}

    def on_round(ctx: NodeContext, inbox) -> Optional[Dict[Node, object]]:
        v = ctx.node
        for payload in inbox.values():
            part, value = payload
            ctx.state["have"][part] = value
        for part in list(ctx.state["have"]):
            if part in membership[v]:
                ctx.state["received"][part] = ctx.state["have"][part]
        # One (part, value) pair per child edge per round, lowest part first.
        sends: Dict[Node, object] = {}
        progressed = False
        for c in tree.children[v]:
            pending = sorted(
                part
                for part in ctx.state["have"]
                if part in relays[c] and (c, part) not in ctx.state["sent"]
            )
            if pending:
                part = pending[0]
                ctx.state["sent"].add((c, part))
                sends[c] = (part, ctx.state["have"][part])
                progressed = True
        done = all(
            (c, part) in ctx.state["sent"]
            for c in tree.children[v]
            for part in relays[v] & relays[c]
            if part in ctx.state["have"]
        )
        if not progressed and set(ctx.state["have"]) >= relays[v] and done:
            ctx.halt(dict(ctx.state["received"]))
        elif progressed:
            ctx.wake()  # keep pipelining (or come back to halt) next round
        return sends or None

    with trace_span(trace, "partwise-downcast", parts=len(parts)):
        result = Network(graph).run(
            init,
            on_round,
            max_rounds=scale_rounds(transport, 8 * len(graph) + len(parts) + 32),
            finalize=lambda ctx: dict(ctx.state["received"]),
            stop_when_quiet=True,
            trace=trace,
            faults=faults,
            metrics=metrics,
            transport=transport,
        )
    received: Dict[int, int] = {}
    for i, part in enumerate(parts):
        member = min(part, key=repr)
        out = result.outputs[member]
        if out is None or i not in out:
            raise RuntimeError(f"part {i} member {member!r} never received its value")
        received[i] = out[i]
        for other in part:
            got = result.outputs[other]
            if got is None or got.get(i) != received[i]:
                raise RuntimeError(f"member {other!r} of part {i} missed the broadcast")
    charge = shortcuts.congestion + shortcuts.dilation
    return PartwiseRun(received, result.rounds, charge)
