"""Deterministic DFS-tree construction — the paper's Theorem 2.

The *main algorithm* (Sections 3.2 / 6.2) grows a partial DFS tree
:math:`T_d` in :math:`O(\\log n)` phases.  Each phase, in parallel over the
connected components of :math:`G - T_d`:

1. computes a cycle separator of the component (Theorem 1 — the machinery
   of :mod:`repro.core.separator`), and
2. joins the separator to :math:`T_d` with the DFS-RULE (the JOIN-PROBLEM,
   Lemma 2): repeatedly hang the path from the component node with the
   deepest :math:`T_d`-neighbor to the farthest still-marked node, halving
   the un-joined part of the separator each iteration.

Because every phase swallows a separator of every component, component
sizes shrink by a factor of at least :math:`2/3` per phase, giving the
:math:`O(\\log n)` phase bound and, with every subroutine at
:math:`\\tilde{O}(D)` rounds, the overall :math:`\\tilde{O}(D)` bound.

The result is verified by the classical characterization (every non-tree
edge joins an ancestor-descendant pair) in :func:`repro.core.verify.
check_dfs_tree`, which the test suite applies to every run.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Tuple

import networkx as nx

from ..planar.checks import require_connected, require_planar_rotation
from ..planar.construct import embed, induced_components, induced_copy
from ..planar.rotation import RotationSystem
from ..trees.rooted import RootedTree
from .config import PlanarConfiguration
from .separator import SeparatorResult, cycle_separator

Node = Hashable

__all__ = ["DFSResult", "dfs_tree", "DFSError"]


class DFSError(RuntimeError):
    """An algorithm invariant failed during DFS construction."""


class DFSResult:
    """Output of the deterministic DFS algorithm.

    Attributes
    ----------
    parent:
        Node -> parent in the DFS tree (root -> ``None``).  This is the
    paper's distributed output: every node knows its parent and depth.
    depth:
        Node -> distance from the root in the DFS tree.
    root:
        The requested root.
    phases:
        Number of main-loop phases executed (Theorem 2: :math:`O(\\log n)`).
    join_iterations:
        Per phase, the maximum number of JOIN halving iterations used by any
        component (Lemma 2: :math:`O(\\log n)` each).
    separator_phases:
        Tally of which separator phase fired, over all components and
        main-loop phases (experiment E4's data).
    shrink_factors:
        Per phase, ``max component size after / max component size before``
        (Theorem 2's 2/3 claim, experiment E10's data).
    """

    __slots__ = (
        "parent",
        "depth",
        "root",
        "phases",
        "join_iterations",
        "separator_phases",
        "shrink_factors",
    )

    def __init__(self, root: Node):
        self.root = root
        self.parent: Dict[Node, Optional[Node]] = {root: None}
        self.depth: Dict[Node, int] = {root: 0}
        self.phases = 0
        self.join_iterations: List[int] = []
        self.separator_phases: Dict[str, int] = {}
        self.shrink_factors: List[float] = []

    def to_tree(self) -> RootedTree:
        """The DFS tree as a :class:`RootedTree`."""
        return RootedTree(self.parent, self.root)


def dfs_tree(
    graph: nx.Graph,
    root: Node,
    rotation: Optional[RotationSystem] = None,
    ledger=None,
) -> DFSResult:
    """Compute a DFS tree of a connected planar graph rooted at ``root``.

    This is Theorem 2's algorithm; the returned structure carries the
    per-phase statistics the experiment harness reports.  A supplied
    ``rotation`` is certified in O(n + m) by
    :func:`repro.planar.checks.require_planar_rotation` instead of
    running a planarity test.  A caller that already holds a certified
    embedding (the churn engine, :mod:`repro.dynamic.repair`) calls
    :func:`certified_dfs_tree` instead, which checks nothing again.
    """
    require_connected(graph)
    embedded = rotation is None
    if embedded:
        rotation = embed(graph)
    else:
        require_planar_rotation(graph, rotation)
    if root not in graph:
        raise ValueError(f"root {root!r} is not a graph node")
    if embedded and ledger is not None:
        ledger.charge_subroutine("planar-embedding")
    return certified_dfs_tree(graph, root, rotation, ledger)


def certified_dfs_tree(
    graph: nx.Graph, root: Node, rotation: RotationSystem, ledger=None
) -> DFSResult:
    """:func:`dfs_tree` on an embedding the caller has already certified.

    Internal entry point: ``graph`` must be connected and hold ``root``,
    and ``rotation`` must be a planar embedding of ``graph`` or of a graph
    ``graph`` is induced in (each component's configuration restricts it,
    so a connected induced region can be handed the whole graph's
    rotation).  Nothing is checked or charged for the embedding; the
    public :func:`dfs_tree` makes those checks and then calls this.
    """
    result = DFSResult(root)
    in_tree: Set[Node] = {root}
    n = len(graph)
    before = 0
    while True:
        # The components of G - T_d start this phase and end the last one.
        components = induced_components(graph, set(graph.nodes) - in_tree)
        largest = max((len(c) for c in components), default=0)
        if result.phases:
            result.shrink_factors.append(largest / before)
        if not components:
            break
        result.phases += 1
        if result.phases > 4 * max(n, 2).bit_length() + 8:
            raise DFSError("main loop did not terminate in O(log n) phases")
        if ledger is not None:
            ledger.begin_parallel()
        before = largest
        max_join = 0
        for component in components:
            if ledger is not None:
                ledger.begin_branch()
            phase, iterations = _absorb_part(graph, rotation, component, result, ledger)
            result.separator_phases[phase] = result.separator_phases.get(phase, 0) + 1
            max_join = max(max_join, iterations)
        if ledger is not None:
            ledger.end_parallel()
        in_tree = set(result.parent)
        result.join_iterations.append(max_join)
    return result


def _absorb_part(
    graph: nx.Graph,
    rotation: RotationSystem,
    component: Set[Node],
    result: DFSResult,
    ledger,
) -> Tuple[str, int]:
    """One component of :math:`G - T_d` in one phase: its separator
    (step 1), then JOIN (step 2).  Returns the separator's phase and the
    number of JOIN iterations.

    A part of at most two nodes is its own separator (Theorem 1's trivial
    case, which charges nothing) and a path from its attachment node, so
    it is hung below the attachment point in one charged JOIN iteration,
    the one :func:`_join` would take, without the induced copy, spanning
    tree and configuration a larger part needs.
    """
    anchor = _deepest_attachment(graph, component, result)
    if len(component) <= 2:
        if ledger is not None:
            ledger.charge_subroutine("join-iteration")
        _hang(result, anchor[1], [anchor[0], *(component - {anchor[0]})])
        return "trivial", 1
    subgraph = induced_copy(graph, component)
    separator = _component_separator(rotation, subgraph, anchor[0], ledger)
    iterations = _join(
        graph, component, set(separator.path), result, ledger, (subgraph, anchor)
    )
    return separator.phase, iterations


# ----------------------------------------------------------------------
# Step 1: per-component separator
# ----------------------------------------------------------------------
def _component_separator(
    rotation: RotationSystem,
    subgraph: nx.Graph,
    root: Node,
    ledger,
) -> SeparatorResult:
    """Theorem 1 applied to one component of :math:`G - T_d`, given its
    induced copy ``subgraph`` and the whole graph's ``rotation``, which the
    configuration restricts to the component.

    The component's spanning tree is rooted at ``root``, the node with the
    deepest neighbor in the partial tree — the same root the JOIN step will
    use.
    """
    parent, _ = _attachment_spanning_tree(subgraph, root, set())
    cfg = PlanarConfiguration(subgraph, rotation, RootedTree(parent, root))
    return cycle_separator(cfg, ledger=ledger)


def _deepest_attachment(
    graph: nx.Graph,
    nodes: Set[Node],
    result: DFSResult,
) -> Tuple[Node, Node]:
    """The component node with the deepest :math:`T_d`-neighbor, plus that
    neighbor (the DFS-RULE's attachment point).

    Candidates compare on ``(depth[w], repr(w))``, the first one winning a
    tie; ``repr`` is only formatted when two depths tie.
    """
    parent, depth = result.parent, result.depth
    best: Optional[Tuple[Node, Node]] = None
    best_depth = -1
    best_repr: Optional[str] = None
    for v in nodes:
        for w in graph.neighbors(v):
            if w not in parent:
                continue
            d = depth[w]
            if d > best_depth:
                best, best_depth, best_repr = (v, w), d, None
            elif d == best_depth:
                if best_repr is None:
                    best_repr = repr(best[1])
                r = repr(w)
                if r > best_repr:
                    best, best_repr = (v, w), r
    if best is None:
        raise DFSError("component has no attachment to the partial DFS tree")
    return best


def _attachment_spanning_tree(
    subgraph: nx.Graph,
    root: Node,
    marked: Set[Node],
) -> Tuple[Dict[Node, Optional[Node]], Dict[Node, int]]:
    """Spanning tree preferring marked-marked edges (the paper's 0/1-weight
    MST of Lemma 2, which clusters the remaining separator nodes into
    tree paths).  Implemented as a prioritized graph search; returns the
    tree's parent map and depths."""
    adj = subgraph._adj
    parent: Dict[Node, Optional[Node]] = {root: None}
    depth: Dict[Node, int] = {root: 0}
    # Two-tier frontier: weight-0 edges (both endpoints marked) first.
    light: List[Tuple[Node, Node]] = []
    heavy: List[Tuple[Node, Node]] = [(root, u) for u in adj[root]]
    while light or heavy:
        v, u = light.pop() if light else heavy.pop()
        if u in parent:
            continue
        parent[u] = v
        depth[u] = depth[v] + 1
        for w in adj[u]:
            if w in parent:
                continue
            if u in marked and w in marked:
                light.append((u, w))
            else:
                heavy.append((u, w))
    if len(parent) != len(adj):
        raise DFSError("component subgraph is not connected")
    return parent, depth


# ----------------------------------------------------------------------
# Step 2: JOIN-PROBLEM (Lemma 2)
# ----------------------------------------------------------------------
def _join(
    graph: nx.Graph,
    component: Set[Node],
    marked: Set[Node],
    result: DFSResult,
    ledger,
    first: Optional[Tuple[nx.Graph, Tuple[Node, Node]]] = None,
) -> int:
    """Add all ``marked`` separator nodes of one component to the partial
    DFS tree with the DFS-RULE; returns the number of halving iterations.

    ``first`` is the component's induced copy and deepest attachment when
    the caller already holds them: :math:`T_d` has not changed since, so
    the first iteration uses them instead of recomputing both.
    """
    pending: List[Tuple[Set[Node], Set[Node]]] = [(component, marked)]
    iterations = 0
    guard = 4 * max(len(component), 2).bit_length() + 8
    while pending:
        iterations += 1
        if iterations > guard:
            raise DFSError("JOIN did not terminate in O(log n) iterations")
        if ledger is not None:
            ledger.charge_subroutine("join-iteration")
        next_pending: List[Tuple[Set[Node], Set[Node]]] = []
        for nodes, todo in pending:
            if first is None:
                subgraph = induced_copy(graph, nodes)
                r, attach = _deepest_attachment(graph, nodes, result)
            else:
                subgraph, (r, attach) = first
                first = None
            path = _join_path(subgraph, r, todo)
            _hang(result, attach, path)
            added = set(path)
            rest = nodes - added
            still = todo - added
            if not still:
                continue
            for sub in induced_components(graph, rest):
                if sub & still:
                    next_pending.append((sub, sub & still))
        pending = next_pending
    return iterations


def _hang(result: DFSResult, attach: Node, path: List[Node]) -> None:
    """DFS-RULE: hang ``path`` below the attachment point ``attach``;
    parents and depths are final from now on."""
    base = result.depth[attach]
    previous = attach
    for offset, x in enumerate(path):
        result.parent[x] = previous
        result.depth[x] = base + 1 + offset
        previous = x


def _join_path(subgraph: nx.Graph, root: Node, marked: Set[Node]) -> List[Node]:
    """The path one JOIN iteration hangs: down the spanning tree that
    prefers marked-marked edges, from ``root`` to the marked node the
    paper's JOIN picks, the farthest from the top of the marked Steiner
    tree, so at least half of the deepest marked path joins.  The path is
    read off the search's parent map; no tree is built."""
    parent, depth = _attachment_spanning_tree(subgraph, root, marked)
    y = max(marked, key=lambda m: (depth[m], repr(m)))
    path = [y]
    while y != root:
        y = parent[y]
        path.append(y)
    path.reverse()
    return path
