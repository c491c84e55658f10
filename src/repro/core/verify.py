"""Validity checkers for separators and DFS trees.

These are the end-to-end correctness gates of the test suite and experiment
E3: they restate the *definitions* (separator set, Section 1; DFS tree
characterization) independently of any algorithmic machinery, so a bug in
the face/weight chain cannot hide behind itself.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import networkx as nx

from ..trees.rooted import RootedTree

Node = Hashable

__all__ = [
    "separator_report",
    "check_separator",
    "check_dfs_tree",
    "check_partial_dfs",
    "surviving_component",
    "check_broadcast_coverage",
    "check_component_dfs",
    "check_mst",
    "SeparatorReport",
    "VerificationError",
]


class VerificationError(AssertionError):
    """A produced artifact violates its definition."""


class SeparatorReport:
    """Balance report of a separator set.

    Attributes
    ----------
    n:
        Number of nodes of the (sub)graph.
    separator_size:
        Number of separator nodes.
    components:
        Sizes of the connected components of ``G - S``, descending.
    max_fraction:
        ``max(components) / n`` (0.0 when nothing remains).
    """

    __slots__ = ("n", "separator_size", "components")

    def __init__(self, n: int, separator_size: int, components: List[int]):
        self.n = n
        self.separator_size = separator_size
        self.components = components

    @property
    def max_fraction(self) -> float:
        return (self.components[0] / self.n) if self.components else 0.0

    @property
    def balanced(self) -> bool:
        """The separator-set condition: every component has <= 2n/3 nodes."""
        return all(3 * c <= 2 * self.n for c in self.components)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SeparatorReport(n={self.n}, |S|={self.separator_size}, "
            f"max_fraction={self.max_fraction:.3f})"
        )


def separator_report(graph: nx.Graph, separator: Iterable[Node]) -> SeparatorReport:
    """Component-size report of removing ``separator`` from ``graph``.

    One stack walk over the adjacency dict that never enters ``S``: each
    walk started at a node not yet reached counts one component of
    ``G - S``.  No subgraph view or induced copy is built.
    """
    adj = graph._adj
    sep = set(separator)
    unknown = [v for v in sep if v not in adj]
    if unknown:
        raise VerificationError(f"separator contains non-nodes: {sorted(map(repr, unknown))}")
    seen = set(sep)
    components: List[int] = []
    for source in adj:
        if source in seen:
            continue
        seen.add(source)
        stack = [source]
        size = 1
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
                    size += 1
        components.append(size)
    components.sort(reverse=True)
    return SeparatorReport(len(graph), len(sep), components)


def check_separator(
    graph: nx.Graph,
    separator: Sequence[Node],
    tree: Optional[RootedTree] = None,
) -> SeparatorReport:
    """Assert that ``separator`` is a cycle separator of ``graph``.

    Checks the balance condition (every component of ``G - S`` has at most
    ``2n/3`` nodes) and, when ``tree`` is given, that the separator is a
    T-path (the structural half of "cycle separator": its endpoints can be
    joined by a real or embedding-compatible virtual edge — the algorithm
    certifies that constructively, see :mod:`repro.core.augment`).
    """
    report = separator_report(graph, separator)
    if not report.balanced:
        raise VerificationError(
            f"unbalanced separator: components {report.components} of n={report.n}"
        )
    if tree is not None:
        for a, b in zip(separator, separator[1:]):
            if tree.parent.get(a) != b and tree.parent.get(b) != a:
                raise VerificationError(f"separator is not a T-path at {a!r}-{b!r}")
    return report


def check_dfs_tree(graph: nx.Graph, parent: Dict[Node, Optional[Node]], root: Node) -> RootedTree:
    """Assert that ``parent`` encodes a DFS tree of ``graph`` rooted at ``root``.

    Uses the classical characterization: a rooted spanning tree ``T`` of a
    graph ``G`` is a DFS tree iff every non-tree edge of ``G`` joins an
    ancestor-descendant pair in ``T``.  Returns the verified tree.
    """
    if set(parent) != set(graph.nodes):
        missing = set(graph.nodes) - set(parent)
        raise VerificationError(f"not spanning; missing {sorted(map(repr, missing))[:5]}")
    tree = RootedTree(parent, root)
    for p, c in tree.edges():
        if not graph.has_edge(p, c):
            raise VerificationError(f"tree edge {p!r}-{c!r} is not a graph edge")
    # ``graph.edges()``'s order, read from the adjacency dict: the cached
    # edge view would make the caller's graph cyclic garbage.  ``a`` and
    # ``b`` are related iff one's Euler interval [tin, tout) holds the
    # other's entry time (``RootedTree.is_ancestor``, read once per node).
    tin, tout = tree._tin, tree._tout
    done = set()
    for a, nbrs in graph._adj.items():
        in_a, out_a = tin[a], tout[a]
        for b in nbrs:
            if b in done:
                continue
            in_b = tin[b]
            if not (in_a <= in_b < out_a or in_b <= in_a < tout[b]):
                raise VerificationError(
                    f"cross edge {a!r}-{b!r}: endpoints are unrelated in the tree, "
                    "so this is not a DFS tree"
                )
        done.add(a)
    return tree


def check_mst(graph: nx.Graph, edges: Iterable[Tuple[Node, Node]]) -> float:
    """Assert that ``edges`` is a minimum spanning tree of ``graph``.

    Checks the definition directly: every edge is a graph edge, the edge
    set spans all nodes acyclically (``n - 1`` edges, connected), and the
    total weight matches an independently computed MST weight (weights
    default to 1, as in :mod:`repro.congest.mst`).  Returns the verified
    total weight.
    """
    edge_list = list(edges)
    for a, b in edge_list:
        if not graph.has_edge(a, b):
            raise VerificationError(f"MST edge {a!r}-{b!r} is not a graph edge")
    n = len(graph)
    if len(edge_list) != n - 1:
        raise VerificationError(
            f"not a spanning tree: {len(edge_list)} edges for n={n}"
        )
    tree = nx.Graph(edge_list)
    tree.add_nodes_from(graph.nodes)
    if not nx.is_connected(tree):
        raise VerificationError("MST edge set is not connected")
    total = sum(graph[a][b].get("weight", 1.0) for a, b in edge_list)
    optimum = sum(
        d.get("weight", 1.0)
        for _, _, d in nx.minimum_spanning_tree(graph, weight="weight").edges(data=True)
    )
    if abs(total - optimum) > 1e-9:
        raise VerificationError(
            f"spanning tree weight {total} != minimum {optimum}"
        )
    return total


def surviving_component(
    graph: nx.Graph, root: Node, crashed: Iterable[Node] = ()
) -> Set[Node]:
    """Nodes still reachable from ``root`` after crash-stop failures.

    The correctness unit for fault-injected runs (docs/MODEL.md, "The
    fault model"): a crashed node is gone, and so is every node it alone
    connected to the root.  Returns the empty set when ``root`` itself
    crashed.
    """
    crashed_set = set(crashed)
    if root in crashed_set:
        return set()
    rest = graph.subgraph(set(graph.nodes) - crashed_set)
    return set(nx.node_connected_component(rest, root))


def check_broadcast_coverage(
    graph: nx.Graph,
    root: Node,
    outputs: Dict[Node, object],
    value: object,
    crashed: Iterable[Node] = (),
) -> Set[Node]:
    """Assert a broadcast under crash faults covered the surviving component.

    Every non-crashed node still connected to ``root`` must have recorded
    exactly ``value`` — the guarantee the ack/retransmit wrapper makes.
    Nodes disconnected by the crashes are *not* required to be covered
    (they cannot be, by any protocol).  Returns the surviving component.
    """
    component = surviving_component(graph, root, crashed)
    if not component:
        raise VerificationError(
            f"root {root!r} is in the crashed set; no surviving component"
        )
    wrong = sorted(
        (v for v in component if outputs.get(v) != value), key=repr
    )
    if wrong:
        raise VerificationError(
            f"{len(wrong)} surviving node(s) in the root's component missed "
            f"the broadcast: {wrong[:5]}"
        )
    return component


def check_component_dfs(
    graph: nx.Graph,
    parent: Dict[Node, Optional[Node]],
    root: Node,
    crashed: Iterable[Node] = (),
) -> RootedTree:
    """Assert ``parent`` encodes a DFS tree of the surviving component.

    The faulted analogue of :func:`check_dfs_tree`: restrict the graph to
    the nodes still connected to ``root`` after removing ``crashed``,
    require the parent map to span exactly that component with parents
    inside it, and check the ancestor-descendant characterization on the
    induced subgraph.
    """
    component = surviving_component(graph, root, crashed)
    if not component:
        raise VerificationError(
            f"root {root!r} is in the crashed set; no surviving component"
        )
    restricted = {v: parent.get(v) for v in component}
    for v, p in restricted.items():
        if p is not None and p not in component:
            raise VerificationError(
                f"surviving node {v!r} has parent {p!r} outside the "
                f"surviving component (crashed or disconnected)"
            )
    return check_dfs_tree(graph.subgraph(component), restricted, root)


def check_partial_dfs(
    graph: nx.Graph,
    parent: Dict[Node, Optional[Node]],
    root: Node,
) -> RootedTree:
    """Assert the partial-DFS-tree invariant (paper Section 3.2).

    ``parent`` covers a subset of the nodes; the invariant is that every
    graph edge with *both* endpoints already in the partial tree joins an
    ancestor-descendant pair — the property the DFS-RULE preserves and the
    reason the final tree is a DFS tree.  Returns the verified partial
    tree.
    """
    joined = set(parent)
    tree = RootedTree(dict(parent), root)
    for p, c in tree.edges():
        if not graph.has_edge(p, c):
            raise VerificationError(f"tree edge {p!r}-{c!r} is not a graph edge")
    for a, b in graph.edges():
        if a in joined and b in joined:
            if not (tree.is_ancestor(a, b) or tree.is_ancestor(b, a)):
                raise VerificationError(
                    f"partial-DFS invariant violated at {a!r}-{b!r}"
                )
    return tree
