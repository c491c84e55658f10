"""Planar configurations — the paper's triplets :math:`(G, \\mathcal{E}, T)`.

A :class:`PlanarConfiguration` bundles a connected planar graph, a rotation
system, and a rooted spanning tree, **normalized** the way every proof in the
paper assumes:

* the rotation of every non-root node starts with its tree parent
  (the paper's ":math:`t_v(e) = 1` for the parent edge");
* the root's rotation starts at the *anchor* slot — the position where the
  virtual root :math:`r_0` of Section 4 is inserted.  The face of the
  embedding containing that corner at the root plays the role of the outer
  face; fundamental faces are always the side of a cycle *not* containing it.

On top of the normalized rotation the configuration precomputes everything
Definition 2 consumes: the LEFT/RIGHT-DFS-ORDERs :math:`\\pi_\\ell, \\pi_r`,
subtree sizes :math:`n_T(v)`, depths :math:`d_T(v)`, the per-subtree
position ranges used for O(1) ancestor tests (exactly the information the
distributed DFS-ORDER algorithm of Lemma 11 leaves at the nodes), and per
node the prefix sums of its T-children's subtree sizes over rotation
positions, so the inside-child mass of any rotation arc — a p-value of
Lemma 12 — is one O(1) range sum (:meth:`PlanarConfiguration.child_size_between`).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

import networkx as nx

from ..planar.checks import require_connected, require_planar_rotation
from ..planar.construct import embed
from ..planar.rotation import RotationSystem
from ..trees.rooted import RootedTree
from ..trees.spanning import bfs_tree

Node = Hashable
Edge = Tuple[Node, Node]

__all__ = ["PlanarConfiguration", "ConfigurationError"]


class ConfigurationError(ValueError):
    """Raised when (G, E, T) are mutually inconsistent."""


class PlanarConfiguration:
    """A normalized planar configuration :math:`(G, \\mathcal{E}, T)`.

    Parameters
    ----------
    graph:
        Connected planar graph.
    rotation:
        Rotation system of ``graph`` or of a graph ``graph`` is induced in
        (any anchor).  It is read, never mutated: the configuration restricts
        and re-normalizes it into rows of its own (:meth:`_normalize`).
    tree:
        Rooted spanning tree of ``graph``.
    root_anchor:
        Optional neighbor of the root that should sit at rotation position 0;
        the virtual root is inserted just before it.  Defaults to the root's
        first listed neighbor.
    """

    def __init__(
        self,
        graph: nx.Graph,
        rotation: RotationSystem,
        tree: RootedTree,
        root_anchor: Optional[Node] = None,
    ):
        self.graph = graph
        self.tree = tree
        self.n = len(graph)
        # Per node: neighbor -> position in the normalized t_v (the
        # rotation's own map, which the endpoint frame of
        # :mod:`repro.core.faces` reads directly), the T-children in
        # rotation order, and the prefix sums of their subtree sizes over
        # rotation positions (entry i covers positions 0..i-1).
        self._pos: Dict[Node, Dict[Node, int]] = {}
        self._order_children_right: Dict[Node, List[Node]] = {}
        self._child_prefix: Dict[Node, List[int]] = {}
        rows = self._normalize(graph, rotation, tree, root_anchor)
        self.rotation = RotationSystem.adopt(rows, self._pos)
        # DFS orders, 1-based.
        self.pi_left: Dict[Node, int] = {}
        self.pi_right: Dict[Node, int] = {}
        self._order_children_left: Dict[Node, List[Node]] = {}
        self._compute_orders()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: nx.Graph,
        root: Optional[Node] = None,
        tree: Optional[RootedTree] = None,
        rotation: Optional[RotationSystem] = None,
    ) -> "PlanarConfiguration":
        """Convenience constructor: embed + BFS spanning tree by default.

        A supplied ``rotation`` is certified in O(n + m) by
        :func:`repro.planar.checks.require_planar_rotation` instead of
        running a planarity test.
        """
        require_connected(graph)
        if rotation is None:
            rotation = embed(graph)
        else:
            require_planar_rotation(graph, rotation)
        if tree is None:
            if root is None:
                root = min(graph.nodes, key=repr)
            elif root not in graph:
                raise ValueError(f"root {root!r} is not a graph node")
            tree = bfs_tree(graph, root)
        return cls(graph, rotation, tree)

    def _normalize(
        self,
        graph: nx.Graph,
        rotation: RotationSystem,
        tree: RootedTree,
        root_anchor: Optional[Node],
    ) -> Dict[Node, List[Node]]:
        """Validate ``(graph, rotation, tree)`` and build the normalized
        rows in one pass over ``graph``: each node's row of ``rotation`` is
        restricted to the nodes of ``graph`` (the embedding "restricted
        to :math:`G[P_i]`" of Section 5.2.1; restriction keeps the relative
        clockwise order, so the result is again an embedding), checked
        against the node's adjacency, and rotated to start at its parent,
        or at the anchor for the root.  The walk that writes a row also
        fills the node's position map, T-children and child prefix sums
        (see :meth:`__init__`); a row that matches the adjacency has no
        repeated neighbor, so the map has one entry per position.

        Nodes of ``rotation`` outside ``graph`` are ignored, so a part can
        be handed the rotation of the graph it is induced in.  The graph
        is read through its adjacency dict, not ``graph.nodes`` or
        ``graph.edges()``: networkx caches those views on the graph, which
        makes a per-component copy cyclic garbage.
        """
        adj, parent, source = graph._adj, tree.parent, rotation._order
        if parent.keys() != adj.keys():
            raise ConfigurationError("tree is not spanning")
        sizes, root = tree.subtree_size, tree.root
        positions, children, prefixes = self._pos, self._order_children_right, self._child_prefix
        rows: Dict[Node, List[Node]] = {}
        for v, nbrs in adj.items():
            full = source.get(v)
            if full is None:
                raise ConfigurationError(f"rotation has no row for {v!r}")
            row = [u for u in full if u in adj]
            if len(row) != len(nbrs) or nbrs.keys() - row:
                raise ConfigurationError(f"rotation of {v!r} does not match the graph")
            if v != root:
                first = parent[v]
                if first not in nbrs:
                    raise ConfigurationError(f"tree edge {first!r}-{v!r} is not a graph edge")
            elif row:
                first = root_anchor if root_anchor is not None else row[0]
                if first not in nbrs:
                    raise ConfigurationError(
                        f"normalization target {first!r} is not a neighbor of {v!r}"
                    )
            if row:
                i = row.index(first)
                if i:
                    row = row[i:] + row[:i]
            rows[v] = row
            # One walk of t_v.
            at: Dict[Node, int] = {}
            kids: List[Node] = []
            prefix = [0]
            total = 0
            for j, y in enumerate(row):
                at[y] = j
                if parent[y] == v:
                    kids.append(y)
                    total += sizes[y]
                prefix.append(total)
            positions[v], children[v], prefixes[v] = at, kids, prefix
        return rows

    # ------------------------------------------------------------------
    # DFS orders (paper Section 3.1.1)
    # ------------------------------------------------------------------
    def _compute_orders(self) -> None:
        """Both DFS orders in one top-down walk of the tree.

        RIGHT-DFS-ORDER explores children by ascending rotation position
        (the paper: "smaller position in t_v first"), LEFT-DFS-ORDER by
        descending position.  So a child's preorder position is its
        parent's plus one plus the subtree sizes of the siblings explored
        before it: those at smaller positions for the right order, at
        larger ones for the left — two reads of the parent's prefix sums.
        """
        positions, prefixes = self._pos, self._child_prefix
        right = self._order_children_right
        left, pi_left, pi_right = self._order_children_left, self.pi_left, self.pi_right
        root = self.tree.root
        pi_left[root] = pi_right[root] = 1
        stack = [root]
        while stack:
            v = stack.pop()
            kids = right[v]
            left[v] = kids[::-1]
            if not kids:
                continue
            at, prefix = positions[v], prefixes[v]
            after_l, after_r, total = pi_left[v] + 1, pi_right[v] + 1, prefix[-1]
            for c in kids:
                p = at[c]
                pi_right[c] = after_r + prefix[p]
                pi_left[c] = after_l + total - prefix[p + 1]
            stack.extend(kids)

    # ------------------------------------------------------------------
    # queries used throughout the algorithm
    # ------------------------------------------------------------------
    def left_range(self, v: Node) -> Tuple[int, int]:
        """Closed interval of :math:`\\pi_\\ell` positions of :math:`T_v`."""
        lo = self.pi_left[v]
        return (lo, lo + self.tree.subtree_size[v] - 1)

    def is_ancestor(self, a: Node, b: Node) -> bool:
        """Ancestor test via order ranges (what the endpoints of a
        fundamental edge do with one exchanged message, Lemma 12)."""
        lo, hi = self.left_range(a)
        return lo <= self.pi_left[b] <= hi

    def t(self, v: Node) -> Tuple[Node, ...]:
        """The normalized rotation :math:`t_v` (parent/anchor first)."""
        return self.rotation.neighbors_cw(v)

    def t_position(self, v: Node, u: Node) -> int:
        """Position of ``u`` in the normalized :math:`t_v` (0 = parent)."""
        return self.rotation.position(v, u)

    def child_size_between(self, x: Node, start: int, end: int) -> int:
        """Total subtree size of ``x``'s T-children at the rotation positions
        strictly between ``start`` and ``end``, walking ``+1`` and wrapping
        past the last position; O(1) from the prefix sums."""
        prefix = self._child_prefix[x]
        if start < end:
            return prefix[end] - prefix[start + 1]
        return prefix[-1] - prefix[start + 1] + prefix[end]

    def real_fundamental_edges(self) -> List[Edge]:
        """All real fundamental edges, each as ``(u, v)`` with
        :math:`\\pi_\\ell(u) < \\pi_\\ell(v)` (the paper's convention),
        in ``graph.edges()`` order but read from the adjacency dict (see
        :meth:`_normalize`)."""
        out: List[Edge] = []
        parent, pi = self.tree.parent, self.pi_left
        done = set()
        for a, row in self.graph._adj.items():
            for b in row:
                if b in done or parent[a] == b or parent[b] == a:
                    continue
                out.append((a, b) if pi[a] < pi[b] else (b, a))
            done.add(a)
        return out

    def orient(self, e: Edge) -> Edge:
        """Return ``e`` ordered so :math:`\\pi_\\ell(u) < \\pi_\\ell(v)`."""
        u, v = e
        return (u, v) if self.pi_left[u] < self.pi_left[v] else (v, u)

    def is_tree_edge(self, u: Node, v: Node) -> bool:
        """Whether ``uv`` is an edge of the spanning tree."""
        return self.tree.parent.get(u) == v or self.tree.parent.get(v) == u

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PlanarConfiguration(n={self.n}, m={self.graph.number_of_edges()}, "
            f"root={self.tree.root!r})"
        )
