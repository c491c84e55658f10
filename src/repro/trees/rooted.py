"""Rooted spanning trees in the distributed representation of the paper.

The paper's distributed representation of a rooted tree (Section 2 / 3.2)
gives every node its *parent identifier* and its *depth*.  This class keeps
exactly that, plus derived quantities every subroutine needs: children lists,
subtree sizes :math:`n_T(v)`, and ancestor tests.

Everything is computed **iteratively** — spanning trees of planar graphs can
have depth :math:`\\Theta(n)` (that asymmetry is the whole difficulty of the
paper's Section 5.2), and recursive implementations would blow the Python
stack long before the interesting instance sizes.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

import networkx as nx

Node = Hashable

__all__ = ["RootedTree", "TreeError"]


class TreeError(ValueError):
    """Raised for structurally invalid tree inputs."""


class RootedTree:
    """A rooted tree with parent pointers, depths and subtree sizes.

    Parameters
    ----------
    parent:
        Mapping node -> parent; the root maps to ``None``.
    root:
        The root node (must be the unique node with parent ``None``).
    """

    __slots__ = ("root", "parent", "children", "depth", "subtree_size", "_tin", "_tout")

    def __init__(self, parent: Dict[Node, Optional[Node]], root: Node):
        if parent.get(root, "missing") is not None:
            raise TreeError("root must map to None in the parent map")
        self.root = root
        self.parent: Dict[Node, Optional[Node]] = dict(parent)
        self.children: Dict[Node, List[Node]] = {v: [] for v in self.parent}
        for v, p in self.parent.items():
            if p is None:
                if v != root:
                    raise TreeError(f"second root {v!r} found")
                continue
            if p not in self.children:
                raise TreeError(f"parent {p!r} of {v!r} is not a tree node")
            self.children[p].append(v)
        self.depth: Dict[Node, int] = {}
        self.subtree_size: Dict[Node, int] = {}
        self._tin: Dict[Node, int] = {}
        self._tout: Dict[Node, int] = {}
        self._compute_order()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[Node, Node]], root: Node) -> "RootedTree":
        """Build from undirected tree edges by orienting away from ``root``."""
        adjacency: Dict[Node, List[Node]] = {root: []}
        for u, v in edges:
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)
        parent: Dict[Node, Optional[Node]] = {root: None}
        stack = [root]
        while stack:
            v = stack.pop()
            for u in adjacency[v]:
                if u not in parent:
                    parent[u] = v
                    stack.append(u)
        if len(parent) != len(adjacency):
            raise TreeError("edge set is not a connected tree")
        return cls(parent, root)

    @classmethod
    def from_graph(cls, tree: nx.Graph, root: Node) -> "RootedTree":
        """Build from a networkx tree."""
        if len(tree) == 1:
            return cls({root: None}, root)
        if tree.number_of_edges() != len(tree) - 1:
            raise TreeError("graph has the wrong number of edges for a tree")
        return cls.from_edges(tree.edges(), root)

    def _compute_order(self) -> None:
        """Iterative preorder: depths, subtree sizes, Euler intervals."""
        timer = 0
        # Stack entries: (node, parent_depth, exit_marker)
        stack: List[Tuple[Node, bool]] = [(self.root, False)]
        self.depth[self.root] = 0
        while stack:
            v, leaving = stack.pop()
            if leaving:
                self._tout[v] = timer
                size = 1
                for c in self.children[v]:
                    size += self.subtree_size[c]
                self.subtree_size[v] = size
                continue
            self._tin[v] = timer
            timer += 1
            stack.append((v, True))
            dv = self.depth[v]
            for c in self.children[v]:
                self.depth[c] = dv + 1
                stack.append((c, False))
        if len(self._tin) != len(self.parent):
            raise TreeError("parent map is not connected to the root")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.parent)

    def __contains__(self, v: Node) -> bool:
        return v in self.parent

    @property
    def nodes(self) -> Iterable[Node]:
        """All tree nodes."""
        return self.parent.keys()

    def is_ancestor(self, a: Node, b: Node) -> bool:
        """Whether ``a`` is an ancestor of ``b`` (every node is its own)."""
        return self._tin[a] <= self._tin[b] and self._tout[b] <= self._tout[a]

    def is_strict_ancestor(self, a: Node, b: Node) -> bool:
        """Whether ``a`` is a proper ancestor of ``b``."""
        return a != b and self.is_ancestor(a, b)

    def lca(self, u: Node, v: Node) -> Node:
        """Lowest common ancestor: O(1) for an ancestor-descendant pair (the
        Euler intervals), otherwise by depth-walking (O(path length))."""
        if self.is_ancestor(u, v):
            return u
        if self.is_ancestor(v, u):
            return v
        depth, parent = self.depth, self.parent
        while u != v:
            if depth[u] >= depth[v]:
                u = parent[u]  # type: ignore[assignment]
            else:
                v = parent[v]  # type: ignore[assignment]
        return u

    def path(self, u: Node, v: Node) -> List[Node]:
        """The unique T-path from ``u`` to ``v`` (inclusive)."""
        depth, parent = self.depth, self.parent
        up_u: List[Node] = []
        up_v: List[Node] = []
        a, b = u, v
        while a != b:
            if depth[a] >= depth[b]:
                up_u.append(a)
                a = parent[a]  # type: ignore[assignment]
            else:
                up_v.append(b)
                b = parent[b]  # type: ignore[assignment]
        up_u.append(a)
        up_u.extend(reversed(up_v))
        return up_u

    def path_to_root(self, v: Node) -> List[Node]:
        """T-path from ``v`` up to the root (inclusive)."""
        out = [v]
        while self.parent[out[-1]] is not None:
            out.append(self.parent[out[-1]])  # type: ignore[arg-type]
        return out

    def path_length(self, u: Node, v: Node) -> int:
        """Number of edges on the T-path between ``u`` and ``v``."""
        w = self.lca(u, v)
        return self.depth[u] + self.depth[v] - 2 * self.depth[w]

    def leaves(self) -> List[Node]:
        """All leaves (nodes without children)."""
        return [v for v, cs in self.children.items() if not cs]

    def first_step(self, u: Node, v: Node) -> Node:
        """First node after ``u`` on the T-path from ``u`` to ``v``.

        This is the node the paper calls ``z`` in Definition 1/2 (for
        ``u`` an ancestor of ``v``) and requires ``u != v``.
        """
        if u == v:
            raise TreeError("no first step on a trivial path")
        if self.is_strict_ancestor(u, v):
            # Walk down: find the child of u that is an ancestor of v.
            for c in self.children[u]:
                if self.is_ancestor(c, v):
                    return c
            raise TreeError("inconsistent ancestor structure")  # pragma: no cover
        parent = self.parent[u]
        if parent is None:  # pragma: no cover - root is ancestor of all
            raise TreeError("root has no parent")
        return parent

    def iter_preorder(self) -> Iterator[Node]:
        """Iterative preorder traversal (children in stored order)."""
        stack = [self.root]
        while stack:
            v = stack.pop()
            yield v
            stack.extend(reversed(self.children[v]))

    def subtree_nodes(self, v: Node) -> List[Node]:
        """All nodes of the subtree :math:`T_v` (including ``v``)."""
        out: List[Node] = []
        stack = [v]
        while stack:
            x = stack.pop()
            out.append(x)
            stack.extend(self.children[x])
        return out

    def edges(self) -> Iterator[Tuple[Node, Node]]:
        """All (parent, child) edges."""
        for v, p in self.parent.items():
            if p is not None:
                yield (p, v)

    def height(self) -> int:
        """Maximum depth over all nodes."""
        return max(self.depth.values())

    # ------------------------------------------------------------------
    # transformation
    # ------------------------------------------------------------------
    def reroot(self, new_root: Node) -> "RootedTree":
        """Same tree edges, rooted at ``new_root`` (the paper's Lemma 19).

        The distributed algorithm does this in :math:`\\tilde{O}(D)` rounds;
        the round charge is applied by the caller via the ledger.
        """
        if new_root not in self.parent:
            raise TreeError(f"{new_root!r} is not a tree node")
        parent: Dict[Node, Optional[Node]] = {new_root: None}
        # Reverse the pointers along new_root -> old root; keep the rest.
        chain = self.path_to_root(new_root)
        for child, above in zip(chain, chain[1:]):
            parent[above] = child
        for v, p in self.parent.items():
            if v not in parent:
                parent[v] = p
        return RootedTree(parent, new_root)

    def to_graph(self) -> nx.Graph:
        """Underlying undirected tree."""
        graph = nx.Graph()
        graph.add_nodes_from(self.parent)
        graph.add_edges_from(self.edges())
        return graph

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RootedTree(n={len(self)}, root={self.root!r}, height={self.height()})"
