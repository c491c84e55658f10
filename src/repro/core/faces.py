"""Real fundamental faces: borders, inside arcs, interiors, containment.

For a real fundamental edge :math:`e = uv` of a configuration
:math:`(G, \\mathcal{E}, T)`, the border of the fundamental face
:math:`F_e` is the T-path between ``u`` and ``v`` plus ``e`` (Section 2 of
the paper).  The machinery here answers, purely combinatorially, the
questions the distributed algorithm needs:

* which rotation positions (and hence which neighbors / T-children) of a
  border node point *inside* :math:`F_e`  — the content of the paper's
  Claims 1 and 4;
* the full interior :math:`\\mathring{F}_e` (union of the subtrees hanging
  inside, as in Claim 3's proof);
* whether another fundamental edge is *contained in* :math:`F_e` (used by
  NOT-CONTAINED / NOT-CONTAINS, Section 5.2.4).

A view answers these lazily: the border walk, the LCA and the side
decision are fixed at construction, while a border node's inside arc is
computed from its rotation the first time it is asked for, and the interior
once on first use.  Definition 2's weight reads only the two endpoints'
arcs (Lemma 12), so it touches two rotations however long the border is.

The side decision is made **chirality-free**: at the topmost border node
(the LCA ``w``), the outside is the side holding ``w``'s parent slot — for
the root, the virtual-root gap between the last and first rotation position.
Both facts are forced by the paper's convention that fundamental faces never
contain the (virtual) root.  The side then propagates along the border walk,
which is exactly how a face traversal follows one side of a closed walk.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from .config import PlanarConfiguration

Node = Hashable
Edge = Tuple[Node, Node]

__all__ = ["FaceView", "face_view"]


def _arc(start: int, end: int, degree: int) -> List[int]:
    """Positions strictly between ``start`` and ``end``, walking ``+1`` mod
    ``degree``.  ``start == end`` is not a valid arc delimiter pair."""
    out = []
    p = (start + 1) % degree
    while p != end:
        out.append(p)
        p = (p + 1) % degree
    return out


class FaceView:
    """All border-local information about one real fundamental face.

    Construction fixes the border walk and the side decision.  A border
    node's inside arc is computed on its first query and the interior on
    first use, both cached on the view; p-values, containment tests and
    weights read from those.
    """

    __slots__ = (
        "cfg",
        "u",
        "v",
        "lca",
        "border",
        "_border_index",
        "_inside_positions",
        "_interior",
        "inside_is_A",
    )

    def __init__(self, cfg: PlanarConfiguration, e: Edge):
        self.cfg = cfg
        self.u, self.v = cfg.orient(e)
        tree = cfg.tree
        self.border: List[Node] = tree.path(self.u, self.v)
        self.lca = tree.lca(self.u, self.v)
        self._border_index: Dict[Node, int] = {
            x: i for i, x in enumerate(self.border)
        }
        if len(self._border_index) != len(self.border):  # pragma: no cover
            raise ValueError("border walk revisits a node")
        self._inside_positions: Dict[Node, FrozenSet[int]] = {}
        self._interior: Optional[FrozenSet[Node]] = None
        self.inside_is_A = self._decide_side()

    # ------------------------------------------------------------------
    # side decision (chirality-free, see module docstring)
    # ------------------------------------------------------------------
    def _walk_neighbors(self, x: Node) -> Tuple[Node, Node]:
        """(previous, next) of ``x`` along the cyclic border walk
        ``u -> ... -> v -> (e) -> u``."""
        i = self._border_index[x]
        prev = self.border[i - 1] if i > 0 else self.v
        nxt = self.border[i + 1] if i + 1 < len(self.border) else self.u
        return prev, nxt

    def _decide_side(self) -> bool:
        """True iff the inside is "side A": positions strictly cw-after the
        incoming walk edge and cw-before the outgoing one."""
        w = self.lca
        prev, nxt = self._walk_neighbors(w)
        i = self.cfg.t_position(w, prev)
        o = self.cfg.t_position(w, nxt)
        # The outside marker (parent slot, or the virtual-root gap at the
        # root) lies in side A exactly when the A-arc wraps past position 0,
        # i.e. when i > o.  The inside is the other side.
        return i < o

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def edge(self) -> Edge:
        """The fundamental edge, oriented by :math:`\\pi_\\ell`."""
        return (self.u, self.v)

    def inside_positions(self, x: Node) -> FrozenSet[int]:
        """Rotation positions of border node ``x`` pointing inside.

        The arc between the walk's incoming and outgoing edges at ``x``,
        computed from ``x``'s rotation on the first query and cached.
        """
        arc = self._inside_positions.get(x)
        if arc is None:
            prev, nxt = self._walk_neighbors(x)
            i = self.cfg.t_position(x, prev)
            o = self.cfg.t_position(x, nxt)
            degree = self.cfg.rotation.degree(x)
            arc = frozenset(_arc(i, o, degree) if self.inside_is_A else _arc(o, i, degree))
            self._inside_positions[x] = arc
        return arc

    def neighbors_inside(self, x: Node) -> List[Node]:
        """Neighbors of border node ``x`` attached on the inside."""
        t = self.cfg.t(x)
        return [t[p] for p in sorted(self.inside_positions(x))]

    def children_inside(self, x: Node) -> List[Node]:
        """T-children of border node ``x`` whose subtree hangs inside."""
        children = set(self.cfg.tree.children[x])
        return [z for z in self.neighbors_inside(x) if z in children]

    def p_value(self, x: Node) -> int:
        """:math:`p_{F_e}(x)`: nodes of ``x``'s inside child-subtrees.

        This is the quantity Definition 2 calls
        :math:`|F_e \\cap T_x|` restricted to the interior, which endpoint
        ``x`` computes locally from its rotation plus subtree sizes
        (Lemma 12's proof).
        """
        sizes = self.cfg.tree.subtree_size
        return sum(sizes[c] for c in self.children_inside(x))

    def interior(self) -> FrozenSet[Node]:
        """:math:`\\mathring{F}_e`: all nodes strictly inside the face.

        Every interior node hangs, in T, below an inside T-child of a border
        node (Claim 3's decomposition), so the interior is a disjoint union
        of full subtrees.  Computed once, on first use.
        """
        if self._interior is None:
            tree = self.cfg.tree
            out: Set[Node] = set()
            for x in self.border:
                for c in self.children_inside(x):
                    out.update(tree.subtree_nodes(c))
            self._interior = frozenset(out)
        return self._interior

    def face_nodes(self) -> Set[Node]:
        """All of :math:`V(F_e)`: border plus interior."""
        return set(self.border) | self.interior()

    def contains_edge(self, f: Edge) -> bool:
        """Whether fundamental edge ``f`` is drawn inside :math:`F_e`.

        An edge is inside iff each endpoint is inside, where a border
        endpoint additionally needs the edge to leave through an inside
        rotation position (a chord can hug either side of the border).
        """
        a, b = f
        if {a, b} == {self.u, self.v}:
            return False
        for x, y in ((a, b), (b, a)):
            if x in self._border_index:
                if self.cfg.t_position(x, y) not in self.inside_positions(x):
                    return False
            elif x not in self.interior():
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaceView(e=({self.u!r},{self.v!r}), border={len(self.border)})"


def face_view(cfg: PlanarConfiguration, e: Edge) -> FaceView:
    """Construct the :class:`FaceView` of a real fundamental edge."""
    u, v = e
    if not cfg.graph.has_edge(u, v):
        raise ValueError(f"{e!r} is not a graph edge")
    if cfg.is_tree_edge(u, v):
        raise ValueError(f"{e!r} is a tree edge, not a fundamental edge")
    return FaceView(cfg, e)
