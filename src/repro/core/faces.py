"""Real fundamental faces: borders, inside arcs, interiors, containment.

For a real fundamental edge :math:`e = uv` of a configuration
:math:`(G, \\mathcal{E}, T)`, the border of the fundamental face
:math:`F_e` is the T-path between ``u`` and ``v`` plus ``e`` (Section 2 of
the paper).  The machinery here answers, purely combinatorially, the
questions the distributed algorithm needs:

* which rotation positions (and hence which neighbors / T-children) of a
  border node point *inside* :math:`F_e`  — the content of the paper's
  Claims 1 and 4;
* whether a node lies inside :math:`F_e` (:meth:`FaceView.encloses`):
  Remark 1's DFS-order intervals read at the endpoints, in O(deg) per node
  and without listing the interior — what DETECT-FACE (Lemma 15)
  broadcasts.  Edge containment and Claim 6's hiding edges ask this;
* the full interior :math:`\\mathring{F}_e` (union of the subtrees hanging
  inside, as in Claim 3's proof), for callers that list its nodes: Phase 4's
  leaves, side sets, and the reference the membership test is checked
  against;
* whether another fundamental edge is *contained in* :math:`F_e`.
  NOT-CONTAINED / NOT-CONTAINS (Section 5.2.4) order their candidates by
  face size, which :mod:`repro.core.separator` derives from the weight,
  and ask this only within the tie group at the extreme size.

A view is endpoint-local, as in Lemma 12: construction reads only the
rotations and tree pointers of ``u`` and ``v``.  :func:`endpoint_frame`
gives the side decision, the first step ``z`` from ``u`` towards ``v``
(when ``u`` is an ancestor of ``v``) and both endpoints' inside arcs in
O(deg u); the border walk, its index and the LCA are computed on first use.
A p-value is an O(1) range sum over the inside arc of the configuration's
prefix sums of child subtree sizes
(:meth:`~repro.core.config.PlanarConfiguration.child_size_between`), so
Definition 2's weight touches two rotation positions per endpoint however
long the border is, and builds no position set.  The set of inside
positions of a border node is built only when asked for, and the interior
once on first use.

The side decision is **chirality-free**.  With
:math:`\\pi_\\ell(u) < \\pi_\\ell(v)`, "side A" is the set of positions
strictly cw-after the incoming walk edge and cw-before the outgoing one; at
the topmost border node (the LCA ``w``) the outside holds ``w``'s parent
slot — for the root, the virtual-root gap between the last and first
rotation position — so the inside is side A exactly when the incoming
position is below the outgoing one.  Both facts are forced by the paper's
convention that fundamental faces never contain the (virtual) root.  That
rule needs only the endpoints:

* ``u`` an ancestor of ``v``: ``u`` is the LCA, the walk enters it from
  ``v`` and leaves to ``z``, so side A is inside iff
  :math:`t_u(v) < t_u(z)` — Definition 1's right orientation;
* otherwise the LCA lies strictly above both endpoints, and LEFT-DFS-ORDER
  reaches ``u``'s branch first because it visits children in descending
  rotation position; the walk enters the LCA from ``u``'s branch at a
  higher position than it leaves by towards ``v``, so the inside is never
  side A.

The side then propagates along the border walk, which is exactly how a face
traversal follows one side of a closed walk.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from .config import PlanarConfiguration

Node = Hashable
Edge = Tuple[Node, Node]

__all__ = ["FaceView", "face_view", "endpoint_frame"]


Arc = Tuple[int, int]


def _arc(start: int, end: int, degree: int) -> List[int]:
    """Positions strictly between ``start`` and ``end``, walking ``+1`` mod
    ``degree``.  ``start == end`` is not a valid arc delimiter pair."""
    if start < end:
        return list(range(start + 1, end))
    return list(range(start + 1, degree)) + list(range(end))


def _in_arc(p: int, arc: Arc) -> bool:
    """Whether position ``p`` lies in the arc ``_arc(*arc, degree)``."""
    start, end = arc
    if start < end:
        return start < p < end
    return p > start or p < end


def endpoint_frame(
    cfg: PlanarConfiguration, u: Node, v: Node
) -> Tuple[Optional[Node], bool, Arc, Arc]:
    """Everything Lemma 12 reads at the endpoints of the fundamental edge
    ``uv``, oriented so :math:`\\pi_\\ell(u) < \\pi_\\ell(v)`:
    ``(z, inside_is_A, arc_u, arc_v)``.

    ``z`` is the first step from ``u`` towards ``v`` when ``u`` is an
    ancestor of ``v`` (``None`` otherwise) and ``inside_is_A`` the side
    decision of the module docstring.  ``arc_x`` is the ``(start, end)``
    pair of rotation positions of ``x`` that its inside arc lies strictly
    between.  The border walk enters ``u`` from ``v`` and leaves to ``z``
    or to ``u``'s parent, and enters ``v`` from its parent; parents sit at
    position 0 of a normalized rotation, and neither endpoint of a
    non-ancestor pair is the root.

    Everything is read directly: the position maps of the two rows
    (``cfg._pos``) and the tree's Euler intervals, where ``a`` is an
    ancestor of ``b`` iff ``tin[a] <= tin[b] < tout[a]``.  ``cfg`` may be
    anything holding those for ``u`` and ``v``, such as the rows a
    virtual-edge insertion would build (:mod:`repro.core.augment`).
    """
    tree = cfg.tree
    pos_u = cfg._pos[u]
    at_u = pos_u[v]
    at_v = cfg._pos[v][u]
    tin, tout = tree._tin, tree._tout
    t_v = tin[v]
    if not tin[u] <= t_v < tout[u]:
        return None, False, (0, at_u), (at_v, 0)
    # z: the child of u whose Euler interval holds v (first_step, inlined).
    for z in tree.children[u]:
        if tin[z] <= t_v < tout[z]:
            break
    to_z = pos_u[z]
    if at_u < to_z:
        return z, True, (at_u, to_z), (0, at_v)
    return z, False, (to_z, at_u), (at_v, 0)


class FaceView:
    """All border-local information about one real fundamental face.

    Construction reads only the two endpoints (:func:`endpoint_frame`): it
    fixes the side decision, the first step ``z`` from ``u`` towards ``v``
    (``None`` unless ``u`` is an ancestor of ``v``) and both endpoints'
    inside arcs.  The border walk, its index and the LCA are computed on
    first use; a border node's set of inside positions on its first query
    and the interior on first use, all cached on the view.  p-values,
    containment tests and weights read from those.
    """

    __slots__ = (
        "cfg",
        "u",
        "v",
        "z",
        "inside_is_A",
        "_endpoint_arcs",
        "_border",
        "_index",
        "_lca",
        "_inside_positions",
        "_interior",
    )

    def __init__(self, cfg: PlanarConfiguration, e: Edge):
        self.cfg = cfg
        self.u, self.v = u, v = cfg.orient(e)
        self._border: Optional[List[Node]] = None
        self._index: Optional[Dict[Node, int]] = None
        self._lca: Optional[Node] = None
        self._inside_positions: Dict[Node, FrozenSet[int]] = {}
        self._interior: Optional[FrozenSet[Node]] = None
        self.z, self.inside_is_A, arc_u, arc_v = endpoint_frame(cfg, u, v)
        self._endpoint_arcs = {u: arc_u, v: arc_v}

    # ------------------------------------------------------------------
    # the border walk, on first use
    # ------------------------------------------------------------------
    @property
    def border(self) -> List[Node]:
        """The T-path from ``u`` to ``v`` (inclusive); the face's border is
        this path closed by ``e``."""
        if self._border is None:
            self._border = self.cfg.tree.path(self.u, self.v)
        return self._border

    @property
    def _border_index(self) -> Dict[Node, int]:
        """Border node -> index in :attr:`border`."""
        if self._index is None:
            self._index = {x: i for i, x in enumerate(self.border)}
            if len(self._index) != len(self._border):  # pragma: no cover
                raise ValueError("border walk revisits a node")
        return self._index

    @property
    def lca(self) -> Node:
        """The topmost border node."""
        if self._lca is None:
            self._lca = self.u if self.z is not None else self.cfg.tree.lca(self.u, self.v)
        return self._lca

    def _inside_arc(self, x: Node) -> Arc:
        """The ``(start, end)`` rotation positions of border node ``x`` that
        its inside arc lies strictly between.  An inner border node reads
        its (previous, next) along the walk ``u -> ... -> v``."""
        arc = self._endpoint_arcs.get(x)
        if arc is not None:
            return arc
        border = self.border
        i = self._border_index[x]
        into = self.cfg.t_position(x, border[i - 1])
        out = self.cfg.t_position(x, border[i + 1])
        return (into, out) if self.inside_is_A else (out, into)

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
        built on the first query and cached.
        """
        arc = self._inside_positions.get(x)
        if arc is None:
            arc = frozenset(_arc(*self._inside_arc(x), self.cfg.rotation.degree(x)))
            self._inside_positions[x] = arc
        return arc

    def neighbors_inside(self, x: Node) -> List[Node]:
        """Neighbors of border node ``x`` attached on the inside."""
        t = self.cfg.t(x)
        return [t[p] for p in sorted(self.inside_positions(x))]

    def children_inside(self, x: Node) -> List[Node]:
        """T-children of border node ``x`` whose subtree hangs inside."""
        parent = self.cfg.tree.parent
        return [y for y in self.neighbors_inside(x) if parent[y] == x]

    def p_value(self, x: Node) -> int:
        """:math:`p_{F_e}(x)`: nodes of ``x``'s inside child-subtrees.

        This is the quantity Definition 2 calls
        :math:`|F_e \\cap T_x|` restricted to the interior, which endpoint
        ``x`` computes locally from its rotation plus subtree sizes
        (Lemma 12's proof): one O(1) range sum over the inside arc.
        """
        return self.cfg.child_size_between(x, *self._inside_arc(x))

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

    def encloses(self, y: Node) -> bool:
        """Whether ``y`` lies in :math:`\\mathring{F}_e`, from Remark 1's
        DFS-order intervals read at the endpoints: O(deg) ancestor tests and
        at most one first step, never the interior.

        A subtree hanging off an endpoint is decided by that endpoint's
        inside arc.  Otherwise the face's order places the rest of the
        interior in one interval: :math:`\\pi_\\ell` after :math:`T_u` and
        before ``v`` when ``u`` is not an ancestor of ``v``, the face order
        from ``z`` to before ``v`` when it is.  Ancestors of ``v`` in that
        interval are border nodes.  :meth:`interior` is the set this agrees
        with.
        """
        cfg = self.cfg
        u, v = self.u, self.v
        if y == u or y == v:
            return False
        first_step = cfg.tree.first_step
        if cfg.is_ancestor(v, y):
            return _in_arc(cfg.t_position(v, first_step(v, y)), self._endpoint_arcs[v])
        z = self.z
        if z is None:
            if cfg.is_ancestor(u, y):
                return _in_arc(cfg.t_position(u, first_step(u, y)), self._endpoint_arcs[u])
            if cfg.is_ancestor(y, v):
                return False
            pi = cfg.pi_left
            return pi[u] + cfg.tree.subtree_size[u] <= pi[y] < pi[v]
        if not cfg.is_ancestor(u, y):
            return False
        c = first_step(u, y)
        if c != z:
            return _in_arc(cfg.t_position(u, c), self._endpoint_arcs[u])
        if cfg.is_ancestor(y, v):
            return False
        pi = cfg.pi_right if self.inside_is_A else cfg.pi_left
        return pi[z] <= pi[y] < pi[v]

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
            elif not self.encloses(x):
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
