"""Combinatorial planar embeddings as rotation systems.

A *rotation system* assigns to every node ``v`` the cyclic clockwise order
``t_v`` of its neighbors.  Together with the underlying graph this fully
determines a planar (sphere) embedding and its faces.  The paper calls this a
*planar combinatorial embedding* :math:`\\mathcal{E}` (Section 2).

This module is the embedding substrate used by every higher layer: the
configuration objects of :mod:`repro.core`, the face machinery, the region
oracle, and the generators all speak :class:`RotationSystem`.  Rotations
are computed by the in-repo left-right planarity port
(:func:`repro.planar.construct.lr_rotation`); networkx's planarity code is
the test oracle only.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

import networkx as nx

Node = Hashable
HalfEdge = Tuple[Node, Node]

__all__ = ["RotationSystem", "EmbeddingError"]


class EmbeddingError(ValueError):
    """Raised when a rotation system is structurally invalid."""


class RotationSystem:
    """A combinatorial planar embedding (clockwise rotation system).

    Parameters
    ----------
    order:
        Mapping from each node to the sequence of its neighbors in clockwise
        order.  Every adjacency must appear in both directions.

    Notes
    -----
    The class is *mutable only through* :meth:`insert_edge` (used when the
    algorithm adds a virtual fundamental edge to the embedding, Section 3.1.3
    of the paper) and :meth:`delete_edge` (used by the dynamic-graph layer,
    :mod:`repro.dynamic`); all read access treats the rotation lists as
    immutable.
    """

    __slots__ = ("_order", "_pos")

    def __init__(self, order: Dict[Node, Sequence[Node]]):
        self._order: Dict[Node, List[Node]] = {v: list(nbrs) for v, nbrs in order.items()}
        self._pos: Dict[Node, Dict[Node, int]] = {}
        for v in self._order:
            self._index_row(v)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def adopt(
        cls,
        order: Dict[Node, List[Node]],
        pos: Optional[Dict[Node, Dict[Node, int]]] = None,
    ) -> "RotationSystem":
        """A rotation system over ``order`` and its lists themselves, not
        copies: for a caller that has just built fresh rows and hands them
        over, keeping no reference of its own.  A caller that built each
        row's position map alongside it (neighbor -> index, one entry per
        position) hands those over as ``pos``; otherwise they are indexed
        here."""
        rotation = cls.__new__(cls)
        rotation._order = order
        if pos is not None:
            rotation._pos = pos
            return rotation
        rotation._pos = {}
        for v in order:
            rotation._index_row(v)
        return rotation

    @classmethod
    def from_graph(cls, graph: nx.Graph) -> "RotationSystem":
        """Compute a rotation system for a planar graph.

        Uses the left-right planarity port of
        :func:`repro.planar.construct.lr_rotation`.  Raises
        :class:`EmbeddingError` if ``graph`` is not planar.
        """
        from .construct import lr_rotation  # construct imports this module

        order = lr_rotation(graph)
        if order is None:
            raise EmbeddingError("graph is not planar")
        return cls(order)

    @classmethod
    def from_networkx_embedding(cls, embedding: nx.PlanarEmbedding) -> "RotationSystem":
        """Wrap a networkx :class:`~networkx.PlanarEmbedding` (such as the
        triangulation :mod:`repro.baselines.lipton_tarjan` gets from
        networkx)."""
        order = {
            v: list(embedding.neighbors_cw_order(v)) for v in embedding.nodes()
        }
        return cls(order)

    def copy(self) -> "RotationSystem":
        """Return an independent copy of this rotation system."""
        return RotationSystem(self._order)

    # ------------------------------------------------------------------
    # read access
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Iterable[Node]:
        """All embedded nodes."""
        return self._order.keys()

    def __contains__(self, v: Node) -> bool:
        return v in self._order

    def __len__(self) -> int:
        return len(self._order)

    def degree(self, v: Node) -> int:
        """Number of neighbors of ``v``."""
        return len(self._order[v])

    def neighbors_cw(self, v: Node) -> Tuple[Node, ...]:
        """Neighbors of ``v`` in clockwise order (the paper's ``t_v``)."""
        return tuple(self._order[v])

    def position(self, v: Node, u: Node) -> int:
        """Index of neighbor ``u`` in ``t_v`` (0-based clockwise position)."""
        try:
            return self._pos[v][u]
        except KeyError:
            raise EmbeddingError(f"{u!r} is not a neighbor of {v!r}") from None

    def has_edge(self, u: Node, v: Node) -> bool:
        """Whether ``uv`` is an embedded edge."""
        return v in self._pos.get(u, ())

    def successor_cw(self, v: Node, u: Node, *, steps: int = 1) -> Node:
        """Neighbor ``steps`` positions clockwise after ``u`` around ``v``."""
        nbrs = self._order[v]
        return nbrs[(self.position(v, u) + steps) % len(nbrs)]

    def predecessor_cw(self, v: Node, u: Node) -> Node:
        """Neighbor immediately counterclockwise of ``u`` around ``v``."""
        return self.successor_cw(v, u, steps=-1)

    def edges(self) -> Iterator[Tuple[Node, Node]]:
        """Each undirected edge once."""
        seen = set()
        for v, nbrs in self._order.items():
            for u in nbrs:
                key = (u, v) if (u, v) in seen or (v, u) in seen else None
                if key is None:
                    seen.add((v, u))
                    yield (v, u)

    def half_edges(self) -> Iterator[HalfEdge]:
        """Every directed half-edge of the embedding."""
        for v, nbrs in self._order.items():
            for u in nbrs:
                yield (v, u)

    def num_edges(self) -> int:
        """Number of undirected edges."""
        return sum(len(nbrs) for nbrs in self._order.values()) // 2

    # ------------------------------------------------------------------
    # faces
    # ------------------------------------------------------------------
    def next_face_half_edge(self, v: Node, w: Node) -> HalfEdge:
        """Half-edge following ``(v, w)`` on its face.

        With clockwise rotations, the face *to the left* of the directed edge
        ``v -> w`` continues with ``(w, x)`` where ``x`` is the clockwise
        successor of ``v`` around ``w``.  This matches networkx's convention,
        so faces computed here agree with drawings produced from the same
        rotation system.
        """
        return (w, self.successor_cw(w, v))

    def faces(self) -> Iterator[List[Node]]:
        """Every face once, lazily, as its cyclic node walk (with repeats
        on bridges and cut vertices).

        A walk ``[w0, w1, ...]`` runs along the half-edges ``(w0, w1),
        (w1, w2), ...``, so its corner at ``w_i`` lies clockwise after
        ``w_{i-1}`` in ``t_{w_i}``.  Faces come in the order of their first
        half-edge in the rows, each walk starting there; half-edges are
        marked by rotation position.
        """
        order, pos = self._order, self._pos
        seen = {v: [False] * len(nbrs) for v, nbrs in order.items()}
        for v, nbrs in order.items():
            for i in range(len(nbrs)):
                if seen[v][i]:
                    continue
                walk: List[Node] = []
                a, j = v, i
                while not seen[a][j]:
                    seen[a][j] = True
                    walk.append(a)
                    b = order[a][j]
                    j = (pos[b][a] + 1) % len(order[b])
                    a = b
                yield walk

    def num_faces(self) -> int:
        """Number of faces of the (sphere) embedding, in O(n + m).  Needs
        every half-edge's reverse to be embedded."""
        return sum(1 for _ in self.faces())

    def corner(self, x: Node, after: Node | None) -> HalfEdge:
        """The corner of ``x`` that an insertion ``after`` that neighbor
        (``None``: before ``t_x[0]``) occupies, named by the half-edge
        leaving it: the corner lies on that half-edge's face."""
        if after is None:
            return (x, self._order[x][0])
        return (x, self.successor_cw(x, after))

    def corner_faces(self, u: Node) -> Dict[HalfEdge, int]:
        """Face index of ``u``'s corners, in O(total length of those faces).

        Walks each face with a corner at ``u`` once and maps every
        half-edge on it to the face's number (1, 2, ... in the order of
        ``u``'s rotation).  ``insert_edge(u, v, after_u=..., after_v=...)``
        keeps this embedding planar exactly when
        ``index[corner(u, after_u)] == index.get(corner(v, after_v))``: on
        a connected embedding the new edge is a chord of one face when both
        corners lie on it (one face becomes two, so Euler's formula still
        holds) and otherwise joins two faces into one (Euler's formula
        fails), which is what :meth:`validate` would decide after the
        insertion.  A corner of ``v`` missing from the index lies on no face
        at ``u``.  ``u`` needs at least one neighbor.
        """
        order, pos = self._order, self._pos
        index: Dict[HalfEdge, int] = {}
        face = 0
        for first in order[u]:
            if (u, first) in index:
                continue
            face += 1
            a, b = u, first
            while (a, b) not in index:
                index[a, b] = face
                # next_face_half_edge, inlined: this walk is the augment hot path.
                nbrs = order[b]
                a, b = b, nbrs[(pos[b][a] + 1) % len(nbrs)]
        return index

    def shared_face_slots(self, u: Node, v: Node) -> Optional[Tuple[Node, Node]]:
        """``(after_u, after_v)`` placing ``uv`` as a chord of a face that
        ``u`` and ``v`` share, or ``None`` when they share none.

        Walks only the faces at ``u`` (:meth:`corner_faces`) and takes the
        first corner of ``v``, in ``t_v`` order, that lies on one of them,
        with the first corner of ``u`` on that face; ``insert_edge(u, v,
        after_u=..., after_v=...)`` with these slots keeps the embedding
        planar.  A node without neighbors shares no face.
        """
        order = self._order
        if not order[u] or not order[v]:
            return None
        index = self.corner_faces(u)
        for x in order[v]:
            face = index.get((v, x))
            if face is not None:
                y = next(y for y in order[u] if index[u, y] == face)
                return self.predecessor_cw(u, y), self.predecessor_cw(v, x)
        return None

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert_edge(
        self,
        u: Node,
        v: Node,
        *,
        after_u: Node | None,
        after_v: Node | None,
    ) -> None:
        """Insert edge ``uv`` into the embedding.

        ``after_u`` positions ``v`` immediately clockwise-after that neighbor
        in ``t_u`` (``None`` prepends, i.e. position 0); symmetrically for
        ``after_v``.  The caller is responsible for choosing positions that
        keep the embedding planar — this is exactly the freedom the paper's
        :math:`\\mathcal{E}`-compatible insertions exercise (Section 2).
        """
        if self.has_edge(u, v):
            raise EmbeddingError(f"edge {u!r}-{v!r} already embedded")
        if u == v:
            raise EmbeddingError("self-loops are not supported")
        self._insert_half_edge(u, v, after_u)
        self._insert_half_edge(v, u, after_v)

    def delete_edge(self, u: Node, v: Node) -> None:
        """Remove edge ``uv`` from the embedding.

        Deleting an edge merges the two faces it borders and can never
        break planarity, so — unlike :meth:`insert_edge` — the operation
        needs no positional guidance.  Raises :class:`EmbeddingError` when
        the edge is not embedded.
        """
        if not self.has_edge(u, v):
            raise EmbeddingError(f"edge {u!r}-{v!r} is not embedded")
        self._order[u].remove(v)
        self._order[v].remove(u)
        self._index_row(u)
        self._index_row(v)

    def _insert_half_edge(self, v: Node, new: Node, after: Node | None) -> None:
        nbrs = self._order.setdefault(v, [])
        idx = 0 if after is None else self.position(v, after) + 1
        nbrs.insert(idx, new)
        self._index_row(v)

    def _index_row(self, v: Node) -> None:
        """Recompute the position map of ``t_v`` alone."""
        nbrs = self._order[v]
        pos = {u: i for i, u in enumerate(nbrs)}
        if len(pos) != len(nbrs):
            raise EmbeddingError(f"duplicate neighbor in rotation of {v!r}")
        self._pos[v] = pos

    # ------------------------------------------------------------------
    # validation / export
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural validity and planarity (Euler's formula).

        A whole-graph test and debug oracle: it enumerates every face and
        builds a graph, so no algorithm path calls it.  Insertions decide
        planarity locally with :meth:`corner_faces`.  Raises
        :class:`EmbeddingError` on the first violation found.
        """
        for v, nbrs in self._order.items():
            for u in nbrs:
                if u not in self._order or v not in self._pos[u]:
                    raise EmbeddingError(
                        f"half-edge {v!r}->{u!r} lacks its reverse"
                    )
                if u == v:
                    raise EmbeddingError(f"self-loop at {v!r}")
        graph = self.to_graph()
        if len(graph) == 0:
            return
        components = nx.number_connected_components(graph)
        n, m, f = len(graph), graph.number_of_edges(), self.num_faces()
        # Euler's formula for a sphere embedding with c components:
        # n - m + f = 1 + c
        if n - m + f != 1 + components:
            raise EmbeddingError(
                "rotation system is not planar: Euler check failed "
                f"(n={n}, m={m}, f={f}, components={components})"
            )

    def to_graph(self) -> nx.Graph:
        """Underlying undirected graph."""
        graph = nx.Graph()
        graph.add_nodes_from(self._order)
        graph.add_edges_from(self.edges())
        return graph

    def to_networkx_embedding(self) -> nx.PlanarEmbedding:
        """Export as a networkx :class:`~networkx.PlanarEmbedding`."""
        embedding = nx.PlanarEmbedding()
        for v, nbrs in self._order.items():
            embedding.add_node(v)
            previous = None
            for u in nbrs:
                if previous is None:
                    embedding.add_half_edge(v, u)
                else:
                    # networkx's ``cw=ref`` places the new edge so that ref
                    # follows it clockwise; preserving our clockwise list
                    # order therefore needs ``ccw=ref``.
                    embedding.add_half_edge(v, u, ccw=previous)
                previous = u
        return embedding

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RotationSystem(n={len(self)}, m={self.num_edges()})"
