"""Validation helpers for planar inputs.

The CONGEST algorithms in this library are only correct on connected planar
graphs (Theorem 1/2 hypotheses).  These helpers give the public API typed,
early failures instead of silent nonsense deep inside a phase.  Planarity is
decided by the in-repo left-right planarity port
(:func:`repro.planar.construct.lr_rotation`); a rotation the caller already
holds is certified in O(n + m) by :func:`require_planar_rotation`, with no
planarity test at all.
"""

from __future__ import annotations

import networkx as nx

from .rotation import RotationSystem

__all__ = [
    "NotPlanarError",
    "NotConnectedError",
    "require_planar",
    "require_planar_rotation",
    "require_connected",
    "require_planar_connected",
]


class NotPlanarError(ValueError):
    """The input graph is not planar."""

    @classmethod
    def of(cls, graph: nx.Graph) -> "NotPlanarError":
        """The error reported for the non-planar ``graph``."""
        return cls(
            f"graph with {len(graph)} nodes / {graph.number_of_edges()} edges "
            "is not planar"
        )


class NotConnectedError(ValueError):
    """The input graph (or an induced part) is not connected."""


def require_planar(graph: nx.Graph) -> None:
    """Raise :class:`NotPlanarError` unless ``graph`` is planar.

    Callers that also need the embedding use
    :func:`repro.planar.construct.embed`, which runs the same test once
    and raises the same error.
    """
    from .construct import lr_rotation  # construct imports this module

    if lr_rotation(graph) is None:
        raise NotPlanarError.of(graph)


def require_planar_rotation(graph: nx.Graph, rotation: RotationSystem) -> None:
    """Raise :class:`NotPlanarError` unless ``rotation`` is a planar
    embedding of the connected ``graph``, in O(n + m).

    The certificate for a rotation the caller already holds, instead of
    a planarity test: the rotation's node set and every row must match
    ``graph``'s adjacency (so each edge appears in both directions), with
    no self-loops, and its faces must satisfy Euler's formula
    ``n - m + f = 2``.  ``graph`` must already be known to be connected.
    """
    if len(rotation) != len(graph):
        raise NotPlanarError("rotation and graph have different node sets")
    for v, nbrs in graph.adjacency():
        if v not in rotation or v in nbrs or set(rotation.neighbors_cw(v)) != nbrs.keys():
            raise NotPlanarError(f"rotation of {v!r} does not match the graph")
    # Counted from the rows (loop-free by now): ``number_of_edges`` caches
    # a degree view that makes the caller's graph cyclic garbage.
    n, m = len(graph), sum(map(len, graph._adj.values())) // 2
    f = max(rotation.num_faces(), 1)  # a lone node bounds one face
    if n - m + f != 2:
        raise NotPlanarError(
            "rotation is not planar: Euler check failed "
            f"(n={n}, m={m}, f={f})"
        )


def require_connected(graph: nx.Graph, what: str = "graph") -> None:
    """Raise :class:`NotConnectedError` unless ``graph`` is connected."""
    if len(graph) == 0:
        raise NotConnectedError(f"{what} is empty")
    if not nx.is_connected(graph):
        raise NotConnectedError(f"{what} is not connected")


def require_planar_connected(graph: nx.Graph) -> None:
    """Validate the standing hypotheses of Theorems 1 and 2."""
    require_connected(graph)
    require_planar(graph)
