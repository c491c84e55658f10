"""Validation helpers for planar inputs.

The CONGEST algorithms in this library are only correct on connected planar
graphs (Theorem 1/2 hypotheses).  These helpers give the public API typed,
early failures instead of silent nonsense deep inside a phase.
"""

from __future__ import annotations

import networkx as nx

__all__ = [
    "NotPlanarError",
    "NotConnectedError",
    "require_planar",
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
    is_planar, _ = nx.check_planarity(graph, counterexample=False)
    if not is_planar:
        raise NotPlanarError.of(graph)


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
