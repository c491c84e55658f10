"""Cycle certification: is a separator path a *cycle* separator?

The paper's definition (Section 1): a cycle separator is a separator set
that forms a cycle in ``G``, or a path whose endpoints can be joined by an
edge without crossing the embedding.  The algorithm's balance guarantees
already rest on such a closing edge existing; this module makes the
certificate a first-class artifact a downstream user can inspect:

* ``"real-edge"`` — the endpoints are adjacent in ``G`` (the path + that
  edge is a cycle of ``G``);
* ``"virtual-edge"`` — the endpoints share a face of the rotation system,
  so the closing edge can be drawn inside that face without crossing:
  some corner of ``b`` lies on a face through a corner of ``a``
  (:meth:`~repro.planar.rotation.RotationSystem.shared_face_slots`, the
  question a churn insert asks to place its chord).  This is
  exactly "a planar slot pair exists"
  (:func:`repro.core.augment.planar_slot_pairs`), since the slot pairs
  enumerate every corner of both endpoints.  Nothing is copied or built;
* ``"none"`` — no certificate (the set still separates, but the cycle
  property could not be established).

The certificate reads only the graph and the rotation, so a caller
holding a live rotation (the churn engine) certifies without building a
configuration.  A rotation's faces do not depend on where its
rows start, so a configuration's normalized rotation gives the same
answer as the rotation it was built from.
"""

from __future__ import annotations

from typing import Hashable, Literal, Sequence

import networkx as nx

from ..planar.rotation import RotationSystem

Node = Hashable
Certificate = Literal["real-edge", "virtual-edge", "trivial", "none"]

__all__ = ["certify_cycle"]


def certify_cycle(
    graph: nx.Graph, rotation: RotationSystem, path: Sequence[Node]
) -> Certificate:
    """Certify the cycle property of a separator path.

    Parameters
    ----------
    graph:
        The (connected planar) graph the separator was computed on.
    rotation:
        A rotation system of ``graph``, any anchor.
    path:
        The separator nodes in T-path order (as emitted by
        :func:`repro.core.separator.cycle_separator`).
    """
    if len(path) <= 2:
        return "trivial"
    a, b = path[0], path[-1]
    if graph.has_edge(a, b):
        return "real-edge"
    if rotation.shared_face_slots(a, b) is not None:
        return "virtual-edge"
    return "none"
