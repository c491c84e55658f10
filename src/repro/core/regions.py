"""Jordan-curve regions of an embedded cycle (dual-graph flood fill).

Given a simple cycle of an embedded planar graph, its dual edges form a
minimal cut of the dual graph: deleting them leaves exactly two face
components — the two sides of the Jordan curve.  This module computes the
two sides purely combinatorially (no geometry), which makes it the primary
ground-truth oracle for "which nodes are inside a fundamental face"
(DESIGN.md §1).  The paper's algorithmic predicates (Remark 1, Claims 1/4,
Definition 2) are property-tested against it.

The *outside* is designated by a half-edge known to border the outer region
— in a configuration, the corner at the root where the virtual root
:math:`r_0` of Section 4 sits.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Sequence, Set, Tuple

from ..planar.rotation import RotationSystem

Node = Hashable
HalfEdge = Tuple[Node, Node]

__all__ = ["CycleRegions", "cycle_regions", "RegionError"]


class RegionError(ValueError):
    """Raised when the claimed cycle does not split the embedding in two."""


class CycleRegions:
    """The two sides of an embedded simple cycle.

    Attributes
    ----------
    inside_nodes:
        Nodes strictly inside (not on the cycle).
    outside_nodes:
        Nodes strictly outside (not on the cycle).
    cycle_nodes:
        The cycle itself.
    """

    __slots__ = ("inside_nodes", "outside_nodes", "cycle_nodes")

    def __init__(
        self,
        inside_nodes: Set[Node],
        outside_nodes: Set[Node],
        cycle_nodes: Set[Node],
    ):
        self.inside_nodes = inside_nodes
        self.outside_nodes = outside_nodes
        self.cycle_nodes = cycle_nodes


def cycle_regions(
    rotation: RotationSystem,
    cycle: Sequence[Node],
    outside_halfedge: HalfEdge,
) -> CycleRegions:
    """Split the embedding along ``cycle``.

    Parameters
    ----------
    rotation:
        The embedding; must contain every cycle edge (insert virtual edges
        first via :meth:`RotationSystem.insert_edge`).
    cycle:
        The cycle as an ordered node sequence (closing edge implied).
    outside_halfedge:
        A half-edge whose face is declared *outside*.

    Raises
    ------
    RegionError
        If the cycle is not simple, or does not split the faces in exactly
        two components (i.e. it is not a cycle of this embedding).
    """
    cycle_nodes = set(cycle)
    if len(cycle_nodes) != len(cycle) or len(cycle) < 3:
        raise RegionError("cycle must be a simple cycle on >= 3 nodes")
    cycle_edges: Set[FrozenSet[Node]] = set()
    for a, b in zip(cycle, list(cycle[1:]) + [cycle[0]]):
        if not rotation.has_edge(a, b):
            raise RegionError(f"cycle edge {a!r}-{b!r} is not embedded")
        cycle_edges.add(frozenset((a, b)))

    # Enumerate faces and index half-edges.
    faces = list(rotation.faces())
    face_of: Dict[HalfEdge, int] = {}
    for idx, walk in enumerate(faces):
        for a, b in zip(walk, walk[1:] + walk[:1]):
            face_of[(a, b)] = idx

    if outside_halfedge not in face_of:
        raise RegionError(f"outside half-edge {outside_halfedge!r} is not embedded")

    # Face adjacency across non-cycle edges only.
    adjacency: Dict[int, Set[int]] = {i: set() for i in range(len(faces))}
    for (a, b), fab in face_of.items():
        if frozenset((a, b)) in cycle_edges:
            continue
        fba = face_of[(b, a)]
        adjacency[fab].add(fba)
        adjacency[fba].add(fab)

    outside_faces: Set[int] = set()
    stack = [face_of[outside_halfedge]]
    while stack:
        f = stack.pop()
        if f in outside_faces:
            continue
        outside_faces.add(f)
        stack.extend(adjacency[f])

    inside_faces = set(range(len(faces))) - outside_faces
    if not inside_faces:
        raise RegionError("cycle does not enclose any face; not a Jordan curve here")
    # Jordan check: the inside must also be connected.
    seed = next(iter(inside_faces))
    seen = {seed}
    stack = [seed]
    while stack:
        f = stack.pop()
        for g in adjacency[f]:
            if g not in seen:
                seen.add(g)
                stack.append(g)
    if seen != inside_faces:
        raise RegionError("cycle does not split the embedding into two regions")

    inside_nodes: Set[Node] = set()
    for f in inside_faces:
        inside_nodes.update(faces[f])
    inside_nodes -= cycle_nodes
    outside_nodes = set(rotation.nodes) - inside_nodes - cycle_nodes
    return CycleRegions(inside_nodes, outside_nodes, cycle_nodes)
