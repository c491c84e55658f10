"""Physically inserting virtual fundamental edges (face augmentations).

The distributed algorithm searches with the paper's deterministic weight
*formulas* (:func:`repro.core.weights.augmented_weight`), but certifies its
output constructively: a separator path between ``a`` and ``b`` is emitted
only when the virtual edge ``ab`` has an actual planar insertion — an
:math:`\\mathcal{E}`-compatible edge in the paper's terms — whose face
splits the part into two light sides (Lemma 5's Jordan argument).

This module enumerates all rotation slots for such an insertion, preferring
the slots Section 3.1.3's augmentation recipe names (adjacent to the parent
edge at the inner endpoint; adjacent to the fundamental edge at the face
endpoint; adjacent to the virtual-root gap at the root).  A slot pair is
planar exactly when its two corners lie on one face of the current
embedding: the new edge then splits that face, while corners on two faces
would merge them and break Euler's formula.  One walk of the face at the
first corner (:meth:`~repro.planar.rotation.RotationSystem.corners_share_face`)
decides this in O(face length), so only planar slot pairs are copied,
inserted and handed to the face-interior computation.

A calibration finding recorded in DESIGN.md: for *virtual* faces the paper's
sweep formulas are predictions, not exact counts — which subtrees hang on
the face side at intermediate path nodes is fixed by the embedding, not by
the insertion.  The constructive acceptance below is therefore deliberately
semantic (is the real face balanced / heavy?), never formula-equality.
"""

from __future__ import annotations

from typing import Hashable, Iterator, List, Optional, Tuple

from .config import ConfigurationError, PlanarConfiguration
from .faces import FaceView, face_view

Node = Hashable
Edge = Tuple[Node, Node]

__all__ = [
    "insertion_variants",
    "balanced_insertion",
    "heavy_nested_insertion",
    "AugmentationError",
]


class AugmentationError(ValueError):
    """No valid planar insertion exists for the requested virtual edge."""


def _candidate_refs(cfg: PlanarConfiguration, x: Node, anchor_edge: Optional[Node]) -> List[Optional[Node]]:
    """Insertion references at node ``x``, preferred slots first.

    ``anchor_edge`` names the neighbor whose two adjacent slots the paper's
    augmentation recipe prefers; ``None`` prefers the rotation start/end (the
    parent slot / the root gap).  All remaining slots follow — compatibility
    is decided by the caller's semantic checks, and the compatible route may
    pass through any face incident to ``x``.
    """
    t = cfg.t(x)
    if not t:
        return [None]
    if anchor_edge is None:
        preferred: List[Optional[Node]] = [None, t[-1]]
    else:
        pos = cfg.t_position(x, anchor_edge)
        preferred = [anchor_edge, t[pos - 1] if pos > 0 else None]
    rest: List[Optional[Node]] = [y for y in t if y not in preferred]
    if None not in preferred:
        rest.append(None)
    return preferred + rest


def _build_variants(
    cfg: PlanarConfiguration,
    a: Node,
    b: Node,
    ref_a: Optional[Node],
    ref_b: Optional[Node],
) -> List[PlanarConfiguration]:
    """One slot pair -> every viable extended configuration.

    When the insertion touches the root's rotation start, the virtual-root
    gap splits; both sub-corner (anchor) designations are produced so the
    caller can pick the side its checks accept.
    """
    if not cfg.rotation.corners_share_face(a, ref_a, b, ref_b):
        return []
    rotation = cfg.rotation.copy()
    rotation.insert_edge(a, b, after_u=ref_a, after_v=ref_b)
    graph = cfg.graph.copy()
    graph.add_edge(a, b)
    root = cfg.tree.root
    anchors = [cfg.t(root)[0]]
    if root in (a, b):
        anchors.append(b if root == a else a)
    out: List[PlanarConfiguration] = []
    for anchor in anchors:
        try:
            out.append(PlanarConfiguration(graph, rotation, cfg.tree, root_anchor=anchor))
        except ConfigurationError:  # anchor not a neighbor of the root
            continue
    return out


def insertion_variants(
    cfg: PlanarConfiguration,
    a: Node,
    b: Node,
    prefer_a: Optional[Node] = None,
    prefer_b: Optional[Node] = None,
) -> Iterator[Tuple[PlanarConfiguration, FaceView]]:
    """All planar insertions of the virtual edge ``ab``, lazily.

    Yields ``(extended configuration, view of the new fundamental face)``.
    An empty iteration means ``a`` and ``b`` are not
    :math:`\\mathcal{E}`-compatible (no common face).
    """
    if a == b or cfg.graph.has_edge(a, b):
        raise AugmentationError(f"{a!r}-{b!r} is not a virtual edge")
    for ref_a in _candidate_refs(cfg, a, prefer_a):
        for ref_b in _candidate_refs(cfg, b, prefer_b):
            for cfg2 in _build_variants(cfg, a, b, ref_a, ref_b):
                yield cfg2, face_view(cfg2, (a, b))


def balanced_insertion(
    cfg: PlanarConfiguration,
    a: Node,
    b: Node,
    n: int,
    prefer_a: Optional[Node] = None,
    prefer_b: Optional[Node] = None,
) -> Optional[int]:
    """Certify that the T-path ``a..b`` is a cycle separator.

    Looks for a planar insertion of ``ab`` whose face has both Jordan sides
    of size at most ``2n/3``: the inside is the face interior, the outside
    is everything else minus the border path.  Returns the witnessing
    interior size, or ``None`` when no insertion certifies balance.
    """
    path_len = cfg.tree.path_length(a, b) + 1
    for _, view in insertion_variants(cfg, a, b, prefer_a, prefer_b):
        inside = len(view.interior())
        outside = n - inside - path_len
        if 3 * inside <= 2 * n and 3 * outside <= 2 * n:
            return inside
    return None


def heavy_nested_insertion(
    cfg: PlanarConfiguration,
    fv: FaceView,
    z: Node,
    n: int,
) -> Optional[Tuple[PlanarConfiguration, FaceView]]:
    """Insert ``u z`` so the new face is heavy but strictly inside
    :math:`F_e` — the containment-descent step of Lemma 7's proof.

    Returns the extended configuration (where ``uz`` is now a *real*
    fundamental edge with interior > 2n/3, strictly fewer interior nodes
    than :math:`F_e`) or ``None``.
    """
    interior = fv.interior()
    face_nodes = interior | set(fv.border)
    for cfg2, view in insertion_variants(cfg, fv.u, z, prefer_a=fv.v, prefer_b=None):
        new_interior = view.interior()
        if not new_interior <= face_nodes:
            continue
        if len(new_interior) >= len(interior):
            continue
        if 3 * len(new_interior) <= 2 * n:
            continue
        return cfg2, view
    return None
