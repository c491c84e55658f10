"""Virtual fundamental edges (face augmentations): planar slots, exact
sizes, and physical insertion.

The distributed algorithm searches with the paper's deterministic weight
*formulas* (:func:`repro.core.weights.augmented_weight`), but certifies its
output against the real face: a separator path between ``a`` and ``b`` is
emitted only when the virtual edge ``ab`` has an actual planar insertion —
an :math:`\\mathcal{E}`-compatible edge in the paper's terms — whose face
splits the part into two light sides (Lemma 5's Jordan argument).

This module enumerates all rotation slots for such an insertion, preferring
the slots Section 3.1.3's augmentation recipe names (adjacent to the parent
edge at the inner endpoint; adjacent to the fundamental edge at the face
endpoint; adjacent to the virtual-root gap at the root).  A slot pair is
planar exactly when its two corners lie on one face of the current
embedding: the new edge then splits that face, while corners on two faces
would merge them and break Euler's formula.  One face index of ``a``
(:meth:`~repro.planar.rotation.RotationSystem.corner_faces`) decides this
for every slot pair (:func:`planar_slot_pairs`).

An insertion changes the configuration only in the rotation rows of ``a``
and ``b``, which each gain one non-child neighbor, and — when the root's
rotation is re-anchored at the new edge — in where the root's row starts,
which moves whole root subtrees in the DFS orders.  The tree, depths and
subtree sizes stay.  Definition 2 is read at the endpoints (Lemma 12) and
exact (Lemmas 3/4), so the new face's interior size follows from those two
rows without building anything (:func:`chord_interiors` at one slot pair,
:func:`insertion_interiors` at all of them); :func:`balanced_insertion`
certifies balance that way, and so does the separator's rescue scan over
the chords of a face triangulation.
:func:`insertion_variants` still builds each extended configuration, for
callers that need its faces.

A calibration finding recorded in DESIGN.md: for *virtual* faces the paper's
sweep formulas are predictions, not exact counts — which subtrees hang on
the face side at intermediate path nodes is fixed by the embedding, not by
the insertion.  The acceptance below therefore reads the real face's
Definition-2 weight in the extended configuration, never the augmented
formula.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Optional, Tuple

from .config import PlanarConfiguration
from .faces import FaceView, face_view
from .weights import endpoint_weights, face_size

Node = Hashable
Edge = Tuple[Node, Node]

__all__ = [
    "planar_slot_pairs",
    "insertion_variants",
    "chord_interiors",
    "insertion_interiors",
    "sides_light",
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


def planar_slot_pairs(
    cfg: PlanarConfiguration,
    a: Node,
    b: Node,
    prefer_a: Optional[Node] = None,
    prefer_b: Optional[Node] = None,
) -> Iterator[Tuple[Optional[Node], Optional[Node]]]:
    """Every ``(ref_a, ref_b)`` slot pair whose insertion of the virtual
    edge ``ab`` keeps the embedding planar, preferred slots first.

    ``ref_x`` is the neighbor of ``x`` the new edge follows clockwise
    (``None``: before ``t_x[0]``).  One face index of ``a``'s corners
    decides every pair; an empty iteration means ``a`` and ``b`` are not
    :math:`\\mathcal{E}`-compatible (no common face).
    """
    if a == b or cfg.graph.has_edge(a, b):
        raise AugmentationError(f"{a!r}-{b!r} is not a virtual edge")
    rotation = cfg.rotation
    faces = rotation.corner_faces(a)
    refs_b = [
        (ref, faces.get(rotation.corner(b, ref)))
        for ref in _candidate_refs(cfg, b, prefer_b)
    ]
    for ref_a in _candidate_refs(cfg, a, prefer_a):
        face = faces[rotation.corner(a, ref_a)]
        for ref_b, face_b in refs_b:
            if face_b == face:
                yield ref_a, ref_b


def _anchors(cfg: PlanarConfiguration, a: Node, b: Node) -> Tuple[bool, ...]:
    """Per planar slot pair, whether each extended configuration re-anchors
    the root's rotation at the new edge.

    When the insertion touches the root, the virtual-root gap splits; both
    sub-corner (anchor) designations are produced so the caller can pick
    the side its checks accept: the root's first neighbor, then the new
    edge's other endpoint.
    """
    return (False, True) if cfg.tree.root in (a, b) else (False,)


def insertion_variants(
    cfg: PlanarConfiguration,
    a: Node,
    b: Node,
    prefer_a: Optional[Node] = None,
    prefer_b: Optional[Node] = None,
) -> Iterator[Tuple[PlanarConfiguration, FaceView]]:
    """All planar insertions of the virtual edge ``ab``, built, lazily.

    Yields ``(extended configuration, view of the new fundamental face)``
    per planar slot pair and root anchor (:func:`_anchors`).  An empty
    iteration means ``a`` and ``b`` are not
    :math:`\\mathcal{E}`-compatible (no common face).
    """
    root = cfg.tree.root
    anchors = _anchors(cfg, a, b)
    for ref_a, ref_b in planar_slot_pairs(cfg, a, b, prefer_a, prefer_b):
        rotation = cfg.rotation.copy()
        rotation.insert_edge(a, b, after_u=ref_a, after_v=ref_b)
        graph = cfg.graph.copy()
        graph.add_edge(a, b)
        for reanchor in anchors:
            anchor = (b if root == a else a) if reanchor else cfg.t(root)[0]
            cfg2 = PlanarConfiguration(graph, rotation, cfg.tree, root_anchor=anchor)
            yield cfg2, face_view(cfg2, (a, b))


class _Insertion:
    """The configuration inserting ``ab`` at ``(ref_a, ref_b)`` would build,
    as far as :func:`~repro.core.weights.endpoint_weights` reads it at ``a``
    and ``b``: their rows' position maps and prefix sums of child subtree
    sizes, order positions, depths and subtree sizes.

    Each endpoint's row gains the other endpoint right after ``ref``
    (``None``: last, as normalization keeps the parent or the root's first
    neighbor at position 0).  With ``reanchor`` the root's row starts at the
    new edge instead.  That moves whole root subtrees in both DFS orders,
    but Definition 2 then reads order differences inside the subtree of
    the root's child towards the other endpoint only, so the orders are
    ``cfg``'s.
    """

    __slots__ = ("tree", "pi_left", "pi_right", "_pos", "_child_prefix")

    def __init__(
        self,
        cfg: PlanarConfiguration,
        a: Node,
        b: Node,
        ref_a: Optional[Node],
        ref_b: Optional[Node],
        reanchor: bool,
    ):
        tree = self.tree = cfg.tree
        parent, sizes = tree.parent, tree.subtree_size
        self.pi_left, self.pi_right = cfg.pi_left, cfg.pi_right
        self._pos: Dict[Node, Dict[Node, int]] = {}
        self._child_prefix: Dict[Node, List[int]] = {}
        for x, y, ref in ((a, b, ref_a), (b, a, ref_b)):
            t = cfg.t(x)
            k = len(t) if ref is None else cfg.t_position(x, ref) + 1
            if reanchor and x == tree.root:
                row = (y,) + t[k:] + t[:k]
            else:
                row = t[:k] + (y,) + t[k:]
            prefix = [0]
            total = 0
            for c in row:
                if parent[c] == x:
                    total += sizes[c]
                prefix.append(total)
            self._pos[x] = {c: i for i, c in enumerate(row)}
            self._child_prefix[x] = prefix

    def interior_size(self, a: Node, b: Node) -> int:
        """:math:`|\\mathring{F}_{ab}|` of the new face, from its exact
        Definition-2 weight (Lemmas 3/4)."""
        e = (a, b) if self.pi_left[a] < self.pi_left[b] else (b, a)
        inner, _ = face_size(self, e, endpoint_weights(self, [e])[e])
        return inner


def chord_interiors(
    cfg: PlanarConfiguration,
    a: Node,
    b: Node,
    ref_a: Optional[Node],
    ref_b: Optional[Node],
) -> Iterator[int]:
    """The new face's interior size for the insertion of ``ab`` at the
    planar slot pair ``(ref_a, ref_b)``, per root anchor (:func:`_anchors`),
    building nothing: each is read in O(deg a + deg b) from ``cfg``."""
    for reanchor in _anchors(cfg, a, b):
        yield _Insertion(cfg, a, b, ref_a, ref_b, reanchor).interior_size(a, b)


def insertion_interiors(
    cfg: PlanarConfiguration,
    a: Node,
    b: Node,
    prefer_a: Optional[Node] = None,
    prefer_b: Optional[Node] = None,
) -> Iterator[int]:
    """The new face's interior size for every insertion
    :func:`insertion_variants` would build, in its order
    (:func:`chord_interiors` per planar slot pair)."""
    for ref_a, ref_b in planar_slot_pairs(cfg, a, b, prefer_a, prefer_b):
        yield from chord_interiors(cfg, a, b, ref_a, ref_b)


def sides_light(n: int, inside: int, path_len: int) -> bool:
    """Whether a closed curve through ``path_len`` of ``n`` nodes with
    ``inside`` nodes strictly inside leaves at most ``2n/3`` on each side
    (Phase 3b's two-sided bound, Lemma 5's Jordan argument)."""
    return 3 * inside <= 2 * n and 3 * (n - inside - path_len) <= 2 * n


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
    is everything else minus the border path.  The certificate is a planar
    slot pair plus the real face's exact Definition-2 weight in the
    extended configuration (:func:`insertion_interiors`); nothing is
    copied or built.  Returns the witnessing interior size, or ``None``
    when no insertion certifies balance.
    """
    path_len = cfg.tree.path_length(a, b) + 1
    for inside in insertion_interiors(cfg, a, b, prefer_a, prefer_b):
        if sides_light(n, inside, path_len):
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
