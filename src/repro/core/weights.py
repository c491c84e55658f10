"""Deterministic face weights — the paper's Definition 2, made exact.

This module is the paper's central technical device: a *deterministic
formula* for the number of nodes a fundamental face encloses, computable by
the edge endpoints from DFS-order positions, subtree sizes, depths and the
locally-visible rotation (Lemma 12).  Three families of quantities live
here:

* :func:`weight` — Definition 2 for real fundamental faces.  Calibrated so
  that Lemmas 3 and 4 hold *exactly* (experiment E7):

  - ``u`` not an ancestor of ``v``:  the weight equals
    :math:`|\\tilde{F}_e| = |\\mathring{F}_e| + |path(w..v)|`;
  - ``u`` an ancestor of ``v``:  the weight equals
    :math:`|\\mathring{F}_e|`.

  :func:`endpoint_weights` evaluates the same formula straight from the
  endpoint frame (:func:`repro.core.faces.endpoint_frame`) and the
  configuration's prefix sums of child subtree sizes, so each weight costs
  O(1) beyond the first step ``z`` and builds no
  :class:`~repro.core.faces.FaceView`; :func:`fundamental_weights` does so
  for every real fundamental edge in one pass — the linear-total-time shape
  of Har-Peled–Nayyeri's fundamental-cycle weights — and
  :func:`face_size` turns a weight into the face's interior and border
  sizes.

* :func:`augmented_weight` — the weights of the *full augmentation from
  u* (Section 3.1.3): the virtual faces :math:`F^\\ell_{uz}` for nodes
  ``z`` inside :math:`F_e`, used by Phase 4 of the separator algorithm.

* :func:`side_sets` — the outside partition :math:`F^e_\\ell, F^e_r` of
  Lemma 8, used by Phase 5.

Normalization notes (recorded as paper errata in DESIGN.md): positions are
1-based preorders; :math:`n_T(v)` includes ``v``; consequently the interval
of :math:`T_u` is :math:`[\\pi(u), \\pi(u)+n_T(u)-1]` and the case-1 constant
is ``+2`` where the paper prints ``+1``.  The paper's clockwise convention is
mirrored relative to this library's rotation systems, which swaps the
inequality in Definition 1 (``E``-left vs ``E``-right); everything here is
self-consistent and verified against the region oracle.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Literal, Optional, Set, Tuple

from .config import PlanarConfiguration
from .faces import FaceView, endpoint_frame

Node = Hashable
Edge = Tuple[Node, Node]
Orientation = Literal["left", "right", "none"]

__all__ = [
    "orientation",
    "weight",
    "endpoint_weights",
    "fundamental_weights",
    "face_size",
    "face_order",
    "augmented_weight",
    "side_sets",
    "interior_by_orders",
]


def orientation(cfg: PlanarConfiguration, e: Edge) -> Orientation:
    """Definition 1 orientation of a fundamental edge ``e = uv``.

    Returns ``"none"`` when neither endpoint is an ancestor of the other;
    otherwise ``"left"``/``"right"``.  In this library's rotation convention
    the edge is left-oriented when ``t_u(v) > t_u(z)`` for the first path
    node ``z`` (mirrored from the paper's statement; see module docstring).
    """
    u, v = cfg.orient(e)
    if not cfg.tree.is_ancestor(u, v):
        return "none"
    z = cfg.tree.first_step(u, v)
    return "left" if cfg.t_position(u, v) > cfg.t_position(u, z) else "right"


def face_order(cfg: PlanarConfiguration, e: Edge) -> Dict[Node, int]:
    """The DFS order a face's weights sweep by: :math:`\\pi_r` for
    right-oriented edges, :math:`\\pi_\\ell` otherwise (paper Sub-phase 4.1)."""
    return cfg.pi_right if orientation(cfg, e) == "right" else cfg.pi_left


def _view_order(cfg: PlanarConfiguration, fv: FaceView) -> Dict[Node, int]:
    """:func:`face_order` read off a view: the inside is side A exactly for
    a right-oriented edge (see :mod:`repro.core.faces`)."""
    return cfg.pi_right if fv.inside_is_A else cfg.pi_left


def _definition2(
    cfg: PlanarConfiguration,
    u: Node,
    v: Node,
    z: Optional[Node],
    inside_is_A: bool,
    p_u: int,
    p_v: int,
) -> int:
    """Definition 2's formula, from what the endpoints hold: their order
    positions, depths, subtree sizes and :math:`p`-values."""
    tree = cfg.tree
    if z is None:
        return (
            p_v
            + p_u
            + cfg.pi_left[v]
            - (cfg.pi_left[u] + tree.subtree_size[u])
            + 2
        )
    pi = cfg.pi_right if inside_is_A else cfg.pi_left
    return p_v + p_u + (pi[v] - pi[z]) - (tree.depth[v] - tree.depth[z])


def weight(cfg: PlanarConfiguration, fv: FaceView) -> int:
    """Definition 2: the weight :math:`\\omega(F_e)` of a real fundamental
    face, computed from order positions, depths, subtree sizes and the
    locally-derived :math:`p`-values — never from the interior itself.
    Everything is read at the two endpoints (Lemma 12)."""
    u, v = fv.u, fv.v
    return _definition2(cfg, u, v, fv.z, fv.inside_is_A, fv.p_value(u), fv.p_value(v))


def endpoint_weights(cfg: PlanarConfiguration, edges: Iterable[Edge]) -> Dict[Edge, int]:
    """Definition 2 for each fundamental edge ``(u, v)`` of ``edges``,
    oriented so :math:`\\pi_\\ell(u) < \\pi_\\ell(v)`, read at its endpoints
    only: equal to :func:`weight` of its view without building the view.

    Each edge reads its :func:`~repro.core.faces.endpoint_frame` and two
    O(1) range sums over the endpoints' prefix sums of child subtree
    sizes (``cfg._child_prefix``, as
    :meth:`~repro.core.config.PlanarConfiguration.child_size_between`
    reads them), plus order positions, depths and subtree sizes, so
    ``cfg`` may be anything that holds those at the endpoints — such as
    the rows a virtual-edge insertion would build
    (:mod:`repro.core.augment`).
    """
    prefix = cfg._child_prefix
    out: Dict[Edge, int] = {}
    for u, v in edges:
        z, inside_is_A, (s_u, e_u), (s_v, e_v) = endpoint_frame(cfg, u, v)
        pre_u, pre_v = prefix[u], prefix[v]
        p_u = pre_u[e_u] - pre_u[s_u + 1] + (0 if s_u < e_u else pre_u[-1])
        p_v = pre_v[e_v] - pre_v[s_v + 1] + (0 if s_v < e_v else pre_v[-1])
        out[u, v] = _definition2(cfg, u, v, z, inside_is_A, p_u, p_v)
    return out


def fundamental_weights(cfg: PlanarConfiguration) -> Dict[Edge, int]:
    """Definition 2 for every real fundamental edge, keyed like
    :meth:`~repro.core.config.PlanarConfiguration.real_fundamental_edges`,
    in one pass that builds no view (:func:`endpoint_weights`)."""
    return endpoint_weights(cfg, cfg.real_fundamental_edges())


def face_size(cfg: PlanarConfiguration, e: Edge, w: int) -> Tuple[int, int]:
    """``(inner, path_len)`` of the real fundamental face of ``e = (u, v)``,
    oriented so :math:`\\pi_\\ell(u) < \\pi_\\ell(v)`, from its weight
    ``w``: :math:`|\\mathring{F}_e|` and :math:`|P_e|`, so that
    :math:`|V(F_e)|` is their sum.

    Definition 2's weight is the interior when ``u`` is an ancestor of
    ``v`` (so the LCA) and the interior plus the path from the LCA down to
    ``v`` otherwise (Lemmas 3/4), so both numbers follow from the weight,
    the depths and the LCA, all known at the endpoints.
    """
    tree = cfg.tree
    d_T = tree.depth
    u, v = e
    lca = tree.lca(u, v)
    lca_depth = d_T[lca]
    path_len = d_T[u] + d_T[v] - 2 * lca_depth + 1
    inner = w if lca == u else w - (d_T[v] - lca_depth + 1)
    return inner, path_len


def augmented_weight(
    cfg: PlanarConfiguration,
    fv: FaceView,
    z: Node,
    p_u: int | None = None,
) -> int:
    """Weight :math:`\\omega(F^\\ell_{uz})` of the full augmentation from
    ``u`` to a node ``z`` inside :math:`F_e` (Section 3.1.3 / Phase 4).

    The virtual edge ``uz`` is never physically inserted by the algorithm —
    only this weight is needed.  For a :math:`(T, F_e)`-compatible ``z`` the
    value equals the exact node count of the insertable face (calibrated
    against physical insertion + the region oracle); for hidden ``z`` it is
    the paper's notational extension, used only as a search value.
    """
    u = fv.u
    tree = cfg.tree
    if p_u is None:
        p_u = fv.p_value(u)
    size_z = tree.subtree_size[z]
    if tree.is_strict_ancestor(u, z):
        z1 = tree.first_step(u, z)
        pi = _view_order(cfg, fv)
        return (size_z - 1) + (pi[z] - pi[z1]) - (tree.depth[z] - tree.depth[z1])
    return (
        p_u
        + (size_z - 1)
        + cfg.pi_left[z]
        - (cfg.pi_left[u] + tree.subtree_size[u])
        + 2
    )


def side_sets(
    cfg: PlanarConfiguration,
    fv: FaceView,
) -> Tuple[Set[Node], Set[Node]]:
    """The outside split :math:`(F^e_\\ell, F^e_r)` of Lemma 8 (Phase 5).

    :math:`F^e_\\ell` holds the outside nodes with left position below
    :math:`\\pi_\\ell(u)` plus the outside part of :math:`T_u`;
    :math:`F^e_r` the outside nodes with left position above
    :math:`\\pi_\\ell(v)`.  The paper computes the two sizes locally at the
    endpoints; this implementation materializes the sets (same values,
    recorded as a deviation in DESIGN.md) so that E7 can check they
    partition the outside; Phase 5 reads only their sizes.
    """
    u, v = fv.u, fv.v
    face_nodes = fv.face_nodes()
    pi = cfg.pi_left
    left: Set[Node] = set()
    right: Set[Node] = set()
    u_lo, u_hi = cfg.left_range(u)
    for x in cfg.graph:
        if x in face_nodes:
            continue
        if pi[x] < pi[u] or u_lo <= pi[x] <= u_hi:
            left.add(x)
        elif pi[x] > pi[v]:
            right.add(x)
        else:
            # Outside nodes between the endpoints in left order: hanging off
            # the border on the outside.  Lemma 8 folds them into the left
            # set (they are separated from F_r by the border path as well).
            left.add(x)
    return left, right


def interior_by_orders(cfg: PlanarConfiguration, fv: FaceView) -> Set[Node]:
    """Remark 1 membership: :math:`\\mathring{F}_e` as the set of nodes
    :meth:`~repro.core.faces.FaceView.encloses` admits — order intervals
    plus the endpoints' inside arcs, never the subtree union.

    This is what DETECT-FACE-PROBLEM (Lemma 15) computes distributively, and
    the same test edge containment and Claim 6's hiding edges ask per node.
    Experiment E7 checks it against the first-principles interior.
    """
    return {y for y in cfg.graph if fv.encloses(y)}
