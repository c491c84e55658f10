"""Hidden nodes and hiding edges — the paper's Definition 4 / Lemma 6.

A node ``z`` inside a fundamental face :math:`F_e` (``e = uv``) is *hidden*
when some real fundamental edge ``f`` contained in :math:`F_e` walls it off
from ``u``: either ``f`` avoids ``u`` entirely (condition 1), or ``f`` is
incident to ``u`` but drops part of :math:`T_u \\cap F_e` (condition 2).
Lemma 6 shows a leaf is :math:`(T, F_e)`-compatible with ``u`` exactly when
it is not hidden, which is how Phase 4 decides whether the virtual edge to
its chosen leaf can actually be drawn.

Every membership question here — is ``z`` inside :math:`F_f`, is a node of
:math:`T_u \\cap F_e` inside it — is one endpoint-local test
(:meth:`~repro.core.faces.FaceView.encloses`), so scanning the faces inside
:math:`F_e` builds none of their interiors.
"""

from __future__ import annotations

from typing import Hashable, List, Set, Tuple

from .config import PlanarConfiguration
from .faces import FaceView, face_view

Node = Hashable
Edge = Tuple[Node, Node]

__all__ = ["hiding_edges", "is_hidden"]


def _t_u_face_nodes(cfg: PlanarConfiguration, fv: FaceView) -> Set[Node]:
    """:math:`V(T_u) \\cap V(F_e)` — ``u`` plus its inside child subtrees."""
    tree = cfg.tree
    out: Set[Node] = {fv.u}
    for c in fv.children_inside(fv.u):
        out.update(tree.subtree_nodes(c))
    return out


def hiding_edges(
    cfg: PlanarConfiguration,
    fv: FaceView,
    z: Node,
) -> List[Tuple[Edge, FaceView]]:
    """All real fundamental edges hiding ``z`` in :math:`F_e`.

    Returns pairs ``(f, face_view_of_f)``; empty means ``z`` is
    :math:`(T, F_e)`-compatible with ``u`` (for a leaf ``z``, by Lemma 6).
    """
    if not fv.encloses(z):
        raise ValueError(f"{z!r} is not inside the face")
    u = fv.u
    t_u_nodes = _t_u_face_nodes(cfg, fv)
    out: List[Tuple[Edge, FaceView]] = []
    for f in cfg.real_fundamental_edges():
        if not fv.contains_edge(f):
            continue
        f_view = face_view(cfg, f)
        if not f_view.encloses(z):
            continue
        if u in f:
            f_border = set(f_view.border)
            if all(x in f_border or f_view.encloses(x) for x in t_u_nodes):
                continue
        out.append((f, f_view))
    return out


def is_hidden(
    cfg: PlanarConfiguration,
    fv: FaceView,
    z: Node,
) -> bool:
    """Whether ``z`` is hidden in :math:`F_e` (Definition 4)."""
    return bool(hiding_edges(cfg, fv, z))
