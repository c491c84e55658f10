"""Cycle certification: is a separator path a *cycle* separator?

The paper's definition (Section 1): a cycle separator is a separator set
that forms a cycle in ``G``, or a path whose endpoints can be joined by an
edge without crossing the embedding.  The algorithm's balance guarantees
already rest on such a closing edge existing; this module makes the
certificate a first-class artifact a downstream user can inspect:

* ``"real-edge"`` — the endpoints are adjacent in ``G`` (the path + that
  edge is a cycle of ``G``);
* ``"virtual-edge"`` — a planar insertion of the closing edge exists: a
  slot pair whose two corners lie on one face of the rotation system
  (:func:`repro.core.augment.planar_slot_pairs`), so inserting the edge
  there splits that face and keeps the embedding planar.  Nothing is
  copied or built;
* ``"root-slit"`` — the path starts at the root and its closing curve runs
  through the virtual root's outer corner (the Lemma 8 / Phase 2 shape:
  cutting the disk from the outer anchor needs no crossing);
* ``"none"`` — no certificate (the set still separates, but the cycle
  property could not be established).
"""

from __future__ import annotations

from typing import Hashable, List, Literal, Sequence

from .augment import planar_slot_pairs
from .config import PlanarConfiguration

Node = Hashable
Certificate = Literal["real-edge", "virtual-edge", "root-slit", "trivial", "none"]

__all__ = ["certify_cycle"]


def certify_cycle(cfg: PlanarConfiguration, path: Sequence[Node]) -> Certificate:
    """Certify the cycle property of a separator path.

    Parameters
    ----------
    cfg:
        The configuration the separator was computed on.
    path:
        The separator nodes in T-path order (as emitted by
        :func:`repro.core.separator.cycle_separator`).
    """
    if len(path) <= 2:
        return "trivial"
    a, b = path[0], path[-1]
    if cfg.graph.has_edge(a, b):
        return "real-edge"
    for _slots in planar_slot_pairs(cfg, a, b):
        return "virtual-edge"
    if cfg.tree.root in (a, b):
        return "root-slit"
    return "none"
