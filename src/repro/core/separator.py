"""Deterministic cycle-separator computation — the paper's Theorem 1.

:func:`cycle_separator` runs the Section 5.3 phase machine on one planar
configuration; :func:`compute_cycle_separators` is the multi-part version of
Theorem 1 (one separator per part of a partition, computed "in parallel" —
the CONGEST rounds are charged by the ledger, the results are exactly the
per-part separators).

Phase map (Section 5.3):

* *Phase 1* (precomputation) happens inside :class:`PlanarConfiguration`
  (embedding, spanning tree, DFS orders, subtree sizes) — the ledger charges
  its :math:`\\tilde{O}(D)` cost.
* *Phase 2*: the part is a tree → root-to-``v0`` path (RANGE over subtree
  sizes; centroid fallback per DESIGN.md's erratum).
* *Phase 3*: some real fundamental face has weight in ``[n/3, 2n/3]`` →
  its border path.
* *Phase 4*: some face has weight ``> 2n/3`` → full augmentation from ``u``
  inside a containment-minimal such face; sub-phase 4.1 (window hit,
  compatible → path to the hit; hidden → Claim 6's hiding-edge fallback),
  sub-phase 4.2 (all augmented weights ``< n/3`` → the face's own border).
* *Phase 5*: all weights ``< n/3`` → a containment-maximal face; either its
  border path separates, or one outside set exceeds ``2n/3`` and the paper
  inserts the root edge of Lemma 8 (its ``G' = G + r_T u'`` construction),
  a chord of a face, which the rescue covers.
* *Rescue* (DESIGN.md errata): where the paper's emission is unbalanced and
  where Lemma 8 needs a root edge, a scan over the chords of a virtual
  triangulation of the faces emits the first balanced fundamental cycle
  (``"rescue"``).  A chord's cycle separates ``G`` as well as ``G`` plus
  the chord.

The implementation keeps the paper's structure but replaces "it can be
shown that the insertion exists" steps with *constructive* insertions
validated against the region oracle (:mod:`repro.core.augment`), so every
emitted separator is backed by an explicit planar witness.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

import networkx as nx

from ..planar.checks import require_connected
from ..planar.construct import embed, induced_components, induced_copy
from ..trees.centroid import phase2_separator_node
from .augment import balanced_insertion, chord_interiors, heavy_nested_insertion, sides_light
from .config import PlanarConfiguration
from .faces import FaceView, face_view
from .hidden import hiding_edges
from .weights import (
    augmented_weight,
    face_order,
    face_size,
    fundamental_weights,
    side_sets,
    weight,
)

Node = Hashable
Edge = Tuple[Node, Node]

__all__ = ["SeparatorResult", "cycle_separator", "compute_cycle_separators", "SeparatorError"]


class SeparatorError(RuntimeError):
    """An algorithm invariant failed (indicates a bug, never bad input)."""


class SeparatorResult:
    """A cycle separator: a T-path whose removal balances the part.

    Attributes
    ----------
    path:
        The separator nodes in T-path order.
    phase:
        Which phase emitted it (``"trivial"``, ``"phase2"``, ``"phase3"``,
        ``"phase3b"``, ``"phase4.1"``, ``"phase4.1-hidden"``,
        ``"phase4.2"``, ``"phase5"``, ``"rescue"``), with the recursion
        depth appended as ``"+k"`` when the constructive Lemma 7/8 edge
        insertions were exercised.
    rule:
        Finer-grained annotation (Phase 2's centroid fallback).
    """

    __slots__ = ("path", "phase", "rule")

    def __init__(self, path: List[Node], phase: str, rule: str = ""):
        self.path = path
        self.phase = phase
        self.rule = rule

    @property
    def nodes(self) -> Set[Node]:
        """The separator as a set."""
        return set(self.path)

    @property
    def endpoints(self) -> Tuple[Node, Node]:
        """The two ends of the separator path."""
        return (self.path[0], self.path[-1])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SeparatorResult(len={len(self.path)}, phase={self.phase!r})"


# Recursion ceiling for the constructive edge-insertion descent; a planar
# graph admits at most 3n - 6 edges, so genuine runs stay far below this.
_MAX_DESCENT = 64


class _Views(dict):
    """Face views of one configuration, each built through :func:`face_view`
    the first time a phase reads it: weights and face sizes need none, so
    only the emitted border and the faces a containment test reads get one."""

    def __init__(self, cfg: PlanarConfiguration):
        super().__init__()
        self.cfg = cfg

    def __missing__(self, e: Edge) -> FaceView:
        fv = self[e] = face_view(self.cfg, e)
        return fv


def cycle_separator(
    cfg: PlanarConfiguration,
    ledger=None,
    *,
    ablation: frozenset = frozenset(),
) -> SeparatorResult:
    """Compute a cycle separator of ``cfg``'s graph (Theorem 1, one part).

    Parameters
    ----------
    cfg:
        The planar configuration of the (sub)graph.
    ledger:
        Optional :class:`repro.congest.ledger.RoundLedger` for round charges.
    ablation:
        Experiment-only switches that disable the reproduction's repairs of
        the paper's proof gaps (DESIGN.md §3), used by the ablation
        benchmark to show they are load-bearing:
        ``"no-phase3b"`` skips Lemma 1 condition 3 (the rescue relies on it
        for the real non-tree edges, so it may then raise);
        ``"no-emit-check"`` emits Sub-phase 4.2 / Claim 6 / Lemma 8 middle
        outputs exactly as the paper states them, without verification.
    """
    result = _separate(cfg, cfg.n, depth=0, ledger=ledger, ablation=ablation)
    _check_is_tree_path(cfg, result.path)
    return result


def _charge(ledger, subroutine: str, times: int = 1) -> None:
    if ledger is not None:
        ledger.charge_subroutine(subroutine, times)


def _separate(
    cfg: PlanarConfiguration,
    n: int,
    depth: int,
    ledger,
    ablation: frozenset = frozenset(),
) -> SeparatorResult:
    if depth > _MAX_DESCENT:  # pragma: no cover - invariant guard
        raise SeparatorError("constructive descent did not terminate")
    tree = cfg.tree
    if n <= 2:
        return SeparatorResult(list(tree.iter_preorder()), "trivial")

    weights = fundamental_weights(cfg)
    _charge(ledger, "precomputation")

    # ---------------------------------------------------------------- Phase 2
    if not weights:
        _charge(ledger, "partwise-aggregation", 2)  # tree test + RANGE
        v0, rule = phase2_separator_node(tree)
        _charge(ledger, "mark-path")
        return SeparatorResult(tree.path(tree.root, v0), "phase2", rule)

    # ---------------------------------------------------------------- Phase 3
    views = _Views(cfg)
    _charge(ledger, "weights")
    _charge(ledger, "partwise-aggregation")  # RANGE over the window
    in_window = [e for e, w in weights.items() if n <= 3 * w <= 2 * n]
    if in_window:
        e = min(in_window, key=lambda e: (weights[e], repr(e)))
        _charge(ledger, "mark-path")
        return SeparatorResult(views[e].border, "phase3")

    # ------------------------------------------------------------- Phase 3b
    # Lemma 1 condition 3, the "particular and easy case": a border path long
    # enough that both Jordan sides are light.  For e = uv the components of
    # G - P_e lie inside (<= |F̊_e|) or outside (<= n - |F̊_e| - |P_e|); both
    # bounds are computable at the endpoints from the weight, the depths and
    # the LCA.  This case is what rescues path-degenerate spanning trees
    # (e.g. DFS trees of grids), where Phase 5's root-edge reduction has
    # nothing to enclose; see DESIGN.md's errata.
    balanced = []
    if "no-phase3b" in ablation:
        weights_iter = {}
    else:
        weights_iter = weights
    for e, w in weights_iter.items():
        inner, path_len = face_size(cfg, e, w)
        if sides_light(n, inner, path_len):
            balanced.append((path_len, e))
    if balanced:
        _charge(ledger, "partwise-aggregation")
        _, e = min(balanced, key=lambda pe: (pe[0], repr(pe[1])))
        _charge(ledger, "mark-path")
        return SeparatorResult(views[e].border, "phase3b")

    # ---------------------------------------------------------------- Phase 4
    heavy = [e for e, w in weights.items() if 3 * w > 2 * n]
    if heavy:
        e = _containment_minimal(cfg, views, heavy, weights)
        _charge(ledger, "not-contains")
        return _phase4(cfg, views[e], n, depth, ledger, ablation)

    # ---------------------------------------------------------------- Phase 5
    e = _containment_maximal(cfg, views, list(weights), weights)
    _charge(ledger, "not-contained")
    fv = views[e]
    left, right = side_sets(cfg, fv)
    _charge(ledger, "partwise-aggregation")  # broadcast of |F_l|, |F_r|
    if 3 * len(left) <= n and 3 * len(right) <= n:
        # Both outside sets light: the whole outside is at most 2n/3 and the
        # inside is below n/3, so the border path separates.
        _charge(ledger, "mark-path")
        return SeparatorResult(fv.border, "phase5")
    if 3 * len(left) <= 2 * n and 3 * len(right) <= 2 * n:
        # One outside set is in the window.  The paper outputs the u-v path
        # claiming it contains the root-to-v path; that only holds when the
        # root is the path's LCA (see DESIGN.md errata).  The generally valid
        # separator is the root-to-endpoint path itself: it slits the disk
        # from the outer anchor, leaving <= n - |F_side| <= 2n/3 on one side
        # and <= |F_side| + |inside| <= 2n/3 on the other.
        endpoint = fv.v if 3 * len(right) >= n else fv.u
        if "no-emit-check" in ablation:
            _charge(ledger, "mark-path")
            return SeparatorResult(fv.border, "phase5")
        return _emit_checked(
            cfg, tree.path(tree.root, endpoint), "phase5", n, ledger
        )

    # One outside set is heavy: Lemma 8 inserts a root edge that encloses a
    # window-sized prefix of the DFS orders.  Such an edge is a chord of a
    # face, so the rescue's scan over a face triangulation covers it.
    return _rescue(cfg, n, ledger, "Phase 5")


def _phase4(
    cfg: PlanarConfiguration,
    fv: FaceView,
    n: int,
    depth: int,
    ledger,
    ablation: frozenset = frozenset(),
) -> SeparatorResult:
    """Sub-phases 4.1 / 4.2 on a containment-minimal heavy face."""
    suffix = f"+{depth}" if depth else ""
    interior = fv.interior()
    order = face_order(cfg, fv.edge)
    p_u = fv.p_value(fv.u)
    _charge(ledger, "detect-face")
    _charge(ledger, "full-augmentation")
    # The paper's search space: T-leaves inside the face (Remark 2 reduces
    # every augmentation to its extreme leaf; Lemma 6's compatibility
    # characterization is a leaf statement).
    candidates = sorted(
        (z for z in interior if not cfg.tree.children[z]),
        key=lambda z: (order[z], repr(z)),
    )
    aug = {
        z: augmented_weight(cfg, fv, z, p_u)
        for z in candidates
        if not cfg.graph.has_edge(fv.u, z)
    }
    window = [z for z in candidates if z in aug and n <= 3 * aug[z] <= 2 * n]

    # Sub-phase 4.1: a window hit with a constructive compatible insertion.
    _charge(ledger, "partwise-aggregation")  # RANGE over augmented weights
    tree = cfg.tree
    for z in window:
        prefer_b = cfg.t(z)[0] if tree.parent[z] is not None else None
        _charge(ledger, "hidden-problem")
        if balanced_insertion(cfg, fv.u, z, n, prefer_a=fv.v, prefer_b=prefer_b) is not None:
            _charge(ledger, "mark-path")
            return SeparatorResult(tree.path(fv.u, z), "phase4.1" + suffix)
    if window:
        # No window node is compatible: by Lemma 6 they are hidden; apply
        # Claim 6's fallback via a containment-maximal hiding edge of the
        # leftmost window node.
        z = window[0]
        return _hidden_fallback(cfg, fv, z, suffix, ledger, ablation)

    heavy = [z for z in candidates if z in aug and 3 * aug[z] > 2 * n]
    if not heavy:
        # Sub-phase 4.2: every augmentation is light; the paper concludes
        # the face border separates.  The conclusion fails on degenerate
        # path-shaped interiors, so the emission is checked.
        if "no-emit-check" in ablation:
            _charge(ledger, "mark-path")
            return SeparatorResult(fv.border, "phase4.2" + suffix)
        return _emit_checked(cfg, fv.border, "phase4.2" + suffix, n, ledger)

    # Window overshoot: the leftmost node with weight >= n/3 is heavy.  If
    # its edge is insertable, the new real face is heavy but strictly
    # smaller; recurse (the paper's containment descent).  Otherwise Claim 6
    # applies to it directly.
    t = min(
        (z for z in candidates if z in aug and 3 * aug[z] >= n),
        key=lambda z: (order[z], repr(z)),
    )
    prefer_b = cfg.t(t)[0] if tree.parent[t] is not None else None
    _charge(ledger, "hidden-problem")
    if balanced_insertion(cfg, fv.u, t, n, prefer_a=fv.v, prefer_b=prefer_b) is not None:
        _charge(ledger, "mark-path")
        return SeparatorResult(tree.path(fv.u, t), "phase4.1" + suffix)
    heavy_step = heavy_nested_insertion(cfg, fv, t, n)
    if heavy_step is not None:
        cfg2, _ = heavy_step
        return _separate(cfg2, n, depth + 1, ledger, ablation)
    return _hidden_fallback(cfg, fv, t, suffix, ledger, ablation)



def _is_balanced(cfg: PlanarConfiguration, path: List[Node], n: int, ledger) -> bool:
    """Distributed-checkable balance test of a marked path.

    In CONGEST this is one mark-path plus a component-size part-wise
    aggregation over :math:`G - P` (Lemma 10); here the component sizes are
    computed directly and the rounds are charged.
    """
    _charge(ledger, "partwise-aggregation")
    rest = set(cfg.graph) - set(path)
    return all(3 * len(c) <= 2 * n for c in induced_components(cfg.graph, rest))


def _emit_checked(
    cfg: PlanarConfiguration,
    path: List[Node],
    phase: str,
    n: int,
    ledger,
) -> SeparatorResult:
    """Emit a candidate separator whose balance the paper's case analysis
    does not certify constructively, verifying it first and falling back to
    :func:`_rescue`.

    The paper's Sub-phase 4.2, Claim-6 fallback and Lemma 8's middle case
    all assume sweep coverage properties that fail on path-degenerate
    spanning trees (DESIGN.md errata); the verify-and-fallback step is
    itself an :math:`\\tilde{O}(D)` deterministic CONGEST subroutine, so
    the round budget is unchanged.
    """
    if _is_balanced(cfg, path, n, ledger):
        _charge(ledger, "mark-path")
        return SeparatorResult(path, phase)
    return _rescue(cfg, n, ledger, f"{phase} emission is unbalanced")


def _rescue(cfg: PlanarConfiguration, n: int, ledger, what: str) -> SeparatorResult:
    """The backstop where the paper's case analysis does not separate: a
    balanced fundamental cycle of a virtual triangulation (DESIGN.md
    errata).

    Each face walk of the embedding is fanned from one apex corner: a node
    the walk passes once (DESIGN.md §3: there always is one), so the fan
    has no loop.  A chord to the apex's own neighbour would be a parallel
    edge and is skipped.  Each chord is sized at the two corners the walk names, in
    O(deg) at its endpoints (:func:`~repro.core.augment.chord_interiors`),
    and the first chord whose two Jordan sides are both at most ``2n/3``
    closes the emitted T-path.  Real non-tree edges are not rescanned:
    Phase 3b tested each with the same bound.  By the Lipton–Tarjan
    fundamental-cycle lemma some edge of a triangulation closes a balanced
    cycle, so an empty scan is an invariant failure (DESIGN.md §3 states
    where the argument stops: the skipped chords).

    Charged: the Phase-3 weight sweep, then one token per face walk that
    carries the apex's words around it, all walks at once (each half-edge
    lies on one walk, so the longest walk sets the rounds), then a MIN
    part-wise aggregation over the balanced chords.
    """
    tree, graph = cfg.tree, cfg.graph
    _charge(ledger, "weights")
    if ledger is not None:
        ledger.charge_rounds("face-walk", max(map(len, cfg.rotation.faces())))
    _charge(ledger, "partwise-aggregation")
    for walk in cfg.rotation.faces():
        counts = Counter(walk)
        i = next((i for i, x in enumerate(walk) if counts[x] == 1), None)
        if i is None:
            raise SeparatorError(
                f"{what}: face walk {walk!r} passes every node more than once; "
                "a boundary has two non-cut vertices (DESIGN.md §3)"
            )
        a, ref_a, k = walk[i], walk[i - 1], len(walk)
        for j in range(i + 1, i + k):
            x, ref_x = walk[j % k], walk[(j - 1) % k]
            if x == a or graph.has_edge(a, x):
                continue
            path_len = tree.path_length(a, x) + 1
            if any(sides_light(n, inside, path_len)
                   for inside in chord_interiors(cfg, a, x, ref_a, ref_x)):
                _charge(ledger, "mark-path")
                return SeparatorResult(tree.path(a, x), "rescue")
    raise SeparatorError(
        f"{what}: no chord of the face triangulation closes a balanced "
        "fundamental cycle; the Lipton–Tarjan lemma rules this out"
    )


def _hidden_fallback(
    cfg: PlanarConfiguration,
    fv: FaceView,
    z: Node,
    suffix: str,
    ledger,
    ablation: frozenset = frozenset(),
) -> SeparatorResult:
    """Claim 6: mark the path to the far endpoint of a containment-maximal
    hiding edge of ``z``.

    Lemma 6 says a window node that no insertion certifies is hidden, but
    on some legal rotations (churned embeddings, DESIGN.md §3) its hiding
    set is empty; the emission then falls back to :func:`_rescue`, as an
    unbalanced one does.  The ``no-emit-check`` ablation keeps the paper's
    statement and raises instead.
    """
    hidden = hiding_edges(cfg, fv, z)
    _charge(ledger, "hidden-problem")
    _charge(ledger, "not-contained")
    n = len(cfg.graph)
    if not hidden:
        what = f"node {z!r} is neither insertable nor hidden in {fv.edge!r}"
        if "no-emit-check" in ablation:
            raise SeparatorError(f"{what}; Lemma 6 rules this out")
        return _rescue(cfg, n, ledger, what)
    views = {f: view for f, view in hidden}
    f = _containment_maximal(cfg, views, list(views))
    a, b = f
    z2 = b if cfg.pi_left[a] < cfg.pi_left[b] else a
    if "no-emit-check" in ablation:
        _charge(ledger, "mark-path")
        return SeparatorResult(cfg.tree.path(fv.u, z2), "phase4.1-hidden" + suffix)
    return _emit_checked(
        cfg, cfg.tree.path(fv.u, z2), "phase4.1-hidden" + suffix, n, ledger
    )


def _face_sizes(
    cfg: PlanarConfiguration,
    views: Dict[Edge, FaceView],
    candidates: Sequence[Edge],
    weights: Optional[Dict[Edge, int]],
) -> Dict[Edge, int]:
    """:math:`|V(F_e)|` of every candidate, from ``weights`` where the
    caller holds them and from :func:`weight` otherwise."""
    sizes = {}
    for e in candidates:
        w = weights[e] if weights is not None else weight(cfg, views[e])
        sizes[e] = sum(face_size(cfg, e, w))
    return sizes


def _containment_minimal(
    cfg: PlanarConfiguration,
    views: Dict[Edge, FaceView],
    candidates: Sequence[Edge],
    weights: Optional[Dict[Edge, int]] = None,
) -> Edge:
    """A candidate whose face contains no other candidate's face
    (NOT-CONTAINS-PROBLEM, Lemma 18).

    Fundamental faces of a spanning tree are laminar: each is the dual
    subtree below its co-tree edge in the interdigitating dual tree
    (Har-Peled–Nayyeri).  If :math:`F_e` contains ``f`` then
    :math:`V(F_f) \\subseteq V(F_e)`, so a face contains only faces no
    larger than itself.  Candidates are taken smallest face first (sizes
    from the weights, :func:`~repro.core.weights.face_size`), ties in
    ``repr`` order, and each is tested only against candidates no larger:
    for the first, its own tie group.  That tie check stays because nested
    faces of equal size are common; no face outside it builds its interior.
    """
    size = _face_sizes(cfg, views, candidates, weights)
    for e in sorted(candidates, key=lambda e: (size[e], repr(e))):
        fv, s = views[e], size[e]
        if not any(f != e and size[f] <= s and fv.contains_edge(f) for f in candidates):
            return e
    raise SeparatorError("no containment-minimal fundamental edge found")


def _containment_maximal(
    cfg: PlanarConfiguration,
    views: Dict[Edge, FaceView],
    candidates: Sequence[Edge],
    weights: Optional[Dict[Edge, int]] = None,
) -> Edge:
    """A candidate whose face is contained in no other candidate's face
    (NOT-CONTAINED-PROBLEM, Lemma 17).

    By laminarity (see :func:`_containment_minimal`) a face lies only in
    faces at least as large.  Candidates are taken largest face first,
    ties in ``repr`` order, and each is tested only against candidates at
    least as large: for the first, its own tie group at the maximum size.
    """
    size = _face_sizes(cfg, views, candidates, weights)
    for e in sorted(candidates, key=lambda e: (-size[e], repr(e))):
        s = size[e]
        if not any(f != e and size[f] >= s and views[f].contains_edge(e) for f in candidates):
            return e
    raise SeparatorError("no containment-maximal fundamental edge found")


def _check_is_tree_path(cfg: PlanarConfiguration, path: List[Node]) -> None:
    """Invariant: every separator this module emits is a T-path."""
    for a, b in zip(path, path[1:]):
        if not cfg.is_tree_edge(a, b):
            raise SeparatorError(f"separator is not a T-path at {a!r}-{b!r}")


def compute_cycle_separators(
    graph: nx.Graph,
    parts: Sequence[Sequence[Node]],
    *,
    rotation=None,
    trees: Optional[Dict[int, "object"]] = None,
    ledger=None,
) -> Dict[int, SeparatorResult]:
    """Theorem 1: a cycle separator of every :math:`G[P_i]` of a partition.

    Parameters
    ----------
    graph:
        The (connected, planar) communication graph.
    parts:
        Disjoint node sets, each inducing a connected subgraph.
    rotation:
        Optional precomputed rotation system of ``graph``.
    trees:
        Optional per-part spanning trees (:class:`repro.trees.RootedTree`);
        computed via per-part Borůvka (Lemma 9) when omitted.
    ledger:
        Optional :class:`repro.congest.ledger.RoundLedger`; per-part costs
        are charged as parallel blocks.
    """
    from ..trees.spanning import boruvka_part_spanning_trees

    for i, part in enumerate(parts):
        require_connected(graph.subgraph(part), what=f"part {i}")
    if rotation is None:
        rotation = embed(graph)
        if ledger is not None:
            ledger.charge_subroutine("planar-embedding")
    if trees is None:
        trees = boruvka_part_spanning_trees(graph, parts).trees
        if ledger is not None:
            ledger.charge_subroutine("part-spanning-trees")
    results: Dict[int, SeparatorResult] = {}
    if ledger is not None:
        ledger.begin_parallel()
    for i, part in enumerate(parts):
        subgraph = induced_copy(graph, part)
        cfg = PlanarConfiguration(subgraph, rotation, trees[i])
        if ledger is not None:
            ledger.begin_branch()
        results[i] = cycle_separator(cfg, ledger=ledger)
    if ledger is not None:
        ledger.end_parallel()
    return results
