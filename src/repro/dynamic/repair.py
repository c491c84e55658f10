"""Incremental separator/DFS repair under churn, with certified fallback.

:class:`DynamicPipeline` owns one mutating instance
(:class:`~repro.dynamic.mutations.DynamicPlanarGraph`) together with the
pipeline state the serve/chaos layers care about — a balanced cycle
separator, its certificate, and a DFS tree — and patches that state
*locally* after each accepted update instead of recomputing it from
scratch:

* **DFS repair** (the classic subtree-rebuild argument): a non-tree edge
  delete and a back-edge insert leave the DFS characterization intact and
  cost nothing.  A cross-edge insert ``uv`` only invalidates the tree
  inside the subtree of ``w = lca(u, v)``; a tree-edge delete only inside
  the subtree of the *shallowest* node the orphaned subtree re-attaches
  to.  In both cases every edge leaving the affected subtree ran to a
  proper ancestor of its region root before the repair (the DFS
  property), so recomputing a DFS tree of the induced region, rooted at
  the region root, and splicing it back yields a DFS tree of the whole
  graph.
* **Separator repair**: deletes can only shrink the components of
  ``G - S``; an insert with both ends off ``S`` can merge two, so the
  component of ``G - S`` that now holds the edge is measured against the
  paper's :math:`2n/3` bound by a walk that stops one node past it.  The
  separator is recomputed when its path/closing structure is damaged (a
  path edge, a T-path tree edge, or the certificate's feasibility) or
  when the walk passes the bound.
* **Certified fallback**: the repair region is bounded by
  ``fallback_fraction * n`` (default the balance constant ``2/3``).  The
  bound is *certified* in the sense that crossing it provably makes a
  full recompute no more expensive than the local patch — at that size
  the "local" region is the graph — so the engine falls back to a clean
  full recompute, and ``stats["fallbacks"]`` records that it did.  The
  DFS side is repaired first, so an update that falls back does not
  also pay for a separator recompute the fallback would redo.

After **every** batch the engine re-runs the definitional oracles —
``check_separator``, ``check_dfs_tree`` and ``certify_cycle`` — on the
repaired state and raises :class:`UnsoundRepairError` (a
:class:`~repro.core.verify.VerificationError`) instead of returning, so
an unsound repair can never be observed silently.  A batch pays only for
what it changed: the kept separator is re-certified on the live graph
and rotation (do its endpoints still share a face?) with no
configuration built and no re-embedding, and ``check_separator`` walks
the live adjacency.  No incremental recompute re-embeds either: every
accepted mutation keeps the live rotation planar and connected, so a
separator or full recompute certifies it once
(:func:`~repro.planar.checks.require_planar_rotation`) and builds its
configuration and its DFS (:func:`~repro.core.dfs.certified_dfs_tree`)
on it, and a region repair runs the DFS on the live rotation restricted
to the region.  Only ``"recompute"`` mode embeds from scratch.

``repair_bugs`` is the chaos hook: a frozenset of named,
deliberately-broken repair rules (``"keep-cross-edges"``,
``"ignore-separator-merge"``) the churn campaign injects to prove the
oracles catch exactly this class of bug.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

import networkx as nx

from ..congest.ledger import CostModel, RoundLedger
from ..core.certify import certify_cycle
from ..core.config import ConfigurationError, PlanarConfiguration
from ..core.dfs import certified_dfs_tree, dfs_tree
from ..core.separator import cycle_separator
from ..core.verify import VerificationError, check_dfs_tree, check_separator
from ..planar.checks import require_planar_rotation
from ..planar.construct import induced_copy
from ..trees.rooted import RootedTree
from ..trees.spanning import bfs_tree
from .mutations import DynamicPlanarGraph, MutationError, Update

Node = Hashable

__all__ = [
    "DynamicPipeline",
    "KNOWN_REPAIR_BUGS",
    "UnsoundRepairError",
]

#: Certificates the oracle accepts on a (re)paired state.
_SOUND_CERTIFICATES = frozenset({"real-edge", "virtual-edge", "trivial"})

#: The injectable unsound-repair bugs the churn campaign knows how to
#: catch and shrink (see docs/CHAOS.md, "Churn campaign").
KNOWN_REPAIR_BUGS = frozenset({"keep-cross-edges", "ignore-separator-merge"})


class UnsoundRepairError(VerificationError):
    """A repaired state failed a definitional oracle.

    Raised *instead of returning* from :meth:`DynamicPipeline.apply`:
    callers can never observe a state for which this fired.
    """


class DynamicPipeline:
    """Separator + DFS state for one mutating instance.

    Parameters
    ----------
    graph:
        Initial connected planar instance (copied).
    root:
        DFS root (defaults to the repr-least node, like the CLI).
    mode:
        ``"incremental"`` patches locally with certified fallback;
        ``"recompute"`` rebuilds everything from scratch after each batch,
        its DFS on a fresh embedding — the baseline the E15 benchmark and
        the fingerprint-parity tests compare against.
    fallback_fraction:
        The certified region bound as a fraction of ``n``: a repair
        region of more than ``floor(fallback_fraction * n)`` nodes
        triggers a full recompute.
    repair_bugs:
        Named deliberately-unsound repair rules to inject (chaos only;
        must be a subset of :data:`KNOWN_REPAIR_BUGS`).
    charge_rounds:
        Whether to account distributed round costs for every repair and
        recompute in ``stats["rounds"]`` (a
        :class:`~repro.congest.ledger.RoundLedger` per operation, with
        the region's own cost model — repairs are charged at region
        scale, recomputes at graph scale).
    """

    def __init__(
        self,
        graph: nx.Graph,
        root: Optional[Node] = None,
        *,
        mode: str = "incremental",
        fallback_fraction: float = 2.0 / 3.0,
        repair_bugs: FrozenSet[str] = frozenset(),
        charge_rounds: bool = True,
    ):
        if mode not in ("incremental", "recompute"):
            raise ValueError(f"unknown mode {mode!r}")
        if not 0.0 < fallback_fraction <= 1.0:
            raise ValueError(
                f"fallback_fraction must be in (0, 1], got {fallback_fraction}"
            )
        unknown = set(repair_bugs) - KNOWN_REPAIR_BUGS
        if unknown:
            raise ValueError(f"unknown repair bug(s): {sorted(unknown)}")
        self.dyn = DynamicPlanarGraph(graph)
        self.root = root if root is not None else min(graph.nodes, key=repr)
        if self.root not in self.dyn.graph:
            raise ValueError(f"root {self.root!r} is not a graph node")
        self.mode = mode
        self.fallback_fraction = fallback_fraction
        self.repair_bugs = frozenset(repair_bugs)
        self.charge_rounds = charge_rounds
        self.applied_updates = 0
        self.stats: Dict[str, int] = {
            "batches": 0,
            "updates_applied": 0,
            "updates_skipped": 0,
            "noop_repairs": 0,
            "region_repairs": 0,
            "region_nodes": 0,
            "fallbacks": 0,
            "separator_recomputes": 0,
            "full_recomputes": 0,
            "rounds": 0,
        }
        self._recompute_all(count=False)

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------
    @property
    def graph(self) -> nx.Graph:
        return self.dyn.graph

    @property
    def n(self) -> int:
        return len(self.dyn.graph)

    def fallback_bound(self) -> int:
        """The certified region bound: repairs strictly larger fall back."""
        return math.floor(self.fallback_fraction * self.n)

    def apply(self, updates: Sequence[Update], *, strict: bool = True) -> Dict[str, int]:
        """Apply one batch of updates and repair; oracle-checked.

        Mutations are applied and (in incremental mode) repaired one at a
        time — the repair arguments above are stated against the state
        *after* the previous update, so interleaving is what makes them
        sound.  In ``"recompute"`` mode the whole batch is applied and
        the pipeline rebuilt once.  After the batch the oracles run; on
        any violation :class:`UnsoundRepairError` propagates and the
        (broken) state is not handed back.

        ``strict=False`` skips inapplicable updates (the shrinker's
        subset-replay mode) instead of raising :class:`MutationError`.
        Returns the per-batch slice of :attr:`stats`.
        """
        before = dict(self.stats)
        mutated = False
        for update in updates:
            if not self.dyn.apply(update, strict=strict):
                self.stats["updates_skipped"] += 1
                continue
            self.applied_updates += 1
            self.stats["updates_applied"] += 1
            mutated = True
            if self.mode == "incremental":
                self._repair_one(update)
        if self.mode == "recompute" and mutated:
            self._recompute_all()
        if self.mode == "incremental" and mutated:
            self._finalize_separator()
        self.stats["batches"] += 1
        self._verify()
        return {k: self.stats[k] - before.get(k, 0) for k in self.stats}

    def state_fingerprint(self) -> str:
        """Canonical hash of the *logical* dynamic state.

        The dynamic analogue of :func:`repro.congest.faults.
        run_fingerprint`'s logical mode: it covers what every sound
        pipeline must agree on — the post-update graph (nodes, edges,
        root), how many updates produced it, and the verified contracts
        (balanced separator, valid DFS tree, sound certificate) — and
        deliberately excludes *which* separator path or DFS tree
        represents those contracts, exactly as the logical run
        fingerprint excludes physical transport bookkeeping.  An
        incremental pipeline and a full-recompute pipeline fed the same
        update sequence therefore fingerprint identically (locked by
        ``tests/test_dynamic.py``).
        """
        digest = hashlib.sha256()
        graph = self.dyn.graph
        digest.update(
            f"n={len(graph)};root={self.root!r};"
            f"updates={self.applied_updates};".encode()
        )
        for edge in sorted((tuple(sorted(e, key=repr)) for e in graph.edges()), key=repr):
            digest.update(f"e={edge!r};".encode())
        report = check_separator(graph, list(self.separator_path))
        check_dfs_tree(graph, self.parent, self.root)
        digest.update(
            f"balanced={report.balanced};dfs=True;"
            f"cert_ok={self.certificate in _SOUND_CERTIFICATES};".encode()
        )
        return digest.hexdigest()

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly snapshot (for artifacts and serve payloads)."""
        return {
            "mode": self.mode,
            "n": self.n,
            "m": self.dyn.graph.number_of_edges(),
            "root": repr(self.root),
            "updates_applied": self.applied_updates,
            "separator_size": len(self.separator_path),
            "certificate": self.certificate,
            "fallback_bound": self.fallback_bound(),
            "stats": dict(self.stats),
        }

    # ------------------------------------------------------------------
    # full recompute (the fallback target and the "recompute" mode)
    # ------------------------------------------------------------------
    def _ledger(self, graph: nx.Graph, root: Node) -> Optional[RoundLedger]:
        if not self.charge_rounds:
            return None
        ecc = nx.eccentricity(graph, v=root)
        return RoundLedger(CostModel(len(graph), max(ecc, 1)))

    def _charge(self, ledger: Optional[RoundLedger]) -> None:
        if ledger is not None:
            self.stats["rounds"] += ledger.total_rounds

    def _recompute_all(self, *, count: bool = True) -> None:
        graph = self.dyn.graph
        ledger = self._ledger(graph, self.root)
        self._recompute_separator(ledger=ledger, count=False)
        if self.mode == "recompute":
            # E15's baseline rebuilds from scratch: a fresh, charged embedding.
            dfs = dfs_tree(graph, self.root, ledger=ledger)
        else:
            dfs = certified_dfs_tree(graph, self.root, self.dyn.rotation, ledger)
        self.parent: Dict[Node, Optional[Node]] = dict(dfs.parent)
        self.tree = RootedTree(self.parent, self.root)
        self._charge(ledger)
        if count:
            self.stats["full_recomputes"] += 1

    def _recompute_separator(
        self, *, ledger: Optional[RoundLedger] = None, count: bool = True
    ) -> None:
        graph = self.dyn.graph
        own_ledger = ledger is None
        if own_ledger:
            ledger = self._ledger(graph, self.root)
        # The one certification of this recompute (accepted mutations keep
        # the graph connected); an incremental full recompute's DFS reuses it.
        rotation = self.dyn.rotation
        require_planar_rotation(graph, rotation)
        cfg = PlanarConfiguration(graph, rotation, bfs_tree(graph, self.root))
        sep = cycle_separator(cfg, ledger=ledger)
        self.separator_path: Tuple[Node, ...] = tuple(sep.path)
        self.separator_phase = sep.phase
        self.certificate = certify_cycle(cfg.graph, cfg.rotation, sep.path)
        self._sep_tree = cfg.tree
        if own_ledger:
            self._charge(ledger)
        if count:
            self.stats["separator_recomputes"] += 1

    # ------------------------------------------------------------------
    # incremental repair
    # ------------------------------------------------------------------
    def _repair_one(self, update: Update) -> None:
        # The two sides read disjoint state.  The DFS side goes first: when
        # it falls back, the full recompute rebuilds the separator as well.
        op, u, v = update
        fallbacks = self.stats["fallbacks"]
        if op == "insert":
            self._dfs_after_insert(u, v)
        else:
            self._dfs_after_delete(u, v)
        if self.stats["fallbacks"] != fallbacks:
            return
        if op == "insert":
            self._separator_after_insert(u, v)
        else:
            self._separator_after_delete(u, v)

    # -- separator side ------------------------------------------------
    def _separator_after_insert(self, u: Node, v: Node) -> None:
        sep = set(self.separator_path)
        if u in sep or v in sep:
            return  # components of G - S are untouched
        if "ignore-separator-merge" in self.repair_bugs:
            return  # Injected bug: never re-balance after a merge.
        if self._component_exceeds(u, sep, math.floor(2 * self.n / 3)):
            self._recompute_separator()

    def _component_exceeds(self, start: Node, sep: set, bound: int) -> bool:
        """Whether ``start``'s component of ``G - S`` has more than
        ``bound`` nodes; the walk stops at the ``bound + 1``-st."""
        graph = self.dyn.graph
        seen = {start}
        stack = [start]
        while stack:
            for w in graph.neighbors(stack.pop()):
                if w in sep or w in seen:
                    continue
                seen.add(w)
                if len(seen) > bound:
                    return True
                stack.append(w)
        return False

    def _separator_after_delete(self, u: Node, v: Node) -> None:
        path = self.separator_path
        on_path_edge = any(
            {path[i], path[i + 1]} == {u, v} for i in range(len(path) - 1)
        )
        closing_edge = len(path) >= 2 and {path[0], path[-1]} == {u, v}
        parent = self._sep_tree.parent
        tree_edge = parent.get(u) == v or parent.get(v) == u
        if on_path_edge or closing_edge or tree_edge:
            # The T-path itself, its closing edge, or its spanning tree
            # lost an edge: the separator's cycle structure is damaged
            # beyond local patching.  Any other delete only shrinks the
            # components of G - S, so balance holds.
            self._recompute_separator()

    def _finalize_separator(self) -> None:
        """The certified part of the fallback: re-certify, else recompute.

        A kept separator can lose certificate feasibility without losing
        any tracked edge (inserts can crowd out the virtual closing
        corner).  Re-certifying on the *current* embedding after every
        mutated batch makes the certificate itself the fallback trigger;
        the check reads the live rotation's faces
        (:meth:`_certify_current`).
        """
        cert = self._certify_current()
        if cert not in _SOUND_CERTIFICATES:
            self._recompute_separator()
        else:
            self.certificate = cert

    def _certify_current(self) -> str:
        """Certify the kept separator on the live graph and rotation.

        No configuration is built: the certificate reads faces of the live
        rotation directly.  The consistency checks a configuration build
        would make run here in one pass over the adjacency, with its
        messages: the separator's tree spans the graph, every rotation row
        holds exactly its node's neighbors, and every tree edge is a graph
        edge.
        """
        adj = self.dyn.graph._adj
        source = self.dyn.rotation._order
        tree = self._sep_tree
        parent, root = tree.parent, tree.root
        if parent.keys() != adj.keys():
            raise ConfigurationError("tree is not spanning")
        for v, nbrs in adj.items():
            row = source.get(v)
            if row is None:
                raise ConfigurationError(f"rotation has no row for {v!r}")
            if len(row) != len(nbrs) or nbrs.keys() - row:
                raise ConfigurationError(f"rotation of {v!r} does not match the graph")
            if v != root and parent[v] not in nbrs:
                raise ConfigurationError(f"tree edge {parent[v]!r}-{v!r} is not a graph edge")
        return certify_cycle(self.dyn.graph, self.dyn.rotation, self.separator_path)

    # -- DFS side ------------------------------------------------------
    def _dfs_after_insert(self, u: Node, v: Node) -> None:
        tree = self.tree
        if tree.is_ancestor(u, v) or tree.is_ancestor(v, u):
            self.stats["noop_repairs"] += 1
            return  # a back edge: the DFS characterization still holds
        if "keep-cross-edges" in self.repair_bugs:
            # Injected bug: pretend a cross edge needs no repair.  The
            # post-batch check_dfs_tree oracle must catch this.
            self.stats["noop_repairs"] += 1
            return
        self._repair_region(tree.lca(u, v))

    def _dfs_after_delete(self, u: Node, v: Node) -> None:
        if self.parent.get(u) == v:
            child = u
        elif self.parent.get(v) == u:
            child = v
        else:
            self.stats["noop_repairs"] += 1
            return  # a non-tree edge: fewer edges to characterize
        # The orphaned subtree re-attaches only to ancestors of its old
        # parent (the DFS property); repair from the shallowest one.
        subtree = self._subtree_nodes(child)
        members = set(subtree)
        graph = self.dyn.graph
        best: Optional[Node] = None
        for x in subtree:
            for y in graph.neighbors(x):
                if y in members:
                    continue
                if best is None or self.tree.depth[y] < self.tree.depth[best]:
                    best = y
        if best is None:  # pragma: no cover - bridge deletes are rejected
            raise MutationError("tree-edge delete left the subtree detached")
        self._repair_region(best)

    def _subtree_nodes(self, w: Node) -> List[Node]:
        out = [w]
        stack = [w]
        while stack:
            v = stack.pop()
            for c in self.tree.children[v]:
                out.append(c)
                stack.append(c)
        return out

    def _repair_region(self, w: Node) -> None:
        region = self._subtree_nodes(w)
        if len(region) > self.fallback_bound():
            self.stats["fallbacks"] += 1
            self._recompute_all()
            return
        # A DFS subtree is connected, and the live rotation restricted to
        # it (each component's configuration does so) is an embedding of it.
        sub = induced_copy(self.dyn.graph, region)
        ledger = self._ledger(sub, w)
        repaired = certified_dfs_tree(sub, w, self.dyn.rotation, ledger)
        for node in region:
            if node != w:
                self.parent[node] = repaired.parent[node]
        self.tree = RootedTree(self.parent, self.root)
        self._charge(ledger)
        self.stats["region_repairs"] += 1
        self.stats["region_nodes"] += len(region)

    # ------------------------------------------------------------------
    # oracles
    # ------------------------------------------------------------------
    def _verify(self) -> None:
        graph = self.dyn.graph
        try:
            check_separator(graph, list(self.separator_path))
            check_dfs_tree(graph, self.parent, self.root)
        except VerificationError as exc:
            raise UnsoundRepairError(
                f"repaired state failed its oracle after "
                f"{self.applied_updates} update(s): {exc}"
            ) from exc
        if self.certificate not in _SOUND_CERTIFICATES:
            raise UnsoundRepairError(
                f"repaired separator lost its cycle certificate "
                f"(got {self.certificate!r}) after "
                f"{self.applied_updates} update(s)"
            )
