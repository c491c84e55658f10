"""Planarity-preserving edge mutations and seeded churn schedules.

The dynamic-graph layer mutates a *connected planar* instance one edge at
a time while keeping both standing hypotheses of Theorems 1 and 2 intact:

* **insert** — the edge must keep the graph planar.  The embedding is
  repaired locally when the two endpoints share a face of the current
  rotation system: the new edge becomes a chord of that face, found by
  walking only the faces at ``u``
  (:meth:`~repro.planar.rotation.RotationSystem.shared_face_slots`), so
  the placement costs the length of those faces, not of the embedding,
  and does not depend on hash order.  Otherwise the candidate graph is
  re-embedded from scratch by one planarity run
  (:func:`repro.planar.construct.embed`).  A planarity-breaking insert is
  rejected with :class:`MutationError` *before* any state changes.
* **delete** — always planar, but a bridge delete would disconnect the
  graph and is rejected (the pipeline's oracles are only defined on
  connected graphs).

Node set churn is out of scope: ``n`` is constant across a mutation
sequence, so the :math:`2n/3` balance bound the separator oracle enforces
never moves under churn.

:func:`flap_updates` derives a deterministic update schedule from the
fault layer's ``edge_flap`` coins (:class:`repro.congest.faults.FaultPlan`
keyed on ``(seed, "flap", u, v, round)`` with the canonical sorted edge):
a flapped edge is deleted in its round and re-inserted ``down_for``
rounds later.  The same seed therefore drives message-level churn in the
CONGEST simulator and topology-level churn here.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import networkx as nx

from ..congest.faults import FaultPlan
from ..planar.checks import NotPlanarError
from ..planar.construct import embed
from ..planar.rotation import EmbeddingError, RotationSystem

Node = Hashable
#: One mutation: ``("insert", u, v)`` or ``("delete", u, v)``.
Update = Tuple[str, Node, Node]

__all__ = [
    "DynamicPlanarGraph",
    "MutationError",
    "Update",
    "apply_updates_graph",
    "flap_updates",
]


class MutationError(ValueError):
    """A mutation that would violate the standing hypotheses (planarity,
    connectivity) or is structurally inapplicable (duplicate edge,
    missing edge, self-loop)."""


class DynamicPlanarGraph:
    """A connected planar graph under edge churn, with its embedding.

    Keeps ``graph`` (a :class:`networkx.Graph`) and ``rotation`` (a
    :class:`~repro.planar.rotation.RotationSystem`) in lockstep; every
    accepted mutation leaves the pair a valid connected planar embedded
    instance.  The repair engine (:class:`repro.dynamic.repair.
    DynamicPipeline`) owns one of these and patches its separator/DFS
    state after each accepted batch.
    """

    def __init__(self, graph: nx.Graph, rotation: Optional[RotationSystem] = None):
        if len(graph) < 2:
            raise MutationError("dynamic instances need at least two nodes")
        if not nx.is_connected(graph):
            raise MutationError("dynamic instances must start connected")
        self.graph = graph.copy()
        self.rotation = (
            rotation.copy() if rotation is not None
            else RotationSystem.from_graph(self.graph)
        )
        #: Count of embeddings rebuilt from scratch (no shared face).
        self.reembeds = 0

    # ------------------------------------------------------------------
    def insert_edge(self, u: Node, v: Node) -> None:
        """Insert ``uv``; raises :class:`MutationError` when the edge is a
        duplicate/self-loop, touches an unknown node, or breaks planarity."""
        if u == v:
            raise MutationError(f"self-loop {u!r} rejected")
        if u not in self.graph or v not in self.graph:
            raise MutationError(f"insert {u!r}-{v!r}: unknown endpoint")
        if self.graph.has_edge(u, v):
            raise MutationError(f"edge {u!r}-{v!r} already present")
        positions = self.rotation.shared_face_slots(u, v)
        if positions is not None:
            self.rotation.insert_edge(u, v, after_u=positions[0], after_v=positions[1])
            self.graph.add_edge(u, v)
            return
        # No face of the *current* embedding admits the edge; the graph
        # plus the edge may still be planar under a different embedding.
        candidate = self.graph.copy()
        candidate.add_edge(u, v)
        try:
            self.rotation = embed(candidate)
        except NotPlanarError as exc:
            raise MutationError(
                f"insert {u!r}-{v!r} rejected: {exc}"
            ) from exc
        self.graph = candidate
        self.reembeds += 1

    def delete_edge(self, u: Node, v: Node) -> None:
        """Delete ``uv``; raises :class:`MutationError` when the edge is
        absent or is a bridge (the graph must stay connected)."""
        if not self.graph.has_edge(u, v):
            raise MutationError(f"edge {u!r}-{v!r} is not present")
        self.graph.remove_edge(u, v)
        if not (
            nx.has_path(self.graph, u, v)
        ):
            self.graph.add_edge(u, v)
            raise MutationError(
                f"delete {u!r}-{v!r} rejected: edge is a bridge "
                "(graph must stay connected)"
            )
        self.rotation.delete_edge(u, v)

    def apply(self, update: Update, *, strict: bool = True) -> bool:
        """Apply one update; returns whether it was applied.

        ``strict=True`` raises :class:`MutationError` on any inapplicable
        or rejected update.  ``strict=False`` skips it and returns
        ``False`` — the mode the shrinker uses so that *subsets* of a
        recorded update sequence stay meaningful (an insert whose partner
        delete was removed becomes a no-op instead of an error).
        """
        op, u, v = update
        try:
            if op == "insert":
                self.insert_edge(u, v)
            elif op == "delete":
                self.delete_edge(u, v)
            else:
                raise MutationError(f"unknown update op {op!r}")
        except MutationError:
            if strict:
                raise
            return False
        return True

    def validate(self) -> None:
        """Cross-check graph <-> rotation consistency and planarity."""
        self.rotation.validate()
        rot_edges = {frozenset(e) for e in self.rotation.edges()}
        graph_edges = {frozenset(e) for e in self.graph.edges()}
        if rot_edges != graph_edges:
            raise EmbeddingError(
                "rotation system and graph disagree: "
                f"{len(rot_edges ^ graph_edges)} mismatched edge(s)"
            )


def apply_updates_graph(
    graph: nx.Graph, updates: Sequence[Update], *, strict: bool = True
) -> nx.Graph:
    """The post-update graph, without embedding maintenance.

    The cheap replay used by :func:`repro.serve.jobs.verify_result` to
    rebuild the graph an update-mode job actually answered about.  Applies
    the same accept/reject rules as :class:`DynamicPlanarGraph`.
    """
    dyn = DynamicPlanarGraph(graph)
    for update in updates:
        dyn.apply(update, strict=strict)
    return dyn.graph


def flap_updates(
    graph: nx.Graph,
    *,
    seed: int,
    rate: float,
    rounds: int,
    down_for: int = 1,
    plan: Optional[FaultPlan] = None,
) -> List[List[Update]]:
    """Seeded churn batches derived from the ``edge_flap`` fault coins.

    For each round ``1..rounds`` every edge of the *initial* graph that is
    currently up is tested with :meth:`FaultPlan.flaps`; a flapped edge is
    deleted in that round's batch and re-inserted in the batch of round
    ``r + down_for``.  A flap whose delete would disconnect the working
    graph (a bridge at that moment) is skipped — the schedule tracks the
    evolving edge set, so every emitted update is strictly applicable.
    Returns one (possibly empty) update list per round, plus a final batch
    re-inserting anything still down — the sequence is net-neutral on the
    edge set, but every delete and re-insert exercises the repair engine
    against the *repaired* state, not the original one.

    Determinism: the schedule is a pure function of ``(graph, seed, rate,
    rounds, down_for)``; passing an explicit ``plan`` (e.g. a shrunk
    explicit-schedule plan) overrides the rate-based coins.
    """
    if plan is None:
        plan = FaultPlan(seed=seed, edge_flap_rate=rate)
    edges = sorted((tuple(sorted(e, key=repr)) for e in graph.edges()), key=repr)
    working = graph.copy()
    down_until: Dict[Tuple[Node, Node], int] = {}
    batches: List[List[Update]] = []
    for rnd in range(1, rounds + 1):
        batch: List[Update] = []
        for edge in edges:
            if down_until.get(edge, 0) == rnd:
                batch.append(("insert", edge[0], edge[1]))
                working.add_edge(*edge)
                del down_until[edge]
        for edge in edges:
            if edge in down_until:
                continue
            if plan.flaps(edge[0], edge[1], rnd):
                working.remove_edge(*edge)
                if not nx.has_path(working, edge[0], edge[1]):
                    working.add_edge(*edge)  # bridge: skip this flap
                    continue
                batch.append(("delete", edge[0], edge[1]))
                down_until[edge] = rnd + max(1, down_for)
        batches.append(batch)
    tail: List[Update] = [
        ("insert", u, v)
        for (u, v) in sorted(down_until, key=repr)
    ]
    if tail:
        batches.append(tail)
    return batches
