"""The dynamic-graph layer: mutations, incremental repair, certified
fallback (docs/MODEL.md, "Dynamic graphs")."""

import math
import random

import networkx as nx
import pytest

from repro.congest.faults import FaultPlan
from repro.core.verify import VerificationError, check_dfs_tree, check_separator
from repro.dynamic import (
    DynamicPipeline,
    DynamicPlanarGraph,
    MutationError,
    UnsoundRepairError,
    apply_updates_graph,
    flap_updates,
)
from repro.planar import generators as gen
from repro.planar.rotation import EmbeddingError, RotationSystem


class TestRotationDelete:
    def test_delete_reverses_insert(self):
        rot = RotationSystem.from_graph(gen.grid(3, 3))
        faces_before = sorted(map(len, rot.faces()))
        walk = next(w for w in rot.faces() if len(w) >= 4)
        # grid faces are chordless 4-cycles; add and remove a chord
        u, v = walk[0], walk[2]
        rot.insert_edge(u, v, after_u=walk[-1], after_v=walk[1])
        rot.validate()
        rot.delete_edge(u, v)
        rot.validate()
        assert sorted(map(len, rot.faces())) == faces_before

    def test_delete_missing_edge_raises(self):
        rot = RotationSystem.from_graph(gen.grid(2, 2))
        with pytest.raises(EmbeddingError):
            rot.delete_edge(0, 3)


class TestMutations:
    def test_insert_face_chord_stays_embedded(self):
        dyn = DynamicPlanarGraph(gen.grid(3, 3))
        # Any grid face admits a chord without re-embedding.
        walk = next(w for w in dyn.rotation.faces() if len(w) == 4)
        dyn.insert_edge(walk[0], walk[2])
        assert dyn.reembeds == 0
        dyn.validate()

    def test_insert_planarity_breaker_rejected_atomically(self):
        # K5: the complete graph on the 4-cycle plus center is planar,
        # but a grid with every diagonal of one face plus an edge across
        # is easiest to break via K5 on 5 mutually-connected nodes.
        g = nx.complete_graph(4)
        g.add_edge(4, 0)
        dyn = DynamicPlanarGraph(g)
        dyn.insert_edge(4, 1)
        dyn.insert_edge(4, 2)
        edges_before = set(map(frozenset, dyn.graph.edges()))
        with pytest.raises(MutationError):
            dyn.insert_edge(4, 3)  # completes K5
        assert set(map(frozenset, dyn.graph.edges())) == edges_before
        dyn.validate()

    def test_delete_bridge_rejected(self):
        dyn = DynamicPlanarGraph(gen.path_graph(4))
        with pytest.raises(MutationError):
            dyn.delete_edge(1, 2)
        assert dyn.graph.has_edge(1, 2)
        dyn.validate()

    def test_duplicate_and_missing_updates(self):
        dyn = DynamicPlanarGraph(gen.grid(2, 2))
        with pytest.raises(MutationError):
            dyn.apply(("insert", 0, 1))
        with pytest.raises(MutationError):
            dyn.apply(("delete", 0, 3))
        # lenient mode skips instead
        assert dyn.apply(("insert", 0, 1), strict=False) is False

    def test_apply_updates_graph_replays(self):
        g = gen.grid(3, 3)
        e = sorted(g.edges())[0]
        out = apply_updates_graph(g, [("delete", *e), ("insert", *e)])
        assert set(map(frozenset, out.edges())) == set(map(frozenset, g.edges()))


def _global_scan_face(rotation, u, v):
    """The chord placement's old oracle: the first face walk of
    :meth:`RotationSystem.faces` visiting both ``u`` and ``v``, as the
    set of its half-edges (``None`` when there is none)."""
    for walk in rotation.faces():
        if u in walk and v in walk:
            return _face_of(rotation, (walk[0], walk[1 % len(walk)]))
    return None


def _face_of(rotation, half_edge):
    face, (a, b) = set(), half_edge
    while (a, b) not in face:
        face.add((a, b))
        a, b = rotation.next_face_half_edge(a, b)
    return frozenset(face)


def _thinned(graph, seed, share=0.3):
    """``graph`` after non-bridge deletes of about ``share`` of its edges,
    with its embedding kept by the mutation layer."""
    rng = random.Random(seed)
    dyn = DynamicPlanarGraph(graph)
    edges = sorted(graph.edges())
    rng.shuffle(edges)
    for u, v in edges[: int(share * len(edges))]:
        dyn.apply(("delete", u, v), strict=False)
    return dyn


class TestChordPlacement:
    @pytest.mark.parametrize("family", ["grid", "delaunay", "outerplanar"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_local_placement_matches_the_global_scan(self, family, seed):
        # Property: for every non-adjacent pair, the corner walk at u finds
        # a face holding both endpoints exactly when one exists; it is the
        # global scan's face when the pair shares one face; and the
        # insertion it places keeps the embedding planar.
        graph = {
            "grid": gen.grid(5, 5),
            "delaunay": gen.delaunay(30, seed=seed),
            "outerplanar": gen.outerplanar(20, chords=8, seed=seed),
        }[family]
        dyn = _thinned(graph, seed)
        rotation, g = dyn.rotation, dyn.graph
        cut_vertices = set(nx.articulation_points(g))
        seen = {"unique": 0, "several": 0, "cut": 0}
        for u in sorted(g):
            for v in sorted(g):
                if u == v or g.has_edge(u, v):
                    continue
                shared = {
                    _face_of(rotation, (u, x)) for x in rotation.neighbors_cw(u)
                } & {_face_of(rotation, (v, x)) for x in rotation.neighbors_cw(v)}
                slots = rotation.shared_face_slots(u, v)
                assert (slots is None) == (not shared), (u, v)
                if slots is None:
                    continue
                face = _face_of(rotation, rotation.corner(u, slots[0]))
                assert face == _face_of(rotation, rotation.corner(v, slots[1]))
                assert face in shared
                if len(shared) == 1:
                    seen["unique"] += 1
                    assert face == _global_scan_face(rotation, u, v), (u, v)
                else:
                    seen["several"] += 1
                seen["cut"] += u in cut_vertices
                placed = rotation.copy()
                placed.insert_edge(u, v, after_u=slots[0], after_v=slots[1])
                placed.validate()
        assert seen["unique"], seen
        assert seen["cut" if family == "outerplanar" else "several"], seen

    def test_insert_uses_the_local_placement(self):
        dyn = _thinned(gen.delaunay(30, seed=1), seed=1)
        u, v = next(
            (u, v) for u in sorted(dyn.graph) for v in sorted(dyn.graph)
            if u != v and not dyn.graph.has_edge(u, v)
            and dyn.rotation.shared_face_slots(u, v) is not None
        )
        expected = dyn.rotation.copy()
        after_u, after_v = expected.shared_face_slots(u, v)
        expected.insert_edge(u, v, after_u=after_u, after_v=after_v)
        dyn.insert_edge(u, v)
        assert dyn.reembeds == 0
        assert {x: dyn.rotation.neighbors_cw(x) for x in dyn.graph} == {
            x: expected.neighbors_cw(x) for x in dyn.graph
        }
        dyn.validate()


class TestFlapUpdates:
    def test_deterministic_and_net_neutral(self):
        g = gen.delaunay(30, seed=2)
        a = flap_updates(g, seed=7, rate=0.05, rounds=6)
        b = flap_updates(g, seed=7, rate=0.05, rounds=6)
        assert a == b
        replayed = apply_updates_graph(g, [u for batch in a for u in batch])
        assert set(map(frozenset, replayed.edges())) == set(
            map(frozenset, g.edges())
        )

    def test_schedule_strictly_applicable(self):
        # Bridge-aware scheduling: every emitted update applies strictly.
        g = gen.outerplanar(30, chords=6, seed=2)
        batches = flap_updates(g, seed=0, rate=0.1, rounds=8)
        dyn = DynamicPlanarGraph(g)
        for batch in batches:
            for update in batch:
                assert dyn.apply(update, strict=True)

    def test_keyed_by_fault_coins(self):
        # An explicit edge_flaps schedule drives the same machinery.
        g = gen.grid(3, 3)
        e = sorted(g.edges())[2]
        plan = FaultPlan(seed=1, edge_flaps=[(e[0], e[1], 1)])
        batches = flap_updates(g, seed=1, rate=0.0, rounds=2, plan=plan)
        assert ("delete", e[0], e[1]) in batches[0]
        assert ("insert", e[0], e[1]) in batches[1]


class TestEdgeFlapFaultPlan:
    def test_flap_coin_is_direction_symmetric(self):
        plan = FaultPlan(seed=9, edge_flap_rate=0.5)
        fired = [
            (u, v, r)
            for u, v, r in [(0, 1, 1), (3, 4, 2), (5, 2, 3)]
        ]
        for u, v, r in fired:
            assert plan.flaps(u, v, r) == plan.flaps(v, u, r)

    def test_flap_downs_the_link_at_message_level(self):
        plan = FaultPlan(seed=3, edge_flaps=[(0, 1, 2)])
        assert not plan.link_is_down(0, 1, 1)
        assert plan.link_is_down(0, 1, 2)
        assert plan.link_is_down(1, 0, 2)
        described = plan.describe()
        assert described["counts"]["edge_flaps"] == 1

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(seed=0, edge_flap_rate=1.5)


def _count_embedding_work(monkeypatch):
    """Count configuration builds, LR planarity runs and rotation
    certificates from here on."""
    import repro.core.config as config_module
    import repro.core.dfs as dfs_module
    import repro.dynamic.repair as repair_module
    import repro.planar.checks as checks_module
    import repro.planar.construct as construct_module

    counts = {"configurations": 0, "lr_rotation": 0, "certificates": 0}
    init = config_module.PlanarConfiguration.__init__
    lr = construct_module.lr_rotation
    certify = checks_module.require_planar_rotation

    def counting_init(self, *args, **kwargs):
        counts["configurations"] += 1
        init(self, *args, **kwargs)

    def counting_lr(graph):
        counts["lr_rotation"] += 1
        return lr(graph)

    def counting_certify(*args, **kwargs):
        counts["certificates"] += 1
        return certify(*args, **kwargs)

    monkeypatch.setattr(config_module.PlanarConfiguration, "__init__", counting_init)
    monkeypatch.setattr(construct_module, "lr_rotation", counting_lr)
    for module in (checks_module, config_module, dfs_module, repair_module):
        monkeypatch.setattr(module, "require_planar_rotation", counting_certify)
    return counts


class TestDynamicPipeline:
    def test_every_batch_is_oracle_checked(self):
        g = gen.delaunay(40, seed=3)
        pipeline = DynamicPipeline(g)
        for batch in flap_updates(g, seed=11, rate=0.02, rounds=6):
            pipeline.apply(batch)
            check_separator(pipeline.graph, list(pipeline.separator_path))
            check_dfs_tree(pipeline.graph, pipeline.parent, pipeline.root)

    def test_empty_hiding_set_falls_back_to_the_rescue(self, monkeypatch):
        # On one of these churned rotations a Sub-phase 4.1 window node is
        # neither insertable nor hidden, which Lemma 6 rules out on the
        # paper's terms (DESIGN.md §3): the separator recompute takes the
        # rescue instead of raising, and every batch still passes the
        # oracles and matches a full recompute.
        import repro.core.separator as separator_module

        rescued = []
        rescue = separator_module._rescue

        def recording(cfg, n, ledger, what):
            rescued.append(what)
            return rescue(cfg, n, ledger, what)

        monkeypatch.setattr(separator_module, "_rescue", recording)
        g = gen.triangulated_grid(5, 5)
        pipeline = DynamicPipeline(g)
        reference = DynamicPipeline(g, mode="recompute")
        for batch in flap_updates(g, seed=48, rate=0.2, rounds=8):
            pipeline.apply(batch)
            reference.apply(batch)
            check_separator(pipeline.graph, list(pipeline.separator_path))
            check_dfs_tree(pipeline.graph, pipeline.parent, pipeline.root)
        assert pipeline.state_fingerprint() == reference.state_fingerprint()
        assert any("neither insertable nor hidden" in what for what in rescued)

    def test_certification_leaves_the_live_rotation_unchanged_and_unaliased(
        self, monkeypatch
    ):
        # Re-certification reads the live rotation itself; a separator
        # recompute hands it to one configuration without a copy.
        # Neither may change its rows, and the configuration must hold
        # rows of its own.
        import repro.dynamic.repair as repair_module

        pipeline = DynamicPipeline(gen.delaunay(40, seed=3))
        live = pipeline.dyn.rotation
        rows = {v: live.neighbors_cw(v) for v in live.nodes}
        rotations = []
        certify = repair_module.certify_cycle

        def recording(graph, rotation, path):
            rotations.append(rotation)
            return certify(graph, rotation, path)

        monkeypatch.setattr(repair_module, "certify_cycle", recording)
        pipeline._certify_current()
        pipeline._recompute_separator()
        assert len(rotations) == 2
        assert rotations[0] is live
        assert {v: live.neighbors_cw(v) for v in live.nodes} == rows
        own_rotation = rotations[1]
        assert own_rotation is not live
        for v, row in rows.items():
            own = own_rotation._order[v]
            assert own is not live._order[v]
            i = row.index(own[0])
            assert tuple(own) == row[i:] + row[:i]

    def test_off_separator_non_tree_delete_builds_no_configuration(
        self, monkeypatch
    ):
        # The hot path of churn: a delete that touches neither the DFS
        # tree nor the separator's path or tree is a no-op repair, and
        # re-certifying it builds no configuration and embeds nothing.
        g = gen.delaunay(60, seed=2)
        pipeline = DynamicPipeline(g)
        path = set(pipeline.separator_path)
        sep_parent = pipeline._sep_tree.parent
        edge = next(
            (u, v)
            for u, v in g.edges()
            if u not in path and v not in path
            and pipeline.parent[u] != v and pipeline.parent[v] != u
            and sep_parent[u] != v and sep_parent[v] != u
        )
        counts = _count_embedding_work(monkeypatch)
        delta = pipeline.apply([("delete",) + edge])
        assert delta["noop_repairs"] == 1
        assert delta["separator_recomputes"] == delta["full_recomputes"] == 0
        assert counts == {"configurations": 0, "lr_rotation": 0, "certificates": 0}

    @pytest.mark.parametrize("mode", ["incremental", "recompute"])
    @pytest.mark.parametrize("repair", ["fallback", "region"])
    def test_incremental_recomputes_reuse_the_live_rotation(
        self, monkeypatch, mode, repair
    ):
        # Deleting an edge of both the DFS tree and the separator's tree
        # damages both sides.  The DFS side either falls back to a full
        # recompute (a region bound of 0 nodes), which rebuilds the
        # separator too, or repairs its region (a bound of n) next to one
        # separator recompute.  Incremental mode runs the DFS on the live
        # rotation and certifies it once; "recompute" mode still re-embeds.
        g = gen.delaunay(60, seed=2)
        fraction = 0.01 if repair == "fallback" else 1.0
        pipeline = DynamicPipeline(g, mode=mode, fallback_fraction=fraction)
        sep_parent = pipeline._sep_tree.parent
        edge = next(
            (v, p) for v, p in pipeline.parent.items()
            if p is not None and sep_parent[v] == p
            and nx.has_path(nx.restricted_view(g, [], [(v, p)]), v, p)
        )
        counts = _count_embedding_work(monkeypatch)
        delta = pipeline.apply([("delete",) + edge])
        check_dfs_tree(pipeline.graph, pipeline.parent, pipeline.root)
        if mode == "recompute":
            assert delta["full_recomputes"] == 1
            assert counts["lr_rotation"] == 1
            return
        if repair == "fallback":
            assert delta["fallbacks"] == delta["full_recomputes"] == 1
        else:
            assert delta["region_repairs"] == 1
            assert delta["full_recomputes"] == 0
        assert counts["lr_rotation"] == 0
        assert counts["certificates"] == 1
        assert delta["separator_recomputes"] + delta["full_recomputes"] == 1

    @pytest.mark.parametrize("damage", ["row", "missing-row", "tree-edge", "spanning"])
    def test_recertification_checks_match_a_configuration_build(self, damage):
        # The one-pass checks of the per-batch re-certification raise what
        # building a configuration on the same state would raise.
        from repro.core.config import ConfigurationError, PlanarConfiguration

        pipeline = DynamicPipeline(gen.delaunay(30, seed=1))
        graph, rotation = pipeline.dyn.graph, pipeline.dyn.rotation
        tree = pipeline._sep_tree
        if damage == "row":
            v = next(iter(graph))
            rotation._order[v] = rotation._order[v][:-1]
        elif damage == "missing-row":
            del rotation._order[next(iter(graph))]
        elif damage == "tree-edge":
            v = next(v for v in graph if tree.parent[v] is not None)
            graph.remove_edge(v, tree.parent[v])
            rotation.delete_edge(v, tree.parent[v])
        else:
            graph.add_edge(next(iter(graph)), "extra")
        with pytest.raises(ConfigurationError) as built:
            PlanarConfiguration(graph, rotation, tree)
        with pytest.raises(ConfigurationError) as checked:
            pipeline._certify_current()
        assert str(checked.value) == str(built.value)

    def test_fingerprint_parity_incremental_vs_recompute(self):
        # Satellite 3(b): both modes agree on the logical state after the
        # same update sequence.
        for family, graph in [
            ("delaunay", gen.delaunay(36, seed=4)),
            ("tri-grid", gen.triangulated_grid(5, 5)),
        ]:
            batches = flap_updates(graph, seed=5, rate=0.04, rounds=5)
            inc = DynamicPipeline(graph, mode="incremental")
            rec = DynamicPipeline(graph, mode="recompute")
            for batch in batches:
                inc.apply(batch)
                rec.apply(batch)
            assert inc.state_fingerprint() == rec.state_fingerprint(), family

    def test_fallback_triggers_exactly_at_the_bound(self):
        # Satellite 3(a): a repair region one node over the configured
        # bound falls back; at the bound it repairs locally.  The star's
        # DFS tree puts every leaf under the hub, so deleting a hub-leaf
        # tree edge... is a bridge; use a fan instead: deleting the tree
        # edge into the fan's spine forces a region of known size.
        g = gen.triangulated_grid(4, 4)
        n = len(g)
        pipeline = DynamicPipeline(g, fallback_fraction=1.0)
        # Find a tree edge whose deletion repairs a region of size k.
        tree = pipeline.tree
        child = max(
            (v for v in g.nodes if pipeline.parent.get(v) is not None),
            key=lambda v: tree.subtree_size[v],
        )
        edge = (child, pipeline.parent[child])
        if not nx.is_connected(nx.restricted_view(g, [], [edge])):
            pytest.skip("chosen tree edge is a bridge on this instance")
        # Region root is the shallowest attachment; its subtree size is
        # the region size the repair will see.
        members = set()
        stack = [child]
        while stack:
            v = stack.pop()
            members.add(v)
            stack.extend(tree.children[v])
        best = min(
            (
                y
                for x in members
                for y in g.neighbors(x)
                if y not in members and {x, y} != set(edge)
            ),
            key=lambda y: tree.depth[y],
        )
        region = tree.subtree_size[best]

        at_bound = DynamicPipeline(g, fallback_fraction=region / n)
        assert at_bound.fallback_bound() == region
        at_bound.apply([("delete", *edge)])
        assert at_bound.stats["fallbacks"] == 0
        assert at_bound.stats["region_repairs"] == 1

        below = DynamicPipeline(g, fallback_fraction=(region - 1) / n)
        assert below.fallback_bound() == region - 1
        below.apply([("delete", *edge)])
        assert below.stats["fallbacks"] == 1
        assert below.stats["region_repairs"] == 0

    @staticmethod
    def _two_triangle_path():
        # path_graph(15) with chords (4, 6) and (10, 12): rooted at 0 the
        # separator is (6, 4, 5), leaving components of 4 and 8 nodes.
        g = nx.path_graph(15)
        g.add_edges_from([(4, 6), (10, 12)])
        return g

    def test_insert_after_an_off_separator_delete_is_rebalanced(self):
        # Deleting 11-12 keeps both components whole (10-12 remains), and
        # inserting 0-7 then merges them into 12 > 2n/3 = 10 nodes: the
        # insert must re-balance even though a delete came first.
        pipeline = DynamicPipeline(self._two_triangle_path())
        assert pipeline.separator_path == (6, 4, 5)
        pipeline.apply([("delete", 11, 12)])
        pipeline.apply([("insert", 0, 7)])
        check_separator(pipeline.graph, list(pipeline.separator_path))

    def test_every_delete_then_insert_pair_repairs_soundly(self):
        # Every non-bridge delete, then every insert applicable after it
        # (the deleted edge included), as two batches.
        g = self._two_triangle_path()
        applicable = 0
        for e in list(g.edges):
            if not nx.is_connected(nx.restricted_view(g, [], [e])):
                continue  # bridge deletes are rejected
            rest = nx.restricted_view(g, [], [e])
            for f in nx.non_edges(rest):
                pipeline = DynamicPipeline(g)
                pipeline.apply([("delete", *e)])
                pipeline.apply([("insert", *f)])
                applicable += 1
        assert applicable == 540

    def test_unsound_repair_raises_instead_of_returning(self):
        # With a deliberately broken repair rule the oracles fire and the
        # pipeline never hands back a broken state.  The merge must keep the
        # separator's endpoints on a shared face: otherwise the certificate
        # fallback recomputes the separator the bug leaves alone.
        g = gen.grid(5, 5)
        batches = flap_updates(g, seed=205, rate=0.05, rounds=3, down_for=2)
        pipeline = DynamicPipeline(
            g, repair_bugs=frozenset({"ignore-separator-merge"})
        )
        with pytest.raises(UnsoundRepairError):
            for batch in batches:
                pipeline.apply(batch)

    def test_keep_cross_edges_bug_is_caught(self):
        g = gen.delaunay(40, seed=3)
        batches = flap_updates(g, seed=11, rate=0.02, rounds=6)
        pipeline = DynamicPipeline(
            g, repair_bugs=frozenset({"keep-cross-edges"})
        )
        with pytest.raises(UnsoundRepairError) as err:
            for batch in batches:
                pipeline.apply(batch)
        assert isinstance(err.value, VerificationError)

    def test_unknown_bug_and_mode_rejected(self):
        g = gen.grid(3, 3)
        with pytest.raises(ValueError):
            DynamicPipeline(g, mode="lazy")
        with pytest.raises(ValueError):
            DynamicPipeline(g, repair_bugs=frozenset({"no-such-bug"}))

    def test_fallback_bound_formula(self):
        g = gen.grid(4, 4)
        pipeline = DynamicPipeline(g, fallback_fraction=2 / 3)
        assert pipeline.fallback_bound() == math.floor(2 * len(g) / 3)

    def test_describe_is_json_friendly(self):
        import json

        pipeline = DynamicPipeline(gen.grid(3, 3))
        pipeline.apply([])
        json.dumps(pipeline.describe())
