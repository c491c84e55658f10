"""Deterministic fault injection: the contract of ``repro.congest.faults``.

Four layers of guarantees, each locked here:

* **plan semantics** — ``FaultPlan.copies`` decision order (link-down
  beats drop beats duplicate), validation, symmetry of down-intervals;
* **injected behaviour** — drops destroy exactly the scheduled message
  (sender still pays), duplicates stutter one round later, link-downs
  silence both directions, crash-stop nodes go silent and output-less
  without hanging the run;
* **determinism** — identical ``(seed, plan)`` yields bit-identical
  :func:`run_fingerprint` across repeated runs *and* across the
  ``active``/``dense`` schedulers;
* **empty-plan identity** — every simulation in the repo, run with
  ``faults=FaultPlan()``, matches the no-plan run exactly on both
  schedulers (faults are never ambient).

Plus the :class:`CongestViolation` context contract: every violation
carries node/round/edge/payload, in the message and as attributes.
"""

import json

import pytest

from repro.congest import (
    CongestViolation,
    CrashFault,
    FaultPlan,
    LinkDown,
    Network,
    RoundTrace,
    awerbuch_dfs_run,
    bfs_run,
    boruvka_mst_run,
    broadcast_run,
    convergecast_run,
    fragment_merge_run,
    mark_path_merge_run,
    partwise_aggregation_run,
    partwise_broadcast_run,
    run_fingerprint,
    weights_problem_run,
)
from repro.core.config import PlanarConfiguration
from repro.planar import generators as gen
from repro.trees import bfs_tree

from conftest import forced_scheduler


# -- plan semantics ----------------------------------------------------------


class TestFaultPlanSemantics:
    def test_default_is_one_copy(self):
        assert FaultPlan().copies(0, 1, 5) == 1

    def test_explicit_drop_and_duplicate(self):
        plan = FaultPlan(drops=[(0, 1, 3)], duplicates=[(1, 0, 4)])
        assert plan.copies(0, 1, 3) == 0
        assert plan.copies(1, 0, 4) == 2
        # Directed and round-scoped: the reverse edge / other rounds are clean.
        assert plan.copies(1, 0, 3) == 1
        assert plan.copies(0, 1, 4) == 1

    def test_drop_beats_duplicate(self):
        plan = FaultPlan(drops=[(0, 1, 3)], duplicates=[(0, 1, 3)])
        assert plan.copies(0, 1, 3) == 0

    def test_link_down_is_symmetric_and_beats_everything(self):
        plan = FaultPlan(duplicates=[(0, 1, 5)], link_downs=[(0, 1, 4, 6)])
        for rnd in (4, 5, 6):
            assert plan.copies(0, 1, rnd) == 0
            assert plan.copies(1, 0, rnd) == 0
        assert plan.copies(0, 1, 3) == 1
        assert plan.copies(0, 1, 7) == 1
        assert plan.link_is_down(1, 0, 5) and plan.link_is_down(0, 1, 5)

    def test_rate_one_extremes(self):
        drop_all = FaultPlan(drop_rate=1.0)
        dup_all = FaultPlan(duplicate_rate=1.0)
        for rnd in range(1, 10):
            assert drop_all.copies(0, 1, rnd) == 0
            assert dup_all.copies(0, 1, rnd) == 2

    def test_rate_coins_are_seed_deterministic(self):
        a = FaultPlan(7, drop_rate=0.5)
        b = FaultPlan(7, drop_rate=0.5)
        decisions = [(s, d, r) for s in (0, 1) for d in (0, 1) for r in range(1, 30) if s != d]
        assert [a.copies(*k) for k in decisions] == [b.copies(*k) for k in decisions]
        # A fair coin at rate 0.5 must actually come up on both sides.
        outcomes = {a.copies(*k) for k in decisions}
        assert outcomes == {0, 1}

    def test_different_seeds_differ(self):
        decisions = [(0, v, r) for v in range(1, 10) for r in range(1, 30)]
        a = [FaultPlan(1, drop_rate=0.5).copies(*k) for k in decisions]
        b = [FaultPlan(2, drop_rate=0.5).copies(*k) for k in decisions]
        assert a != b

    def test_crash_accepts_pairs_and_instances(self):
        plan = FaultPlan(crashes=[(3, 5), CrashFault(4, 7)])
        assert plan.crash_round == {3: 5, 4: 7}

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(duplicate_rate=-0.1)
        with pytest.raises(ValueError):
            CrashFault(0, 0)  # crash rounds start at 1
        with pytest.raises(ValueError):
            FaultPlan(crashes=[(0, 3), (0, 4)])  # two different crash rounds
        with pytest.raises(ValueError):
            LinkDown(0, 1, 5, 4)  # empty interval
        with pytest.raises(ValueError):
            LinkDown(0, 1, 0, 4)  # rounds start at 1

    def test_is_empty(self):
        # An empty plan describes itself with zero counts; a seed alone
        # injects nothing, and each explicit fault kind is counted.
        assert set(FaultPlan().describe()["counts"].values()) == {0}
        assert FaultPlan(seed=99).describe() == {**FaultPlan().describe(), "seed": 99}
        for kwargs, kind in (
            ({"drops": [(0, 1, 1)]}, "drops"),
            ({"crashes": [(0, 1)]}, "crashes"),
            ({"link_downs": [(0, 1, 1, 1)]}, "link_downs"),
        ):
            counts = FaultPlan(**kwargs).describe()["counts"]
            assert counts == {**FaultPlan().describe()["counts"], kind: 1}

    def test_describe_is_jsonable(self):
        plan = FaultPlan(
            3,
            drop_rate=0.1,
            duplicate_rate=0.2,
            drops=[(0, 1, 2)],
            crashes=[(4, 5)],
            link_downs=[(1, 2, 3, 4)],
        )
        text = json.dumps(plan.describe())
        assert "drop_rate" in text and "crashes" in text


# -- injected behaviour ------------------------------------------------------


def _courier(sends, last=None):
    """Node 0 sends ``(r,)`` to node 1 in each round ``r`` in ``sends``;
    node 1 logs every receipt as ``(arrival_round, payload)``.  Both sides
    stay scheduled via ``wake()`` (scheduler-neutral) and halt after the
    last scheduled send plus a three-round delivery margin."""
    last = max(sends) if last is None else last

    def init(ctx):
        ctx.state["r"] = 0
        ctx.state["got"] = []

    def on_round(ctx, inbox):
        ctx.state["r"] += 1
        r = ctx.state["r"]
        for payload in inbox.values():
            ctx.state["got"].append((r, payload[0]))
        if r >= last + 3:
            ctx.halt(tuple(ctx.state["got"]))
        else:
            ctx.wake()
        if ctx.node == 0 and r in sends:
            return {1: (r,)}
        return None

    return init, on_round


def _run_courier(sends, faults, scheduler="active", trace=None):
    init, on_round = _courier(sends)
    return Network(gen.path_graph(2)).run(
        init, on_round, max_rounds=60, scheduler=scheduler, trace=trace, faults=faults
    )


class TestInjectedFaults:
    def test_explicit_drop_destroys_exactly_that_message(self):
        res = _run_courier([1, 2, 3], FaultPlan(drops=[(0, 1, 2)]))
        # Round-r sends arrive in round r+1; the round-2 send is gone.
        assert res.outputs[1] == ((2, 1), (4, 3))
        assert res.lost_messages == 1
        assert res.messages_sent == 3  # the sender still paid for the loss

    def test_duplicate_stutters_one_round_later(self):
        trace = RoundTrace()
        res = _run_courier([1], FaultPlan(duplicates=[(0, 1, 1)]), trace=trace)
        assert res.outputs[1] == ((2, 1), (3, 1))
        assert res.duplicated_messages == 1
        assert res.messages_sent == 1  # the echo is the network's, not the sender's
        assert trace.total_duplicated == 1

    def test_link_down_interval_silences_the_edge(self):
        res = _run_courier([1, 2, 3, 4], FaultPlan(link_downs=[(0, 1, 2, 3)]))
        assert res.outputs[1] == ((2, 1), (5, 4))
        assert res.lost_messages == 2

    def test_crashed_node_is_silent_and_outputless(self):
        # Node 0 crashes before its round-3 send: only rounds 1-2 arrive.
        res = _run_courier([1, 2, 3], FaultPlan(crashes=[(0, 3)]))
        assert res.outputs[0] is None
        assert res.crashed == (0,)
        assert res.outputs[1] == ((2, 1), (3, 2))
        assert res.stop_reason != "max_rounds"  # crash does not hang the run

    def test_mail_in_flight_to_crashing_node_is_lost(self):
        # Sent in round 2, would arrive in round 3 — exactly when 1 crashes.
        trace = RoundTrace()
        res = _run_courier([1, 2], FaultPlan(crashes=[(1, 3)]), trace=trace)
        assert res.outputs[1] is None
        assert res.lost_messages == 1  # the round-2 send died with its target
        assert res.outputs[0] == ()
        assert trace.total_lost == 1
        assert any("crash" in w for w in trace.warnings)

    def test_counters_flow_into_trace_records(self):
        trace = RoundTrace()
        res = _run_courier(
            [1, 2, 3],
            FaultPlan(drops=[(0, 1, 1)], duplicates=[(0, 1, 2)]),
            trace=trace,
        )
        assert sum(rec.lost for rec in trace.records) == res.lost_messages == 1
        assert (
            sum(rec.duplicated for rec in trace.records)
            == res.duplicated_messages
            == 1
        )
        rec = trace.records[0].as_dict()
        assert "lost" in rec and "duplicated" in rec


# -- determinism and replay fingerprints -------------------------------------


class TestDeterminism:
    PLAN = dict(drop_rate=0.25, duplicate_rate=0.15, crashes=[(7, 6)])

    def _fingerprint(self, scheduler):
        trace = RoundTrace()
        with forced_scheduler(scheduler):
            res = bfs_run(
                gen.grid(5, 5), 0, trace=trace, faults=FaultPlan(11, **self.PLAN),
            )
        return run_fingerprint(res, trace)

    def test_same_seed_is_bit_identical_across_runs(self):
        assert self._fingerprint("active") == self._fingerprint("active")

    def test_same_seed_is_bit_identical_across_schedulers(self):
        assert self._fingerprint("active") == self._fingerprint("dense")

    def test_different_seed_changes_the_run(self):
        trace = RoundTrace()
        res = bfs_run(gen.grid(5, 5), 0, trace=trace, faults=FaultPlan(12, **self.PLAN))
        assert run_fingerprint(res, trace) != self._fingerprint("active")

    def test_fingerprint_covers_loss_counters(self):
        clean = bfs_run(gen.grid(4, 4), 0)
        faulted = bfs_run(gen.grid(4, 4), 0, faults=FaultPlan(duplicates=[(0, 1, 1)]))
        assert run_fingerprint(clean) != run_fingerprint(faulted)


# -- empty-plan identity (faults are never ambient) --------------------------


def _tree_parent(graph, root):
    r = bfs_run(graph, root)
    return {v: o[1] for v, o in r.outputs.items()}


class TestEmptyPlanIdentity:
    """Every sim, both schedulers: ``faults=FaultPlan()`` == no plan."""

    @pytest.mark.parametrize("scheduler", ["active", "dense"])
    def test_runresult_sims(self, scheduler):
        g = gen.grid(5, 6)
        parent = _tree_parent(g, 0)
        values = {v: 1 for v in g.nodes}
        runs = [
            lambda f: bfs_run(g, 0, faults=f),
            lambda f: broadcast_run(g, 0, 42, parent, faults=f),
            lambda f: convergecast_run(g, 0, values, parent, faults=f),
            lambda f: awerbuch_dfs_run(g, 0, faults=f),
        ]
        for make in runs:
            with forced_scheduler(scheduler):
                base, empty = make(None), make(FaultPlan())
            assert run_fingerprint(base) == run_fingerprint(empty)
            assert empty.lost_messages == 0 and empty.duplicated_messages == 0

    @pytest.mark.parametrize("scheduler", ["active", "dense"])
    def test_mst(self, scheduler):
        g = gen.delaunay(30, seed=2)
        with forced_scheduler(scheduler):
            base = boruvka_mst_run(g)
            empty = boruvka_mst_run(g, faults=FaultPlan())
        assert (base.edges, base.phases, base.rounds) == (
            empty.edges, empty.phases, empty.rounds
        )

    @pytest.mark.parametrize("scheduler", ["active", "dense"])
    def test_fragments(self, scheduler):
        g = gen.grid(6, 6)
        tree = bfs_tree(g, 0)
        with forced_scheduler(scheduler):
            base = fragment_merge_run(g, tree)
            empty = fragment_merge_run(g, tree, faults=FaultPlan())
        assert (base.iterations, base.rounds) == (empty.iterations, empty.rounds)
        with forced_scheduler(scheduler):
            mbase = mark_path_merge_run(g, tree, 0, 35)
            mempty = mark_path_merge_run(g, tree, 0, 35, faults=FaultPlan())
        assert (mbase.iterations, mbase.rounds, mbase.merge_edge) == (
            mempty.iterations, mempty.rounds, mempty.merge_edge
        )

    @pytest.mark.parametrize("scheduler", ["active", "dense"])
    def test_partwise(self, scheduler):
        g = gen.grid(5, 8)
        nodes = sorted(g.nodes)
        parts = [nodes[i: i + 8] for i in range(0, len(nodes), 8)]
        values = {v: (v * 7) % 13 for v in g.nodes}
        with forced_scheduler(scheduler):
            base = partwise_aggregation_run(g, parts, values)
            empty = partwise_aggregation_run(g, parts, values, faults=FaultPlan())
        assert (base.aggregates, base.rounds, base.charge) == (
            empty.aggregates, empty.rounds, empty.charge
        )
        part_values = {i: i + 1 for i in range(len(parts))}
        with forced_scheduler(scheduler):
            bbase = partwise_broadcast_run(g, parts, part_values)
            bempty = partwise_broadcast_run(g, parts, part_values, faults=FaultPlan())
        assert (bbase.aggregates, bbase.rounds) == (bempty.aggregates, bempty.rounds)

    @pytest.mark.parametrize("scheduler", ["active", "dense"])
    def test_weights(self, scheduler):
        cfg = PlanarConfiguration.build(gen.grid(5, 5), root=0)
        with forced_scheduler(scheduler):
            base = weights_problem_run(cfg)
            empty = weights_problem_run(cfg, faults=FaultPlan())
        assert (base.weights, base.rounds, base.orders) == (
            empty.weights, empty.rounds, empty.orders
        )


# -- CongestViolation context ------------------------------------------------


class TestViolationContext:
    def _run(self, on_round, n=3):
        return Network(gen.path_graph(n)).run(lambda ctx: None, on_round, 5)

    def test_non_neighbor_send_carries_context(self):
        def on_round(ctx, inbox):
            if ctx.node == 0:
                return {2: (1,)}  # 0 and 2 are not adjacent on a path
            ctx.halt()
            return None

        with pytest.raises(CongestViolation) as err:
            self._run(on_round)
        exc = err.value
        assert exc.node == 0 and exc.round == 1 and exc.edge == (0, 2)
        assert "node=0" in str(exc) and "round=1" in str(exc) and "0->2" in str(exc)

    def test_oversized_payload_carries_payload_repr(self):
        fat = tuple(range(1, 30))

        def on_round(ctx, inbox):
            if ctx.node == 0:
                return {1: fat}
            ctx.halt()
            return None

        with pytest.raises(CongestViolation) as err:
            self._run(on_round)
        exc = err.value
        assert exc.node == 0 and exc.round == 1 and exc.edge == (0, 1)
        assert exc.payload == fat
        assert "payload=" in str(exc) and "budget" in str(exc)

    def test_uncostable_payload_carries_context(self):
        def on_round(ctx, inbox):
            if ctx.node == 0:
                return {1: object()}
            ctx.halt()
            return None

        with pytest.raises(CongestViolation) as err:
            self._run(on_round)
        exc = err.value
        assert exc.node == 0 and exc.round == 1 and exc.edge == (0, 1)
        assert "no CONGEST word cost" in str(exc)
