"""Resilience primitives: ack/retransmit wrappers and graceful abort.

The contract (docs/MODEL.md, "The fault model"): a fault-injected run
either completes and passes its ``repro.core.verify`` check, or the
caller gets a structured :class:`FailureReport` — never a hang, never a
silently wrong answer.  Locked here:

* ``resilient_broadcast_run`` covers the surviving component under
  crash-stop faults and recovers from message loss shorter than its
  retry budget; the plain ``broadcast_run`` under the same crash is
  diagnosed as failed rather than trusted;
* ``resilient_convergecast_run`` salvages the aggregate around crashed
  leaves and interior nodes via depth-staggered timeouts;
* ``resilient_dfs_run`` verifies clean traversals and converts an
  orphaned token into a report;
* the ``surviving_component`` / ``check_broadcast_coverage`` /
  ``check_component_dfs`` verification helpers themselves.
"""

import json

import networkx as nx
import pytest

from repro.congest import (
    FailureReport,
    FaultPlan,
    awerbuch_dfs_run,
    bfs_run,
    broadcast_run,
    diagnose_run,
    resilient_broadcast_run,
    resilient_convergecast_run,
    resilient_dfs_run,
    run_fingerprint,
)
from repro.core.verify import (
    VerificationError,
    check_broadcast_coverage,
    check_component_dfs,
    surviving_component,
)
from repro.planar import generators as gen

from conftest import forced_scheduler


def _chain_parent(n):
    return {v: (v - 1 if v else None) for v in range(n)}


# -- verification helpers ----------------------------------------------------


class TestVerifyHelpers:
    def test_surviving_component_cuts_at_crash(self):
        g = gen.path_graph(5)
        assert surviving_component(g, 0, crashed=(2,)) == {0, 1}
        assert surviving_component(g, 4, crashed=(2,)) == {3, 4}
        assert surviving_component(g, 0) == set(g.nodes)

    def test_crashed_root_has_no_component(self):
        assert surviving_component(gen.path_graph(3), 0, crashed=(0,)) == set()
        with pytest.raises(VerificationError):
            check_broadcast_coverage(gen.path_graph(3), 0, {}, 7, crashed=(0,))

    def test_coverage_passes_and_fails(self):
        g = gen.path_graph(5)
        outputs = {v: 7 for v in g.nodes}
        component = check_broadcast_coverage(g, 0, outputs, 7)
        assert component == set(g.nodes)
        # Node 1 survives and missed the value: that is a failure ...
        with pytest.raises(VerificationError):
            check_broadcast_coverage(g, 0, {**outputs, 1: None}, 7)
        # ... but a node disconnected by the crash is excused.
        check_broadcast_coverage(
            g, 0, {0: 7, 1: 7, 3: None, 4: None}, 7, crashed=(2,)
        )

    def test_component_dfs_restricts_to_survivors(self):
        g = gen.path_graph(5)
        parent = _chain_parent(5)
        check_component_dfs(g, parent, 0)
        # Crash 2: the surviving component is {0, 1}; the chain restricted
        # to it is still a valid DFS tree, whatever 3 and 4 claim.
        check_component_dfs(g, parent, 0, crashed=(2,))
        # A survivor pointing at a parent outside the component is not.
        with pytest.raises(VerificationError):
            check_component_dfs(g, {0: None, 1: 3}, 0, crashed=(2,))


# -- resilient broadcast -----------------------------------------------------


class TestResilientBroadcast:
    def test_clean_run_covers_everyone(self):
        g = gen.grid(4, 4)
        result, report = resilient_broadcast_run(g, 0, 42)
        assert report is None
        assert all(out == (42, ()) for out in result.outputs.values())
        check_broadcast_coverage(
            g, 0, {v: out[0] for v, out in result.outputs.items()}, 42
        )

    def test_crash_stop_covers_surviving_component(self):
        g = gen.grid(4, 4)
        plan = FaultPlan(crashes=[(5, 2)])
        result, report = resilient_broadcast_run(g, 0, 42, faults=plan)
        assert report is None
        assert result.crashed == (5,)
        component = check_broadcast_coverage(
            g,
            0,
            {v: out[0] for v, out in result.outputs.items() if out is not None},
            42,
            crashed=result.crashed,
        )
        assert component == set(g.nodes) - {5}

    def test_plain_broadcast_under_same_crash_is_diagnosed(self):
        # The unwrapped tree downcast has no recovery: nodes below the
        # crash wait forever and the run is reported, not trusted.
        g = gen.path_graph(6)
        plan = FaultPlan(crashes=[(2, 1)])
        result = broadcast_run(g, 0, 42, _chain_parent(6), faults=plan)
        report = diagnose_run(result, kind="broadcast")
        assert report is not None
        assert report.reason in ("deadlock", "max_rounds", "missing-outputs")
        assert report.crashed == (2,)
        json.dumps(report.as_dict())  # artifacts can carry it

    def test_root_crash_is_reported(self):
        result, report = resilient_broadcast_run(
            gen.path_graph(4), 0, 9, faults=FaultPlan(crashes=[(0, 1)])
        )
        assert report is not None and report.reason == "root-crashed"

    def test_retransmit_recovers_from_explicit_drops(self):
        # First DATA hop 0->1 and first flood hop 1->2 are both destroyed;
        # the bounded retransmit re-sends and the broadcast still covers.
        g = gen.path_graph(3)
        plan = FaultPlan(drops=[(0, 1, 1), (1, 2, 4)])
        result, report = resilient_broadcast_run(g, 0, 42, faults=plan)
        assert report is None
        assert result.lost_messages == 2
        assert all(out[0] == 42 for out in result.outputs.values())

    def test_loss_beyond_retry_budget_is_reported_not_hidden(self):
        # The only edge to node 2 is down longer than the whole retry
        # budget: node 2 cannot be covered, and the report says so.
        g = gen.path_graph(3)
        plan = FaultPlan(link_downs=[(1, 2, 1, 200)])
        result, report = resilient_broadcast_run(g, 0, 42, faults=plan)
        assert report is not None
        assert report.reason == "uncovered-component"
        assert report.missing == (2,)
        assert 2 in report.suspected  # node 1 exhausted its retries on 2
        assert result.stop_reason == "halted"  # graceful, not a hang

    def test_deterministic_across_schedulers(self):
        plan = FaultPlan(5, drop_rate=0.2, crashes=[(6, 4)])
        prints = []
        for scheduler in ("active", "dense"):
            with forced_scheduler(scheduler):
                result, report = resilient_broadcast_run(
                    gen.grid(3, 4), 0, 17, faults=plan
                )
            assert report is None
            prints.append(run_fingerprint(result))
        assert prints[0] == prints[1]


# -- resilient convergecast --------------------------------------------------


class TestResilientConvergecast:
    def test_clean_aggregate(self):
        g = gen.path_graph(8)
        values = {v: 1 for v in g.nodes}
        result, report = resilient_convergecast_run(
            g, 0, values, _chain_parent(8), child_timeout=20
        )
        assert report is None
        assert result.outputs[0] == (8, ())

    def test_crashed_leaf_is_suspected_and_salvaged(self):
        # The deepest leaf crashes before reporting; its parent times out,
        # suspects it, and the salvaged aggregate still climbs to the root
        # (depth-staggered timeouts keep the ancestors patient).
        n = 16
        g = gen.path_graph(n)
        values = {v: 1 for v in g.nodes}
        result, report = resilient_convergecast_run(
            g, 0, values, _chain_parent(n),
            child_timeout=20, faults=FaultPlan(crashes=[(n - 1, 1)]),
        )
        assert report is None
        assert result.outputs[0] == (n - 1, ())
        assert result.outputs[n - 2][1] == (n - 1,)  # the parent's suspicion

    def test_crashed_interior_orphans_its_subtree(self):
        n = 16
        crash = 8
        g = gen.path_graph(n)
        values = {v: 1 for v in g.nodes}
        result, report = resilient_convergecast_run(
            g, 0, values, _chain_parent(n),
            child_timeout=20, faults=FaultPlan(crashes=[(crash, 1)]),
        )
        assert report is None  # graceful: everyone halts, nobody hangs
        # Root side: the aggregate covers exactly the surviving tree path.
        assert result.outputs[0] == (crash, ())
        assert result.outputs[crash - 1][1] == (crash,)
        # Orphan side: the subtree aggregated locally, then gave up on its
        # dead parent with its partial sum intact.
        assert result.outputs[crash + 1][0] == n - crash - 1

    def test_duplicates_and_link_down_in_same_window(self):
        # A link outage on an interior report edge and stutter duplicates
        # firing through the same rounds: retransmission must repair the
        # outage without the duplicated reports double-counting into the
        # aggregate.  Both faults must actually fire for the test to mean
        # anything, so the counters are asserted too.
        n = 8
        g = gen.path_graph(n)
        values = {v: 1 for v in g.nodes}
        plan = FaultPlan(
            seed=5,
            duplicate_rate=0.4,
            link_downs=[(3, 2, 1, 6)],
        )
        result, report = resilient_convergecast_run(
            g, 0, values, _chain_parent(n), child_timeout=30, faults=plan
        )
        assert report is None
        assert result.outputs[0] == (n, ())  # exact sum: no double counting
        assert result.lost_messages > 0  # the outage destroyed messages
        assert result.duplicated_messages > 0  # and duplicates were delivered
        # Nobody was suspected: the outage ended inside the retry budget.
        assert all(out[1] == () for out in result.outputs.values())

    def test_deterministic_across_schedulers(self):
        n = 10
        g = gen.path_graph(n)
        values = {v: v for v in g.nodes}
        plan = FaultPlan(3, drop_rate=0.15, crashes=[(n - 1, 2)])
        prints = []
        for scheduler in ("active", "dense"):
            with forced_scheduler(scheduler):
                result, _ = resilient_convergecast_run(
                    g, 0, values, _chain_parent(n),
                    child_timeout=20, faults=plan,
                )
            prints.append(run_fingerprint(result))
        assert prints[0] == prints[1]


# -- resilient DFS -----------------------------------------------------------


class TestResilientDFS:
    def test_clean_run_verifies(self):
        g = gen.grid(4, 4)
        result, report = resilient_dfs_run(g, 0)
        assert report is None
        baseline = awerbuch_dfs_run(g, 0)
        assert result.outputs == baseline.outputs

    def test_orphaned_token_is_reported_not_hung(self):
        # The token's next holder crashes before the handoff: no retransmit
        # can restore depth-first order, so the wrapper reports.
        g = gen.path_graph(8)
        result, report = resilient_dfs_run(g, 0, faults=FaultPlan(crashes=[(1, 1)]))
        assert report is not None
        assert report.kind == "dfs"
        assert report.reason in ("deadlock", "max_rounds", "missing-outputs")
        assert report.crashed == (1,)
        assert report.partial_outputs  # the salvageable state is attached

    def test_token_message_drop_is_reported(self):
        # Destroying the single token handoff (round 2 on a path; round 1
        # carries the visit-notify, which the protocol tolerates) orphans
        # the traversal too.
        g = gen.path_graph(6)
        result, report = resilient_dfs_run(g, 0, faults=FaultPlan(drops=[(0, 1, 2)]))
        assert report is not None
        assert report.reason in ("deadlock", "max_rounds", "missing-outputs")
        # A dropped notify alone does not: DFS still completes and verifies.
        _, clean = resilient_dfs_run(g, 0, faults=FaultPlan(drops=[(0, 1, 1)]))
        assert clean is None


# -- diagnose_run ------------------------------------------------------------


class TestDiagnoseRun:
    def test_clean_run_yields_none(self):
        result = bfs_run(gen.grid(3, 3), 0)
        assert diagnose_run(result) is None

    def test_missing_outputs_detected(self):
        # Crash-free BFS always outputs; fake the gap via a halted node.
        g = nx.path_graph(3)
        from repro.congest import Network

        def on_round(ctx, inbox):
            ctx.halt(None if ctx.node == 1 else ctx.node)
            return None

        result = Network(g).run(lambda ctx: None, on_round, 5)
        report = diagnose_run(result)
        assert report is not None and report.reason == "missing-outputs"
        assert report.missing == (1,)

    def test_crashed_nodes_are_not_missing(self):
        result = bfs_run(
            gen.grid(3, 3), 0, faults=FaultPlan(crashes=[(8, 1)])
        )
        report = diagnose_run(result)
        # Node 8 has no output because it crashed — that alone is not a
        # diagnosis; only surviving nodes are held to the output contract.
        if report is not None:
            assert 8 not in report.missing

    def test_report_repr_and_dict(self):
        report = FailureReport(
            kind="x", reason="y", rounds=3, stop_reason="deadlock", crashed=(1,)
        )
        assert report.as_dict()["crashed"] == ["1"]
        json.dumps(report.as_dict())
