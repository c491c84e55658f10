"""Chaos campaigns, oracle scenarios and fault-plan shrinking.

Locked here (docs/CHAOS.md):

* every scenario passes clean and under a plan drawn from its
  ``HARDENED`` capability set;
* the ``smoke`` campaign — the CI gate — is violation-free, reproduces
  its fingerprints on an independent rerun, and its grid never schedules a fault kind a scenario is not hardened
  against;
* a failing unit's recorded fault schedule *materializes* into an
  explicit plan that reproduces the violation, ``ddmin`` shrinks it to a
  1-minimal schedule, and the emitted pytest stanza is executable as-is;
* the ``repro_chaos_*`` counters reach the Prometheus exposition and the
  ``BENCH_SUMMARY.json`` metrics mirror without disturbing the
  ``--compare`` regression gate.
"""

import json

import pytest

from repro.analysis import runner
from repro.chaos.campaign import (
    CAMPAIGNS,
    campaign_metrics,
    campaign_units,
    run_campaign,
    unit_plan,
    write_campaign,
)
from repro.chaos.scenarios import (
    SCENARIOS,
    hardened_against,
    run_scenario,
)
from repro.chaos.shrink import (
    RecordingPlan,
    ddmin,
    emit_stanza,
    materialize,
    shrink_unit,
)
from repro.congest import FaultPlan, ReliableTransport

from conftest import forced_scheduler

#: A failing unit used throughout the shrink tests: corruption defeats
#: the PR 3 broadcast wrapper (its ack layer has no checksums), so this
#: point fails deterministically and shrinks fast.
FAILING_UNIT = {
    "scenario": "broadcast",
    "n": 18,
    "graph_seed": 1,
    "seed": 3,
    "drop_rate": 0.0,
    "duplicate_rate": 0.1,
    "corrupt_rate": 0.08,
    "transport": True,
}


# -- scenarios ---------------------------------------------------------------


class TestScenarios:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_clean_run_is_ok(self, name):
        outcome = run_scenario(name, n=18)
        assert outcome["ok"], outcome["violation"]
        assert outcome["rounds"] > 0
        assert outcome["plan"] is None

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_hardened_faults_are_survived(self, name):
        kinds = hardened_against(name)
        plan = FaultPlan(
            seed=3,
            drop_rate=0.1 if "drop" in kinds else 0.0,
            duplicate_rate=0.1 if "duplicate" in kinds else 0.0,
            corrupt_rate=0.05 if "corrupt" in kinds else 0.0,
        )
        outcome = run_scenario(
            name, n=18, plan=plan, transport=ReliableTransport()
        )
        assert outcome["ok"], outcome["violation"]

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_dense_dispatch_matches_active(self, name):
        # Scenarios dispatch active-set; the dense every-node reference
        # must give the same outcome, clean and under a smoke-grid plan.
        for plan in (None, FaultPlan(seed=3, drop_rate=0.12, duplicate_rate=0.1)):
            active = run_scenario(name, n=18, plan=plan, transport=ReliableTransport())
            with forced_scheduler("dense"):
                dense = run_scenario(
                    name, n=18, plan=plan, transport=ReliableTransport()
                )
            assert active["ok"], active["violation"]
            assert dense["fingerprint"] == active["fingerprint"], (plan, dense, active)

    def test_outcome_fingerprint_is_reproducible(self):
        plan = FaultPlan(seed=3, drop_rate=0.1)
        a = run_scenario("dfs", n=18, plan=plan, transport=ReliableTransport())
        b = run_scenario("dfs", n=18, plan=plan, transport=ReliableTransport())
        assert a["fingerprint"] == b["fingerprint"]

    def test_awerbuch_reclaim_regression(self):
        # Regression: under delay skew the token used to reach a node
        # that was already visited *and returned*, losing the traversal
        # to a deadlock.  The sender now reclaims the token from the
        # notify that names a different parent.  This exact grid point
        # deadlocked before the fix.
        outcome = run_scenario(
            "dfs", n=18,
            plan=FaultPlan(seed=3, drop_rate=0.12, duplicate_rate=0.1,
                           corrupt_rate=0.08),
            transport=ReliableTransport(),
        )
        assert outcome["ok"], outcome["violation"]


# -- the campaign grid -------------------------------------------------------


class TestCampaignGrid:
    def test_every_scenario_has_a_clean_control_unit(self):
        units = campaign_units(CAMPAIGNS["smoke"])
        for scenario in CAMPAIGNS["smoke"].scenarios:
            controls = [
                u for u in units
                if u["scenario"] == scenario and unit_plan(u) is None
            ]
            assert len(controls) == 1

    def test_grid_respects_the_capability_model(self):
        # The PR 3 wrappers are not hardened against corruption: the grid
        # must never schedule it for them, and must schedule it for the
        # transported scenarios.
        units = campaign_units(CAMPAIGNS["smoke"])
        assert all(
            not u["corrupt_rate"]
            for u in units if u["scenario"] == "broadcast"
        )
        assert any(
            u["corrupt_rate"] for u in units if u["scenario"] == "dfs"
        )

    def test_unit_plan_round_trips(self):
        units = campaign_units(CAMPAIGNS["smoke"])
        faulted = [u for u in units if unit_plan(u) is not None]
        assert faulted
        plan = unit_plan(faulted[0])
        assert plan.seed == faulted[0]["seed"]
        assert plan.drop_rate == faulted[0]["drop_rate"]


class TestSmokeCampaign:
    @pytest.fixture(scope="class")
    def smoke(self):
        return run_campaign(CAMPAIGNS["smoke"]), run_campaign(CAMPAIGNS["smoke"])

    def test_smoke_is_violation_free(self, smoke):
        summary, _ = smoke
        assert summary["coverage"]["violations"] == 0
        assert summary["units"] == len(campaign_units(CAMPAIGNS["smoke"]))
        assert summary["coverage"]["rows"] == summary["units"]
        # Faults actually fired — a vacuous pass would be worthless.
        assert summary["counters"]["congest_retransmits_total"] > 0
        assert summary["counters"]["congest_corruptions_detected_total"] > 0
        assert summary["worst_overhead"] is not None
        assert summary["worst_overhead"] >= 1.0

    def test_rerun_is_identical(self, smoke):
        # Two independent runs of the same seeded grid: every unit must
        # reproduce its outcome fingerprint and its full row.
        first, second = smoke
        assert len(first["fingerprints"]) > 1
        assert first["fingerprints"] == second["fingerprints"]
        assert first["rows"] == second["rows"]

    def test_metrics_exposition(self, smoke):
        summary, _ = smoke
        text = campaign_metrics(summary).to_prometheus()
        assert "repro_chaos_units_total" in text
        assert "repro_chaos_retransmits_total" in text
        assert 'verdict="ok"' in text

    def test_write_campaign_merges_the_exposition(self, smoke, tmp_path):
        # The results dir's metrics.prom is shared with the experiment
        # runner: foreign families survive, stale chaos lines are
        # replaced, and the JSON artifact round-trips.
        summary, _ = smoke
        prom = tmp_path / "metrics.prom"
        prom.write_text(
            "# TYPE repro_unit_wall_seconds gauge\n"
            "repro_unit_wall_seconds 1.5\n"
            "# TYPE repro_chaos_violations_total counter\n"
            "repro_chaos_violations_total 999\n"
        )
        paths = write_campaign(summary, tmp_path)
        text = prom.read_text()
        assert "repro_unit_wall_seconds 1.5" in text
        assert "repro_chaos_violations_total 999" not in text
        assert text.count("# TYPE repro_chaos_units_total") == 1
        loaded = json.loads(paths[0].read_text())
        assert loaded["campaign"] == "smoke"
        assert loaded["coverage"]["violations"] == 0


# -- shrinking ---------------------------------------------------------------


class TestShrink:
    @pytest.fixture(scope="class")
    def shrunk(self):
        return shrink_unit(FAILING_UNIT)

    def test_materialized_schedule_reproduces_the_violation(self):
        base = unit_plan(FAILING_UNIT)
        recording = RecordingPlan(base)
        first = run_scenario(
            FAILING_UNIT["scenario"], n=FAILING_UNIT["n"],
            plan=recording, transport=ReliableTransport(),
        )
        assert not first["ok"]
        replay = run_scenario(
            FAILING_UNIT["scenario"], n=FAILING_UNIT["n"],
            plan=materialize(recording.entries(), seed=base.seed),
            transport=ReliableTransport(),
        )
        assert replay["violation"] == first["violation"]

    def test_minimal_plan_is_small_and_one_minimal(self, shrunk):
        # The acceptance bar: a handful of entries, not a transcript.
        assert 1 <= len(shrunk.entries) <= 3
        assert shrunk.recorded_entries > len(shrunk.entries)

        def fails(entries):
            return run_scenario(
                shrunk.scenario, n=shrunk.n, graph_seed=shrunk.graph_seed,
                plan=materialize(entries, seed=shrunk.seed),
                transport=ReliableTransport(),
            )["violation"] == shrunk.violation

        assert fails(shrunk.entries)
        for i in range(len(shrunk.entries)):
            subset = shrunk.entries[:i] + shrunk.entries[i + 1:]
            assert not fails(subset)  # every remaining entry is load-bearing

    def test_ddmin_handles_a_synthetic_predicate(self):
        # Pure ddmin sanity, no simulator: the failure needs {2, 5}.
        entries = [("drop", 0, i, i) for i in range(8)]
        needed = {entries[2], entries[5]}
        minimal, tests = ddmin(
            entries, lambda subset: needed <= set(subset)
        )
        assert set(minimal) == needed
        assert tests > 0

    def test_emitted_stanza_is_executable(self, shrunk):
        stanza = emit_stanza(shrunk)
        assert f"seed={shrunk.seed}" in stanza
        namespace = {}
        exec(compile(stanza, "<stanza>", "exec"), namespace)
        fn = namespace[f"test_chaos_regression_{shrunk.scenario}_s{shrunk.seed}"]
        fn()  # the reproducer must fail the same way, as a plain test

    def test_shrinking_a_passing_unit_refuses(self):
        unit = {**FAILING_UNIT, "corrupt_rate": 0.0}
        with pytest.raises(ValueError, match="does not fail"):
            shrink_unit(unit)


# -- a committed reproducer (the workflow's end product) ---------------------
# Emitted by ``python -m repro chaos shrink --scenario broadcast --n 18
# --seed 3 --duplicate-rate 0.1 --corrupt-rate 0.08`` and pasted verbatim:
# one corrupted wrapper frame is enough to defeat the checksum-less PR 3
# broadcast — the documented capability gap the HARDENED model encodes.


def test_chaos_regression_broadcast_s3():
    """Shrunk chaos reproducer (1 fault entry).

    Violation: VerificationError: broadcast failed: uncovered-component
    """
    from repro.chaos.scenarios import run_scenario
    from repro.congest import FaultPlan, ReliableTransport

    plan = FaultPlan(seed=3, corruptions=[(0, 7, 1)])
    outcome = run_scenario(
        'broadcast', n=18, graph_seed=1,
        plan=plan, transport=ReliableTransport(),
    )
    assert outcome["violation"] == 'VerificationError: broadcast failed: uncovered-component'


# -- summary integration -----------------------------------------------------


class TestSummaryIntegration:
    def test_extra_metrics_reach_the_summary_and_stay_inert(self, tmp_path):
        runs = runner.run_experiments(["e13"])
        chaos_metrics = {"repro_chaos_violations_total": {"value": 0}}
        plain = runner.summary_dict(runs)
        enriched = runner.summary_dict(runs, extra_metrics=chaos_metrics)
        assert "repro_chaos_violations_total" in enriched["metrics"]
        assert "repro_chaos_violations_total" not in plain["metrics"]
        # The regression gate reads only "experiments": the extra key
        # must never flag drift in either direction.
        assert runner.compare_summaries(enriched, plain) == []
        assert runner.compare_summaries(plain, enriched) == []
        written = runner.write_summary(
            tmp_path / "s.json", runs, extra_metrics=chaos_metrics
        )
        assert written["metrics"]["repro_chaos_violations_total"] == {
            "value": 0
        }
