"""Churn campaigns and update-sequence shrinking (docs/CHAOS.md)."""

import json

import pytest

from repro.chaos.campaign import campaign_metrics, write_campaign
from repro.chaos.churn import (
    CHURN_CAMPAIGNS,
    ChurnCampaignConfig,
    churn_campaign_units,
    churn_unit_updates,
    emit_churn_stanza,
    run_churn_campaign,
    run_churn_unit,
    shrink_churn_unit,
)

#: A unit whose injected repair bug provably trips the oracles (found by
#: sweeping the smoke families; the schedule is a pure function of these
#: fields, so it reproduces everywhere).
BUG_UNIT = {
    "campaign": "bug-demo",
    "kind": "churn",
    "family": "triangulated_grid",
    "n": 25,
    "graph_seed": 18,
    "seed": 18,
    "flap_rate": 0.03,
    "rounds": 8,
    "down_for": 1,
    "fallback_fraction": 2 / 3,
    "repair_bugs": ["ignore-separator-merge"],
}


class TestUnitGrid:
    def test_smoke_grid_has_at_least_hundred_units(self):
        units = churn_campaign_units(CHURN_CAMPAIGNS["smoke"])
        assert len(units) >= 100
        # one clean control point per (family, graph seed)
        clean = [u for u in units if not u["flap_rate"]]
        cfg = CHURN_CAMPAIGNS["smoke"]
        assert len(clean) == len(cfg.families) * len(cfg.graph_seeds)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            ChurnCampaignConfig(
                name="x", families=("outerplanar",), n=10,
                graph_seeds=(1,), flap_seeds=(1,), flap_rates=(0.1,),
            )

    def test_unit_updates_deterministic(self):
        unit = churn_campaign_units(CHURN_CAMPAIGNS["smoke"])[1]
        assert churn_unit_updates(unit) == churn_unit_updates(unit)

    def test_clean_unit_has_no_updates_and_passes(self):
        unit = churn_campaign_units(CHURN_CAMPAIGNS["smoke"])[0]
        assert not unit["flap_rate"]
        row = run_churn_unit(unit)
        assert row["ok"] and row["plan"] is None and row["updates"] == 0


class TestCampaign:
    def test_mini_campaign_runs_clean(self, tmp_path):
        config = ChurnCampaignConfig(
            name="churn-mini",
            families=("delaunay", "grid"),
            n=16,
            graph_seeds=(1,),
            flap_seeds=(3, 7),
            flap_rates=(0.05,),
            rounds=4,
        )
        summary = run_churn_campaign(config)
        assert summary["coverage"]["violations"] == 0
        assert summary["units"] == len(churn_campaign_units(config))
        assert summary["coverage"]["rows"] == summary["units"]
        assert set(summary["coverage"]["by_scenario"]) == {"delaunay", "grid"}
        # the shared artifact/metrics plumbing applies verbatim
        paths = write_campaign(summary, tmp_path)
        loaded = json.loads(paths[0].read_text())
        assert loaded["campaign"] == "churn-mini"
        prom = campaign_metrics(summary).to_prometheus()
        assert "repro_chaos_units_total" in prom

    def test_injected_bug_surfaces_as_violation(self):
        row = run_churn_unit(BUG_UNIT)
        assert not row["ok"]
        assert "unsound repair" in row["violation"]


class TestShrink:
    def test_shrinks_to_one_minimal_sequence(self):
        result = shrink_churn_unit(BUG_UNIT)
        assert 0 < len(result.updates) < result.recorded_updates
        # 1-minimality: dropping any single update loses the violation
        from repro.chaos.churn import _replay_fails

        for i in range(len(result.updates)):
            subset = result.updates[:i] + result.updates[i + 1:]
            assert _replay_fails(BUG_UNIT, subset) is None, i

    def test_stanza_is_executable_pytest(self):
        result = shrink_churn_unit(BUG_UNIT)
        stanza = emit_churn_stanza(result)
        namespace = {}
        exec(stanza, namespace)  # noqa: S102 - generated reproducer
        [test] = [v for k, v in namespace.items() if k.startswith("test_")]
        test()  # must pass: the violation reproduces

    def test_passing_unit_refuses_to_shrink(self):
        unit = dict(BUG_UNIT, repair_bugs=[])
        with pytest.raises(ValueError):
            shrink_churn_unit(unit)

    def test_describe_round_trips_json(self):
        result = shrink_churn_unit(BUG_UNIT)
        json.dumps(result.describe())
