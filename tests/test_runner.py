"""Tests for the experiment-runner subsystem (the benchmark contract).

Covers the registry (all 15 experiments discoverable with claim refs),
the content-addressed cache the serve engine uses (hit/miss/invalidation
on code-version bump), the runner's rows and fail-fast contract (a unit
that raises stops ``run_experiments``, ``repro experiment`` and ``repro
chaos run``), the JSON artifact schema and provenance stamps, and the
``--compare`` regression gate — i.e. the guarantees written down in
docs/BENCHMARKS.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.analysis import cache as cache_mod
from repro.analysis import registry, runner
from repro.cli import main


# -- registry ---------------------------------------------------------------


class TestRegistry:
    def test_all_fifteen_discoverable(self):
        assert registry.all_keys() == [f"e{i}" for i in range(1, 16)]

    def test_claim_refs_and_titles_nonempty(self):
        for key in registry.all_keys():
            spec = registry.get(key)
            assert spec.claim.strip(), key
            assert spec.title.strip(), key
            assert spec.doc.strip(), key

    def test_default_params_are_jsonable(self):
        for key in registry.all_keys():
            spec = registry.get(key)
            params = registry.resolve_params(spec, None, "default")
            json.dumps(registry.jsonable(params))

    def test_small_grid_resolves_everywhere(self):
        # Every experiment must run under --grid small (the CI grid),
        # whether or not it registers explicit small params.
        for key in registry.all_keys():
            spec = registry.get(key)
            params = registry.resolve_params(spec, None, "small")
            units = registry.plan_units(spec, params)
            assert units, key

    def test_unknown_override_rejected(self):
        with pytest.raises(TypeError):
            registry.resolve_params(registry.get("e1"), {"bogus": 1}, "default")

    def test_unknown_grid_rejected(self):
        with pytest.raises(ValueError):
            registry.resolve_params(registry.get("e1"), None, "huge")

    def test_unit_plans_survive_json(self):
        spec = registry.get("e13")
        units = registry.plan_units(spec, registry.resolve_params(spec, None, "default"))
        assert units == json.loads(json.dumps(units))

    def test_duplicate_registration_rejected(self):
        decorate = registry.experiment(
            "e13", claim="dup", title="dup", units=lambda: [], run_unit=lambda u: []
        )
        with pytest.raises(ValueError, match="registered twice"):
            decorate(lambda: [])
        assert registry.get("e13").claim != "dup"


# -- cache ------------------------------------------------------------------


class TestInstanceCache:
    def test_miss_then_hit(self, tmp_path):
        cache = cache_mod.InstanceCache(tmp_path)
        key = ["grid", 100, 0]
        hit, _ = cache.get("diameter", key)
        assert not hit
        cache.put("diameter", key, 18)
        hit, value = cache.get("diameter", key)
        assert hit and value == 18
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1

    def test_code_version_bump_invalidates(self, tmp_path):
        old = cache_mod.InstanceCache(tmp_path, version="aaaa")
        old.put("diameter", ["grid", 100, 0], 18)
        bumped = cache_mod.InstanceCache(tmp_path, version="bbbb")
        hit, _ = bumped.get("diameter", ["grid", 100, 0])
        assert not hit  # different version -> different content address
        hit, value = cache_mod.InstanceCache(tmp_path, version="aaaa").get(
            "diameter", ["grid", 100, 0]
        )
        assert hit and value == 18

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = cache_mod.InstanceCache(tmp_path)
        cache.put("graph", ["delaunay", 90, 2], [1, 2, 3])
        path = cache._path("graph", ["delaunay", 90, 2])
        path.write_bytes(b"not a pickle")
        hit, _ = cache.get("graph", ["delaunay", 90, 2])
        assert not hit

    def test_truncated_entry_is_a_miss(self, tmp_path):
        # A crash (or kill -9) mid-write leaves a half-pickle on disk; the
        # cache must treat it as a miss, not explode or return garbage.
        cache = cache_mod.InstanceCache(tmp_path)
        cache.put("graph", ["delaunay", 90, 2], list(range(1000)))
        path = cache._path("graph", ["delaunay", 90, 2])
        content = path.read_bytes()
        assert len(content) > 2
        path.write_bytes(content[: len(content) // 2])
        hit, _ = cache.get("graph", ["delaunay", 90, 2])
        assert not hit
        # And a fresh put self-heals the entry.
        cache.put("graph", ["delaunay", 90, 2], [7])
        hit, value = cache.get("graph", ["delaunay", 90, 2])
        assert hit and value == [7]

    def test_fault_and_transport_sources_are_fingerprinted(self):
        # The fingerprint covers the simulator, the fault machinery, the
        # transport and the chaos harness, not only the algorithm.
        for rel in (
            "congest/network.py",
            "congest/faults.py",
            "congest/transport.py",
            "congest/awerbuch.py",
            "chaos/scenarios.py",
            "chaos/campaign.py",
        ):
            assert rel in cache_mod._FINGERPRINTED_SOURCES

    def test_every_loaded_source_is_fingerprinted(self):
        # Cached serve results hold separators and DFS trees, so an edit
        # anywhere on the algorithm's path (core/, the LR port,
        # centroids, ...) must invalidate them, not only edits to a
        # hand-picked list.
        from repro.core.config import PlanarConfiguration
        from repro.core.dfs import dfs_tree
        from repro.core.separator import cycle_separator
        from repro.planar import generators as gen

        g = gen.delaunay(40, seed=3)
        dfs_tree(g, 0)
        cycle_separator(PlanarConfiguration.build(g, root=0))
        root = Path(cache_mod.__file__).resolve().parents[1]
        loaded = [
            Path(module.__file__).resolve().relative_to(root).as_posix()
            for name, module in list(sys.modules.items())
            if name.startswith("repro.") and getattr(module, "__file__", None)
        ]
        missing = [rel for rel in loaded if rel not in cache_mod._FINGERPRINTED_SOURCES]
        assert not missing, f"loaded sources missing from the fingerprint: {missing}"

    def test_disabled_cache_never_hits(self, tmp_path):
        cache = cache_mod.InstanceCache(tmp_path, enabled=False)
        cache.put("diameter", ["grid", 100, 0], 18)
        hit, _ = cache.get("diameter", ["grid", 100, 0])
        assert not hit


# -- experiments ------------------------------------------------------------


class TestE11Errors:
    UNIT = {"variant": "full", "ablation": [], "seeds": [0]}

    def test_separator_error_counts_as_ablation_error(self, monkeypatch):
        from repro.analysis import experiments
        from repro.core.separator import SeparatorError

        def fail(cfg, ablation):
            raise SeparatorError("no balanced candidate")

        monkeypatch.setattr(experiments, "cycle_separator", fail)
        (row,) = experiments._e11_unit(self.UNIT)
        assert row["errors"] == row["runs"] > 0

    def test_foreign_error_propagates(self, monkeypatch):
        from repro.analysis import experiments

        def fail(cfg, ablation):
            raise TypeError("a bug, not an ablation failure")

        monkeypatch.setattr(experiments, "cycle_separator", fail)
        with pytest.raises(TypeError, match="a bug"):
            experiments._e11_unit(self.UNIT)


# -- runner -----------------------------------------------------------------


@pytest.fixture(scope="module")
def e13_run():
    return runner.run_experiments(["e13"])["e13"]


class TestRunner:
    def test_rows_match_direct_call(self, e13_run):
        from repro.analysis import experiments

        assert e13_run.rows == experiments.e13_charge_honesty()

    def test_unit_timings_cover_every_unit(self, e13_run):
        spec = registry.get("e13")
        units = registry.plan_units(spec, registry.resolve_params(spec, None, "default"))
        assert [t["unit"] for t in e13_run.unit_timings] == units
        for timing in e13_run.unit_timings:
            assert set(timing) == {"unit", "wall_s", "max_rss_kb"}
            assert timing["wall_s"] >= 0.0
            assert timing["max_rss_kb"] > 0


# -- fail-fast --------------------------------------------------------------


class _UnitBroke(RuntimeError):
    pass


def _broken_unit(unit):
    raise _UnitBroke(f"unit {unit} is broken")


class TestFailFast:
    """The algorithms are deterministic, so a unit that raises would raise
    again: the exception propagates and no artifact is written."""

    def test_run_experiments_raises_the_unit_error(self, monkeypatch):
        monkeypatch.setattr(registry.get("e13"), "run_unit_fn", _broken_unit)
        with pytest.raises(_UnitBroke):
            runner.run_experiments(["e13"])

    def test_experiment_command_fails(self, monkeypatch, tmp_path):
        monkeypatch.setattr(registry.get("e13"), "run_unit_fn", _broken_unit)
        results = tmp_path / "results"
        summary_path = tmp_path / "BENCH_SUMMARY.json"
        # An exception out of main() exits ``python -m repro`` with status 1.
        with pytest.raises(_UnitBroke):
            main([
                "experiment", "e13", "--json-only",
                "--results-dir", str(results), "--summary", str(summary_path),
            ])
        assert not results.exists() and not summary_path.exists()

    def test_chaos_run_fails(self, monkeypatch, tmp_path):
        from repro.chaos import campaign

        def broken_scenario(name, **kwargs):
            raise _UnitBroke(f"scenario {name} is broken")

        monkeypatch.setattr(campaign, "run_scenario", broken_scenario)
        with pytest.raises(_UnitBroke):
            main([
                "chaos", "run", "--campaign", "smoke",
                "--results-dir", str(tmp_path), "--fail-on-violation",
            ])
        assert not (tmp_path / "chaos_smoke.json").exists()


# -- artifacts and provenance ----------------------------------------------


class TestArtifacts:
    def test_artifact_schema(self, e13_run):
        artifact = runner.artifact_dict(e13_run)
        for field in (
            "schema_version",
            "experiment",
            "claim_ref",
            "title",
            "params",
            "rows",
            "timings",
            "trace_stats",
            "git_sha",
            "generated_at",
        ):
            assert field in artifact, field
        assert artifact["schema_version"] == runner.SCHEMA_VERSION
        assert artifact["experiment"] == "e13"
        assert artifact["claim_ref"]
        assert artifact["timings"]["units"]
        assert artifact["trace_stats"] == {"units": len(e13_run.unit_timings)}
        json.dumps(artifact)  # must be pure JSON

    def test_write_artifacts_and_tables(self, tmp_path, e13_run):
        written = runner.write_artifacts({"e13": e13_run}, tmp_path)
        names = sorted(p.name for p in written)
        assert names == ["e13.json", "e13.txt", "metrics.prom"]
        loaded = json.loads((tmp_path / "e13.json").read_text())
        assert loaded["rows"] == e13_run.rows
        text = (tmp_path / "e13.txt").read_text()
        assert text.startswith("# generated-by:")
        assert "# git-sha:" in text and "# generated-at:" in text
        prom = (tmp_path / "metrics.prom").read_text()
        assert "# TYPE repro_units_total counter" in prom
        assert 'repro_units_total{experiment="e13"} 6' in prom
        assert "repro_units_cached_total" not in prom

    def test_json_only_skips_tables(self, tmp_path, e13_run):
        written = runner.write_artifacts({"e13": e13_run}, tmp_path, json_only=True)
        assert [p.name for p in written] == ["e13.json", "metrics.prom"]

    def test_summary_schema(self, e13_run):
        summary = runner.summary_dict({"e13": e13_run}, grid="default")
        assert summary["schema_version"] == runner.SCHEMA_VERSION
        assert summary["grid"] == "default"
        assert summary["git_sha"] and summary["generated_at"]
        assert summary["experiments"]["e13"]["rows"] == e13_run.rows
        assert summary["metrics"]["repro_units_total"]["type"] == "counter"
        json.dumps(summary["metrics"])  # must be pure JSON

    def test_write_and_load_summary_roundtrip(self, tmp_path, e13_run):
        path = tmp_path / "BENCH_SUMMARY.json"
        summary = runner.write_summary(path, {"e13": e13_run})
        assert runner.load_summary(path) == json.loads(json.dumps(summary, default=str))


# -- the regression gate ----------------------------------------------------


class TestCompare:
    def test_self_compare_is_clean(self, e13_run):
        summary = runner.summary_dict({"e13": e13_run})
        assert runner.compare_summaries(summary, summary) == []

    def test_committed_schema_1_baseline_still_gates(self):
        # The committed baseline predates schema 2; the gate reads only
        # its rows, so a schema-2 run compares against it unchanged.
        path = Path(__file__).resolve().parents[1] / "benchmarks/baselines/small.json"
        baseline = runner.load_summary(path)
        assert baseline["schema_version"] == 1
        baseline["experiments"] = {"e13": baseline["experiments"]["e13"]}
        current = runner.summary_dict(runner.run_experiments(["e13"], grid="small"))
        assert current["schema_version"] == runner.SCHEMA_VERSION == 2
        assert runner.compare_summaries(current, baseline) == []

    def test_injected_round_change_is_flagged(self, e13_run):
        current = runner.summary_dict({"e13": e13_run})
        baseline = json.loads(json.dumps(runner.summary_dict({"e13": e13_run})))
        baseline["experiments"]["e13"]["rows"][0]["measured_rounds"] += 3
        problems = runner.compare_summaries(current, baseline)
        assert len(problems) == 1
        assert "measured_rounds" in problems[0] and "tolerance 0" in problems[0]
        # A tolerance at least as large as the injected delta absorbs it.
        assert runner.compare_summaries(current, baseline, tolerance=3) == []

    def test_row_count_change_is_flagged(self, e13_run):
        current = runner.summary_dict({"e13": e13_run})
        baseline = json.loads(json.dumps(current))
        baseline["experiments"]["e13"]["rows"].append(
            dict(baseline["experiments"]["e13"]["rows"][0])
        )
        problems = runner.compare_summaries(current, baseline)
        assert problems and "row count changed" in problems[0]

    def test_missing_experiment_is_flagged(self, e13_run):
        baseline = runner.summary_dict({"e13": e13_run})
        problems = runner.compare_summaries({"experiments": {}}, baseline)
        assert problems == ["e13: missing from current results"]

    def test_extra_current_experiment_is_not_a_regression(self, e13_run):
        current = runner.summary_dict({"e13": e13_run})
        assert runner.compare_summaries(current, {"experiments": {}}) == []

    def test_non_round_fields_ignored(self, e13_run):
        current = runner.summary_dict({"e13": e13_run})
        baseline = json.loads(json.dumps(current))
        baseline["experiments"]["e13"]["rows"][0]["n"] = 10**6
        assert runner.compare_summaries(current, baseline) == []


# -- CLI integration --------------------------------------------------------


class TestExperimentCli:
    def test_json_only_artifacts_and_compare_exit_codes(self, tmp_path, capsys):
        results = tmp_path / "results"
        summary_path = tmp_path / "BENCH_SUMMARY.json"
        args = [
            "experiment",
            "e13",
            "--json-only",
            "--results-dir",
            str(results),
            "--summary",
            str(summary_path),
        ]
        assert main(args) == 0
        assert (results / "e13.json").exists()
        assert not (results / "e13.txt").exists()
        assert summary_path.exists()
        capsys.readouterr()

        # Self-compare passes; a doctored baseline fails with exit 1.
        assert main(args + ["--compare", str(summary_path)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out

        doctored = json.loads(summary_path.read_text())
        doctored["experiments"]["e13"]["rows"][0]["measured_rounds"] += 1
        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps(doctored))
        assert main(args + ["--compare", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert main(args + ["--compare", str(bad), "--tolerance", "1"]) == 0
        capsys.readouterr()

        # A single experiment is gated against its own baseline rows only:
        # other experiments in the baseline are not "missing".
        wider = json.loads(summary_path.read_text())
        wider["experiments"]["e1"] = {"rows": [{"rounds": 1}]}
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps(wider))
        assert main(args + ["--compare", str(wide)]) == 0
        wider["experiments"]["e13"]["rows"][0]["measured_rounds"] += 1
        wide.write_text(json.dumps(wider))
        assert main(args + ["--compare", str(wide)]) == 1
        out = capsys.readouterr().out
        assert "e13 row 0" in out and "e1:" not in out
