"""Tests for the command-line interface."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main


class TestInProcess:
    def test_separator_command(self, capsys):
        code = main(["separator", "--family", "grid", "--n", "49"])
        out = capsys.readouterr().out
        assert code == 0
        assert "separator:" in out and "max component fraction" in out

    def test_dfs_command(self, capsys):
        code = main(["dfs", "--family", "delaunay", "--n", "60", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "DFS tree verified" in out

    def test_dfs_with_awerbuch(self, capsys):
        code = main(["dfs", "--family", "grid", "--n", "36", "--awerbuch"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Awerbuch baseline" in out

    def test_hierarchy_command(self, capsys):
        code = main(["hierarchy", "--family", "delaunay", "--n", "70"])
        out = capsys.readouterr().out
        assert code == 0
        assert "hierarchy depth" in out

    def test_experiment_command(self, capsys):
        code = main(["experiment", "e6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "congestion" in out

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            main(["separator", "--family", "hypercube"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "e99"])

    def test_tree_flavor(self, capsys):
        code = main(["separator", "--family", "grid", "--n", "49", "--tree", "dfs"])
        assert code == 0


class TestChaosCommands:
    def test_run_writes_artifacts_and_gates(self, capsys, tmp_path):
        code = main([
            "chaos", "run", "--campaign", "smoke",
            "--results-dir", str(tmp_path), "--fail-on-violation",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "0 violation(s)" in out
        assert (tmp_path / "chaos_smoke.json").is_file()
        assert "repro_chaos_" in (tmp_path / "metrics.prom").read_text()

    def test_report_round_trips(self, capsys, tmp_path):
        assert main([
            "chaos", "run", "--campaign", "smoke",
            "--results-dir", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        code = main(["chaos", "report", str(tmp_path / "chaos_smoke.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "campaign 'smoke'" in out and "grid:" in out

    def test_shrink_emits_a_stanza(self, capsys):
        code = main([
            "chaos", "shrink", "--scenario", "broadcast", "--n", "18",
            "--seed", "3", "--duplicate-rate", "0.1",
            "--corrupt-rate", "0.08", "--max-entries", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "def test_chaos_regression_broadcast_s3" in out
        assert "FaultPlan(seed=3" in out

    def test_shrink_of_a_passing_unit_fails_loudly(self, capsys):
        code = main([
            "chaos", "shrink", "--scenario", "dfs", "--n", "18",
            "--seed", "3", "--drop-rate", "0.05",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "does not fail" in err

    def test_unknown_campaign_rejected(self):
        with pytest.raises(SystemExit):
            main(["chaos", "run", "--campaign", "hurricane"])

    def test_chaos_run_offers_no_scheduler(self):
        # Scenarios always dispatch active-set, so there is no
        # dispatcher to choose: the flag is a usage error.
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "run", "--scheduler", "active"])
        assert exc.value.code == 2

    def test_report_reads_schema_1_artifacts(self, capsys):
        # Committed campaign artifacts predate schema 2 (which dropped
        # status/units_cached/units_failed); the report still renders them.
        path = Path(__file__).resolve().parents[1] / "benchmarks/results/chaos_smoke.json"
        assert json.loads(path.read_text())["schema_version"] == 1
        assert main(["chaos", "report", str(path)]) == 0
        assert "campaign 'smoke'" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["experiment", "e13", "--parallel", "2"],
        ["experiment", "e13", "--unit-timeout", "5"],
        ["experiment", "e13", "--retries", "1"],
        ["experiment", "e13", "--no-cache"],
        ["experiment", "e13", "--cache-dir", "x"],
        ["chaos", "run", "--retries", "1"],
        ["chaos", "run", "--no-cache"],
        ["chaos", "run", "--cache-dir", "x"],
        ["chaos", "churn", "--retries", "1"],
        ["chaos", "churn", "--no-cache"],
        ["chaos", "churn", "--cache-dir", "x"],
    ])
    def test_runner_offers_no_pool_retry_or_cache_flags(self, argv):
        # The runner is serial, fail-fast and uncached: these are usage
        # errors, not inert knobs.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestSubprocess:
    def test_module_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "separator", "--family", "tree", "--n", "40"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-1000:]
        assert "phase2" in proc.stdout

    def test_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "separator" in proc.stdout and "experiment" in proc.stdout
