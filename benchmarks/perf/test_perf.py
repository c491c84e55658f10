"""Checks on the benchmark itself: ``pytest benchmarks/perf``.

The smoke profile (tiny instances, one pass) runs every workload untraced
and traced through ``run.py`` in a few seconds each.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

PERF_DIR = pathlib.Path(__file__).resolve().parent
ROOT = PERF_DIR.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(PERF_DIR)]

import diff  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module", params=[0, 1], ids=["untraced", "traced"])
def smoke(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(f"smoke{request.param}")
    proc = _run("--workload", "all", "--smoke", "--trace", str(request.param), "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    results = {
        r["workload"]: r for r in (json.loads(p.read_text()) for p in out.glob("*.json"))
    }
    return request.param, summary, results


def test_every_metric_is_emitted_with_its_unit(smoke):
    traced, summary, results = smoke
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer" if traced else "end_to_end"]}
    assert set(results) == set(workloads.WORKLOADS)
    for workload, result in results.items():
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        assert got == expected, workload
        for name in expected:
            assert summary["metrics"][f"{workload}.{name}"]["unit"] == expected[name]


def test_traced_self_times_fit_in_the_traced_wall(smoke):
    traced, _, results = smoke
    if not traced:
        pytest.skip("untraced run")
    for workload, result in results.items():
        self_s = sum(m["value"] for k, m in result["metrics"].items()
                     if m["unit"] == "s/op" and not k.startswith("serve."))
        assert self_s * result["traced_ops"] <= result["traced_wall_s"] + 1e-9, workload
        assert 0.0 < result["metrics"]["bench.attributed.pct"]["value"] <= 100.0 + 1e-6


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    first = workloads.input_digest(workload, 0, smoke=True)
    assert workloads.input_digest(workload, 0, smoke=True) == first
    held_out = workloads.input_digest(workload, 1, smoke=True)
    if workload == "dfs-lattice":
        assert held_out == first  # fixed instances and root, by design
    else:
        assert held_out != first


def test_without_the_source_tree_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF_DIR, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    proc = _run("--workload", "dfs-lattice", "--seed", "0", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_the_run_length_is_fixed():
    proc = _run("--workload", "dfs-lattice", "--smoke", "--seconds", "1")
    assert proc.returncode == 2
    assert "{" not in proc.stdout


def test_diff_verdicts():
    assert diff.verdict([100, 101, 99, 100], [100, 102, 98, 100], "higher", 0.1)[0] == "ok"
    assert diff.verdict([100, 101, 99, 100], [80, 81, 79, 80], "higher", 0.1)[0] == "worse"
    assert diff.verdict([10, 11, 9, 10], [12, 13, 11, 12], "lower", 0.25)[0] == "ok"
    assert diff.verdict([10, 20, 5, 10], [10, 20, 5, 10], "lower", 0.25)[0] == "unresolved"
    # a wide spread does not hide a change that wins on every run
    assert diff.verdict([10, 20, 5, 10], [1, 2, 1, 2], "lower", 0.25)[0] == "ok"
