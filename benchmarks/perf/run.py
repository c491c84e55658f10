"""Run the repository benchmark: one workload, or all four.

    python3 benchmarks/perf/run.py --workload dfs-lattice --seed 0
    python3 benchmarks/perf/run.py --workload all --seed 1 --out DIR
    python3 benchmarks/perf/run.py --workload serve-zipf --seed 0 --trace

Each workload runs in fresh interpreters (``workloads.py``): set-up is
timed in three of them and the median reported as ``setup_s``; the last
one then measures for ``run_seconds`` from BENCHMARK.json, the fixed
run length (``--seconds`` is accepted only with that value, so every
run does comparable work).  Everything runs on one CPU, and every
reported time is calibrated for that CPU's speed during the run
(``hostspeed.py``); the result files keep
the raw times too.  ``--trace`` reports the per-layer metrics instead of
the end-to-end ones.  The command prints every metric with its unit,
median and quartiles, then one JSON line, and exits non-zero if any
operation failed or any output was wrong.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

PERF_DIR = pathlib.Path(__file__).resolve().parent
ROOT = PERF_DIR.parent.parent
WORKLOADS = ("dfs-lattice", "dfs-delaunay", "churn-delaunay", "serve-zipf")
#: Set-up is timed in this many fresh interpreters per workload.
SETUP_SAMPLES = 3
#: A child that outlives this is killed with its process group; together
#: with the set-up samples a run stays well inside three minutes.
CHILD_TIMEOUT_S = 150


def _child(workload: str, args, *, setup_only: bool) -> Dict[str, Any]:
    """Run ``workloads.py`` in a fresh interpreter; return its JSON line."""
    cmd = [
        sys.executable, str(PERF_DIR / "workloads.py"), workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", str(args.out),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    cmd += ["--t0", repr(time.monotonic())]
    # A session of its own, so a timeout also reaches the serve pool workers.
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"{workload}: no result within {CHILD_TIMEOUT_S} s")
    lines = stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: measuring process exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, args) -> Dict[str, Any]:
    setups: List[Dict[str, float]] = []
    if not args.trace:
        for _ in range(args.setup_samples - 1):
            setups.append(_child(workload, args, setup_only=True))
    result = _child(workload, args, setup_only=False)
    if not args.trace:
        setups.append(result)
        samples = [s["setup_s"] for s in setups]
        q = statistics.quantiles(samples, n=4) if len(samples) > 1 else [samples[0]] * 3
        result["metrics"]["setup_s"] = {
            "value": statistics.median(samples), "unit": "s",
            "quartiles": [q[0], q[2]], "samples": len(samples),
            "raw": statistics.median(s["setup_raw_s"] for s in setups),
        }
        result["setup_samples"] = samples
    return result


def _table(result: Dict[str, Any]) -> str:
    lines = [
        f"{result['workload']}  seed {result['seed']}  "
        f"{'traced' if result['trace'] else 'untraced'}  ops {result['ops']}  "
        f"attempted {result['attempted']}  failed {result['failed']}  "
        f"correct {'yes' if result['correct'] else 'NO'}",
        f"  {'metric':<36} {'unit':<6} {'value':>12} {'q1':>12} {'q3':>12} {'n':>6} {'raw':>12}",
    ]
    for name, m in sorted(result["metrics"].items()):
        q1, q3 = m.get("quartiles") or ("", "")
        fmt = lambda x: f"{x:12.5g}" if isinstance(x, float) else f"{x:>12}"  # noqa: E731
        lines.append(f"  {name:<36} {m['unit']:<6} {fmt(m['value'])} {fmt(q1)} {fmt(q3)} "
                     f"{m.get('samples', ''):>6} {fmt(m.get('raw', ''))}")
    if "slowdown" in result:
        lines.append(f"  host slowdown {result['slowdown']:.4f}")
    lines.append(f"  output digest {result['output_digest'][:16]}  "
                 f"input digest {result['input_digest'][:16]}")
    lines += [f"  error: {e}" for e in result["errors"]]
    return "\n".join(lines)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="input seed (1 is the held-out seed)")
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]),
                        help="the run length; must equal run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--out", type=pathlib.Path, default=PERF_DIR / ".work",
                        help="directory for result JSON and span JSONL files")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances and a single pass, for tests")
    args = parser.parse_args(argv)
    if args.seconds != bench["run_seconds"]:
        parser.error(f"--seconds must be {bench['run_seconds']}, the run_seconds of BENCHMARK.json")
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no source tree at {ROOT / 'src' / 'repro'}")
    # One CPU for this process and every process it starts (the serve
    # pool worker included), so the probe that calibrates each run times
    # the CPU the work runs on (hostspeed.py).
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.smoke:
        args.seconds = 0.0
    args.setup_samples = 1 if args.smoke else SETUP_SAMPLES
    args.out.mkdir(parents=True, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args)
        results.append(result)
        suffix = "-trace" if args.trace else ""
        (args.out / f"{name}-seed{args.seed}{suffix}.json").write_text(
            json.dumps(result, indent=1, sort_keys=True) + "\n")
        print(_table(result), flush=True)

    def public(m):
        return {"value": m["value"], "unit": m["unit"]}

    if len(results) == 1:
        metrics = {k: public(m) for k, m in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{k}": public(m) for r in results for k, m in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] and not summary["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
