"""Compare two sets of benchmark runs: ``python3 benchmarks/perf/diff.py OLD NEW``.

OLD and NEW are directories of result files written by ``run.py --out``
(one ``<workload>-seed<n>.json`` per untraced run, ``...-trace.json`` per
traced run).  For each workload and end-to-end metric it prints the
median and quartiles of each side, the ratio NEW/OLD with its base, and
a verdict against the metric's bound in BENCHMARK.json:

* ``worse`` — the NEW median is worse than the OLD median by more than
  the bound;
* ``unresolved`` — not worse, but one side's spread (quartile distance
  over median) is wider than the bound, and NEW does not read better
  than OLD on every run;
* ``ok`` — otherwise.

When both sides hold traced runs it also prints every per-layer metric
(self times, counts, ratios) and its change.  Exits 1 if any verdict is
not ``ok``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from typing import Dict, List, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


def load(directory: pathlib.Path) -> Tuple[Dict[str, List[dict]], Dict[str, List[dict]]]:
    """``(untraced, traced)`` results by workload."""
    untraced: Dict[str, List[dict]] = {}
    traced: Dict[str, List[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        if "workload" in result:
            (traced if result["trace"] else untraced).setdefault(result["workload"], []).append(result)
    return untraced, traced


def summary(values: List[float]) -> Tuple[float, float, float]:
    """Median and quartiles, as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(old: List[float], new: List[float], better: str, bound: float) -> Tuple[str, float]:
    old_med, old_q1, old_q3 = summary(old)
    new_med, new_q1, new_q3 = summary(new)
    ratio = new_med / old_med
    lower = better == "lower"
    if (ratio > 1 + bound) if lower else (ratio < 1 - bound):
        return "worse", ratio
    spread = max((old_q3 - old_q1) / old_med, (new_q3 - new_q1) / new_med)
    all_better = max(new) < min(old) if lower else min(new) > max(old)
    if spread > bound and not all_better:
        return "unresolved", ratio
    return "ok", ratio


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=pathlib.Path)
    parser.add_argument("new", type=pathlib.Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    old_runs, old_traced = load(args.old)
    new_runs, new_traced = load(args.new)

    flagged = 0
    print(f"{'workload':<15} {'metric':<17} {'unit':<4} {'old median [q1, q3]':>30} "
          f"{'new median [q1, q3]':>30} {'ratio':>7}  verdict")
    for workload in sorted(set(old_runs) & set(new_runs)):
        for metric in bench["end_to_end"]:
            name = metric["name"]
            old = [r["metrics"][name]["value"] for r in old_runs[workload]]
            new = [r["metrics"][name]["value"] for r in new_runs[workload]]
            result, ratio = verdict(old, new, metric["better"], metric["bound"])
            flagged += result != "ok"
            (om, o1, o3), (nm, n1, n3) = summary(old), summary(new)
            print(f"{workload:<15} {name:<17} {metric['unit']:<4} "
                  f"{f'{om:.4g} [{o1:.4g}, {o3:.4g}]':>30} {f'{nm:.4g} [{n1:.4g}, {n3:.4g}]':>30} "
                  f"{ratio:7.3f}  {result}  (n={len(old)}/{len(new)}, base {om:.4g} {metric['unit']}, "
                  f"bound {metric['bound']:.0%} {metric['better']}-is-better)")

    for workload in sorted(set(old_traced) & set(new_traced)):
        print(f"\n{workload}: per-layer metrics (median over traced runs; self time in ms/op)")
        print(f"  {'metric':<36} {'old':>12} {'new':>12} {'delta':>12} {'ratio':>7}")
        for metric in bench["per_layer"]:
            name = metric["name"]
            scale = 1e3 if metric["unit"] == "s/op" else 1.0
            o, n = (scale * statistics.median(r["metrics"][name]["value"] for r in runs)
                    for runs in (old_traced[workload], new_traced[workload]))
            ratio = f"{n / o:7.3f}" if o else f"{'-':>7}"
            print(f"  {name:<36} {o:12.4f} {n:12.4f} {n - o:+12.4f} {ratio}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
