"""E1 — Theorem 1: cycle-separator round complexity is Õ(D).

Regenerates the scaling table: charged CONGEST rounds of the deterministic
separator across graph families and sizes, normalized by D·log²n.  The
claim's shape: the normalized column stays bounded as n grows (no n- or
n^0.5-type growth beyond the diameter's own).
"""

import networkx as nx

from _common import emit, run_and_emit
from repro.congest import RoundTrace, bfs_run
from repro.core.config import PlanarConfiguration
from repro.core.separator import cycle_separator
from repro.planar import generators as gen

SIZES = (100, 225, 400, 900, 1600)


def bfs_trace_rows(sizes=(100, 400, 1600, 100_000)):
    """The message-level anchor of the charged layer under RoundTrace: the
    BFS-tree construction every separator instance starts from.  Active-set
    dispatch keeps the per-round work at the frontier, and the word
    histogram confirms single-word frontier messages.  Every tier, 10^5
    included, runs on that default dispatcher."""
    rows = []
    for n in sizes:
        g = gen.delaunay(n, seed=0)
        trace = RoundTrace()
        res = bfs_run(g, 0, trace=trace)
        s = trace.summary()
        rows.append(
            {
                "n": n,
                "rounds": res.rounds,
                "messages": res.messages_sent,
                "peak_active": s["peak_active"],
                "mean_active": round(s["mean_active"], 2),
                "max_words": s["max_words"],
            }
        )
        assert s["max_words"] == 1  # a frontier message is one word
        assert s["dropped"] == 0
    return rows


def test_e1_separator_rounds(benchmark):
    rows = run_and_emit("e1", "e1_separator_rounds.txt",
                        "E1 - separator charged rounds vs n (Thm 1)", sizes=SIZES)
    emit("e1_bfs_trace.txt", bfs_trace_rows(),
         "E1 - BFS-tree construction under RoundTrace (frontier active sets)")
    by_family = {}
    for row in rows:
        by_family.setdefault(row["family"], []).append(row)
    for family, series in by_family.items():
        series.sort(key=lambda r: r["n"])
        # Shape: normalized rounds do not blow up with n (allow 3x drift of
        # the smallest instance's constant).
        base = max(series[0]["rounds/(D*log2n^2)"], 1e-9)
        assert series[-1]["rounds/(D*log2n^2)"] <= 4 * base + 8, family

    g = gen.delaunay(400, seed=0)
    cfg = PlanarConfiguration.build(g, root=0)
    benchmark(lambda: cycle_separator(cfg))


if __name__ == "__main__":
    run_and_emit("e1", "e1_separator_rounds.txt",
                 "E1 - separator charged rounds vs n (Thm 1)", sizes=SIZES)
    emit("e1_bfs_trace.txt", bfs_trace_rows(),
         "E1 - BFS-tree construction under RoundTrace (frontier active sets)")
