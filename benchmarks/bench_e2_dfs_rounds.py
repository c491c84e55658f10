"""E2 — Theorem 2 vs Awerbuch '85: Õ(D) vs Θ(n) DFS rounds.

Regenerates the comparison table on square grids (D ~ 2·sqrt(n)) and
Apollonian stacked triangulations (D ~ log n).  Shape: Awerbuch's measured
rounds grow linearly in n (rounds/n roughly constant in [1, 4]); the
deterministic algorithm's charged rounds track D·polylog(n), so on the
low-diameter family Awerbuch's rounds catch up to and overtake the charged
deterministic rounds as n grows.
"""

from _common import RESULTS_DIR, emit, run_and_emit
from repro.congest import RoundTrace, awerbuch_dfs_run, bfs_run
from repro.core.dfs import dfs_tree
from repro.obs import Tracer
from repro.planar import generators as gen

SIZES = (64, 144, 256, 484)


def dump_e2_trace(n: int = 64) -> str:
    """Span-attributed JSONL dump of one E2 instance (the ``repro trace``
    CLI's demo input: ``repro trace phases benchmarks/results/e2_trace.jsonl``)."""
    side = int(n ** 0.5)
    g = gen.grid(side, side)
    trace = RoundTrace()
    Tracer().attach(trace)
    with trace.tracer.span("e2", family="grid", n=len(g)):
        bfs_run(g, 0, trace=trace)
        awerbuch_dfs_run(g, 0, trace=trace)
    path = RESULTS_DIR / "e2_trace.jsonl"
    trace.dump_jsonl(path)
    return str(path)


def awerbuch_trace_rows(sizes=(64, 256, 100_000)):
    """Scheduler's-eye view of the Θ(n) baseline: the DFS token keeps the
    active set tiny, which is what makes the measured runs cheap to simulate
    — and the per-message word histogram proves the O(log n) budget holds.

    At the 10^5 tier token passing is inherently sequential (one active
    node per round), the active-set scheduler's best case: ~3·10^5 rounds
    still simulate in seconds because per-round work is the token, not n.  See docs/BENCHMARKS.md for the tier's runtime budget."""
    rows = []
    for n in sizes:
        side = int(n ** 0.5)
        g = gen.grid(side, side)
        trace = RoundTrace()
        res = awerbuch_dfs_run(g, 0, trace=trace)
        s = trace.summary()
        rows.append(
            {
                "n": len(g),
                "rounds": res.rounds,
                "messages": res.messages_sent,
                "peak_active": s["peak_active"],
                "mean_active": round(s["mean_active"], 2),
                "max_words": s["max_words"],
            }
        )
        assert s["max_words"] <= 2  # (TOKEN, depth): two words, in budget
        assert s["dropped"] == 0
    return rows


def test_e2_dfs_rounds(benchmark):
    rows = run_and_emit("e2", "e2_dfs_rounds.txt",
                        "E2 - deterministic DFS (charged) vs Awerbuch (measured)",
                        sizes=SIZES)
    emit("e2_awerbuch_trace.txt", awerbuch_trace_rows(),
         "E2 - Awerbuch under RoundTrace (active set stays near the token)")
    dump_e2_trace()
    for row in rows:
        assert row["awerbuch_rounds"] >= row["n"]          # Θ(n) floor
        assert row["awerbuch_rounds"] <= 4 * row["n"] + 8  # Awerbuch's bound
    low_d = sorted((r for r in rows if r["family"] == "apollonian"), key=lambda r: r["n"])
    # On the low-diameter family the Θ(n) baseline loses ground: Awerbuch's
    # rounds grow strictly relative to the Õ(D) charged rounds.
    first = low_d[0]["awerbuch_rounds"] / low_d[0]["det_rounds"]
    last = low_d[-1]["awerbuch_rounds"] / low_d[-1]["det_rounds"]
    assert last >= first
    grid = sorted((r for r in rows if r["family"] == "grid"), key=lambda r: r["n"])
    base = grid[1]["det/(D*log2n^2)"]
    assert grid[-1]["det/(D*log2n^2)"] <= 4 * base + 8

    g = gen.grid(10, 10)
    benchmark(lambda: dfs_tree(g, 0))


if __name__ == "__main__":
    run_and_emit("e2", "e2_dfs_rounds.txt",
                 "E2 - deterministic DFS (charged) vs Awerbuch (measured)", sizes=SIZES)
    emit("e2_awerbuch_trace.txt", awerbuch_trace_rows(),
         "E2 - Awerbuch under RoundTrace (active set stays near the token)")
    print(f"\nspan-attributed trace dump: {dump_e2_trace()}")
