"""Reproducible generation of EXPERIMENTS.md.

``EXPERIMENTS.md`` is not hand-maintained: this module pairs each E1–E14
table (DESIGN.md §4) with its claim commentary and writes the document.
The tables normally arrive pre-rendered from the experiment runner —
regenerate with::

    python -m repro experiment all --write

which renders the rows that run just produced; :func:`write_experiments_md`
can also read persisted ``benchmarks/results`` snapshots or rerun
everything when called without arguments.
"""

from __future__ import annotations

import pathlib
from typing import Dict, List, Optional

from . import experiments
from .tables import render_table

__all__ = ["COMMENTARY", "write_experiments_md", "experiment_order"]


HEADER = """# EXPERIMENTS — paper claims vs measured results

The paper is theoretical and publishes no measurements; DESIGN.md §4 maps
its quantitative claims to experiments E1–E14.  Each section below records
the claim, the regenerated table (also produced by
`pytest benchmarks/ --benchmark-only`, which re-asserts every shape claim
on each run), and the verdict.  Absolute round numbers depend on the cost
model's explicit constants (documented in `repro/congest/ledger.py`) and
the instance-measured shortcut quality; the *shapes* are the reproduction
targets.

Summary: **all claims reproduce in shape**; E7's exactness claim reproduces
*perfectly* (zero mismatches over thousands of faces); E13 validates the
charged execution model against real message-level rounds; E2's asymptotic
crossover is real in slope but out of reach in absolute rounds at
simulation scale; E11 quantifies the proof gaps repaired in DESIGN.md §3
(running the paper's case analysis as printed fails on ~2% of the suite).

This file is generated by `repro.analysis.report` — regenerate with
`python -m repro experiment all --write`.
"""

COMMENTARY: Dict[str, str] = {
    "e1": """**Claim (Theorem 1).** The deterministic cycle separator runs in Õ(D) rounds.

**Measured.** Charged rounds with instance-measured shortcut quality.  The
normalized column `rounds/(D·log²n)` is flat-to-decreasing on all three
families while n grows 16x — the Õ(D) shape holds.  (Columns also show which
phase fired: BFS trees on grids drive the Lemma-8 rooted construction, while
Delaunay triangulations are usually settled by Phase 3's window.)

**Verdict: holds.**""",
    "e2": """**Claim (Theorem 2 vs Awerbuch '85).** Deterministic DFS in Õ(D) rounds vs
the classic Θ(n); on low-diameter graphs the gap should grow with n.

**Measured.** Awerbuch is simulated at message level: `awerbuch/n` ≈ 3.0 on
every row — a clean Θ(n).  The charged deterministic rounds track D·polylog:
normalized values are flat on grids, and on the Apollonian family (D ≈ 7 for
n up to 514) Awerbuch grows linearly while the charged rounds barely move.

**Finding.** At these sizes the polylog *constants* of the deterministic
algorithm dominate: the charged rounds exceed Awerbuch's absolute numbers
until n is far beyond simulation scale.  The *shape* (who scales how)
reproduces exactly; the absolute crossover does not occur at laptop scale,
consistent with reading these results as asymptotic statements.

**Verdict: shape holds; asymptotic crossover noted as out of reach at
simulated sizes.**""",
    "e3": """**Claim (Lemma 5 / Lemma 1).** Every emitted separator leaves connected
components of at most 2n/3 nodes — a hard guarantee, not an average.

**Measured.** Worst component fraction over 12 runs per family (6 roots ×
BFS/DFS spanning trees): every family ≤ 0.667.  The wheel and grid rows sit
exactly at the bound (tight instances).  During development this experiment
caught two real bugs in the paper's own case analysis (Lemma 8 middle case,
Sub-phase 4.2) — see DESIGN.md §3.

**Verdict: holds (hard bound).**""",
    "e4": """**Claim (Section 5.3).** The separator machine's phases cover all inputs.

**Measured.** Histogram over the full workload suite × 8 roots × 2 tree
flavors.  Phases 2/3 dominate; Phase 3b (Lemma 1 condition 3) fires on a
fifth of the runs — almost always path-degenerate DFS spanning trees — and
the Lemma-7/8 machinery (4.x/5.x) covers the rest.  `rule:paper-range`
counts how often Phase 2 could use the paper's subtree-in-window rule (the
other tree runs needed the centroid fallback of DESIGN.md's first erratum).
The checked centroid path (`last-resort`, DESIGN.md's rooted-sweep
erratum) would get its own row; it fires on none of these runs.

**Verdict: full coverage, with the erratum paths measurably exercised.**""",
    "e5": """**Claim (Lemma 2).** JOIN adds each separator to the partial DFS tree in
O(log n) halving iterations.

**Measured.** Across all end-to-end DFS runs the halving loop closed in a
single iteration per phase — the component spanning tree is rooted at the
attachment node, so the root-to-farthest-marked path usually swallows the
entire separator at once.  The multi-iteration machinery is exercised
directly by the white-box tests in `tests/test_join.py`.

**Verdict: holds (trivially at these scales).**""",
    "e6": """**Claim (Prop. 2 / Ghaffari–Haeupler '16).** Planar partitions admit
(Õ(D), Õ(D)) low-congestion shortcuts.

**Measured.** Tree-restricted shortcuts on partitioned grids and Delaunay
layer splits: measured c + d stays below the D·log D planar bound (ratios
0.55–0.81).  These measured qualities are what the round ledger charges,
so E1/E2's round numbers inherit instance-level honesty.

**Verdict: holds.**""",
    "e7": """**Claim (Lemmas 3/4, Remark 1, Lemma 8).** The deterministic weight formula
counts |F̃_e| (u not ancestor) / |F̊_e| (ancestor) *exactly*; membership and
side sets follow the stated characterizations.

**Measured.** Thousands of fundamental faces across every family/tree/root
combination: zero mismatches on all three checks — after the ±1 and
chirality normalizations recorded in DESIGN.md §3.  This is the paper's key
claim (deterministic exact weights instead of Ghaffari–Parter's random
estimates), and it reproduces perfectly.

**Verdict: holds exactly.**""",
    "e8": """**Claim (Lemmas 11/13).** DFS orders and path marking complete in O(log n)
fragment phases even on Θ(n)-deep spanning trees.

**Measured.** On paths up to n = 4096 (depth 4095) and grid DFS snakes:
order phases = markpath phases = ⌈log₂ n⌉ exactly; markpath iterations
track log² n.  The computed orders equal the direct preorders on every
instance (asserted in tests).  The `merge_msg_rounds` column is the
*measured* message cost of the same dynamic when floods pay fragment
diameters instead of shortcuts — ~n on paths (80 → 278 → 1052) while the
phase count stays at log n: exactly the gap Proposition 2's shortcuts
close, and why the ledger charges phases × PA rather than raw floods.

**Verdict: holds.**""",
    "e9": """**Claim (the paper's raison d'être).** Randomized weight estimation needs
enough samples w.h.p.; the deterministic formula removes the failure mode.

**Measured.** The sampled-weight separator (Ghaffari–Parter-style
statistical structure) fails on 97% of attempts with 2 samples, decaying
monotonically with budget; the deterministic algorithm's failure rate is 0
by construction.

**Verdict: holds; quantifies exactly the gap the paper closes.**""",
    "e10": """**Claim (Theorem 2 / Section 6.2).** The DFS main loop runs O(log n) phases
because absorbing a separator shrinks every component by ≥ 1/3.

**Measured.** Phases stay within ~log₂ n across families and sizes; the
worst observed per-phase shrink factor is ≤ 2/3 on every row.

**Verdict: holds.**""",
    "e11": """**Claim (this reproduction, DESIGN.md §3).** The repairs to the paper's
proof gaps are load-bearing: with them the failure rate is 0; running the
case analysis exactly as printed produces unbalanced separators on the
degenerate spanning-tree instances.

**Measured.** `paper-as-stated` fails on ~2% of the suite — precisely the
grid-DFS-snake and wheel/random-tree instances of the errata.  Phase 3b
alone is not strictly necessary for correctness (the verify-and-fallback
net also catches its cases) but removes fallback invocations; the emission
check is what rescues Sub-phase 4.2 and Lemma 8's middle case.

**Verdict: repairs necessary and sufficient on the suite.**""",
    "e12": """**Claim (Section 1's motivation).** Separators + divide and conquer give
O(log n)-depth recursive decompositions.

**Measured.** Hierarchy depth tracks log_{1.5}(n) with slack on all
families; the bottom-up concatenation of separators is verified to be a
permutation of V (a valid nested-dissection elimination order) inside the
runner.

**Verdict: holds.**""",
    "e13": """**Claim (execution model, DESIGN.md §1).** The ledger's part-wise
aggregation charge (shortcut congestion + dilation) upper-bounds the real
message-level cost.

**Measured.** The pipelined upcast over tree-restricted shortcuts —
simulated with real messages and the one-(part,value)-pair-per-edge-per-
round bandwidth limit — completes in 41–57% of the charged rounds on every
instance.  This is the guarantee that makes E1/E2's charged round counts
meaningful rather than asymptotic hand-waving.

**Verdict: holds (charge is a sound upper bound).**""",
    "e14": """**Claim (context; Lipton–Tarjan '79 vs cycle separators).** Cycle
separators trade the O(√n) size bound for the path structure the DFS
application needs; on bounded-radius triangulations their sizes behave like
fundamental cycles (≤ 2·radius + 1), but on sparse graphs with deep trees
the T-path can be long — which is fine for Theorem 2 (the DFS-RULE absorbs
whole paths) and is why the paper never claims a size bound.

**Measured.** Side-by-side separator sizes: ours versus the centralized
Lipton–Tarjan fundamental-cycle baseline, with the 2·radius + 1 reference
column.  Both stay near the fundamental-cycle regime on triangulations;
ours grows on sparse/deep instances, exactly as the theory predicts.

**Verdict: consistent with theory; documents the size/structure
trade-off.**""",
}


def experiment_order() -> List[str]:
    """Experiment keys, in numeric order."""
    keys = [full.split("_")[0] for full in experiments.__all__]
    return sorted(set(keys), key=lambda k: int(k[1:]))


def write_experiments_md(
    path: pathlib.Path | str = "EXPERIMENTS.md",
    snapshot_dir: Optional[pathlib.Path] = None,
    tables: Optional[Dict[str, str]] = None,
) -> str:
    """Write the document from pre-rendered ``tables`` (the runner's path:
    ``python -m repro experiment all --write``), from ``snapshot_dir``
    tables, or by running every experiment serially."""
    runners = {
        full.split("_")[0]: getattr(experiments, full) for full in experiments.__all__
    }
    chunks = [HEADER]
    for key in experiment_order():
        runner = runners[key]
        snapshot = (tables or {}).get(key)
        if snapshot is None and snapshot_dir is not None:
            hits = list(pathlib.Path(snapshot_dir).glob(f"{key}_*.txt"))
            if hits:
                snapshot = hits[0].read_text()
        if snapshot is None:
            title = f"{key.upper()} ({runner.__doc__.splitlines()[0]})"
            snapshot = render_table(runner(), title)
        chunks.append(f"\n---\n\n## {key.upper()} — {runner.__name__.split('_', 1)[1].replace('_', ' ')}\n\n")
        chunks.append(COMMENTARY.get(key, "(no commentary)") + "\n\n")
        chunks.append("```\n" + snapshot.rstrip() + "\n```\n")
    text = "".join(chunks)
    pathlib.Path(path).write_text(text)
    return text
