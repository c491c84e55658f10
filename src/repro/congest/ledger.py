"""Round accounting for the charged execution layer (DESIGN.md §1).

The paper's algorithm is a composition of :math:`\\tilde{O}(D)`-round
subroutines (part-wise aggregations over low-congestion shortcuts, DFS
orders, MARK-PATH, …).  The high-level implementation in :mod:`repro.core`
executes the *logic* of every subroutine exactly and reports its *round
cost* here: each invocation charges the cost the paper proves for it,
instantiated with the measured shortcut quality of the actual instance
(never a bare asymptotic).

Parallelism is modelled the way the paper uses it: subroutines run in
parallel across the parts of a partition (or the components of
:math:`G - T_d`), so a parallel block costs the *maximum* over its
branches, not the sum.

The cost table (rounds per invocation, ``PA`` = one part-wise aggregation
= ``c + d`` of the shortcut structure, ``L`` = ``ceil(log2 n)``):

=====================  ===========================================
subroutine             cost                      (paper reference)
=====================  ===========================================
partwise-aggregation   PA                        (Prop. 4/5, Lemma 10)
planar-embedding       L * PA                    (Prop. 1)
part-spanning-trees    L * PA                    (Prop. 3, Lemma 9)
precomputation         (L + 2) * PA              (Lemma 11 + Lemma 10)
weights                PA + 1                    (Lemma 12)
mark-path              L^2 * PA                  (Lemma 13)
lca                    2 * PA                    (Lemma 14)
detect-face            3 * PA                    (Lemma 15)
hidden-problem         3 * PA                    (Lemma 16)
not-contained          4 * PA                    (Lemma 17)
not-contains           4 * PA                    (Lemma 18)
full-augmentation      2 * PA                    (Phase 4, Section 5.3)
re-root                3 * PA                    (Lemma 19)
join-iteration         (2L + L^2 + 6) * PA       (Lemma 2)
=====================  ===========================================
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

__all__ = ["CostModel", "RoundLedger"]


class CostModel:
    """Per-subroutine round costs for one instance.

    Parameters
    ----------
    n:
        Number of nodes.
    diameter:
        Graph diameter ``D``.
    shortcut_quality:
        Measured ``(congestion, dilation)`` of the shortcut structure; when
        omitted the analytic planar bound :math:`O(D \\log D)` of
        Ghaffari–Haeupler (SODA'16) is used for both.
    """

    def __init__(
        self,
        n: int,
        diameter: int,
        shortcut_quality: Optional[Tuple[int, int]] = None,
    ):
        if n < 1 or diameter < 0:
            raise ValueError("need n >= 1 and diameter >= 0")
        self.n = n
        self.diameter = max(diameter, 1)
        self.log_n = max(1, math.ceil(math.log2(max(n, 2))))
        if shortcut_quality is None:
            bound = self.diameter * max(1, math.ceil(math.log2(self.diameter + 1)))
            shortcut_quality = (bound, bound)
        self.congestion, self.dilation = shortcut_quality
        self.pa = self.congestion + self.dilation

    def rounds(self, subroutine: str) -> int:
        """Round cost of one invocation of ``subroutine``."""
        pa, L = self.pa, self.log_n
        table = {
            "partwise-aggregation": pa,
            "planar-embedding": L * pa,
            "part-spanning-trees": L * pa,
            "precomputation": (L + 2) * pa,
            "weights": pa + 1,
            "mark-path": L * L * pa,
            "lca": 2 * pa,
            "detect-face": 3 * pa,
            "hidden-problem": 3 * pa,
            "not-contained": 4 * pa,
            "not-contains": 4 * pa,
            "full-augmentation": 2 * pa,
            "re-root": 3 * pa,
            "join-iteration": (2 * L + L * L + 6) * pa,
        }
        try:
            return table[subroutine]
        except KeyError:
            raise KeyError(f"unknown subroutine {subroutine!r}") from None


class RoundLedger:
    """Accumulates charged rounds, with max-cost parallel blocks.

    Usage: sequential charges via :meth:`charge_subroutine`; a parallel
    region is bracketed by :meth:`begin_parallel` / :meth:`end_parallel`
    with :meth:`begin_branch` starting each branch.  The block contributes
    the maximum branch cost.
    """

    def __init__(self, model: CostModel):
        self.model = model
        self.total_rounds = 0
        self.by_subroutine: Dict[str, int] = {}
        self.invocations: Dict[str, int] = {}
        self._branch_totals: List[int] = []
        self._in_parallel = False

    # ------------------------------------------------------------------
    def charge_subroutine(self, subroutine: str, times: int = 1) -> None:
        """Charge ``times`` invocations of a named subroutine."""
        rounds = self.model.rounds(subroutine) * times
        self.by_subroutine[subroutine] = self.by_subroutine.get(subroutine, 0) + rounds
        self.invocations[subroutine] = self.invocations.get(subroutine, 0) + times
        if self._in_parallel:
            if not self._branch_totals:
                self._branch_totals.append(0)
            self._branch_totals[-1] += rounds
        else:
            self.total_rounds += rounds

    def charge_rounds(self, label: str, rounds: int) -> None:
        """Charge raw rounds (used for measured message-level phases)."""
        self.by_subroutine[label] = self.by_subroutine.get(label, 0) + rounds
        self.invocations[label] = self.invocations.get(label, 0) + 1
        if self._in_parallel:
            if not self._branch_totals:
                self._branch_totals.append(0)
            self._branch_totals[-1] += rounds
        else:
            self.total_rounds += rounds

    # ------------------------------------------------------------------
    def begin_parallel(self) -> None:
        """Start a parallel block (costs = max over branches)."""
        if self._in_parallel:
            raise RuntimeError("parallel blocks do not nest")
        self._in_parallel = True
        self._branch_totals = []

    def begin_branch(self) -> None:
        """Start the next branch of the current parallel block."""
        if not self._in_parallel:
            raise RuntimeError("begin_branch outside a parallel block")
        self._branch_totals.append(0)

    def end_parallel(self) -> None:
        """Close the block, adding the maximum branch total."""
        if not self._in_parallel:
            raise RuntimeError("end_parallel without begin_parallel")
        self._in_parallel = False
        if self._branch_totals:
            self.total_rounds += max(self._branch_totals)
        self._branch_totals = []

    # ------------------------------------------------------------------
    def normalized(self) -> float:
        """Total rounds divided by :math:`D \\log^2 n` — the quantity that
        should stay bounded if the :math:`\\tilde{O}(D)` claim holds."""
        d = max(self.model.diameter, 1)
        return self.total_rounds / (d * self.model.log_n**2)

    def breakdown(self) -> Dict[str, int]:
        """Rounds charged per subroutine (descending)."""
        return dict(sorted(self.by_subroutine.items(), key=lambda kv: -kv[1]))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RoundLedger(total={self.total_rounds}, normalized={self.normalized():.2f})"
