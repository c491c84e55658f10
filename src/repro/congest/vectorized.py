"""Bulk-synchronous columnar scheduler for regular CONGEST protocols.

The message-level dispatcher in :mod:`repro.congest.network` pays Python
for every node every round: a :class:`~repro.congest.network.NodeContext`
attribute dance, a dict inbox, a closure call.  That is the right cost
model for *irregular* programs — faults, transport retransmits, custom
handlers — but the primitives whose round counts anchor the paper's
bounds (BFS, broadcast, convergecast, min-flood) are *regular*: every
scheduled node applies the same small update to a scalar of local state
and emits at most one integer per incident edge.  Those updates are
sparse mat-vec-shaped operations over the CSR adjacency the
:class:`~repro.congest.network.Network` already carries, and numpy runs
them at columnar speed.

This module supplies the **vectorized scheduler**
(``Network.run(..., scheduler="vectorized")``):

* a :class:`VectorKernel` contract — struct-of-arrays per-node state plus
  a ``round()`` method mapping the columnar inbox pool
  ``(src, dst, payload)`` of one round to the next round's sends;
* :func:`run_vectorized`, the engine that owns everything *around* the
  kernel: scheduling (round 1 dispatches everyone, afterwards delivery
  targets plus woken nodes), word-cost accounting with the exact
  :func:`~repro.congest.network.payload_words` semantics for one-integer
  tuple payloads, per-message budget enforcement, halted-receiver drops,
  and the wake-aware quiet / deadlock stopping rules, reporting rounds,
  metrics and warnings through the same observer as
  :meth:`~repro.congest.network.Network.run` — all bit-identical to the
  active-set scheduler (locked by the A/B harness in
  ``tests/test_exhaustive_small.py`` and ``tests/test_vectorized.py``);
* kernels for the :mod:`repro.congest.algorithms` primitives, attached to
  their scalar closures as ``on_round.vector_kernel`` so the same call
  site serves all three schedulers.

Fallback contract (docs/MODEL.md, "Scheduler equivalence"): the fast path
engages only when the program carries a kernel, no transport session is
active and the fault plan is empty; otherwise ``scheduler="vectorized"``
silently degrades to the active-set dispatcher, which is
fingerprint-identical by the PR 1/PR 4 regression suites.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Optional

import numpy as np

from .network import CongestViolation, Network, NodeContext, RunResult, _RunObserver

Node = Hashable

__all__ = [
    "VectorKernel",
    "run_vectorized",
    "BfsKernel",
    "BroadcastKernel",
    "ConvergecastKernel",
    "MinFloodKernel",
    "min_flood_program",
    "vector_bit_lengths",
    "vector_payload_words",
]

_EMPTY = np.empty(0, dtype=np.int64)


# -- shared columnar plumbing ------------------------------------------------

def _arrays(net: Network):
    """CSR adjacency and repr-rank permutation as cached numpy arrays.

    ``rank[i]`` is node ``i``'s position in the ``sorted(nodes, key=repr)``
    order — the tie-break order the scalar handlers iterate inboxes in —
    and ``order`` is its inverse (``order[rank[i]] == i``).
    """
    cache = getattr(net, "_vec_arrays", None)
    if cache is None:
        n = len(net.nodes)
        starts = np.asarray(net.csr_starts, dtype=np.int64)
        targets = np.asarray(net.csr_targets, dtype=np.int64)
        # Stable argsort over the repr strings == sorted(..., key=repr):
        # numpy unicode comparison is Python str comparison, and stability
        # reproduces the index-order tie-break for colliding reprs.
        reprs = np.array([repr(v) for v in net.nodes])
        order = np.argsort(reprs, kind="stable").astype(np.int64)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n, dtype=np.int64)
        cache = net._vec_arrays = (starts, targets, rank, order)
    return cache


def _gather_ranges(starts: np.ndarray, flat: np.ndarray, rows: np.ndarray):
    """Concatenate ``flat[starts[r]:starts[r+1]]`` for every row in ``rows``.

    Returns ``(counts, gathered)`` — the per-row lengths and the flattened
    gather — without a Python-level loop.
    """
    counts = starts[rows + 1] - starts[rows]
    total = int(counts.sum())
    if total == 0:
        return counts, _EMPTY
    firsts = np.repeat(starts[rows], counts)
    bases = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(counts)[:-1]))
    within = np.arange(total, dtype=np.int64) - np.repeat(bases, counts)
    return counts, flat[firsts + within]


def vector_bit_lengths(vals: np.ndarray) -> np.ndarray:
    """Exact ``int.bit_length`` of non-negative int64s, vectorized.

    A shift cascade rather than ``log2`` — floating point is off by one
    at exact powers of two, and the word-cost ledger may never disagree
    with the scalar path by even a bit.
    """
    v = vals.astype(np.int64, copy=True)
    out = np.zeros(v.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        big = v >= (np.int64(1) << shift)
        out[big] += shift
        v[big] >>= shift
    out += v  # v is now 0 or 1
    return out


def vector_payload_words(vals: np.ndarray, word_bits: int) -> np.ndarray:
    """Word cost of one-integer tuple payloads ``(v,)``, vectorized.

    Matches ``payload_words((v,), word_bits)`` exactly: a tuple costs the
    max(1, sum of elements), and an int costs
    ``max(1, ceil(bit_length / word_bits))`` — identical here because the
    tuple holds a single integer.
    """
    bits = vector_bit_lengths(np.abs(vals))
    return np.maximum(1, (bits + word_bits - 1) // word_bits)


class VectorKernel:
    """Contract for a bulk-synchronous node program.

    A kernel owns struct-of-arrays state for all ``n`` nodes and three
    engine-visible members:

    ``halted`` / ``halted_count``
        Boolean array plus its population count; ``halted[i]`` set (only
        ever raised, never cleared) when node ``i`` leaves the protocol.
        Mail to a halted node is dropped by the engine, matching the
        scalar dispatcher.  The count is maintained incrementally so the
        engine never pays an O(n) scan per round.
    ``round(rnd, sched, src, dst, val)``
        One synchronous round: ``sched`` is the dispatch set (sorted node
        indices), ``(src, dst, val)`` the columnar inbox pool delivered
        this round (``dst`` is always a subset of ``sched``).  Returns
        ``(out_src, out_dst, out_val, woken)`` int64 arrays — this
        round's sends (at most one per directed edge, payload semantics
        ``(int(val),)``) and the indices that armed a ``ctx.wake()``
        (live nodes from ``sched`` only; duplicates allowed).

    ``outputs(net)`` must reproduce exactly what the scalar program's
    halt outputs (plus ``finalize``, if its scalar twin uses one) would
    produce — the engine never sees :class:`NodeContext` objects.  The
    kernel author owns that equivalence; the A/B harness enforces it.
    """

    halted: np.ndarray
    halted_count: int = 0

    def round(self, rnd, sched, src, dst, val):  # pragma: no cover - contract
        raise NotImplementedError

    def outputs(self, net: Network) -> Dict[Node, Any]:  # pragma: no cover
        raise NotImplementedError


# -- the engine --------------------------------------------------------------

def run_vectorized(
    net: Network,
    kernel: VectorKernel,
    max_rounds: int,
    stop_when_quiet: bool = False,
    trace=None,
    metrics=None,
) -> RunResult:
    """Run a :class:`VectorKernel` under active-set scheduling semantics.

    Every observable — rounds, messages, words, drops, stop reason,
    outputs, trace records, per-edge histograms, metric totals — is
    bit-identical to ``Network.run(..., scheduler="active")`` on the
    scalar twin of the kernel.  Only the dispatch mechanics differ: one
    columnar ``kernel.round`` call replaces ``len(schedule)`` handler
    invocations.
    """
    nodes = net.nodes
    n = len(nodes)
    word_bits = net.word_bits
    budget = net.max_words
    obs = _RunObserver(nodes, trace, metrics)
    run_id = obs.run_id
    halted_count = kernel.halted_count
    # Round 1 dispatches every live node — the synchronous start.
    active = np.flatnonzero(~kernel.halted)
    in_src = in_dst = in_val = _EMPTY
    rounds = 0
    messages = 0
    dropped_total = 0
    max_words_seen = 0
    sent_last_round = True
    stop_reason = "max_rounds"
    while rounds < max_rounds:
        if halted_count == n:
            stop_reason = "halted"
            break
        if stop_when_quiet and rounds > 0 and not sent_last_round:
            # Wake-aware quiet rule: a silent round only ends the run when
            # no node armed a wake for it.  The active set folds wakes in,
            # so an empty set is exactly "no mail and no armed wake"; the
            # fast path never has stutter duplicates in flight (faulted
            # runs fall back to the message-level dispatcher).
            if active.size == 0:
                stop_reason = "quiet"
                break
        if active.size == 0:
            obs.warn_deadlock(rounds, n - halted_count, max_rounds)
            rounds = max_rounds
            stop_reason = "deadlock"
            break
        rounds += 1
        sched = active
        started = obs.dispatch_started()
        out_src, out_dst, out_val, woken = kernel.round(
            rounds, sched, in_src, in_dst, in_val
        )
        halted_count = kernel.halted_count
        nmsg = int(out_dst.size)
        round_words = 0
        round_max_words = 0
        if nmsg:
            words = vector_payload_words(out_val, word_bits)
            over = words > budget
            if over.any():
                j = int(np.argmax(over))
                src_node = nodes[int(out_src[j])]
                raise CongestViolation(
                    f"message has {int(words[j])} words (budget {budget})",
                    node=src_node,
                    round=rounds,
                    edge=(src_node, nodes[int(out_dst[j])]),
                    payload=(int(out_val[j]),),
                )
            round_words = int(words.sum())
            round_max_words = int(words.max())
            if round_max_words > max_words_seen:
                max_words_seen = round_max_words
            if trace is not None:
                for k in range(nmsg):
                    trace.record_message(
                        run_id, rounds,
                        nodes[int(out_src[k])], nodes[int(out_dst[k])],
                        int(words[k]),
                    )
        obs.record_dispatch(sched, started)
        # Synchronous delivery: sends arrive next round; mail to nodes
        # that halted during (or before) this round is dropped — the
        # sender paid for it.
        messages += nmsg
        dropped = 0
        if nmsg:
            live = ~kernel.halted[out_dst]
            dropped = nmsg - int(live.sum())
            if dropped:
                in_src = out_src[live]
                in_dst = out_dst[live]
                in_val = out_val[live]
            else:
                in_src, in_dst, in_val = out_src, out_dst, out_val
        else:
            in_src = in_dst = in_val = _EMPTY
        dropped_total += dropped
        # Next round's schedule: delivery targets plus armed wakes, each
        # already halt-filtered; unique-sorted for determinism.  Work is
        # proportional to the wavefront, never to n.
        if woken.size and kernel.halted[woken].any():
            woken = woken[~kernel.halted[woken]]
        if in_dst.size:
            active = (
                np.unique(np.concatenate((in_dst, woken)))
                if woken.size
                else np.unique(in_dst)
            )
        else:
            active = np.unique(woken) if woken.size else _EMPTY
        sent_last_round = nmsg > 0
        obs.record_round(
            rounds, int(sched.size), nmsg, round_words, dropped, round_max_words
        )
    return RunResult(
        rounds,
        kernel.outputs(net),
        messages,
        max_words_seen,
        stop_reason,
        dropped_total,
        fast_path=True,
    )


# -- kernels for the algorithms.py primitives --------------------------------

class BfsKernel(VectorKernel):
    """Columnar twin of :func:`repro.congest.algorithms.bfs_run`.

    Parent selection replicates the scalar tie-break bit for bit: the
    scalar handler folds its inbox in ``repr``-sorted sender order with a
    strict-``<`` running minimum, so the winning parent is the
    ``repr``-least sender attaining the minimal distance.  Here that is
    one ``np.minimum.at`` over the combined key
    ``dist * (n+1) + repr_rank``.
    """

    def __init__(self, net: Network, root: Node, slack: int = 4):
        n = len(net.nodes)
        self.starts, self.targets, self.rank, self.order = _arrays(net)
        self.slack = slack
        self.mod = np.int64(n + 1)
        self.dist = np.full(n, -1, dtype=np.int64)
        self.dist[net.index[root]] = 0
        self.parent = np.full(n, -1, dtype=np.int64)
        self.announced = np.zeros(n, dtype=bool)
        self.quiet = np.zeros(n, dtype=np.int64)
        self.halted = np.zeros(n, dtype=bool)
        self.halted_count = 0
        self._big = np.iinfo(np.int64).max
        self._best = np.full(n, self._big, dtype=np.int64)

    def round(self, rnd, sched, src, dst, val):
        if dst.size:
            key = (val + 1) * self.mod + self.rank[src]
            self._best[dst] = self._big
            np.minimum.at(self._best, dst, key)
            dsts = np.unique(dst)
            best = self._best[dsts]
            new_dist = best // self.mod
            new_parent = self.order[best % self.mod]
            cur = self.dist[dsts]
            improved = (cur == -1) | (new_dist < cur)
            upd = dsts[improved]
            self.dist[upd] = new_dist[improved]
            self.parent[upd] = new_parent[improved]
            self.announced[upd] = False
        known = self.dist[sched] != -1
        fresh = known & ~self.announced[sched]
        announcers = sched[fresh]
        self.announced[announcers] = True
        self.quiet[announcers] = 0
        counts, out_dst = _gather_ranges(self.starts, self.targets, announcers)
        out_src = np.repeat(announcers, counts)
        out_val = np.repeat(self.dist[announcers], counts)
        silent = sched[~fresh]
        self.quiet[silent] += 1
        settled = silent[self.dist[silent] != -1]
        done = self.quiet[settled] >= self.slack
        halters = settled[done]
        self.halted[halters] = True
        self.halted_count += int(halters.size)
        woken = np.concatenate((announcers, settled[~done]))
        return out_src, out_dst, out_val, woken

    def outputs(self, net: Network) -> Dict[Node, Any]:
        nodes = net.nodes
        # tolist() converts to builtin ints in one pass — outputs must
        # repr identically to the scalar path's (np.int64(5) would not).
        dist = self.dist.tolist()
        parent = self.parent.tolist()
        halted = self.halted.tolist()
        return {
            v: (
                (dist[i], nodes[parent[i]] if parent[i] >= 0 else None)
                if halted[i]
                else None
            )
            for i, v in enumerate(nodes)
        }


class BroadcastKernel(VectorKernel):
    """Columnar twin of :func:`repro.congest.algorithms.broadcast_run`."""

    def __init__(
        self,
        net: Network,
        root: Node,
        value: int,
        parent: Dict[Node, Optional[Node]],
    ):
        n = len(net.nodes)
        index = net.index
        self.value = int(value)
        kids: Dict[int, list] = {i: [] for i in range(n)}
        for v, p in parent.items():
            if p is not None:
                kids[index[p]].append(index[v])
        starts = [0]
        flat: list = []
        for i in range(n):
            flat.extend(kids[i])
            starts.append(len(flat))
        self.ch_starts = np.asarray(starts, dtype=np.int64)
        self.ch_flat = np.asarray(flat, dtype=np.int64)
        self.have = np.zeros(n, dtype=bool)
        self.have[index[root]] = True
        self.sent = np.zeros(n, dtype=bool)
        self.halted = np.zeros(n, dtype=bool)
        self.halted_count = 0

    def round(self, rnd, sched, src, dst, val):
        if dst.size:
            self.have[dst] = True
        have_s = self.have[sched]
        sent_s = self.sent[sched]
        firing = sched[have_s & ~sent_s]
        self.sent[firing] = True
        counts, out_dst = _gather_ranges(self.ch_starts, self.ch_flat, firing)
        out_src = np.repeat(firing, counts)
        out_val = np.full(out_dst.size, self.value, dtype=np.int64)
        leaves = firing[counts == 0]
        # Leaves halt on firing; a node dispatched again after its send
        # fired halts too (the scalar "if sent: halt" branch).
        done_again = sched[sent_s]
        self.halted[leaves] = True
        self.halted[done_again] = True
        self.halted_count += int(leaves.size) + int(done_again.size)
        return out_src, out_dst, out_val, firing[counts > 0]

    def outputs(self, net: Network) -> Dict[Node, Any]:
        return {
            v: self.value if self.halted[i] else None
            for i, v in enumerate(net.nodes)
        }


class ConvergecastKernel(VectorKernel):
    """Columnar twin of :func:`repro.congest.algorithms.convergecast_run`
    with the default (sum) combiner."""

    def __init__(
        self,
        net: Network,
        values: Dict[Node, int],
        parent: Dict[Node, Optional[Node]],
    ):
        n = len(net.nodes)
        index = net.index
        self.parent_ix = np.full(n, -1, dtype=np.int64)
        self.waiting = np.zeros(n, dtype=np.int64)
        for v, p in parent.items():
            if p is not None:
                self.parent_ix[index[v]] = index[p]
                self.waiting[index[p]] += 1
        self.acc = np.zeros(n, dtype=np.int64)
        for v, x in values.items():
            self.acc[index[v]] = int(x)
        self.halted = np.zeros(n, dtype=bool)
        self.halted_count = 0

    def round(self, rnd, sched, src, dst, val):
        if dst.size:
            np.add.at(self.acc, dst, val)
            np.subtract.at(self.waiting, dst, 1)
        firing = sched[self.waiting[sched] == 0]
        self.halted[firing] = True
        self.halted_count += int(firing.size)
        p = self.parent_ix[firing]
        up = p >= 0
        out_src = firing[up]
        return out_src, p[up], self.acc[out_src], _EMPTY

    def outputs(self, net: Network) -> Dict[Node, Any]:
        return {
            v: int(self.acc[i]) if self.halted[i] else None
            for i, v in enumerate(net.nodes)
        }


class MinFloodKernel(VectorKernel):
    """Columnar twin of the min-flood used by the quiet-stop tests and
    benchmarks: every node floods the minimum value it has seen and the
    run ends by quiescence (no node ever halts or wakes)."""

    def __init__(self, net: Network, values: Dict[Node, int]):
        n = len(net.nodes)
        self.starts, self.targets, _, _ = _arrays(net)
        self.best = np.empty(n, dtype=np.int64)
        for v, x in values.items():
            self.best[net.index[v]] = int(x)
        self.dirty = np.ones(n, dtype=bool)
        self.halted = np.zeros(n, dtype=bool)
        self.halted_count = 0

    def round(self, rnd, sched, src, dst, val):
        if dst.size:
            dsts = np.unique(dst)
            prev = self.best[dsts]
            np.minimum.at(self.best, dst, val)
            self.dirty[dsts[self.best[dsts] < prev]] = True
        firing = sched[self.dirty[sched]]
        self.dirty[firing] = False
        counts, out_dst = _gather_ranges(self.starts, self.targets, firing)
        out_src = np.repeat(firing, counts)
        out_val = np.repeat(self.best[firing], counts)
        return out_src, out_dst, out_val, _EMPTY

    def outputs(self, net: Network) -> Dict[Node, Any]:
        return {v: int(self.best[i]) for i, v in enumerate(net.nodes)}


def min_flood_program(values: Dict[Node, int]):
    """Scalar min-flood program with an attached vector kernel.

    Returns ``(init, on_round, finalize)`` runnable under all three
    schedulers — the scalar closures for ``dense``/``active`` and the
    :class:`MinFloodKernel` for ``vectorized``.  Used by the quiet-stop
    parity tests and the wavefront benchmark.
    """

    def init(ctx: NodeContext) -> None:
        ctx.state["best"] = values[ctx.node]
        ctx.state["dirty"] = True

    def on_round(ctx: NodeContext, inbox) -> Optional[Dict[Node, Any]]:
        for payload in inbox.values():
            if payload[0] < ctx.state["best"]:
                ctx.state["best"] = payload[0]
                ctx.state["dirty"] = True
        if ctx.state["dirty"]:
            ctx.state["dirty"] = False
            return {u: (ctx.state["best"],) for u in ctx.neighbors}
        return None

    on_round.vector_kernel = lambda net: MinFloodKernel(net, values)

    def finalize(ctx: NodeContext) -> int:
        return ctx.state["best"]

    return init, on_round, finalize
