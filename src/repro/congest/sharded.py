"""Separator-sharded multiprocess execution of ``Network.run``.

The paper's cycle separator is a *balanced partitioner* — so we eat our
own dog food and use it to shard the simulated network itself.  A run
with ``Network.run(..., shards=k)`` is partitioned by a recursive
cycle-separator decomposition (:func:`separator_shard_partition`, the
same split rule :func:`repro.applications.hierarchy.build_hierarchy`
uses): each part becomes a *shard* executing its nodes' programs in its
own worker process, and the synchronous rounds advance in lockstep via a
coordinator barrier.

Execution model
---------------

Every shard holds the single-process round state
(:class:`repro.congest.network._RoundState`) over its local nodes and
calls its steps — crash, dispatch, deliver, fold wakes — exactly as
:meth:`repro.congest.network.Network.run` does.  A global round is two
exchanges over the shard channels:

1. **run** — every shard applies its crashes, dispatches its local
   schedule, delivers its *local* sends, and returns the cross-shard
   sends plus a delta (local halted count, did-anything-send, newly
   really-halted transport peers);
2. **deliver** — the coordinator routes each cross-shard message to the
   shard owning its receiver; the receiving shard passes them through
   the same ``deliver`` call (halted-drop, crash loss, fault
   drop/duplicate/corrupt coins — all pure functions of the plan seed
   and ``(src, dst, round)``), folds in its wakes and reports its
   post-delivery activity.

With every delta gathered, the coordinator evaluates the *global* stop
conditions — ``halted`` / ``quiet`` / ``deadlock`` / ``max_rounds`` —
with the same predicates, in the same order, as the single-process loop,
so quiet and deadlock detection stay global despite the partitioning.
At the end it merges the shards' per-round arrays and reports each round
through the single-process observer
(:class:`repro.congest.network._RunObserver`), crash warnings in the
fault plan's order.

Determinism
-----------

``run_fingerprint`` is bit-identical to the single-process schedulers.
Per-round record fields are sums (messages, words, dropped, lost,
duplicated, corrupted) or maxima (max_words) over the shards; receiver-
side outcomes of cross-shard messages are attributed to the *sending*
round, exactly as the single-process delivery phase does.  The two
places sharding genuinely reorders events — inbox insertion order when
several senders message one node, and same-round visibility of a
transport peer's completed deferred halt — are already unordered between
the ``dense`` and ``active`` schedulers, so any program satisfying the
scheduler-equivalence contract (docs/MODEL.md) is insensitive to them;
the A/B suite (``tests/test_sharded.py``, CI ``sharded-parity``) locks
this empirically for every sim.

Processes and channels
----------------------

Worker processes are forked (closures are not picklable; a forked child
inherits the graph, the node programs and the fault plan by copy-on-
write), following the process fan-out machinery of the experiment runner
(PR 2) adapted to long-lived barrier workers.  Cross-shard traffic rides
in envelopes carried over the :mod:`repro.congest.transport` integrity
machinery: every channel message is sequence-numbered and checksummed
with the transport's frame checksum, and a gap or mismatch aborts the
run loudly instead of desynchronizing a barrier.  Where ``fork`` is
unavailable the engine falls back to ``inline`` mode — the same shard
engines stepped sequentially in-process, bit-identical by construction
(and handy for debugging; ``shard_mode="inline"`` forces it).

Composability
-------------

Faults replay bit-identically (the plan is pure in the seed), a
:class:`~repro.congest.transport.ReliableTransport` session runs per
shard with its frames riding across shard boundaries unchanged (the
session-shared ``really_halted`` set is unioned at each barrier), shard-
local :class:`~repro.obs.MetricsRegistry` instances are merged into the
caller's registry (:meth:`~repro.obs.MetricsRegistry.merge`), and trace
fragments are merged into the caller's :class:`RoundTrace` — the
per-edge word histograms and worst offender, which partition cleanly
because each directed edge has exactly one sending shard.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import networkx as nx

from ..planar.construct import induced_copy
from .network import (
    CongestViolation,
    RunResult,
    _crash_schedule,
    _RoundState,
    _RunObserver,
)
from .trace import RoundTrace
from .transport import TransportStats, _checksum

Node = Hashable

__all__ = [
    "partition_summary",
    "run_sharded",
    "separator_shard_partition",
]


# -- partitioning -----------------------------------------------------------


def _split_part(graph: nx.Graph, part: List[Node]) -> List[List[Node]]:
    """Split one part in two-or-more pieces, preferring the paper's cycle
    separator; fall back to balanced halves of the repr-sorted part when
    the separator machinery does not apply (tiny, disconnected or
    non-planar pieces)."""
    sub = induced_copy(graph, part)
    sep: Optional[List[Node]] = None
    if len(part) >= 4 and nx.is_connected(sub):
        try:
            from ..core.config import PlanarConfiguration
            from ..core.separator import cycle_separator

            cfg = PlanarConfiguration.build(sub, root=min(part, key=repr))
            sep = list(cycle_separator(cfg).path)
        except Exception:
            sep = None
    if sep:
        rest = graph.subgraph([v for v in part if v not in set(sep)])
        comps = [sorted(c, key=repr) for c in nx.connected_components(rest)]
        comps.sort(key=lambda c: (-len(c), repr(c[0])))
        if len(comps) == 1:
            return [comps[0], sorted(sep, key=repr)]
        if len(comps) >= 2:
            # The separator ring joins the smallest component: the cycle is
            # O(sqrt n), so this keeps the pieces balanced while giving the
            # ring a shard to call home.
            smallest = comps.pop()
            comps.append(sorted(set(smallest) | set(sep), key=repr))
            return comps
    ordered = sorted(part, key=repr)
    half = len(ordered) // 2
    return [ordered[:half], ordered[half:]]


def separator_shard_partition(graph: nx.Graph, shards: int) -> List[List[Node]]:
    """Partition ``graph`` into ``shards`` node sets via recursive cycle
    separators.

    The largest part is repeatedly split with the paper's cycle separator
    (the same rule the :func:`~repro.applications.hierarchy.build_hierarchy`
    r-division uses) until at least ``shards`` parts exist, then parts are
    packed largest-first into the emptiest shard.  Deterministic: every
    ordering decision keys on node ``repr``.  ``shards`` is clamped to the
    node count; every returned list is non-empty, they are disjoint, and
    their union is ``graph.nodes``.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    n = len(graph)
    if n == 0:
        raise ValueError("empty graph")
    shards = min(shards, n)
    parts = [sorted(c, key=repr) for c in nx.connected_components(graph)]
    while len(parts) < shards:
        parts.sort(key=lambda p: (-len(p), repr(p[0])))
        if len(parts[0]) < 2:
            break
        big = parts.pop(0)
        parts.extend(p for p in _split_part(graph, big) if p)
    parts.sort(key=lambda p: (-len(p), repr(p[0])))
    bins: List[List[Node]] = [[] for _ in range(shards)]
    for part in parts:
        target = min(range(shards), key=lambda i: (len(bins[i]), i))
        bins[target].extend(part)
    return [sorted(b, key=repr) for b in bins]


def partition_summary(graph: nx.Graph, parts: Sequence[Sequence[Node]]) -> Dict[str, Any]:
    """Shard sizes and the cross-shard cut — the load/communication shape
    a partition gives the barrier loop."""
    owner: Dict[Node, int] = {}
    for i, part in enumerate(parts):
        for v in part:
            owner[v] = i
    cut = sum(1 for u, v in graph.edges if owner[u] != owner[v])
    sizes = [len(part) for part in parts]
    return {
        "shards": len(parts),
        "sizes": sizes,
        "imbalance": round(max(sizes) / (len(graph) / len(parts)), 3),
        "cut_edges": cut,
        "cut_fraction": round(cut / max(1, graph.number_of_edges()), 4),
    }


# -- the per-shard engine ---------------------------------------------------

#: The per-round record fields a shard keeps, in RoundTrace.record_round
#: order; ``maxw`` merges by maximum, the rest by sum.
_REC_KEYS = ("sched", "msgs", "words", "dropped", "maxw", "lost", "dup", "corrupt")


class _ShardEngine:
    """One shard's half of the barrier protocol.

    Holds a :class:`~repro.congest.network._RoundState` over its local
    nodes and runs the single-process round steps on it: the dispatch
    output is split by receiver shard, local sends are delivered in
    :meth:`run_round` and cross-shard ones in :meth:`deliver_remote`,
    through the same ``deliver``.  Built in the parent (cheap — no
    contexts yet), started inside the worker.
    """

    def __init__(
        self,
        network,
        shard_index: int,
        part: Sequence[Node],
        init: Callable,
        on_round: Callable,
        finalize: Optional[Callable],
        faults,
        transport,
        run_id: int,
        trace_wanted: bool,
        edge_histograms: bool,
        metrics_wanted: bool,
        trace_ctx=None,
    ):
        self.network = network
        self.shard_index = shard_index
        self.part = tuple(part)
        self.init = init
        self.on_round = on_round
        self.finalize = finalize
        self.faults = faults
        self.transport = transport
        self.run_id = run_id
        self.trace_wanted = trace_wanted
        self.edge_histograms = edge_histograms
        self.metrics_wanted = metrics_wanted
        #: Request lineage (a picklable ``repro.obs.events.TraceContext``)
        #: stamped onto this shard — crosses the fork with the engine and
        #: is echoed back at the start barrier so the coordinator can
        #: verify every worker carries the same request identity.
        self.trace_ctx = trace_ctx

    # -- lifecycle ------------------------------------------------------
    def start(self) -> Dict[str, Any]:
        net = self.network
        local = sorted(net.index[v] for v in self.part)
        self.local_set = frozenset(local)
        from ..obs import MetricsRegistry  # local import: obs -> congest cycle

        metrics = MetricsRegistry() if self.metrics_wanted else None
        self.state = _RoundState(
            net, local, self.init, self.on_round, self.faults, self.transport,
            metrics,
        )
        self.session = self.state.session
        # The shard's trace fragment collects the per-edge histograms and
        # the worst offender of its own sends; the coordinator records the
        # rounds and warnings.
        fragment = (
            RoundTrace(edge_histograms=self.edge_histograms)
            if self.trace_wanted
            else None
        )
        self.obs = _RunObserver(net.nodes, fragment, metrics, run_id=self.run_id)
        # Per-round arrays (index round-1), one per RoundRecord field.
        self.rec: Dict[str, List[int]] = {key: [] for key in _REC_KEYS}
        self._schedule: List[int] = []
        self._rh_known: set = set()
        return {
            "halted": self.state.halted_count,
            "active": bool(self.state.active),
            "trace": (
                self.trace_ctx.trace_id if self.trace_ctx is not None else None
            ),
        }

    # -- one global round, local half -----------------------------------
    def run_round(self, rounds: int) -> Dict[str, Any]:
        state = self.state
        state.crash(rounds)
        schedule = self._schedule = state.active
        started = self.obs.dispatch_started()
        outgoing, words, max_words = state.dispatch(rounds, schedule, self.obs)
        self.obs.record_dispatch(schedule, started)
        local_set = self.local_set
        outgoing_local: List[Tuple[Node, int, Any]] = []
        outgoing_remote: List[Tuple[Node, int, Any]] = []
        for entry in outgoing:
            if entry[1] in local_set:
                outgoing_local.append(entry)
            else:
                outgoing_remote.append(entry)
        dropped, lost, duplicated, corrupted = state.deliver(rounds, outgoing_local)
        for key, value in zip(_REC_KEYS, (
            len(schedule), len(outgoing), words, dropped, max_words,
            lost, duplicated, corrupted,
        )):
            self.rec[key].append(value)
        new_rh: List[Node] = []
        if self.session is not None:
            rh = self.session.really_halted
            if len(rh) != len(self._rh_known):
                new_rh = sorted(rh - self._rh_known, key=repr)
                self._rh_known |= rh
        return {
            "out": outgoing_remote,
            "halted": state.halted_count,
            "out_any": bool(outgoing),
            "rh": new_rh,
        }

    def deliver_remote(
        self,
        rounds: int,
        entries: Sequence[Tuple[Node, int, Any]],
        rh_new: Sequence[Node],
    ) -> Dict[str, Any]:
        """Apply the cross-shard sends of ``rounds`` and close the round;
        outcomes are attributed to that round (the sending round), exactly
        like the single-process delivery phase."""
        if self.session is not None and rh_new:
            self.session.really_halted.update(rh_new)
            self._rh_known.update(rh_new)
        state = self.state
        counts = state.deliver(rounds, entries)
        state.end_round(self._schedule)
        r_ix = rounds - 1
        for key, value in zip(("dropped", "lost", "dup", "corrupt"), counts):
            self.rec[key][r_ix] += value
        return {
            "active": bool(state.active),
            "pending": bool(state.pending_dups),
        }

    def finish(self) -> Dict[str, Any]:
        state = self.state
        fragment = self.obs.trace
        return {
            "outputs": state.outputs(self.finalize),
            "crashed": state.crashed_nodes(),
            "messages": state.messages,
            "max_words": state.max_words_seen,
            "dropped": state.dropped,
            "lost": state.lost,
            "duplicated": state.duplicated,
            "corrupted": state.corrupted,
            "rec": self.rec,
            "edge_words": fragment.edge_words if fragment is not None else {},
            "offender": fragment.offender if fragment is not None else None,
            "stats": self.session.stats if self.session is not None else None,
            "metrics": self.obs.metrics,
        }


# -- channels ---------------------------------------------------------------

#: Checksum width of the channel envelopes (the transport's frame
#: checksum, applied to inter-process batches).
_ENVELOPE_BITS = 32


class _Framer:
    """Sequenced, checksummed envelopes over a duplex connection.

    The pipe itself is reliable; the envelope turns a desynchronized
    barrier (a worker and the coordinator disagreeing about the round) or
    a corrupted batch into an immediate, attributable failure instead of
    a silent divergence — the same posture the ReliableTransport takes on
    simulated edges, with the same checksum."""

    def __init__(self, conn):
        self.conn = conn
        self._tx = 0
        self._rx = 0

    def send(self, obj: Any) -> None:
        self._tx += 1
        self.conn.send((self._tx, _checksum(0, self._tx, 0, obj, _ENVELOPE_BITS), obj))

    def recv(self) -> Any:
        seq, cks, obj = self.conn.recv()
        self._rx += 1
        if seq != self._rx:
            raise RuntimeError(
                f"shard channel desynchronized: envelope seq {seq}, "
                f"expected {self._rx}"
            )
        if _checksum(0, seq, 0, obj, _ENVELOPE_BITS) != cks:
            raise RuntimeError(
                f"shard channel envelope {seq} failed its checksum"
            )
        return obj


def _worker_main(engine: _ShardEngine, conn) -> None:
    """The forked worker: serve barrier requests until told to stop."""
    framer = _Framer(conn)
    try:
        while True:
            msg = framer.recv()
            cmd = msg[0]
            try:
                if cmd == "start":
                    framer.send(("ok", engine.start()))
                elif cmd == "run":
                    framer.send(("ok", engine.run_round(msg[1])))
                elif cmd == "deliver":
                    framer.send(("ok", engine.deliver_remote(msg[1], msg[2], msg[3])))
                elif cmd == "finish":
                    framer.send(("ok", engine.finish()))
                    return
                else:  # "abort" or unknown
                    return
            except Exception as exc:  # surfaced in the coordinator
                framer.send(("err", type(exc).__name__, str(exc)))
                return
    except (EOFError, OSError, KeyboardInterrupt):  # parent went away
        return


class _ProcessChannel:
    """A forked worker process plus its framed pipe."""

    def __init__(self, engine: _ShardEngine, mp_context):
        parent_conn, child_conn = mp_context.Pipe()
        self.process = mp_context.Process(
            target=_worker_main, args=(engine, child_conn), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.framer = _Framer(parent_conn)

    def request(self, msg: Tuple) -> Any:
        self.framer.send(msg)
        try:
            return self.framer.recv()
        except EOFError:
            raise RuntimeError(
                "shard worker died mid-run (see the worker's stderr)"
            ) from None

    def close(self, abort: bool = False) -> None:
        try:
            if abort:
                self.framer.send(("abort",))
        except (OSError, BrokenPipeError):
            pass
        self.process.join(timeout=5)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.terminate()
            self.process.join(timeout=5)


class _InlineChannel:
    """The same engine, stepped in-process — the fork-less fallback and
    the debugger's entry point; bit-identical to process mode because the
    engine and the message contents are shared code."""

    def __init__(self, engine: _ShardEngine):
        self.engine = engine

    def request(self, msg: Tuple) -> Any:
        cmd = msg[0]
        try:
            if cmd == "start":
                return ("ok", self.engine.start())
            if cmd == "run":
                return ("ok", self.engine.run_round(msg[1]))
            if cmd == "deliver":
                return ("ok", self.engine.deliver_remote(msg[1], msg[2], msg[3]))
            if cmd == "finish":
                return ("ok", self.engine.finish())
        except CongestViolation:
            raise
        return ("ok", None)

    def close(self, abort: bool = False) -> None:
        pass


def _fork_context():
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


# -- the coordinator --------------------------------------------------------


def _unwrap(reply: Any) -> Any:
    if not isinstance(reply, tuple) or not reply:
        raise RuntimeError(f"malformed shard reply: {reply!r}")
    if reply[0] == "err":
        _, cls_name, text = reply
        if cls_name == "CongestViolation":
            # The worker's message already carries the [node=... round=...]
            # context block; re-raising with it preserves the text.
            raise CongestViolation(text)
        raise RuntimeError(f"shard worker failed: {cls_name}: {text}")
    return reply[1]


def run_sharded(
    network,
    init: Callable,
    on_round: Callable,
    max_rounds: int,
    finalize: Optional[Callable] = None,
    stop_when_quiet: bool = False,
    trace=None,
    faults=None,
    metrics=None,
    transport=None,
    shards: int = 2,
    partition: Optional[Sequence[Sequence[Node]]] = None,
    shard_mode: str = "auto",
) -> RunResult:
    """Execute one node program across separator-derived shards.

    The workhorse behind ``Network.run(..., shards=k)``; see the module
    docstring for the execution model.  ``partition`` overrides the
    default :func:`separator_shard_partition` (each inner sequence is one
    shard's node set; must cover the graph exactly); ``shard_mode`` is
    ``"process"`` (forked workers), ``"inline"`` (sequential in-process
    stepping, bit-identical) or ``"auto"`` (process where ``fork``
    exists, else inline).
    """
    if shard_mode not in ("auto", "process", "inline"):
        raise ValueError(f"unknown shard_mode {shard_mode!r}")
    nodes = network.nodes
    n = len(nodes)
    index = network.index
    # Validates the plan too; the coordinator warns of crashes in this order.
    _, crash_by_round = _crash_schedule(faults, index)
    if partition is None:
        partition = separator_shard_partition(network.graph, shards)
    else:
        partition = [list(part) for part in partition]
        flat = [v for part in partition for v in part]
        if sorted(flat, key=repr) != sorted(nodes, key=repr) or len(flat) != n:
            raise ValueError(
                "shard partition must cover every node exactly once"
            )
        partition = [part for part in partition if part]
    k = len(partition)
    if k <= 1:
        return network.run(
            init, on_round, max_rounds, finalize=finalize,
            stop_when_quiet=stop_when_quiet, trace=trace, scheduler="active",
            faults=faults, metrics=metrics, transport=transport,
        )
    shard_of = [0] * n
    for s, part in enumerate(partition):
        for v in part:
            shard_of[index[v]] = s
    obs = _RunObserver(nodes, trace, metrics)
    # Request lineage: a tracer bound to a TraceContext (bind_context)
    # stamps it onto every shard engine, so a sharded run keeps the same
    # request identity across the fork as a single-process one.
    trace_ctx = (
        getattr(getattr(trace, "tracer", None), "context", None)
        if trace is not None
        else None
    )
    engines = [
        _ShardEngine(
            network, s, part, init, on_round, finalize, faults, transport,
            obs.run_id,
            trace_wanted=trace is not None,
            edge_histograms=(trace._edge_histograms if trace is not None else True),
            metrics_wanted=metrics is not None,
            trace_ctx=trace_ctx,
        )
        for s, part in enumerate(partition)
    ]
    mp_context = _fork_context() if shard_mode in ("auto", "process") else None
    if shard_mode == "process" and mp_context is None:  # pragma: no cover
        raise RuntimeError(
            "shard_mode='process' needs the fork start method; "
            "use shard_mode='inline' on this platform"
        )
    if mp_context is not None:
        channels: List[Any] = [_ProcessChannel(e, mp_context) for e in engines]
    else:
        channels = [_InlineChannel(e) for e in engines]

    def broadcast(msg_fn) -> List[Any]:
        # Requests go out to every shard before any reply is awaited, so
        # process-mode shards genuinely compute a round in parallel.
        for s, ch in enumerate(channels):
            ch.framer.send(msg_fn(s)) if isinstance(ch, _ProcessChannel) else None
        replies = []
        for s, ch in enumerate(channels):
            if isinstance(ch, _ProcessChannel):
                try:
                    replies.append(_unwrap(ch.framer.recv()))
                except EOFError:
                    raise RuntimeError(
                        "shard worker died mid-run (see the worker's stderr)"
                    ) from None
            else:
                replies.append(_unwrap(ch.request(msg_fn(s))))
        return replies

    aborted = True
    try:
        started = broadcast(lambda s: ("start",))
        if trace_ctx is not None:
            for s, st in enumerate(started):
                if st.get("trace") != trace_ctx.trace_id:
                    raise RuntimeError(
                        f"shard {s} lost its trace lineage: "
                        f"{st.get('trace')!r} != {trace_ctx.trace_id!r}"
                    )
        halted_count = sum(st["halted"] for st in started)
        any_active = any(st["active"] for st in started)
        any_pending = False
        sent_last = True
        rounds = 0
        executed = 0
        stop_reason = "max_rounds"
        deadlock_idle: Optional[int] = None
        while rounds < max_rounds:
            if halted_count == n:
                stop_reason = "halted"
                break
            if stop_when_quiet and rounds > 0 and not sent_last:
                if not any_active and not any_pending:
                    stop_reason = "quiet"
                    break
            if not any_active and not any_pending:
                deadlock_idle = n - halted_count
                rounds = max_rounds
                stop_reason = "deadlock"
                break
            rounds += 1
            executed += 1
            deltas = broadcast(lambda s, r=rounds: ("run", r))
            routed: List[List[Tuple[Node, int, Any]]] = [[] for _ in range(k)]
            for delta in deltas:
                for entry in delta["out"]:
                    routed[shard_of[entry[1]]].append(entry)
            rh_new: List[Node] = []
            if transport is not None:
                merged_rh = set()
                for delta in deltas:
                    merged_rh.update(delta["rh"])
                rh_new = sorted(merged_rh, key=repr)
            statuses = broadcast(
                lambda s, r=rounds: ("deliver", r, routed[s], rh_new)
            )
            halted_count = sum(d["halted"] for d in deltas)
            any_active = any(st["active"] for st in statuses)
            any_pending = any(st["pending"] for st in statuses)
            sent_last = any(d["out_any"] for d in deltas) or any_pending
        finals = broadcast(lambda s: ("finish",))
        aborted = False
    finally:
        for ch in channels:
            ch.close(abort=aborted)

    # -- merge ----------------------------------------------------------
    outputs: Dict[Node, Any] = {}
    shard_outputs = [f["outputs"] for f in finals]
    for i, v in enumerate(nodes):
        outputs[v] = shard_outputs[shard_of[i]][v]
    crashed = tuple(
        sorted((v for f in finals for v in f["crashed"]), key=repr)
    )
    messages = sum(f["messages"] for f in finals)
    max_words_seen = max(f["max_words"] for f in finals)
    dropped_total = sum(f["dropped"] for f in finals)
    lost_total = sum(f["lost"] for f in finals)
    dup_total = sum(f["duplicated"] for f in finals)
    corrupted_total = sum(f["corrupted"] for f in finals)
    if metrics is not None:
        for f in finals:
            if f["metrics"] is not None:
                metrics.merge(f["metrics"])
    # The shards' per-round arrays merge into one record per round, in
    # the single-process order: a round's crash warnings, then its record.
    recs = [f["rec"] for f in finals]
    for r_ix in range(executed):
        rnd = r_ix + 1
        for i in crash_by_round.get(rnd, ()):
            obs.warn_crash(rnd, nodes[i])
        obs.record_round(rnd, *(
            (max if key == "maxw" else sum)(rec[key][r_ix] for rec in recs)
            for key in _REC_KEYS
        ))
    if deadlock_idle is not None:
        obs.warn_deadlock(executed, deadlock_idle, max_rounds)
    if trace is not None:
        for f in finals:
            for (src, dst), hist in f["edge_words"].items():
                merged = trace.edge_words.setdefault((src, dst), {})
                for words, count in hist.items():
                    merged[words] = merged.get(words, 0) + count
        offenders = sorted(
            (f["offender"] for f in finals if f["offender"] is not None),
            key=lambda o: (-o[4], o[1], repr(o[2]), repr(o[3])),
        )
        if offenders and offenders[0][4] > trace.max_words:
            trace.max_words = offenders[0][4]
            trace.offender = offenders[0]
    session_stats = None
    if transport is not None:
        session_stats = TransportStats()
        for f in finals:
            if f["stats"] is not None:
                session_stats.merge_from(f["stats"])
    return RunResult(
        rounds,
        outputs,
        messages,
        max_words_seen,
        stop_reason,
        dropped_total,
        lost_total,
        dup_total,
        crashed,
        corrupted_messages=corrupted_total,
        transport=session_stats,
        shards=k,
    )
