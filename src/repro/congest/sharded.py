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

Every shard runs the same active-set dispatch loop as the single-process
scheduler (:meth:`repro.congest.network.Network.run`), restricted to its
local nodes.  A global round is two exchanges over the shard channels:

1. **run** — every shard dispatches its local schedule, delivers its
   *local* sends in place, and returns the cross-shard sends plus a
   delta (local halted count, did-anything-send, pending duplicates,
   active-set emptiness, newly really-halted transport peers);
2. **deliver** — the coordinator routes each cross-shard message to the
   shard owning its receiver; the receiving shard applies the exact
   single-process delivery chain (halted-drop, crash loss, fault
   drop/duplicate/corrupt coins — all pure functions of the plan seed
   and ``(src, dst, round)``) and reports its post-delivery activity.

With every delta gathered, the coordinator evaluates the *global* stop
conditions — ``halted`` / ``quiet`` / ``deadlock`` / ``max_rounds`` —
with the same predicates, in the same order, as the single-process loop,
so quiet and deadlock detection stay global despite the partitioning.

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
fragments are merged into the caller's :class:`RoundTrace` — including
chronologically ordered warnings and the per-edge word histograms, which
partition cleanly because each directed edge has exactly one sending
shard.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import networkx as nx

from ..planar.construct import induced_copy
from .network import CongestViolation, NodeContext, RunResult, payload_words
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


class _ShardEngine:
    """One shard's half of the barrier protocol.

    Owns the :class:`NodeContext` objects of its local nodes and runs the
    exact single-process active-set dispatch and delivery code over them;
    everything cross-shard goes through :meth:`run_round`'s returned
    delta and :meth:`deliver_remote`.  Built in the parent (cheap —
    no contexts yet), started inside the worker.
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
        self.base_init = init
        self.base_on_round = on_round
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
        self.nodes = net.nodes
        self.index = net.index
        self.nbr_sets = net._neighbor_sets
        n = len(self.nodes)
        self.local = sorted(self.index[v] for v in self.part)
        self.local_set = frozenset(self.local)
        self.metrics = None
        from ..obs import MetricsRegistry  # local import: obs -> congest cycle

        if self.metrics_wanted:
            self.metrics = MetricsRegistry()
        self.session = None
        init, on_round = self.base_init, self.base_on_round
        if self.transport is not None:
            self.session = self.transport.session(net, metrics=self.metrics)
            init, on_round = self.session.wrap(init, on_round)
        self.on_round = on_round
        starts, flat = net.csr_starts, net.csr_targets
        self.contexts: List[Optional[NodeContext]] = [None] * n
        for i in self.local:
            v = self.nodes[i]
            self.contexts[i] = NodeContext(
                v, tuple(self.nodes[j] for j in flat[starts[i]: starts[i + 1]])
            )
            init(self.contexts[i])
        self.halted_count = sum(1 for i in self.local if self.contexts[i].halted)
        # Fault bookkeeping mirrors Network.run: crash rounds are global
        # (a sender checks its receiver's crash schedule), applied crashes
        # are local.
        self.crash_round_ix: Dict[int, int] = {}
        self.fault_delivery = None
        self.fault_mangle = None
        faults = self.faults
        if faults is not None:
            for node, crash_rnd in faults.crash_round.items():
                i = self.index.get(node)
                if i is not None:
                    self.crash_round_ix[i] = crash_rnd
            if (
                faults.drop_rate
                or faults.duplicate_rate
                or faults.drops
                or faults.duplicates
                or faults.link_downs
            ):
                self.fault_delivery = faults.copies
            if getattr(faults, "corrupt_rate", 0.0) or getattr(
                faults, "corruptions", ()
            ):
                self.fault_mangle = faults.mangle
        self.crash_by_round: Dict[int, List[int]] = {}
        for i, crash_rnd in self.crash_round_ix.items():
            if i in self.local_set:
                self.crash_by_round.setdefault(crash_rnd, []).append(i)
        self.crashed = bytearray(n)
        self.pending_dups: Dict[int, List[Tuple[Node, int, Any]]] = {}
        self.inboxes: List[Dict[Node, Any]] = [{} for _ in range(n)]
        self.active: List[int] = [
            i for i in self.local if not self.contexts[i].halted
        ]
        self._scheduled = bytearray(n)
        self.budget = net.max_words + (
            self.session.extra_words if self.session else 0
        )
        self.word_bits = net.word_bits
        self.counting = self.trace_wanted or self.metrics_wanted
        # Per-round arrays (index round-1) and run totals.
        self.rec_sched: List[int] = []
        self.rec_msgs: List[int] = []
        self.rec_words: List[int] = []
        self.rec_maxw: List[int] = []
        self.rec_dropped: List[int] = []
        self.rec_lost: List[int] = []
        self.rec_dup: List[int] = []
        self.rec_corrupt: List[int] = []
        self.messages_total = 0
        self.max_words_seen = 0
        self.dropped_total = 0
        self.lost_total = 0
        self.dup_total = 0
        self.corrupted_total = 0
        self.edge_words: Dict[Tuple[Node, Node], Dict[int, int]] = {}
        self.offender: Optional[Tuple[int, int, Node, Node, int]] = None
        self.local_max_words = 0
        self.warnings: List[Tuple[int, int, str]] = []
        self._warn_seq = 0
        self._rh_known: set = set()
        if self.metrics is not None:
            m = self.metrics
            self.m_messages = m.counter(
                "congest_messages_total",
                "Messages sent (senders pay for dropped mail too)")
            self.m_words = m.counter(
                "congest_words_total", "Total payload words sent")
            self.m_dropped = m.counter(
                "congest_dropped_messages_total",
                "Messages dropped on delivery to halted nodes")
            self.m_lost = m.counter(
                "congest_lost_messages_total",
                "Messages destroyed by injected faults")
            self.m_dup = m.counter(
                "congest_duplicated_messages_total",
                "Extra stutter copies delivered by injected faults")
            self.m_corrupt = m.counter(
                "congest_corrupted_messages_total",
                "Messages mangled in flight by injected faults")
            self.m_round_wall = m.histogram(
                "congest_round_wall_seconds",
                "Wall-clock of the per-round handler dispatch loop")
            self.m_dispatch = m.counter(
                "congest_node_dispatch_total",
                "Rounds each node was dispatched (hot-node detection)",
                labels=("node",))
        return {
            "halted": self.halted_count,
            "active": bool(self.active),
            "trace": (
                self.trace_ctx.trace_id if self.trace_ctx is not None else None
            ),
        }

    # -- trace fragment hooks -------------------------------------------
    def _record_message(self, rnd: int, src: Node, dst: Node, words: int) -> None:
        if self.edge_histograms:
            hist = self.edge_words.setdefault((src, dst), {})
            hist[words] = hist.get(words, 0) + 1
        if words > self.local_max_words:
            self.local_max_words = words
            self.offender = (self.run_id, rnd, src, dst, words)

    # -- one global round, local half -----------------------------------
    def run_round(self, rounds: int) -> Dict[str, Any]:
        contexts = self.contexts
        nodes = self.nodes
        index = self.index
        nbr_sets = self.nbr_sets
        inboxes = self.inboxes
        crashed = self.crashed
        crash_round_ix = self.crash_round_ix
        for i in self.crash_by_round.get(rounds, ()):
            if not crashed[i]:
                crashed[i] = 1
                if not contexts[i].halted:
                    self.halted_count += 1
                if inboxes[i]:
                    inboxes[i].clear()
                if self.trace_wanted:
                    self.warnings.append(
                        (rounds, self._warn_seq,
                         f"run {self.run_id}: round {rounds}: node "
                         f"{nodes[i]!r} crashed (crash-stop)")
                    )
                    self._warn_seq += 1
        schedule = self.active
        outgoing_local: List[Tuple[Node, int, Any]] = []
        outgoing_remote: List[Tuple[Node, int, Any]] = []
        out_count = 0
        round_words = 0
        round_max_words = 0
        local_set = self.local_set
        budget = self.budget
        word_bits = self.word_bits
        handler_t0 = time.perf_counter() if self.metrics is not None else 0.0
        for i in schedule:
            ctx = contexts[i]
            if ctx.halted or crashed[i]:
                continue
            ctx._wake = False
            inbox = inboxes[i]
            sends = self.on_round(ctx, inbox)
            if inbox:
                inbox.clear()
            if ctx.halted:
                self.halted_count += 1
            if not sends:
                continue
            v = ctx.node
            for target, payload in sends.items():
                t = index.get(target)
                if t is None or t not in nbr_sets[i]:
                    raise CongestViolation(
                        f"{v!r} tried to message non-neighbor {target!r}",
                        node=v,
                        round=rounds,
                        edge=(v, target),
                    )
                try:
                    words = payload_words(payload, word_bits)
                except CongestViolation as exc:
                    raise CongestViolation(
                        str(exc), node=v, round=rounds, edge=(v, target)
                    ) from None
                if words > budget:
                    raise CongestViolation(
                        f"message has {words} words (budget {budget})",
                        node=v,
                        round=rounds,
                        edge=(v, target),
                        payload=payload,
                    )
                if words > self.max_words_seen:
                    self.max_words_seen = words
                if self.counting:
                    round_words += words
                    if words > round_max_words:
                        round_max_words = words
                    if self.trace_wanted:
                        self._record_message(rounds, v, target, words)
                out_count += 1
                if t in local_set:
                    outgoing_local.append((v, t, payload))
                else:
                    outgoing_remote.append((v, t, payload))
        if self.metrics is not None:
            self.m_round_wall.observe(time.perf_counter() - handler_t0)
        self.messages_total += out_count
        # Local delivery, identical to the single-process phase: stutter
        # duplicates first, then fresh sends (a fresh message from the
        # same sender overwrites the stale copy).
        next_active: List[int] = []
        scheduled = bytearray(len(nodes))
        dropped = 0
        lost = 0
        duplicated = 0
        corrupted = 0
        arrival = rounds + 1
        for src, t, payload in self.pending_dups.pop(arrival, ()):
            if contexts[t].halted:
                dropped += 1
                continue
            if t in crash_round_ix and crash_round_ix[t] <= arrival:
                lost += 1
                continue
            duplicated += 1
            inboxes[t][src] = payload
            if not scheduled[t]:
                scheduled[t] = 1
                next_active.append(t)
        for src, t, payload in outgoing_local:
            if contexts[t].halted:
                dropped += 1
                continue
            if t in crash_round_ix and crash_round_ix[t] <= arrival:
                lost += 1
                continue
            copies = 1
            if self.fault_delivery is not None:
                copies = self.fault_delivery(src, nodes[t], rounds)
            if copies == 0:
                lost += 1
                continue
            if self.fault_mangle is not None:
                mangled = self.fault_mangle(src, nodes[t], rounds, payload)
                if mangled is not payload and mangled != payload:
                    payload = mangled
                    corrupted += 1
            if copies > 1:
                self.pending_dups.setdefault(arrival + 1, []).append(
                    (src, t, payload)
                )
            inboxes[t][src] = payload
            if not scheduled[t]:
                scheduled[t] = 1
                next_active.append(t)
        for i in schedule:
            ctx = contexts[i]
            if ctx._wake and not ctx.halted and not crashed[i] and not scheduled[i]:
                scheduled[i] = 1
                next_active.append(i)
        self.active = next_active
        self._scheduled = scheduled
        self.rec_sched.append(len(schedule))
        self.rec_msgs.append(out_count)
        self.rec_words.append(round_words)
        self.rec_maxw.append(round_max_words)
        self.rec_dropped.append(dropped)
        self.rec_lost.append(lost)
        self.rec_dup.append(duplicated)
        self.rec_corrupt.append(corrupted)
        self.dropped_total += dropped
        self.lost_total += lost
        self.dup_total += duplicated
        self.corrupted_total += corrupted
        if self.metrics is not None:
            self.m_messages.inc(out_count)
            self.m_words.inc(round_words)
            if dropped:
                self.m_dropped.inc(dropped)
            if lost:
                self.m_lost.inc(lost)
            if duplicated:
                self.m_dup.inc(duplicated)
            if corrupted:
                self.m_corrupt.inc(corrupted)
            for i in schedule:
                self.m_dispatch.inc(node=nodes[i])
        new_rh: List[Node] = []
        if self.session is not None:
            rh = self.session.really_halted
            if len(rh) != len(self._rh_known):
                new_rh = sorted(rh - self._rh_known, key=repr)
                self._rh_known |= rh
        return {
            "out": outgoing_remote,
            "halted": self.halted_count,
            "out_any": out_count > 0,
            "pending": bool(self.pending_dups),
            "active": bool(self.active),
            "rh": new_rh,
        }

    def deliver_remote(
        self,
        rounds: int,
        entries: Sequence[Tuple[Node, int, Any]],
        rh_new: Sequence[Node],
    ) -> Dict[str, Any]:
        """Apply the cross-shard sends of ``rounds``; outcomes are
        attributed to that round (the sending round), exactly like the
        single-process delivery phase."""
        if self.session is not None and rh_new:
            self.session.really_halted.update(rh_new)
            self._rh_known.update(rh_new)
        contexts = self.contexts
        nodes = self.nodes
        inboxes = self.inboxes
        scheduled = self._scheduled
        crash_round_ix = self.crash_round_ix
        arrival = rounds + 1
        dropped = lost = corrupted = 0
        for src, t, payload in entries:
            if contexts[t].halted:
                dropped += 1
                continue
            if t in crash_round_ix and crash_round_ix[t] <= arrival:
                lost += 1
                continue
            copies = 1
            if self.fault_delivery is not None:
                copies = self.fault_delivery(src, nodes[t], rounds)
            if copies == 0:
                lost += 1
                continue
            if self.fault_mangle is not None:
                mangled = self.fault_mangle(src, nodes[t], rounds, payload)
                if mangled is not payload and mangled != payload:
                    payload = mangled
                    corrupted += 1
            if copies > 1:
                self.pending_dups.setdefault(arrival + 1, []).append(
                    (src, t, payload)
                )
            inboxes[t][src] = payload
            if not scheduled[t]:
                scheduled[t] = 1
                self.active.append(t)
        r_ix = rounds - 1
        self.rec_dropped[r_ix] += dropped
        self.rec_lost[r_ix] += lost
        self.rec_corrupt[r_ix] += corrupted
        self.dropped_total += dropped
        self.lost_total += lost
        self.corrupted_total += corrupted
        if self.metrics is not None:
            if dropped:
                self.m_dropped.inc(dropped)
            if lost:
                self.m_lost.inc(lost)
            if corrupted:
                self.m_corrupt.inc(corrupted)
        return {
            "active": bool(self.active),
            "pending": bool(self.pending_dups),
        }

    def finish(self) -> Dict[str, Any]:
        outputs: Dict[Node, Any] = {}
        crashed_nodes: List[Node] = []
        for i in self.local:
            ctx = self.contexts[i]
            if self.crashed[i]:
                outputs[ctx.node] = None
                crashed_nodes.append(ctx.node)
            else:
                outputs[ctx.node] = (
                    self.finalize(ctx) if self.finalize is not None else ctx.output
                )
        return {
            "outputs": outputs,
            "crashed": crashed_nodes,
            "messages": self.messages_total,
            "max_words": self.max_words_seen,
            "dropped": self.dropped_total,
            "lost": self.lost_total,
            "duplicated": self.dup_total,
            "corrupted": self.corrupted_total,
            "rec": {
                "sched": self.rec_sched,
                "msgs": self.rec_msgs,
                "words": self.rec_words,
                "maxw": self.rec_maxw,
                "dropped": self.rec_dropped,
                "lost": self.rec_lost,
                "dup": self.rec_dup,
                "corrupt": self.rec_corrupt,
            },
            "edge_words": self.edge_words,
            "offender": self.offender,
            "warnings": self.warnings,
            "stats": self.session.stats if self.session is not None else None,
            "metrics": self.metrics,
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
    if faults is not None:
        for node in faults.crash_round:
            if node not in index:
                raise ValueError(f"fault plan crashes unknown node {node!r}")
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
    run_id = trace.begin_run() if trace is not None else 0
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
            run_id,
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
        deadlock_warn: Optional[str] = None
        while rounds < max_rounds:
            if halted_count == n:
                stop_reason = "halted"
                break
            if stop_when_quiet and rounds > 0 and not sent_last:
                if not any_active and not any_pending:
                    stop_reason = "quiet"
                    break
            if not any_active and not any_pending:
                if trace is not None:
                    deadlock_warn = (
                        f"run {run_id}: deadlock after round {rounds} — "
                        f"{n - halted_count} nodes idle un-halted with no "
                        f"messages in flight; fast-forwarding to round "
                        f"{max_rounds}"
                    )
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
    if trace is not None:
        recs = [f["rec"] for f in finals]
        warnings: List[Tuple[int, int, int, int, str]] = []
        for s, f in enumerate(finals):
            for rnd, seq, text in f["warnings"]:
                warnings.append((rnd, 0, s, seq, text))
        warned = False
        for r_ix in range(executed):
            if not warned and sum(rec["dropped"][r_ix] for rec in recs):
                warned = True
                warnings.append(
                    (r_ix + 1, 1, -1, 0,
                     f"run {run_id}: round {r_ix + 1} sent mail to already-"
                     f"halted nodes (dropped; see dropped_messages)")
                )
        for _, _, _, _, text in sorted(warnings):
            trace.warn(text)
        for r_ix in range(executed):
            trace.record_round(
                run_id,
                r_ix + 1,
                sum(rec["sched"][r_ix] for rec in recs),
                sum(rec["msgs"][r_ix] for rec in recs),
                sum(rec["words"][r_ix] for rec in recs),
                sum(rec["dropped"][r_ix] for rec in recs),
                max(rec["maxw"][r_ix] for rec in recs),
                lost=sum(rec["lost"][r_ix] for rec in recs),
                duplicated=sum(rec["dup"][r_ix] for rec in recs),
                corrupted=sum(rec["corrupt"][r_ix] for rec in recs),
            )
        if deadlock_warn is not None:
            trace.warn(deadlock_warn)
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
    if metrics is not None:
        for f in finals:
            if f["metrics"] is not None:
                metrics.merge(f["metrics"])
        m_rounds = metrics.counter(
            "congest_rounds_total", "Synchronous rounds executed")
        if executed:
            m_rounds.inc(executed)
            recs = [f["rec"] for f in finals]
            per_round = [
                sum(rec["sched"][r_ix] for rec in recs)
                for r_ix in range(executed)
            ]
            metrics.gauge(
                "congest_scheduler_queue_depth",
                "Nodes dispatched in the most recent round",
            ).set(per_round[-1])
            metrics.gauge(
                "congest_scheduler_queue_depth_peak",
                "Largest dispatch set seen in any round",
            ).set_max(max(per_round))
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
