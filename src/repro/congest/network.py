"""Synchronous message-passing simulator for the CONGEST model.

The model (Peleg [17], Section 1 of the paper): a network of nodes, one per
graph vertex, proceeding in synchronous rounds; per round every node may
send one message of :math:`O(\\log n)` bits over each incident edge.  This
simulator runs node programs faithfully — message delivery, round
synchronization and per-message bandwidth accounting are real, so measured
round counts are model-accurate for the primitives implemented at this
level (BFS, broadcast, convergecast, Awerbuch's DFS).

Bandwidth accounting: a *word* is :math:`\\lceil \\log_2 n \\rceil` bits.
:func:`payload_words` charges every payload its true word cost — integers
by bit length, strings by length, containers by the sum of their parts —
and unknown payload types raise :class:`CongestViolation` instead of being
smuggled through at a flat rate.  Exceeding the per-message budget raises
as well, so a bandwidth violation is visible instead of silently ignored.

Scheduling: :meth:`Network.run` is an *active-set* scheduler over a
node→integer index and CSR adjacency arrays built once per
:class:`Network`.  Round 1 dispatches every node (the classic synchronous
start); afterwards a node runs only when it has mail or has asked to be
woken via :meth:`NodeContext.wake`.  A node with timer-like behaviour
(acting on rounds where it receives nothing) must therefore call ``wake()``
— message- and halt-driven protocols need no change.  On sparse-activity
workloads this turns O(n · rounds) dispatch into O(messages + active).
The legacy every-node-every-round dispatch is kept as
``scheduler="dense"``, the reference the tests compare against; both
schedulers are ``run_fingerprint``-identical for programs honouring the
wake contract (docs/MODEL.md, "Scheduler equivalence").

One round implementation serves both dispatch strategies.
:class:`_RoundState` holds a run's contexts, inboxes, crash schedule and
fault hooks, and carries out the steps of a round: apply the crashes due,
dispatch a schedule and validate its sends, deliver them in the one
documented order, fold in the wakes.  :class:`_RunObserver` owns what a
run reports: the ``congest_*`` metrics and the trace's round records and
warnings.  :meth:`Network.run` loops over both.
"""

from __future__ import annotations

import math
import numbers
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, List, Optional, Tuple

import networkx as nx

from .trace import RoundTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from .faults import FaultPlan
    from ..obs import MetricsRegistry

Node = Hashable

__all__ = [
    "NodeContext",
    "Network",
    "RunResult",
    "CongestViolation",
    "payload_words",
    "MAX_WORDS_PER_MESSAGE",
    "DEFAULT_WORD_BITS",
]

# Permissive default: a CONGEST message is O(log n) bits = O(1) words.
MAX_WORDS_PER_MESSAGE = 8

# Word width used when payload_words is called standalone (a generous
# 32-bit identifier word); a Network derives its own from ceil(log2 n).
DEFAULT_WORD_BITS = 32

# Sentinel distinguishing "halted without recording an output" from a
# legitimate recorded output of None.
_UNSET = object()


class CongestViolation(RuntimeError):
    """A node program broke the model: oversized or untyped payload, or a
    message to a non-neighbor.

    Every raise site attaches whatever context it has — the offending
    node, the round number, the directed edge and the payload repr — both
    in the message text and as structured attributes (``.node``,
    ``.round``, ``.edge``, ``.payload``), so fault triage never starts
    from a context-free traceback.
    """

    def __init__(
        self,
        message: str,
        *,
        node: Any = None,
        round: Optional[int] = None,
        edge: Optional[Tuple[Any, Any]] = None,
        payload: Any = _UNSET,
    ):
        self.node = node
        self.round = round
        self.edge = edge
        self.payload = None if payload is _UNSET else payload
        context = []
        if node is not None:
            context.append(f"node={node!r}")
        if round is not None:
            context.append(f"round={round}")
        if edge is not None:
            context.append(f"edge={edge[0]!r}->{edge[1]!r}")
        if payload is not _UNSET:
            context.append(f"payload={payload!r}")
        if context:
            message = f"{message} [{' '.join(context)}]"
        super().__init__(message)


def payload_words(payload: Any, word_bits: int = DEFAULT_WORD_BITS) -> int:
    """Word cost of a message payload, one word = ``word_bits`` bits.

    Costing rules (every non-``None`` payload costs at least one word):

    * ``None`` — 0 words (the absence of a field);
    * ``bool`` / ``int`` — ``ceil(bit_length / word_bits)`` words;
    * ``float`` — 1 word (a weight or measure, assumed :math:`O(\\log n)`
      bits as standard for weighted CONGEST);
    * ``str`` — ``ceil(len / word_bits)`` words;
    * ``bytes`` — ``ceil(8·len / word_bits)`` words;
    * ``list`` / ``tuple`` / ``set`` / ``frozenset`` — sum of element costs;
    * ``dict`` — sum of key costs plus value costs;
    * numpy scalars and 0-d arrays — exactly their Python counterpart's
      cost (``np.int64(5)`` costs what ``5`` costs); likewise any other
      :class:`numbers.Integral` / :class:`numbers.Real` scalar type;
    * anything else raises :class:`CongestViolation` — unknown types have
      no defensible encoding and must not ride through at a flat rate.
    """
    if payload is None:
        return 0
    if isinstance(payload, int):  # covers bool
        return max(1, -(-payload.bit_length() // word_bits))
    if isinstance(payload, float):
        return 1
    if isinstance(payload, str):
        return max(1, -(-len(payload) // word_bits))
    if isinstance(payload, bytes):
        return max(1, -(-(8 * len(payload)) // word_bits))
    if isinstance(payload, (list, tuple, set, frozenset)):
        return max(1, sum(payload_words(x, word_bits) for x in payload))
    if isinstance(payload, dict):
        return max(
            1,
            sum(
                payload_words(k, word_bits) + payload_words(v, word_bits)
                for k, v in payload.items()
            ),
        )
    # numpy scalars and 0-d arrays (np.int64 / np.float64 / np.bool_ and
    # friends): cost them as the Python value they wrap.  Checked without
    # importing numpy — any 0-d duck with ``.item()`` qualifies.
    if getattr(payload, "shape", None) == () and hasattr(payload, "item"):
        return payload_words(payload.item(), word_bits)
    # Other scalar number types from the ABC tower (Fraction, or numpy
    # scalars whose .item() returned themselves): integers by bit length,
    # reals flat at one word, same as the builtin branches above.
    if isinstance(payload, numbers.Integral):
        return max(1, -(-int(payload).bit_length() // word_bits))
    if isinstance(payload, numbers.Real):
        return 1
    raise CongestViolation(
        f"payload of type {type(payload).__name__} has no CONGEST word cost",
        payload=payload,
    )


# Backwards-compatible private alias (historical name).
_payload_words = payload_words


class NodeContext:
    """Per-node runtime state handed to node programs.

    Attributes
    ----------
    node:
        This node's identifier.
    neighbors:
        Incident nodes, in a fixed order.
    state:
        Free-form per-node storage for the program.
    halted:
        Set via :meth:`halt`; a halted node sends nothing and the run ends
        when every node has halted.
    output:
        The output recorded at halt time (``None`` until then).
    output_set:
        Whether :meth:`halt` recorded an output — distinguishes a halt
        with a legitimate ``None`` output from never setting one.
    """

    __slots__ = ("node", "neighbors", "state", "halted", "output", "output_set", "_wake")

    def __init__(self, node: Node, neighbors: Tuple[Node, ...]):
        self.node = node
        self.neighbors = neighbors
        self.state: Dict[str, Any] = {}
        self.halted = False
        self.output: Any = None
        self.output_set = False
        self._wake = False

    def halt(self, output: Any = _UNSET) -> None:
        """Stop participating; record this node's output (``None`` counts)."""
        self.halted = True
        if output is not _UNSET:
            self.output = output
            self.output_set = True

    def wake(self) -> None:
        """Ask the scheduler to run this node next round even without mail.

        The active-set scheduler dispatches a node only when it has mail;
        a program that acts on silent rounds (timers, quiescence counters,
        multi-round pipelines) calls this each round it needs to stay
        scheduled.  A halted node is never rescheduled.
        """
        self._wake = True


class RunResult:
    """Outcome of a simulated run.

    Attributes
    ----------
    rounds:
        Number of synchronous rounds executed.
    outputs:
        Node -> output recorded at halt time (or final state hook).
    messages_sent:
        Total messages sent (including any dropped on delivery to halted
        nodes — the sender paid for them).
    max_words:
        Maximum payload words observed in any single message.
    stop_reason:
        Why the run ended: ``"halted"`` (every node halted or crashed),
        ``"quiet"`` (``stop_when_quiet`` quiescence), ``"deadlock"`` (no
        node can ever run again yet not all have halted), or
        ``"max_rounds"``.
    dropped_messages:
        Messages addressed to already-halted nodes; delivery is dropped.
    lost_messages:
        Messages destroyed by an injected fault (drop schedule/coin, link
        down-interval, or a crashed receiver) — the sender paid for them.
    duplicated_messages:
        Extra stutter copies an injected duplication fault delivered.
    corrupted_messages:
        Messages whose payload an injected corruption fault mangled in
        flight (still delivered — just wrong).
    crashed:
        Nodes removed by crash-stop faults, sorted by repr.
    transport:
        The :class:`repro.congest.transport.TransportStats` of the run's
        transport session, or ``None`` when no transport was used.
    """

    __slots__ = (
        "rounds",
        "outputs",
        "messages_sent",
        "max_words",
        "stop_reason",
        "dropped_messages",
        "lost_messages",
        "duplicated_messages",
        "corrupted_messages",
        "crashed",
        "transport",
    )

    def __init__(
        self,
        rounds: int,
        outputs: Dict[Node, Any],
        messages_sent: int,
        max_words: int,
        stop_reason: str = "halted",
        dropped_messages: int = 0,
        lost_messages: int = 0,
        duplicated_messages: int = 0,
        crashed: Tuple[Node, ...] = (),
        corrupted_messages: int = 0,
        transport: Any = None,
    ):
        self.rounds = rounds
        self.outputs = outputs
        self.messages_sent = messages_sent
        self.max_words = max_words
        self.stop_reason = stop_reason
        self.dropped_messages = dropped_messages
        self.lost_messages = lost_messages
        self.duplicated_messages = duplicated_messages
        self.corrupted_messages = corrupted_messages
        self.crashed = crashed
        self.transport = transport

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RunResult(rounds={self.rounds}, messages={self.messages_sent}, "
            f"max_words={self.max_words}, stop_reason={self.stop_reason!r})"
        )


def _crash_schedule(
    faults: Optional["FaultPlan"], index: Dict[Node, int]
) -> Tuple[Dict[int, int], Dict[int, List[int]]]:
    """Crash rounds by node index, and node indices by crash round in the
    plan's order; a plan crashing a node outside ``index`` raises."""
    crash_round_ix: Dict[int, int] = {}
    by_round: Dict[int, List[int]] = {}
    if faults is not None:
        for node, crash_rnd in faults.crash_round.items():
            i = index.get(node)
            if i is None:
                raise ValueError(f"fault plan crashes unknown node {node!r}")
            crash_round_ix[i] = crash_rnd
            by_round.setdefault(crash_rnd, []).append(i)
    return crash_round_ix, by_round


class _RunObserver:
    """What one run reports: the ``congest_*`` metric family and the
    trace's round records and warnings.

    The metric names, help texts and warning texts live here only.  It
    only reads scheduler state: an observed run is bit-identical to an
    unobserved one.
    """

    def __init__(
        self,
        nodes: List[Node],
        trace: Optional[RoundTrace] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ):
        self.nodes = nodes
        self.trace = trace
        self.metrics = metrics
        self.run_id = trace.begin_run() if trace is not None else 0
        #: whether the dispatch loop must cost words per round
        self.counting = trace is not None or metrics is not None
        self._warned_drop = False
        if metrics is None:
            return
        # Handles resolved once per run; get-or-create means many runs
        # (and many networks) share the same registry totals.
        counter = metrics.counter
        self.m_rounds = counter(
            "congest_rounds_total", "Synchronous rounds executed")
        self.m_messages = counter(
            "congest_messages_total",
            "Messages sent (senders pay for dropped mail too)")
        self.m_words = counter(
            "congest_words_total", "Total payload words sent")
        self.m_dropped = counter(
            "congest_dropped_messages_total",
            "Messages dropped on delivery to halted nodes")
        self.m_lost = counter(
            "congest_lost_messages_total",
            "Messages destroyed by injected faults")
        self.m_dup = counter(
            "congest_duplicated_messages_total",
            "Extra stutter copies delivered by injected faults")
        self.m_corrupt = counter(
            "congest_corrupted_messages_total",
            "Messages mangled in flight by injected faults")
        self.m_round_wall = metrics.histogram(
            "congest_round_wall_seconds",
            "Wall-clock of the per-round handler dispatch loop")
        self.m_queue = metrics.gauge(
            "congest_scheduler_queue_depth",
            "Nodes dispatched in the most recent round")
        self.m_queue_peak = metrics.gauge(
            "congest_scheduler_queue_depth_peak",
            "Largest dispatch set seen in any round")
        self.m_dispatch = counter(
            "congest_node_dispatch_total",
            "Rounds each node was dispatched (hot-node detection)",
            labels=("node",))

    def dispatch_started(self) -> float:
        return time.perf_counter() if self.metrics is not None else 0.0

    def record_dispatch(self, schedule, started: float) -> None:
        """The handler wall-clock since ``started``, and one dispatch for
        each node index in ``schedule``."""
        if self.metrics is None:
            return
        self.m_round_wall.observe(time.perf_counter() - started)
        inc = self.m_dispatch.inc
        nodes = self.nodes
        for i in schedule:
            inc(node=nodes[i])

    def record_round(
        self,
        rnd: int,
        active: int,
        messages: int,
        words: int,
        dropped: int,
        max_words: int,
        lost: int = 0,
        duplicated: int = 0,
        corrupted: int = 0,
    ) -> None:
        """One round's totals (fields as :meth:`RoundTrace.record_round`);
        the first round with mail to halted nodes also warns."""
        trace = self.trace
        if dropped and trace is not None and not self._warned_drop:
            self._warned_drop = True
            trace.warn(
                f"run {self.run_id}: round {rnd} sent mail to already-"
                f"halted nodes (dropped; see dropped_messages)"
            )
        if self.metrics is not None:
            self.m_rounds.inc()
            self.m_messages.inc(messages)
            self.m_words.inc(words)
            if dropped:
                self.m_dropped.inc(dropped)
            if lost:
                self.m_lost.inc(lost)
            if duplicated:
                self.m_dup.inc(duplicated)
            if corrupted:
                self.m_corrupt.inc(corrupted)
            self.m_queue.set(active)
            self.m_queue_peak.set_max(active)
        if trace is not None:
            trace.record_round(
                self.run_id, rnd, active, messages, words, dropped, max_words,
                lost=lost, duplicated=duplicated, corrupted=corrupted,
            )

    def warn_crash(self, rnd: int, node: Node) -> None:
        if self.trace is not None:
            self.trace.warn(
                f"run {self.run_id}: round {rnd}: node {node!r} crashed "
                f"(crash-stop)"
            )

    def warn_deadlock(self, rounds: int, idle: int, max_rounds: int) -> None:
        if self.trace is not None:
            self.trace.warn(
                f"run {self.run_id}: deadlock after round {rounds} — "
                f"{idle} nodes idle un-halted with no messages in flight; "
                f"fast-forwarding to round {max_rounds}"
            )


class _RoundState:
    """The mutable state of one run of :meth:`Network.run`, and the steps
    of one synchronous round.

    It owns the :class:`NodeContext` objects, the pooled inboxes, the
    crash schedule, the fault hooks, the stutter duplicates in flight,
    the active set and the transport session, if any.  A round is:
    :meth:`crash`, :meth:`dispatch`, :meth:`deliver`, :meth:`end_round`.
    """

    def __init__(
        self,
        net: "Network",
        init: Callable[[NodeContext], None],
        on_round: Callable,
        faults: Optional["FaultPlan"],
        transport: Any,
        metrics: Optional["MetricsRegistry"],
    ):
        nodes = self.nodes = net.nodes
        n = len(nodes)
        self.index = net.index
        self.nbr_sets = net._neighbor_sets
        self.word_bits = net.word_bits
        self.session = None
        if transport is not None:
            self.session = transport.session(net, metrics=metrics)
            init, on_round = self.session.wrap(init, on_round)
        # The transport's frame fields (flags/seq/ack/checksum) ride on
        # top of the inner payload; the budget grows by exactly that
        # overhead so the inner program's own budget is unchanged.
        self.budget = net.max_words + (
            self.session.extra_words if self.session is not None else 0
        )
        self.on_round = on_round
        starts, flat = net.csr_starts, net.csr_targets
        contexts = [
            NodeContext(
                nodes[i], tuple(nodes[j] for j in flat[starts[i]: starts[i + 1]])
            )
            for i in range(n)
        ]
        for ctx in contexts:
            init(ctx)
        self.contexts = contexts
        self.halted_count = sum(1 for ctx in contexts if ctx.halted)
        self.crash_round_ix, self.crash_by_round = _crash_schedule(
            faults, net.index
        )
        # The delivery hooks stay None when the plan cannot affect them.
        self.fault_delivery = None
        self.fault_mangle = None
        if faults is not None:
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
        self.crashed = bytearray(n)
        # Stutter duplicates in flight: arrival round -> delivery entries.
        self.pending_dups: Dict[int, List[Tuple[Node, int, Any]]] = {}
        # Pooled per-node inboxes, cleared lazily after consumption — no
        # O(n) rebuild per round.
        self.inboxes: List[Dict[Node, Any]] = [{} for _ in range(n)]
        # Round 1 dispatches every live node (the synchronous start).
        self.active: List[int] = [i for i in range(n) if not contexts[i].halted]
        self._next_active: List[int] = []
        self._scheduled = bytearray(n)
        self.messages = 0
        self.max_words_seen = 0
        self.dropped = 0
        self.lost = 0
        self.duplicated = 0
        self.corrupted = 0

    def crash(self, rnd: int) -> List[int]:
        """Apply the crash-stop failures due in round ``rnd`` — before
        dispatch, so a crashed node never executes that round.  Returns
        the crashed indices in the plan's order."""
        due = self.crash_by_round.get(rnd, [])
        for i in due:
            self.crashed[i] = 1
            if not self.contexts[i].halted:
                self.halted_count += 1
            self.inboxes[i].clear()
        return due

    def dispatch(self, rnd: int, schedule, obs: _RunObserver):
        """Run the handlers of ``schedule`` in round ``rnd`` and validate
        their sends: neighbour target, payload word cost, budget.

        Returns ``(outgoing, words, max_words)``: the ``(src, dst index,
        payload)`` sends in dispatch order, and their word total and
        maximum (both 0 unless ``obs`` is counting).
        """
        contexts = self.contexts
        inboxes = self.inboxes
        crashed = self.crashed
        index = self.index
        nbr_sets = self.nbr_sets
        on_round = self.on_round
        word_bits = self.word_bits
        budget = self.budget
        counting = obs.counting
        record_message = obs.trace.record_message if obs.trace is not None else None
        run_id = obs.run_id
        max_words_seen = self.max_words_seen
        halted = 0
        outgoing: List[Tuple[Node, int, Any]] = []
        round_words = 0
        round_max_words = 0
        for i in schedule:
            ctx = contexts[i]
            if ctx.halted or crashed[i]:
                continue
            ctx._wake = False
            inbox = inboxes[i]
            sends = on_round(ctx, inbox)
            if inbox:
                inbox.clear()
            if ctx.halted:
                halted += 1
            if not sends:
                continue
            v = ctx.node
            for target, payload in sends.items():
                t = index.get(target)
                if t is None or t not in nbr_sets[i]:
                    raise CongestViolation(
                        f"{v!r} tried to message non-neighbor {target!r}",
                        node=v,
                        round=rnd,
                        edge=(v, target),
                    )
                try:
                    words = payload_words(payload, word_bits)
                except CongestViolation as exc:
                    raise CongestViolation(
                        str(exc), node=v, round=rnd, edge=(v, target)
                    ) from None
                if words > budget:
                    raise CongestViolation(
                        f"message has {words} words (budget {budget})",
                        node=v,
                        round=rnd,
                        edge=(v, target),
                        payload=payload,
                    )
                if words > max_words_seen:
                    max_words_seen = words
                if counting:
                    round_words += words
                    if words > round_max_words:
                        round_max_words = words
                    if record_message is not None:
                        record_message(run_id, rnd, v, target, words)
                outgoing.append((v, t, payload))
        self.halted_count += halted
        self.max_words_seen = max_words_seen
        self.messages += len(outgoing)
        return outgoing, round_words, round_max_words

    def deliver(self, rnd: int, entries) -> Tuple[int, int, int, int]:
        """Deliver sends of round ``rnd`` for reading in round ``rnd + 1``.

        The one delivery order: the stutter duplicates due first, then
        ``entries``, so a fresh message from the same sender overwrites a
        stale copy in the inbox.  Each message goes through the same
        chain: mail to a halted receiver is dropped, mail to a receiver
        crashed by arrival is lost, then the plan's drop coin, its
        corruption, and its stutter copy.  Returns ``(dropped, lost,
        duplicated, corrupted)`` of this call, attributed to round
        ``rnd``.
        """
        contexts = self.contexts
        inboxes = self.inboxes
        nodes = self.nodes
        crash_round_ix = self.crash_round_ix
        fault_delivery = self.fault_delivery
        fault_mangle = self.fault_mangle
        pending_dups = self.pending_dups
        scheduled = self._scheduled
        next_active = self._next_active
        dropped = 0
        lost = 0
        duplicated = 0
        corrupted = 0
        arrival = rnd + 1
        for src, t, payload in pending_dups.pop(arrival, ()):
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
        for src, t, payload in entries:
            if contexts[t].halted:
                # Semantics choice: mail to a halted node is dropped — the
                # node has left the protocol.  Counted in messages_sent
                # (the sender paid the bandwidth) and surfaced via
                # dropped_messages and the trace.
                dropped += 1
                continue
            if t in crash_round_ix and crash_round_ix[t] <= arrival:
                # Receiver will be crashed when this arrives: lost.
                lost += 1
                continue
            copies = 1
            if fault_delivery is not None:
                copies = fault_delivery(src, nodes[t], rnd)
            if copies == 0:
                lost += 1
                continue
            if fault_mangle is not None:
                # Corruption happens after the drop decision (a lost
                # message is never also corrupted) and before duplication,
                # so a stutter copy carries the same mangled payload.
                # Counted only when the payload actually changed.
                mangled = fault_mangle(src, nodes[t], rnd, payload)
                if mangled is not payload and mangled != payload:
                    payload = mangled
                    corrupted += 1
            if copies > 1:
                pending_dups.setdefault(arrival + 1, []).append((src, t, payload))
            inboxes[t][src] = payload
            if not scheduled[t]:
                scheduled[t] = 1
                next_active.append(t)
        self.dropped += dropped
        self.lost += lost
        self.duplicated += duplicated
        self.corrupted += corrupted
        return dropped, lost, duplicated, corrupted

    def end_round(self, schedule) -> None:
        """Fold the wakes armed by ``schedule`` in after the delivery
        targets; together they are the next round's active set."""
        contexts = self.contexts
        crashed = self.crashed
        scheduled = self._scheduled
        next_active = self._next_active
        for i in schedule:
            ctx = contexts[i]
            if ctx._wake and not ctx.halted and not crashed[i] and not scheduled[i]:
                scheduled[i] = 1
                next_active.append(i)
        self.active = next_active
        self._next_active = []
        self._scheduled = bytearray(len(scheduled))

    def outputs(self, finalize: Optional[Callable[[NodeContext], Any]]) -> Dict[Node, Any]:
        outputs: Dict[Node, Any] = {}
        for i, ctx in enumerate(self.contexts):
            # A crashed node is silent forever: no output, even if finalize
            # could read its stale pre-crash state.
            outputs[ctx.node] = (
                None
                if self.crashed[i]
                else (finalize(ctx) if finalize is not None else ctx.output)
            )
        return outputs

    def crashed_nodes(self) -> List[Node]:
        return [self.nodes[i] for i, c in enumerate(self.crashed) if c]


class Network:
    """A CONGEST network over an undirected graph.

    A *node program* is a pair of callables:

    * ``init(ctx)`` — runs before round 1;
    * ``on_round(ctx, inbox)`` — runs each round with
      ``inbox: dict neighbor -> payload`` of last round's messages, and
      returns ``dict neighbor -> payload`` to send this round (or ``None``).

    The run ends when every node has halted, or after ``max_rounds``.

    The node→integer index and CSR adjacency arrays are built once here and
    reused by every :meth:`run` on this network.
    """

    def __init__(
        self,
        graph: nx.Graph,
        max_words: int = MAX_WORDS_PER_MESSAGE,
        word_bits: Optional[int] = None,
    ):
        if len(graph) == 0:
            raise ValueError("empty network")
        self.graph = graph
        self.max_words = max_words
        n = len(graph)
        # One word = ceil(log2 n) bits — the O(log n) word of the model.
        self.word_bits = (
            word_bits
            if word_bits is not None
            else max(1, math.ceil(math.log2(max(n, 2))))
        )
        self.nodes: List[Node] = list(graph.nodes)
        self.index: Dict[Node, int] = {v: i for i, v in enumerate(self.nodes)}
        starts: List[int] = [0]
        flat: List[int] = []
        for v in self.nodes:
            for u in graph.neighbors(v):
                flat.append(self.index[u])
            starts.append(len(flat))
        self.csr_starts = starts
        self.csr_targets = flat
        self._neighbor_sets: List[frozenset] = [
            frozenset(flat[starts[i]: starts[i + 1]]) for i in range(n)
        ]

    def run(
        self,
        init: Callable[[NodeContext], None],
        on_round: Callable[[NodeContext, Dict[Node, Any]], Optional[Dict[Node, Any]]],
        max_rounds: int,
        finalize: Optional[Callable[[NodeContext], Any]] = None,
        stop_when_quiet: bool = False,
        trace: Optional[RoundTrace] = None,
        scheduler: str = "active",
        faults: Optional["FaultPlan"] = None,
        metrics: Optional["MetricsRegistry"] = None,
        transport: Any = None,
    ) -> RunResult:
        """Execute a node program on every node synchronously.

        ``stop_when_quiet`` ends the run once a round passes with no message
        sent and none in flight — the natural stopping rule for flooding
        protocols whose nodes never halt explicitly.  The final quiet round
        (the one that consumed the last in-flight messages and produced
        none) *is* counted in ``RunResult.rounds``; see docs/MODEL.md.

        ``trace`` (a :class:`repro.congest.trace.RoundTrace`) opts into
        per-round observability; ``scheduler`` selects ``"active"`` (the
        default active-set dispatch) or ``"dense"`` (legacy every-node
        dispatch, the reference the tests compare against; results are
        bit-identical either way).

        ``faults`` (a :class:`repro.congest.faults.FaultPlan`) injects
        deterministic message drops, stutter duplications, link
        down-intervals and crash-stop node failures; every decision is a
        pure function of the plan's seed and the message identity
        ``(src, dst, round)``, so identical plans replay bit-identically
        on both schedulers.  An empty plan behaves exactly like no plan
        (docs/MODEL.md, "The fault model").

        ``metrics`` (a :class:`repro.obs.MetricsRegistry`) opts into the
        ``congest_*`` counter/gauge/histogram family: per-round handler
        wall-clock, per-node dispatch counts (hot-node detection) and
        scheduler queue depth, alongside round/message/word/fault totals.
        The registry only *reads* scheduler state, so a metered run is
        bit-identical to an unmetered one (docs/OBSERVABILITY.md).

        ``transport`` (``None``, a
        :class:`repro.congest.transport.NullTransport` or a
        :class:`repro.congest.transport.ReliableTransport`) wraps the
        node program in a reliable-delivery session: payloads ride in
        checksummed, sequence-numbered frames, lost or corrupted frames
        are retransmitted, duplicates suppressed.  The per-message word
        budget is raised by the session's frame overhead, and the
        session's :class:`~repro.congest.transport.TransportStats` is
        attached as ``RunResult.transport``.
        """
        if scheduler not in ("active", "dense"):
            raise ValueError(f"unknown scheduler {scheduler!r}")
        dense = scheduler == "dense"
        nodes = self.nodes
        n = len(nodes)
        state = _RoundState(self, init, on_round, faults, transport, metrics)
        obs = _RunObserver(nodes, trace, metrics)
        contexts = state.contexts
        crashed = state.crashed
        rounds = 0
        sent_last_round = True
        stop_reason = "max_rounds"
        while rounds < max_rounds:
            if state.halted_count == n:
                stop_reason = "halted"
                break
            if stop_when_quiet and rounds > 0 and not sent_last_round:
                # A silent round is only genuinely quiet when no node has
                # armed a wake for this round (e.g. a transport
                # retransmission timer counting down through silence) and
                # no stutter duplicate is still scheduled to arrive.  The
                # active scheduler folds wakes into ``active``; dense mode
                # dispatches everyone regardless, so inspect the flags.
                woken = (
                    any(
                        c._wake and not c.halted and not crashed[i]
                        for i, c in enumerate(contexts)
                    )
                    if dense
                    else bool(state.active)
                )
                if not woken and not state.pending_dups:
                    stop_reason = "quiet"
                    break
            if not dense and not state.active and not state.pending_dups:
                # Nothing has mail and nothing asked to be woken: no future
                # round can differ.  The dense dispatch would spin silently
                # to max_rounds; fast-forward to the same round count and
                # make the situation visible.
                obs.warn_deadlock(rounds, n - state.halted_count, max_rounds)
                rounds = max_rounds
                stop_reason = "deadlock"
                break
            rounds += 1
            for i in state.crash(rounds):
                obs.warn_crash(rounds, nodes[i])
            schedule = (
                [i for i in range(n) if not contexts[i].halted and not crashed[i]]
                if dense
                else state.active
            )
            started = obs.dispatch_started()
            outgoing, words, max_words = state.dispatch(rounds, schedule, obs)
            obs.record_dispatch(schedule, started)
            # Synchronous delivery: this round's sends arrive next round.
            dropped, lost, duplicated, corrupted = state.deliver(rounds, outgoing)
            # Dense mode dispatches everyone anyway: no wakes to fold.
            state.end_round(() if dense else schedule)
            sent_last_round = bool(outgoing) or bool(state.pending_dups)
            obs.record_round(
                rounds, len(schedule), len(outgoing), words, dropped,
                max_words, lost, duplicated, corrupted,
            )
        return RunResult(
            rounds,
            state.outputs(finalize),
            state.messages,
            state.max_words_seen,
            stop_reason,
            state.dropped,
            state.lost,
            state.duplicated,
            tuple(sorted(state.crashed_nodes(), key=repr)),
            corrupted_messages=state.corrupted,
            transport=state.session.stats if state.session is not None else None,
        )
