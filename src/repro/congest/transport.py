"""Self-healing reliable delivery for the CONGEST simulator.

The fault model (:mod:`repro.congest.faults`) can lose, duplicate and
corrupt messages; PR 3 recovered from that with hand-rolled per-protocol
ack layers.  This module makes resilience a *layer* instead: any node
program can opt in via ``Network.run(transport=...)`` and its messages
ride inside checksummed, sequence-numbered frames that the transport
retransmits until acknowledged — the program itself is unchanged.

Wire protocol
-------------

Every physical message is a 5-tuple frame ``(flags, seq, ack, cks,
payload)``:

* ``flags`` — bitwise OR of ``DATA`` (1, the frame carries a payload),
  ``ACK`` (2, ``ack`` is the receiver's cumulative acknowledgement) and
  ``NACK`` (4, "something from you arrived mangled/out of order —
  retransmit your oldest unacknowledged frame now");
* ``seq`` — per-directed-edge sequence number of the payload (0 when no
  ``DATA``);
* ``ack`` — highest sequence number delivered *in order* on the reverse
  direction (cumulative, 0 when no ``ACK``);
* ``cks`` — checksum over the whole rest of the frame (flags, seq, ack
  and payload), so a corruption of *any* element is detected;
* ``payload`` — the node program's message, verbatim (``None`` for pure
  control frames).

Senders pipeline: a fresh frame goes out the round it is enqueued (one
frame per edge per round, exactly the CONGEST discipline the inner
program already obeys), so on a clean network delivery timing — and
therefore the inner protocol's behaviour — is identical to running with
no transport at all.  Loss is repaired by deterministic capped
exponential backoff on the oldest unacknowledged frame, or immediately
on a NACK; duplicates are suppressed by sequence number; out-of-order
arrivals are buffered and released in order, one per edge per round;
corrupted frames are discarded (checksum mismatch) and NACKed.  A sender
that exhausts its retry budget on a frame records the delivery as
*unrecovered* (surfaced through ``RunResult.transport`` and
:func:`repro.congest.faults.diagnose_run`) and goes quiet on that edge.

When the inner program halts, the transport *defers* the halt: the node
stays alive (invisible to the program, whose outputs are preserved)
until every outstanding frame is acknowledged plus a short linger window
for re-acking a peer's retransmissions, then halts for real.

Determinism: all timers count local rounds, and the transport keeps a
node scheduled (via ``ctx.wake()``) whenever it holds live state, so the
local clock ticks in lockstep with the global round counter on both the
``active`` and ``dense`` schedulers; fault coins key on the global send
round.  Identical seeds therefore replay bit-identically, transport
included.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

Node = Hashable

__all__ = [
    "TransportStats",
    "NullTransport",
    "ReliableTransport",
    "scale_rounds",
    "TRANSPORT_STATE_KEY",
]

#: Reserved ``ctx.state`` key holding the transport's per-node state.
TRANSPORT_STATE_KEY = "__transport__"

_F_DATA = 1
_F_ACK = 2
_F_NACK = 4

# Sequence numbers are budgeted as 32-bit words; a simulated run never
# gets near this, so blowing the budget is a bug, not a workload.
_SEQ_LIMIT = 1 << 32


def scale_rounds(transport, base: int) -> int:
    """Round budget for a sim: ``base`` untouched without a transport,
    else the transport's own scaling (retransmission needs headroom)."""
    return base if transport is None else transport.scale_max_rounds(base)


class TransportStats:
    """What one transported run did, physically and logically.

    The *logical* view — ``inner_sends``, the per-directed-edge in-order
    delivery digests from :meth:`delivery_log`, and ``unrecovered`` — is
    what :func:`repro.congest.faults.run_fingerprint` hashes in transport
    mode: it describes the run as the node programs saw it.  Everything
    else (frames, retransmits, acks, suppressed duplicates, detected
    corruptions) is recovery bookkeeping and deliberately excluded, so a
    fully-recovered faulted run fingerprints identically to a clean one.
    """

    __slots__ = (
        "inner_sends",
        "inner_deliveries",
        "frames_sent",
        "data_frames_sent",
        "control_frames_sent",
        "retransmits",
        "acks_sent",
        "nacks_sent",
        "corruptions_detected",
        "duplicates_suppressed",
        "reordered",
        "halted_discards",
        "abandoned_to_halted",
        "unrecovered",
        "unrecovered_frames",
        "_delivered",
    )

    def __init__(self):
        self.inner_sends = 0
        self.inner_deliveries = 0
        self.frames_sent = 0
        self.data_frames_sent = 0
        self.control_frames_sent = 0
        self.retransmits = 0
        self.acks_sent = 0
        self.nacks_sent = 0
        self.corruptions_detected = 0
        self.duplicates_suppressed = 0
        self.reordered = 0
        self.halted_discards = 0
        #: frames abandoned because the peer's program had already
        #: halted for good (a send to a halted node is destroyed on a
        #: bare network too, so this is benign, not a delivery failure)
        self.abandoned_to_halted = 0
        #: deliveries the sender gave up on: (src, dst, seq)
        self.unrecovered: List[Tuple[Node, Node, int]] = []
        #: queued/inflight frames abandoned when an edge went dead
        self.unrecovered_frames = 0
        # directed edge -> [delivered count, rolling blake2b]
        self._delivered: Dict[Tuple[Node, Node], List[Any]] = {}

    def log_delivery(self, src: Node, dst: Node, payload: Any) -> None:
        """Record one in-order delivery of an inner payload."""
        self.inner_deliveries += 1
        entry = self._delivered.get((src, dst))
        if entry is None:
            entry = self._delivered[(src, dst)] = [0, hashlib.blake2b(digest_size=16)]
        entry[0] += 1
        entry[1].update(repr(payload).encode())
        entry[1].update(b"\x1f")

    def delivery_log(self):
        """``((src, dst), (count, digest_hex))`` per directed edge."""
        return [
            ((src, dst), (count, h.hexdigest()))
            for (src, dst), (count, h) in self._delivered.items()
        ]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "inner_sends": self.inner_sends,
            "inner_deliveries": self.inner_deliveries,
            "frames_sent": self.frames_sent,
            "data_frames_sent": self.data_frames_sent,
            "control_frames_sent": self.control_frames_sent,
            "retransmits": self.retransmits,
            "acks_sent": self.acks_sent,
            "nacks_sent": self.nacks_sent,
            "corruptions_detected": self.corruptions_detected,
            "duplicates_suppressed": self.duplicates_suppressed,
            "reordered": self.reordered,
            "halted_discards": self.halted_discards,
            "abandoned_to_halted": self.abandoned_to_halted,
            "unrecovered": sorted(
                (repr(s), repr(d), seq) for s, d, seq in self.unrecovered
            ),
            "unrecovered_frames": self.unrecovered_frames,
            "delivered_edges": len(self._delivered),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TransportStats(sends={self.inner_sends}, "
            f"deliveries={self.inner_deliveries}, "
            f"retransmits={self.retransmits}, "
            f"unrecovered={len(self.unrecovered)})"
        )


class NullTransport:
    """Identity transport: changes nothing, records the logical view.

    Physically inert — a run with ``transport=NullTransport()`` is
    bit-identical (fingerprint included) to a run with no transport; the
    session's :class:`TransportStats` additionally captures the
    send/delivery log, which is what makes the logical-fingerprint A/B
    against :class:`ReliableTransport` possible.
    """

    def scale_max_rounds(self, base: int) -> int:
        return base

    def session(self, network, metrics=None) -> "_NullSession":
        return _NullSession()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "NullTransport()"


class _NullSession:
    extra_words = 0

    def __init__(self):
        self.stats = TransportStats()

    def wrap(self, init, on_round):
        stats = self.stats

        def on_round2(ctx, inbox):
            for src, payload in inbox.items():
                stats.log_delivery(src, ctx.node, payload)
            sends = on_round(ctx, inbox)
            if sends:
                stats.inner_sends += len(sends)
            return sends

        return init, on_round2


class ReliableTransport:
    """Self-healing delivery: sequence numbers, checksums, ACK/NACK,
    bounded retransmission with deterministic backoff.

    Parameters
    ----------
    retries:
        Retransmissions allowed per frame before the sender declares the
        delivery unrecovered and goes quiet on that edge.
    retry_every:
        Base retransmit timeout in rounds; must exceed the 2-round
        send→ack round trip of a clean network (enforced) so a clean run
        never retransmits spuriously.
    backoff_cap:
        Ceiling for the exponential backoff ``retry_every * 2**attempt``.
    linger:
        Rounds a drained node stays alive after its program halted, to
        re-ack a peer's retransmissions; defaults to
        ``backoff_cap + retry_every + 4`` (one full retransmit interval
        plus the round trip, with slack).
    checksum_bits:
        Width of the frame checksum (collision odds per corruption are
        ``2**-checksum_bits``).
    round_scale / round_slack:
        ``scale_max_rounds(base) = base * round_scale + round_slack`` —
        the headroom a sim's round budget gets for retransmission delays.
    """

    def __init__(
        self,
        retries: int = 6,
        retry_every: int = 2,
        backoff_cap: int = 8,
        linger: Optional[int] = None,
        checksum_bits: int = 16,
        round_scale: int = 4,
        round_slack: int = 64,
    ):
        if retries < 1:
            raise ValueError(f"retries must be >= 1, got {retries}")
        if retry_every < 2:
            raise ValueError(
                f"retry_every must be >= 2 (the clean send->ack round trip), "
                f"got {retry_every}"
            )
        if backoff_cap < retry_every:
            raise ValueError("backoff_cap must be >= retry_every")
        if checksum_bits < 8:
            raise ValueError(f"checksum_bits must be >= 8, got {checksum_bits}")
        self.retries = retries
        self.retry_every = retry_every
        self.backoff_cap = backoff_cap
        self.linger = (
            linger if linger is not None else backoff_cap + retry_every + 4
        )
        self.checksum_bits = checksum_bits
        self.round_scale = round_scale
        self.round_slack = round_slack

    def scale_max_rounds(self, base: int) -> int:
        return base * self.round_scale + self.round_slack

    def session(self, network, metrics=None) -> "_ReliableSession":
        return _ReliableSession(self, network, metrics)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ReliableTransport(retries={self.retries}, "
            f"retry_every={self.retry_every}, backoff_cap={self.backoff_cap}, "
            f"linger={self.linger})"
        )


def _checksum(flags: int, seq: int, ack: int, payload: Any, bits: int) -> int:
    key = f"{flags}|{seq}|{ack}|{payload!r}".encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") & ((1 << bits) - 1)


class _ReliableSession:
    """One ``Network.run``'s worth of :class:`ReliableTransport` state."""

    def __init__(self, transport: ReliableTransport, network, metrics):
        self.transport = transport
        self.stats = TransportStats()
        # Nodes whose deferred halt has completed.  Session-level shared
        # knowledge standing in for a FIN handshake: once a peer is here,
        # nothing sent to it can ever be acknowledged, so senders abandon
        # those edges benignly instead of reporting a false unrecovered
        # delivery after burning the retry budget.
        self.really_halted: set = set()
        word_bits = network.word_bits
        words = lambda bits: -(-bits // word_bits)  # noqa: E731
        # flags + 32-bit seq + 32-bit ack + checksum, each at least one
        # word (payload_words charges every non-None field >= 1 word).
        self.extra_words = (
            1 + 2 * max(1, words(32)) + max(1, words(transport.checksum_bits))
        )
        if metrics is not None:
            self._m_retx = metrics.counter(
                "congest_retransmits_total",
                "Transport frames retransmitted (timeout or NACK)")
            self._m_corrupt = metrics.counter(
                "congest_corruptions_detected_total",
                "Frames discarded on transport checksum mismatch")
        else:
            self._m_retx = None
            self._m_corrupt = None

    # -- per-node state -------------------------------------------------
    def _fresh_state(self) -> Dict[str, Any]:
        return {
            "r": 0,             # local round clock (lockstep while live)
            "peers": {},
            "inner_halted": False,
            "settled": None,    # local round the edges drained at
        }

    @staticmethod
    def _peer(st: Dict[str, Any], u: Node) -> Dict[str, Any]:
        p = st["peers"].get(u)
        if p is None:
            p = st["peers"][u] = {
                "next_seq": 1,      # next fresh sequence number to assign
                "queue": deque(),   # fresh (seq, payload) not yet sent
                "inflight": deque(),  # sent, unacknowledged (seq, payload)
                "attempts": 0,      # retransmissions of the current head
                "head_tx": 0,       # local round the head was last sent
                "force": False,     # NACK received: retransmit head now
                "dead": False,      # retry budget exhausted on this edge
                "in_next": 1,       # next sequence expected in order
                "reorder": {},      # buffered future seq -> payload
                "ack_out": False,
                "nack_out": False,
            }
        return p

    def _backoff(self, attempts: int) -> int:
        t = self.transport
        return min(t.backoff_cap, t.retry_every * (1 << attempts))

    # -- wrapping -------------------------------------------------------
    def wrap(
        self,
        init: Callable,
        on_round: Callable,
    ) -> Tuple[Callable, Callable]:
        transport = self.transport
        stats = self.stats
        really_halted = self.really_halted
        key = TRANSPORT_STATE_KEY

        def init2(ctx):
            ctx.state[key] = self._fresh_state()
            init(ctx)

        def on_round2(ctx, inbox):
            st = ctx.state[key]
            st["r"] += 1
            r = st["r"]
            peers = st["peers"]
            inner_inbox: Dict[Node, Any] = {}
            delivered_from = set()

            def deliver(src: Node, payload: Any) -> None:
                if st["inner_halted"]:
                    stats.halted_discards += 1
                else:
                    inner_inbox[src] = payload
                    stats.log_delivery(src, ctx.node, payload)
                delivered_from.add(src)

            # 1. Parse incoming frames.
            for src, frame in inbox.items():
                p = self._peer(st, src)
                ok = (
                    isinstance(frame, tuple)
                    and len(frame) == 5
                    and isinstance(frame[0], int)
                    and isinstance(frame[1], int)
                    and isinstance(frame[2], int)
                    and isinstance(frame[3], int)
                )
                if ok:
                    flags, seq, ack, cks, payload = frame
                    if _checksum(
                        flags, seq, ack, payload, transport.checksum_bits
                    ) != cks:
                        ok = False
                if not ok:
                    # Mangled in flight: discard, ask for a resend.
                    stats.corruptions_detected += 1
                    if self._m_corrupt is not None:
                        self._m_corrupt.inc()
                    p["nack_out"] = True
                    continue
                if flags & _F_ACK:
                    popped = False
                    inflight = p["inflight"]
                    while inflight and inflight[0][0] <= ack:
                        inflight.popleft()
                        popped = True
                    if popped:
                        p["attempts"] = 0
                        p["head_tx"] = r
                if flags & _F_NACK:
                    p["force"] = True
                if flags & _F_DATA:
                    if st["inner_halted"]:
                        # A peer still transmitting means it has not seen
                        # our ack yet; stay alive long enough to re-ack.
                        st["settled"] = None
                    if seq == p["in_next"]:
                        deliver(src, payload)
                        p["in_next"] += 1
                        p["ack_out"] = True
                    elif seq < p["in_next"]:
                        stats.duplicates_suppressed += 1
                        p["ack_out"] = True
                    else:
                        if seq not in p["reorder"]:
                            p["reorder"][seq] = payload
                            stats.reordered += 1
                        # Cumulative re-ack exposes the gap; NACK asks
                        # for the missing head immediately.
                        p["ack_out"] = True
                        p["nack_out"] = True

            # 2. Release at most one buffered in-order payload per edge
            #    (CONGEST delivers one message per edge per round).
            for src, p in peers.items():
                if src not in delivered_from and p["in_next"] in p["reorder"]:
                    payload = p["reorder"].pop(p["in_next"])
                    deliver(src, payload)
                    p["in_next"] += 1
                    p["ack_out"] = True

            # 3. Run the inner program (unless it already halted).
            sends = None
            if not st["inner_halted"]:
                sends = on_round(ctx, inner_inbox)
                if ctx.halted:
                    # Defer the halt: outputs stay as the program set
                    # them; the node quietly drains its edges first.
                    st["inner_halted"] = True
                    ctx.halted = False
            if sends:
                for target, payload in sends.items():
                    p = self._peer(st, target)
                    stats.inner_sends += 1
                    if p["dead"]:
                        # The edge is gone; queueing here would keep the
                        # node awake forever on frames that can never be
                        # sent.  Destroy the payload, exactly as a bare
                        # network destroys a send to a halted node.
                        if target in really_halted:
                            stats.abandoned_to_halted += 1
                        else:
                            stats.unrecovered_frames += 1
                        continue
                    seq = p["next_seq"]
                    if seq >= _SEQ_LIMIT:
                        raise RuntimeError(
                            f"transport sequence space exhausted on "
                            f"{ctx.node!r}->{target!r}"
                        )
                    p["next_seq"] = seq + 1
                    p["queue"].append((seq, payload))

            # 4. Build at most one frame per edge: data (retransmit
            #    first, else the next fresh frame) with control
            #    piggybacked, or a pure control frame.
            outgoing: Dict[Node, Any] = {}
            for u, p in peers.items():
                if not p["dead"] and u in really_halted:
                    # The peer's deferred halt completed: no frame to it
                    # can ever be acknowledged.  Abandon the edge
                    # benignly — this is the transport's stand-in for a
                    # FIN, not a delivery failure.
                    stats.abandoned_to_halted += len(p["inflight"]) + len(
                        p["queue"]
                    )
                    p["inflight"].clear()
                    p["queue"].clear()
                    p["ack_out"] = False
                    p["nack_out"] = False
                    p["force"] = False
                    p["dead"] = True
                flags = 0
                seq = 0
                payload = None
                if not p["dead"]:
                    inflight = p["inflight"]
                    if inflight and (
                        p["force"] or r - p["head_tx"] >= self._backoff(p["attempts"])
                    ):
                        if p["attempts"] >= transport.retries:
                            # Retry budget exhausted: this edge is dead.
                            head_seq = inflight[0][0]
                            stats.unrecovered.append((ctx.node, u, head_seq))
                            stats.unrecovered_frames += (
                                len(inflight) + len(p["queue"])
                            )
                            inflight.clear()
                            p["queue"].clear()
                            p["dead"] = True
                        else:
                            p["attempts"] += 1
                            p["head_tx"] = r
                            seq, payload = inflight[0]
                            flags |= _F_DATA
                            stats.retransmits += 1
                            if self._m_retx is not None:
                                self._m_retx.inc()
                    p["force"] = False
                    if not flags & _F_DATA and not p["dead"] and p["queue"]:
                        seq, payload = p["queue"].popleft()
                        p["inflight"].append((seq, payload))
                        if len(p["inflight"]) == 1:
                            p["head_tx"] = r
                            p["attempts"] = 0
                        flags |= _F_DATA
                ack = 0
                # Cumulative ack rides on *every* frame once anything has
                # been delivered on this edge (not just when fresh data
                # arrived): a lost ACK is then repaired by the next NACK
                # or retransmission instead of costing the peer its whole
                # retry budget on an already-delivered frame.
                if p["ack_out"] or (
                    (flags or p["nack_out"]) and p["in_next"] > 1
                ):
                    flags |= _F_ACK
                    ack = p["in_next"] - 1
                    stats.acks_sent += 1
                if p["nack_out"]:
                    flags |= _F_NACK
                    stats.nacks_sent += 1
                p["ack_out"] = False
                p["nack_out"] = False
                if flags:
                    cks = _checksum(
                        flags, seq, ack, payload, transport.checksum_bits
                    )
                    outgoing[u] = (flags, seq, ack, cks, payload)
                    stats.frames_sent += 1
                    if flags & _F_DATA:
                        stats.data_frames_sent += 1
                    else:
                        stats.control_frames_sent += 1

            # 5. Deferred halt: once the program has halted and every
            #    edge is drained, linger to re-ack stragglers, then halt.
            if st["inner_halted"] and not ctx.halted:
                busy = any(
                    p["queue"] or p["inflight"] for p in peers.values()
                )
                if busy:
                    st["settled"] = None
                elif st["settled"] is None:
                    st["settled"] = r
                elif r - st["settled"] >= transport.linger:
                    really_halted.add(ctx.node)
                    ctx.halt()

            # 6. Stay scheduled while any transport state is live.
            if not ctx.halted and (
                st["inner_halted"]
                or any(
                    p["queue"]
                    or p["inflight"]
                    or p["in_next"] in p["reorder"]
                    for p in peers.values()
                )
            ):
                ctx.wake()
            return outgoing or None

        return init2, on_round2
