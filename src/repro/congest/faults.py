"""Deterministic, seed-driven fault injection for the CONGEST simulator.

The paper's Theorems 1 and 2 assume a fault-free synchronous network; this
module is the controlled way to break that assumption.  A
:class:`FaultPlan` describes *which* faults occur — per-edge message drops
and duplications, link down-intervals, and crash-stop node failures — and
every probabilistic decision is a pure function of ``(seed, kind, src,
dst, round)``, so identical seeds yield bit-identical runs.  Faults are
never ambient: a run with no plan and a run with an *empty* plan execute
identically (locked by ``tests/test_faults.py``), and replaying a plan
reproduces every loss, echo and crash at the same round, on both the
``active`` and ``dense`` schedulers.

Fault semantics (see docs/MODEL.md, "The fault model"):

* **drop** — a message sent over a directed edge in a scheduled (or
  coin-chosen) round is destroyed in flight; the sender still paid the
  bandwidth (counted in ``messages_sent``), the loss is surfaced via
  ``RunResult.lost_messages`` and the trace.
* **duplicate** — the message is delivered normally *and* an extra copy
  arrives one round later (a stutter duplicate, the classic at-least-once
  network artifact).
* **corrupt** — the message is delivered, but its payload is mangled in
  flight by a deterministic, type-preserving bit-flip keyed on
  ``(seed, src, dst, round)`` (see :func:`corrupt_payload`).  Corruption
  is applied after the drop decision (a dropped message is never also
  corrupted) and before duplication (a stutter copy carries the corrupted
  payload).  Without a transport the corrupted payload reaches the node
  program; with :class:`repro.congest.transport.ReliableTransport` the
  checksum catches it and the frame is retransmitted.
* **link down-interval** — an undirected edge loses every message, in both
  directions, for a closed round interval.
* **edge flap** — topology churn: an undirected edge "flaps" in a round,
  decided by a coin keyed on the *canonical* (sorted) edge so both
  directions agree.  At the network level a flap behaves as a one-round
  link outage (both directions lose that round's messages); the dynamic
  layer (:mod:`repro.dynamic`) additionally interprets the same coins as
  a seeded edge delete/re-insert schedule, so message-level churn and
  topology-level churn replay from one seed.
* **crash-stop** — a node executes rounds ``< r`` and is then silent
  forever: it is never dispatched again, sends nothing, records no output,
  and mail addressed to it is lost.  Crashed nodes count as "done" for
  run-termination purposes (they have left the protocol).

:class:`FailureReport` is the graceful-abort half: a structured account of
a run that could not complete under faults, returned by
:func:`diagnose_run` (and by the resilience wrappers in
:mod:`.algorithms` / :mod:`.awerbuch`) instead of a hang or a silent
wrong answer.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Tuple

Node = Hashable

__all__ = [
    "CrashFault",
    "LinkDown",
    "FaultPlan",
    "FailureReport",
    "corrupt_payload",
    "diagnose_run",
    "run_fingerprint",
]


@dataclass(frozen=True)
class CrashFault:
    """Crash-stop failure: ``node`` never executes round ``round`` or later."""

    node: Node
    round: int

    def __post_init__(self):
        if self.round < 1:
            raise ValueError(f"crash round must be >= 1, got {self.round}")


@dataclass(frozen=True)
class LinkDown:
    """Undirected edge ``(u, v)`` loses all messages sent in rounds
    ``start..end`` (inclusive, both directions)."""

    u: Node
    v: Node
    start: int
    end: int

    def __post_init__(self):
        if self.start < 1 or self.end < self.start:
            raise ValueError(f"bad down-interval [{self.start}, {self.end}]")


def _coin(seed: int, kind: str, src: Node, dst: Node, rnd: int) -> float:
    """Deterministic uniform draw in [0, 1) for one (edge, round) decision.

    Keyed on the *message identity* — in CONGEST at most one message
    crosses a directed edge per round — never on scheduling order, so the
    draw is identical across schedulers and across replays.
    """
    payload = f"{seed}|{kind}|{src!r}|{dst!r}|{rnd}".encode()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") / float(1 << 64)


def _mangle(value: Any, salt: int) -> Any:
    """Type-preserving single-bit corruption of one payload value.

    The corruption never *grows* the payload's CONGEST word cost: integers
    flip one bit at or below their own bit length, strings/bytes flip the
    low bit of one character, containers mangle one element in place.
    ``None`` and unknown types pass through unchanged (nothing to flip).
    """
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        bits = max(1, value.bit_length())
        return value ^ (1 << (salt % bits))
    if isinstance(value, float):
        return -value if value != 0.0 else 1.0
    if isinstance(value, str):
        if not value:
            return value
        i = salt % len(value)
        return value[:i] + chr(ord(value[i]) ^ 1) + value[i + 1:]
    if isinstance(value, bytes):
        if not value:
            return value
        i = salt % len(value)
        return value[:i] + bytes((value[i] ^ 1,)) + value[i + 1:]
    if isinstance(value, tuple):
        if not value:
            return value
        i = salt % len(value)
        return value[:i] + (_mangle(value[i], salt >> 3),) + value[i + 1:]
    if isinstance(value, list):
        if not value:
            return value
        i = salt % len(value)
        return value[:i] + [_mangle(value[i], salt >> 3)] + value[i + 1:]
    if isinstance(value, dict):
        if not value:
            return value
        keys = sorted(value, key=repr)
        k = keys[salt % len(keys)]
        out = dict(value)
        out[k] = _mangle(value[k], salt >> 3)
        return out
    if isinstance(value, (set, frozenset)):
        if not value:
            return value
        elems = sorted(value, key=repr)
        e = elems[salt % len(elems)]
        out = set(value)
        out.discard(e)
        out.add(_mangle(e, salt >> 3))
        return frozenset(out) if isinstance(value, frozenset) else out
    return value


def corrupt_payload(payload: Any, seed: int, src: Node, dst: Node, rnd: int) -> Any:
    """Deterministically mangled copy of ``payload`` for a corrupt fault.

    The flipped bit is a pure function of ``(seed, src, dst, round)`` —
    the same message identity the fault coins key on — so a corruption
    replays bit-identically across schedulers and reruns.  The result may
    equal the input (e.g. an empty tuple has nothing to flip); the network
    only counts a corruption when the delivered payload actually changed.
    """
    key = f"{seed}|mangle|{src!r}|{dst!r}|{rnd}".encode()
    salt = int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")
    return _mangle(payload, salt)


class FaultPlan:
    """A deterministic fault schedule for one simulated run.

    Parameters
    ----------
    seed:
        The single seed every rate-based coin derives from.
    drop_rate / duplicate_rate / corrupt_rate:
        Per-(directed edge, round) probabilities, decided by
        :func:`_coin` — replayable, scheduler-independent.
    drops / duplicates / corruptions:
        Explicit schedules: iterables of ``(src, dst, round)`` directed
        entries that fire regardless of the rates.
    crashes:
        Iterable of :class:`CrashFault` or ``(node, round)`` pairs.
    link_downs:
        Iterable of :class:`LinkDown` or ``(u, v, start, end)`` tuples.
    edge_flap_rate / edge_flaps:
        Topology churn: per-(undirected edge, round) flap probability and
        explicit ``(u, v, round)`` flap entries.  The coin is keyed on the
        canonical (repr-sorted) edge, so :meth:`flaps` answers identically
        for both directions — the keying contract :mod:`repro.dynamic`
        relies on when it derives update sequences from the same seed.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        drop_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        edge_flap_rate: float = 0.0,
        drops: Iterable[Tuple[Node, Node, int]] = (),
        duplicates: Iterable[Tuple[Node, Node, int]] = (),
        corruptions: Iterable[Tuple[Node, Node, int]] = (),
        edge_flaps: Iterable[Tuple[Node, Node, int]] = (),
        crashes: Iterable = (),
        link_downs: Iterable = (),
    ):
        if not 0.0 <= drop_rate <= 1.0:
            raise ValueError(f"drop_rate must be in [0, 1], got {drop_rate}")
        if not 0.0 <= duplicate_rate <= 1.0:
            raise ValueError(f"duplicate_rate must be in [0, 1], got {duplicate_rate}")
        if not 0.0 <= corrupt_rate <= 1.0:
            raise ValueError(f"corrupt_rate must be in [0, 1], got {corrupt_rate}")
        if not 0.0 <= edge_flap_rate <= 1.0:
            raise ValueError(f"edge_flap_rate must be in [0, 1], got {edge_flap_rate}")
        self.seed = seed
        self.drop_rate = drop_rate
        self.duplicate_rate = duplicate_rate
        self.corrupt_rate = corrupt_rate
        self.edge_flap_rate = edge_flap_rate
        self.drops: FrozenSet[Tuple[Node, Node, int]] = frozenset(
            (s, d, r) for s, d, r in drops
        )
        self.duplicates: FrozenSet[Tuple[Node, Node, int]] = frozenset(
            (s, d, r) for s, d, r in duplicates
        )
        self.corruptions: FrozenSet[Tuple[Node, Node, int]] = frozenset(
            (s, d, r) for s, d, r in corruptions
        )
        # Explicit flaps are canonicalized to the repr-sorted edge so an
        # entry given in either direction matches both.
        self.edge_flaps: FrozenSet[Tuple[Node, Node, int]] = frozenset(
            (*sorted((u, v), key=repr), r) for u, v, r in edge_flaps
        )
        self.crashes: Tuple[CrashFault, ...] = tuple(
            c if isinstance(c, CrashFault) else CrashFault(*c) for c in crashes
        )
        seen: Dict[Node, int] = {}
        for c in self.crashes:
            if c.node in seen and seen[c.node] != c.round:
                raise ValueError(f"node {c.node!r} crashes at two different rounds")
            seen[c.node] = c.round
        self.crash_round: Dict[Node, int] = seen
        self.link_downs: Tuple[LinkDown, ...] = tuple(
            l if isinstance(l, LinkDown) else LinkDown(*l) for l in link_downs
        )
        # Undirected edge -> list of (start, end) down-intervals.
        self._down: Dict[FrozenSet[Node], List[Tuple[int, int]]] = {}
        for l in self.link_downs:
            self._down.setdefault(frozenset((l.u, l.v)), []).append((l.start, l.end))

    # ------------------------------------------------------------------
    def flaps(self, u: Node, v: Node, rnd: int) -> bool:
        """Whether undirected edge ``uv`` flaps in round ``rnd``.

        Direction-independent by construction: the coin is keyed on the
        repr-sorted edge, exactly like the drop/corrupt coins are keyed on
        the message identity.
        """
        a, b = sorted((u, v), key=repr)
        if (a, b, rnd) in self.edge_flaps:
            return True
        if self.edge_flap_rate and _coin(
            self.seed, "flap", a, b, rnd
        ) < self.edge_flap_rate:
            return True
        return False

    def link_is_down(self, src: Node, dst: Node, rnd: int) -> bool:
        intervals = self._down.get(frozenset((src, dst)))
        if intervals and any(start <= rnd <= end for start, end in intervals):
            return True
        # A flapping edge is a one-round outage at the message level.
        if self.edge_flap_rate or self.edge_flaps:
            return self.flaps(src, dst, rnd)
        return False

    def copies(self, src: Node, dst: Node, rnd: int) -> int:
        """How many copies of the message sent ``src -> dst`` in round
        ``rnd`` the network delivers: 0 (lost), 1, or 2 (stutter dup)."""
        if self.link_is_down(src, dst, rnd):
            return 0
        if (src, dst, rnd) in self.drops:
            return 0
        if self.drop_rate and _coin(self.seed, "drop", src, dst, rnd) < self.drop_rate:
            return 0
        if (src, dst, rnd) in self.duplicates:
            return 2
        if self.duplicate_rate and _coin(
            self.seed, "dup", src, dst, rnd
        ) < self.duplicate_rate:
            return 2
        return 1

    def mangles(self, src: Node, dst: Node, rnd: int) -> bool:
        """Whether the message ``src -> dst`` sent in round ``rnd`` is
        corrupted in flight (explicit schedule first, then the coin)."""
        if (src, dst, rnd) in self.corruptions:
            return True
        if self.corrupt_rate and _coin(
            self.seed, "corrupt", src, dst, rnd
        ) < self.corrupt_rate:
            return True
        return False

    def mangle(self, src: Node, dst: Node, rnd: int, payload: Any) -> Any:
        """The payload actually delivered for this message: mangled via
        :func:`corrupt_payload` when the corrupt fault fires, else the
        original object unchanged."""
        if self.mangles(src, dst, rnd):
            return corrupt_payload(payload, self.seed, src, dst, rnd)
        return payload

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly account of the plan (for artifacts and reports)."""
        return {
            "seed": self.seed,
            "drop_rate": self.drop_rate,
            "duplicate_rate": self.duplicate_rate,
            "corrupt_rate": self.corrupt_rate,
            "edge_flap_rate": self.edge_flap_rate,
            "drops": sorted(map(repr, self.drops)),
            "duplicates": sorted(map(repr, self.duplicates)),
            "corruptions": sorted(map(repr, self.corruptions)),
            "edge_flaps": sorted(map(repr, self.edge_flaps)),
            "crashes": sorted(
                (repr(c.node), c.round) for c in self.crashes
            ),
            "link_downs": sorted(
                (repr(l.u), repr(l.v), l.start, l.end) for l in self.link_downs
            ),
            "counts": {
                "drops": len(self.drops),
                "duplicates": len(self.duplicates),
                "corruptions": len(self.corruptions),
                "edge_flaps": len(self.edge_flaps),
                "crashes": len(self.crashes),
                "link_downs": len(self.link_downs),
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultPlan(seed={self.seed}, drop_rate={self.drop_rate}, "
            f"duplicate_rate={self.duplicate_rate}, "
            f"corrupt_rate={self.corrupt_rate}, crashes={len(self.crashes)}, "
            f"link_downs={len(self.link_downs)})"
        )


# -- failure reporting -------------------------------------------------------


@dataclass
class FailureReport:
    """Structured account of a run that did not complete under faults.

    The graceful-abort contract: a fault-injected run either completes and
    passes its :mod:`repro.core.verify` check, or the caller gets one of
    these — never a hang (``max_rounds`` bounds every run and the
    active-set scheduler fast-forwards deadlocks) and never a silently
    wrong answer.
    """

    kind: str
    reason: str
    rounds: int
    stop_reason: str
    crashed: Tuple[Node, ...] = ()
    suspected: Tuple[Node, ...] = ()
    missing: Tuple[Node, ...] = ()
    detail: str = ""
    partial_outputs: Dict[Node, Any] = field(default_factory=dict)
    # Per-kind fault counters observed by the run (lost/duplicated/
    # corrupted/... plus transport recovery stats when a transport ran).
    counters: Dict[str, int] = field(default_factory=dict)
    # Directed edges whose transport gave up redelivering: (src, dst, seq).
    unrecovered: Tuple[Tuple[Node, Node, int], ...] = ()

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "reason": self.reason,
            "rounds": self.rounds,
            "stop_reason": self.stop_reason,
            "crashed": sorted(map(repr, self.crashed)),
            "suspected": sorted(map(repr, self.suspected)),
            "missing": sorted(map(repr, self.missing)),
            "detail": self.detail,
            "counters": dict(self.counters),
            "unrecovered": sorted(
                (repr(s), repr(d), seq) for s, d, seq in self.unrecovered
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FailureReport(kind={self.kind!r}, reason={self.reason!r}, "
            f"rounds={self.rounds}, stop_reason={self.stop_reason!r})"
        )


def diagnose_run(
    result,
    *,
    kind: str = "run",
    require_outputs: bool = True,
) -> Optional[FailureReport]:
    """Turn a faulted :class:`~repro.congest.network.RunResult` into a
    :class:`FailureReport`, or ``None`` when the run completed cleanly.

    A run is diagnosed as failed when it ended by ``deadlock`` or
    ``max_rounds`` (work remained that can never finish), when the
    transport layer gave up redelivering on some edge (corruption or loss
    detected but not recovered within the retry budget — the delivery
    contract is broken even if every node happened to halt), or — with
    ``require_outputs`` — when any surviving node recorded no output (the
    protocol left someone behind).  Crashed nodes are expected to be
    output-less and are never counted as missing.
    """
    crashed = tuple(result.crashed)
    crashed_set = set(crashed)
    counters = {
        "dropped": result.dropped_messages,
        "lost": result.lost_messages,
        "duplicated": result.duplicated_messages,
        "corrupted": getattr(result, "corrupted_messages", 0),
    }
    stats = getattr(result, "transport", None)
    unrecovered: Tuple[Tuple[Node, Node, int], ...] = ()
    if stats is not None:
        counters["retransmits"] = stats.retransmits
        counters["corruptions_detected"] = stats.corruptions_detected
        counters["duplicates_suppressed"] = stats.duplicates_suppressed
        unrecovered = tuple(stats.unrecovered)
    if result.stop_reason in ("deadlock", "max_rounds"):
        detail = (
            f"run ended by {result.stop_reason} after {result.rounds} rounds "
            f"with {result.lost_messages} lost message(s)"
        )
        if unrecovered:
            edges = ", ".join(
                f"{s!r}->{d!r} (seq {seq})" for s, d, seq in unrecovered[:4]
            )
            detail += (
                f"; transport gave up on {len(unrecovered)} "
                f"delivery(ies): {edges}"
            )
        return FailureReport(
            kind=kind,
            reason=result.stop_reason,
            rounds=result.rounds,
            stop_reason=result.stop_reason,
            crashed=crashed,
            detail=detail,
            partial_outputs=dict(result.outputs),
            counters=counters,
            unrecovered=unrecovered,
        )
    if unrecovered:
        edges = ", ".join(
            f"{s!r}->{d!r} (seq {seq})" for s, d, seq in unrecovered[:4]
        )
        return FailureReport(
            kind=kind,
            reason="unrecovered-delivery",
            rounds=result.rounds,
            stop_reason=result.stop_reason,
            crashed=crashed,
            detail=(
                f"transport detected but could not recover "
                f"{len(unrecovered)} delivery(ies): {edges}"
            ),
            partial_outputs=dict(result.outputs),
            counters=counters,
            unrecovered=unrecovered,
        )
    if require_outputs:
        missing = tuple(
            sorted(
                (v for v, out in result.outputs.items() if out is None and v not in crashed_set),
                key=repr,
            )
        )
        if missing:
            return FailureReport(
                kind=kind,
                reason="missing-outputs",
                rounds=result.rounds,
                stop_reason=result.stop_reason,
                crashed=crashed,
                missing=missing,
                detail=f"{len(missing)} surviving node(s) recorded no output",
                partial_outputs=dict(result.outputs),
                counters=counters,
            )
    return None


# -- replay fingerprints -----------------------------------------------------


def run_fingerprint(result, trace=None, transport=None) -> str:
    """Canonical hash of everything a fault replay must reproduce.

    **Physical mode** (``transport=None``): covers the
    :class:`RunResult` (rounds, stop reason, message/loss/corruption
    counters, outputs, crashed set) and, when a trace is given, the
    per-round delivered-message record and the per-edge word histograms.
    The trace's ``active`` field is deliberately *excluded*: the dispatch
    set is scheduler bookkeeping and differs between ``active`` and
    ``dense`` by design (a dense round dispatches every live node); the
    fault contract is about what the network *delivered*, which must be
    identical.

    **Logical mode** (``transport=`` a
    :class:`repro.congest.transport.TransportStats`): hashes the run as
    the *node programs* saw it — outputs, crashed set, the number of
    protocol-level sends and the per-directed-edge in-order delivery
    digests, plus any deliveries the transport gave up on.  All physical
    bookkeeping (rounds, frames, ACK traffic, retransmit counts,
    corruption detections) is excluded, so on a clean network a run
    with :class:`~repro.congest.transport.ReliableTransport` fingerprints
    identically to one with
    :class:`~repro.congest.transport.NullTransport` — and a faulted run
    that the transport *fully* recovered fingerprints identically to a
    clean run.
    """
    digest = hashlib.sha256()

    def feed(tag: str, value: Any) -> None:
        digest.update(f"{tag}={value!r};".encode())

    if transport is not None:
        feed("crashed", sorted(map(repr, result.crashed)))
        feed(
            "outputs",
            sorted((repr(v), repr(out)) for v, out in result.outputs.items()),
        )
        feed("inner_sends", transport.inner_sends)
        feed(
            "delivered",
            sorted(
                (repr(src), repr(dst), count, digest_hex)
                for (src, dst), (count, digest_hex) in transport.delivery_log()
            ),
        )
        feed(
            "unrecovered",
            sorted((repr(s), repr(d), seq) for s, d, seq in transport.unrecovered),
        )
        return digest.hexdigest()

    feed("rounds", result.rounds)
    feed("stop", result.stop_reason)
    feed("messages", result.messages_sent)
    feed("dropped", result.dropped_messages)
    feed("lost", result.lost_messages)
    feed("duplicated", result.duplicated_messages)
    feed("corrupted", getattr(result, "corrupted_messages", 0))
    feed("max_words", result.max_words)
    feed("crashed", sorted(map(repr, result.crashed)))
    feed(
        "outputs",
        sorted((repr(v), repr(out)) for v, out in result.outputs.items()),
    )
    if trace is not None:
        for rec in trace.records:
            feed(
                "round",
                (
                    rec.run,
                    rec.round,
                    rec.messages,
                    rec.words,
                    rec.dropped,
                    rec.lost,
                    rec.duplicated,
                    rec.corrupted,
                    rec.max_words,
                ),
            )
        feed(
            "edges",
            sorted(
                (repr(src), repr(dst), tuple(sorted(hist.items())))
                for (src, dst), hist in trace.edge_words.items()
            ),
        )
    return digest.hexdigest()
