"""The self-healing transport layer (``repro.congest.transport``).

The contract (docs/MODEL.md, "The fault model"):

* ``transport=None`` leaves the simulator bit-identical to before the
  transport existed; :class:`NullTransport` is physically inert but
  records the logical view;
* :class:`ReliableTransport` recovers message loss, duplication and
  corruption within its bounded retry budget — and a *fully recovered*
  run is logically indistinguishable (``run_fingerprint`` in logical
  mode) from the clean run;
* loss beyond the budget is surfaced as an ``unrecovered-delivery``
  report, never a silent wrong answer;
* frame overhead is charged against the CONGEST bandwidth budget
  (``extra_words``) rather than smuggled past it.
"""

import pytest

from repro.congest import (
    FaultPlan,
    Network,
    NullTransport,
    ReliableTransport,
    bfs_run,
    broadcast_run,
    diagnose_run,
    run_fingerprint,
    scale_rounds,
)
from repro.congest.awerbuch import resilient_dfs_run
from repro.planar import generators as gen

from conftest import forced_scheduler


def _graph():
    return gen.delaunay(20, seed=1)


def _tree():
    g = _graph()
    parent = {v: out[1] for v, out in bfs_run(g, 0).outputs.items()}
    return g, parent


# -- identity: the transport changes nothing it should not -------------------


class TestIdentity:
    def test_null_transport_is_physically_inert(self):
        g = _graph()
        bare = bfs_run(g, 0)
        nulled = bfs_run(g, 0, transport=NullTransport())
        assert run_fingerprint(bare) == run_fingerprint(nulled)
        assert nulled.rounds == bare.rounds
        # ... while still recording the logical view for A/B comparisons.
        assert nulled.transport.inner_sends > 0

    @pytest.mark.parametrize("scheduler", ["active", "dense"])
    def test_clean_reliable_equals_null_logically(self, scheduler):
        g = _graph()
        prints = []
        for transport in (NullTransport(), ReliableTransport()):
            with forced_scheduler(scheduler):
                result = bfs_run(g, 0, transport=transport)
            prints.append(run_fingerprint(result, transport=result.transport))
        assert prints[0] == prints[1]

    def test_scale_rounds(self):
        assert scale_rounds(None, 10) == 10
        assert scale_rounds(ReliableTransport(), 10) > 10

    def test_deferred_halt_preserves_outputs(self):
        # The transport defers the inner halt until its edges settle; the
        # recorded outputs must be exactly what the inner program halted
        # with.
        g = _graph()
        bare = bfs_run(g, 0)
        reliable = bfs_run(g, 0, transport=ReliableTransport())
        assert reliable.outputs == bare.outputs
        assert reliable.stop_reason == "halted"


# -- recovery ----------------------------------------------------------------


class TestRecovery:
    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(seed=5, drop_rate=0.2),
            FaultPlan(seed=5, duplicate_rate=0.3),
            FaultPlan(seed=5, corrupt_rate=0.2),
            FaultPlan(seed=5, drop_rate=0.15, duplicate_rate=0.15,
                      corrupt_rate=0.1),
        ],
        ids=["drop", "duplicate", "corrupt", "all-three"],
    )
    def test_recovered_run_is_logically_clean(self, plan):
        # The tree broadcast's logical content (who learned the value
        # along which tree) is timing-insensitive, so full recovery means
        # full logical equality with the clean run.  (BFS, by contrast,
        # picks parents by arrival timing — recovery keeps each edge's
        # stream intact but legitimately shifts cross-edge races.)
        g, parent = _tree()
        clean = broadcast_run(g, 0, 42, parent, transport=NullTransport())
        faulted = broadcast_run(
            g, 0, 42, parent, faults=plan, transport=ReliableTransport()
        )
        assert faulted.outputs == clean.outputs
        assert run_fingerprint(
            faulted, transport=faulted.transport
        ) == run_fingerprint(clean, transport=clean.transport)
        assert not faulted.transport.unrecovered

    def test_recovery_actually_worked_for_a_living(self):
        # The combined plan must actually have exercised the machinery —
        # otherwise the test above proves nothing.
        g, parent = _tree()
        plan = FaultPlan(seed=5, drop_rate=0.15, duplicate_rate=0.15,
                         corrupt_rate=0.1)
        result = broadcast_run(
            g, 0, 42, parent, faults=plan, transport=ReliableTransport()
        )
        stats = result.transport
        assert result.lost_messages > 0
        assert stats.retransmits > 0
        assert stats.corruptions_detected > 0
        assert stats.duplicates_suppressed > 0

    def test_corrupt_replay_is_deterministic(self):
        g = _graph()
        plan = FaultPlan(seed=9, corrupt_rate=0.25)
        prints = [
            run_fingerprint(
                bfs_run(g, 0, faults=FaultPlan(seed=9, corrupt_rate=0.25),
                        transport=ReliableTransport())
            )
            for _ in range(2)
        ]
        assert prints[0] == prints[1]
        assert plan.describe()["corrupt_rate"] == 0.25

    def test_frame_overhead_is_charged(self):
        # Sequence number, checksum and flags ride inside the word budget.
        g = _graph()
        bare = bfs_run(g, 0)
        t = ReliableTransport()
        assert t.session(Network(g)).extra_words > 0
        framed = bfs_run(g, 0, transport=t)
        assert framed.max_words > bare.max_words


# -- bounded give-up ---------------------------------------------------------


def _one_shot_sender(down_forever_plan, retries=1):
    """Two nodes; 0 sends one payload to 1 across a dead link, 1 waits out
    a timer.  The transport must give up in bounded time and the run must
    still end with every node halted."""
    g = gen.path_graph(2)

    def init(ctx):
        ctx.state["age"] = 0

    def on_round(ctx, inbox):
        ctx.state["age"] += 1
        if ctx.node == 0 and ctx.state["age"] == 1:
            ctx.halt("sent")
            return {1: ("payload", 42)}
        if ctx.state["age"] >= 40:
            ctx.halt(dict(inbox) or None)
            return None
        ctx.wake()
        return None

    return Network(g).run(
        init, on_round, 200,
        faults=down_forever_plan,
        transport=ReliableTransport(retries=retries),
    )


class TestGiveUp:
    def test_unrecovered_delivery_is_diagnosed(self):
        result = _one_shot_sender(FaultPlan(link_downs=[(0, 1, 1, 150)]))
        assert result.stop_reason == "halted"  # bounded, not a hang
        assert result.outputs[1] is None  # the payload truly never arrived
        stats = result.transport
        assert stats.unrecovered_frames > 0
        assert (0, 1, 1) in stats.unrecovered
        report = diagnose_run(result, kind="unit", require_outputs=False)
        assert report is not None
        assert report.reason == "unrecovered-delivery"
        assert report.unrecovered == ((0, 1, 1),)

    def test_retry_exhaustion_envelope(self):
        # The documented give-up envelope, exactly: a down-forever edge
        # earns one retransmission per unit of budget — no more — then
        # goes dead.  No timer re-arms afterwards (the run halts well
        # before the round cap instead of spinning on the dead edge),
        # and the terminal state is deterministic: an identical rerun
        # reproduces the fingerprint and every transport counter.
        budget = 4
        result = _one_shot_sender(
            FaultPlan(link_downs=[(0, 1, 1, 150)]), retries=budget
        )
        stats = result.transport
        assert result.stop_reason == "halted"  # gave up, not hung
        assert result.rounds < 200  # bounded: nowhere near max_rounds
        assert stats.retransmits == budget  # the budget, spent exactly once
        assert (0, 1, 1) in stats.unrecovered
        assert stats.unrecovered_frames == 1  # just the stuck head frame
        again = _one_shot_sender(
            FaultPlan(link_downs=[(0, 1, 1, 150)]), retries=budget
        )
        assert run_fingerprint(again) == run_fingerprint(result)
        assert again.transport.as_dict() == stats.as_dict()

    def test_give_up_to_halted_peer_is_benign(self):
        # Node 16's final frame to an already-halted peer is abandoned
        # without an unrecovered mark: the peer's program is over, nothing
        # logical was lost.  Seed picked so the race actually occurs.
        g = _graph()
        result, report = resilient_dfs_run(
            g, min(g.nodes),
            faults=FaultPlan(seed=33, drop_rate=0.15),
            transport=ReliableTransport(),
        )
        stats = result.transport
        assert report is None  # the traversal still verified
        assert stats.abandoned_to_halted > 0
        assert not stats.unrecovered


# -- the hardening regressions ----------------------------------------------


class TestHardeningRegressions:
    def test_ack_piggyback_repairs_lost_acks(self):
        # Regression: a lost ACK used to cost the sender its whole retry
        # budget on an already-delivered frame, because pure-NACK replies
        # to its (corrupted) retransmissions carried no cumulative ack.
        # This grid point fails without the piggyback.
        from repro.chaos.scenarios import run_scenario

        outcome = run_scenario(
            "dfs", n=30, graph_seed=1,
            plan=FaultPlan(seed=19, drop_rate=0.2, corrupt_rate=0.1),
            transport=ReliableTransport(retries=12),
        )
        assert outcome["ok"], outcome["violation"]

    def test_quiet_stop_waits_for_armed_retransmits(self):
        # Regression: stop_when_quiet used to end a flood on any silent
        # round even while a sender's backoff timer was still counting
        # down, wedging the fragment merge at two fragments.
        from repro.chaos.scenarios import run_scenario

        outcome = run_scenario(
            "fragments", n=30, graph_seed=1,
            plan=FaultPlan(seed=7, drop_rate=0.1),
            transport=ReliableTransport(),
        )
        assert outcome["ok"], outcome["violation"]
