"""Seeded chaos campaigns over the CONGEST sims (``docs/CHAOS.md``).

Three layers:

* :mod:`.scenarios` — named end-to-end workloads (broadcast … full
  separator+DFS pipeline), each run under an optional
  :class:`~repro.congest.faults.FaultPlan` and
  :class:`~repro.congest.transport.ReliableTransport` and checked against
  the :mod:`repro.core.verify` oracles;
* :mod:`.campaign` — sweeps a seeded fault-plan grid across scenarios
  (JSON artifacts, ``repro_chaos_*`` metrics);
* :mod:`.shrink` — reduces a failing fault plan to a minimal explicit
  reproducer (record fired faults, then ddmin) and emits it as a
  ready-to-paste regression test stanza;
* :mod:`.churn` — topology-level campaigns: seeded edge-flap schedules
  driven through the incremental repair engine (:mod:`repro.dynamic`)
  with oracle checks and recompute cross-validation on every unit, and
  update-sequence shrinking for failures;
* :mod:`.serve_chaos` — the request-lifecycle campaign against the
  ``repro serve`` stack (real worker SIGKILLs, admission bursts, breaker
  trips, drain): every request terminal, every 200 oracle-checked,
  outcome sequence reproducible from the seed (``docs/SERVE.md``).
"""

from .scenarios import SCENARIOS, run_scenario
from .campaign import (
    CAMPAIGNS,
    CampaignConfig,
    campaign_metrics,
    run_campaign,
    write_campaign,
)
from .churn import (
    CHURN_CAMPAIGNS,
    ChurnCampaignConfig,
    ChurnShrinkResult,
    emit_churn_stanza,
    run_churn_campaign,
    shrink_churn_unit,
)
from .serve_chaos import run_serve_campaign, serve_campaign, verify_determinism
from .shrink import RecordingPlan, ShrinkResult, emit_stanza, shrink_unit

__all__ = [
    "CAMPAIGNS",
    "CHURN_CAMPAIGNS",
    "CampaignConfig",
    "ChurnCampaignConfig",
    "ChurnShrinkResult",
    "RecordingPlan",
    "SCENARIOS",
    "ShrinkResult",
    "campaign_metrics",
    "emit_churn_stanza",
    "emit_stanza",
    "run_campaign",
    "run_churn_campaign",
    "run_scenario",
    "run_serve_campaign",
    "serve_campaign",
    "shrink_churn_unit",
    "shrink_unit",
    "verify_determinism",
    "write_campaign",
]
