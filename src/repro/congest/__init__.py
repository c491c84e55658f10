"""CONGEST substrate: message-level simulator + charged round ledger."""

from .algorithms import (
    bfs_run,
    broadcast_run,
    convergecast_run,
    resilient_broadcast_run,
    resilient_convergecast_run,
)
from .awerbuch import awerbuch_dfs, awerbuch_dfs_run, resilient_dfs_run
from .faults import (
    CrashFault,
    FailureReport,
    FaultPlan,
    LinkDown,
    corrupt_payload,
    diagnose_run,
    run_fingerprint,
)
from .ledger import CostModel, RoundLedger
from .fragments_sim import FragmentRun, MarkPathMergeRun, fragment_merge_run, mark_path_merge_run
from .mst import MSTRun, boruvka_mst_run
from .partwise_sim import PartwiseRun, partwise_aggregation_run, partwise_broadcast_run
from .weights_sim import WeightsRun, weights_problem_run
from .network import (
    CongestViolation,
    Network,
    NodeContext,
    RunResult,
    payload_words,
)
from .trace import RoundRecord, RoundTrace, read_jsonl
from .transport import (
    TRANSPORT_STATE_KEY,
    NullTransport,
    ReliableTransport,
    TransportStats,
    scale_rounds,
)

__all__ = [
    "CongestViolation",
    "CostModel",
    "CrashFault",
    "FailureReport",
    "FaultPlan",
    "FragmentRun",
    "LinkDown",
    "MarkPathMergeRun",
    "MSTRun",
    "PartwiseRun",
    "WeightsRun",
    "Network",
    "NodeContext",
    "NullTransport",
    "ReliableTransport",
    "TransportStats",
    "TRANSPORT_STATE_KEY",
    "RoundLedger",
    "RoundRecord",
    "RoundTrace",
    "RunResult",
    "awerbuch_dfs",
    "awerbuch_dfs_run",
    "bfs_run",
    "diagnose_run",
    "fragment_merge_run",
    "boruvka_mst_run",
    "mark_path_merge_run",
    "partwise_aggregation_run",
    "partwise_broadcast_run",
    "payload_words",
    "corrupt_payload",
    "scale_rounds",
    "read_jsonl",
    "resilient_broadcast_run",
    "resilient_convergecast_run",
    "resilient_dfs_run",
    "run_fingerprint",
    "weights_problem_run",
    "broadcast_run",
    "convergecast_run",
    "VectorKernel",
    "run_vectorized",
    "min_flood_program",
]

# The vectorized scheduler imports numpy; resolve its names lazily so that
# importing the package leaves numpy's import time out of every fresh
# interpreter's set-up (tests/test_vectorized.py pins it).
_VECTORIZED_NAMES = frozenset(
    {
        "VectorKernel",
        "run_vectorized",
        "min_flood_program",
        "BfsKernel",
        "BroadcastKernel",
        "ConvergecastKernel",
        "MinFloodKernel",
    }
)


def __getattr__(name):
    if name in _VECTORIZED_NAMES:
        from . import vectorized

        return getattr(vectorized, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
