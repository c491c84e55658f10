"""The experiment registry: discovery layer of the runner subsystem.

Every DESIGN.md §4 experiment (E1–E15) registers itself with the
:func:`experiment` decorator over its public function in
:mod:`repro.analysis.experiments`.  A registration declares

* the **claim** the experiment regenerates (``claim="Theorem 2"`` …) — the
  pointer EXPERIMENTS.md and the JSON artifacts carry as ``claim_ref``;
* the **unit plan**: ``units(**params)`` returns a list of small,
  JSON-serializable *unit specs* (one per independent slice of work —
  typically one ``(family, n, seed)`` instance) and ``run_unit(spec)``
  computes one unit's payload.  The plan is computed *before* any work
  starts, so per-row seeds are fixed deterministically up front and the
  rows cannot depend on execution order;
* an optional **combine** step that folds unit payloads (in unit order)
  into the final row list — the default flattens lists of row dicts,
  histogram experiments (E4, E7) sum partial tallies;
* the **small** parameter overrides used by ``--grid small`` (the CI
  grid; see ``docs/BENCHMARKS.md``).

Execution lives in :mod:`repro.analysis.runner` (timed, artifact-writing);
:func:`run_registered` is the plain loop that the public ``e*`` functions
delegate to.  Both run the same unit plan through the same ``run_unit``
and ``combine``, so direct calls, the benchmark harness and the CLI
produce identical rows.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "ExperimentSpec",
    "all_keys",
    "experiment",
    "get",
    "jsonable",
    "plan_units",
    "resolve_params",
    "run_registered",
]


def jsonable(value: Any) -> Any:
    """Canonicalize parameter/unit values for JSON artifacts:
    tuples/ranges/sets become sorted-or-ordered lists, dicts recurse."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, range)):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(jsonable(v) for v in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


@dataclass
class ExperimentSpec:
    """One registered experiment (see module docstring for the fields)."""

    key: str
    claim: str
    title: str
    fn: Callable[..., List[Dict]]
    units_fn: Callable[..., List[Dict]]
    run_unit_fn: Callable[[Dict], Any]
    combine_fn: Optional[Callable[[List[Any]], List[Dict]]] = None
    small_params: Dict[str, Any] = field(default_factory=dict)

    @property
    def doc(self) -> str:
        """First docstring line — the one-line description of the claim."""
        return (self.fn.__doc__ or "").strip().splitlines()[0] if self.fn.__doc__ else ""

    def default_params(self) -> Dict[str, Any]:
        """The public function's keyword defaults."""
        return {
            name: p.default
            for name, p in inspect.signature(self.fn).parameters.items()
            if p.default is not inspect.Parameter.empty
        }

    def combine(self, payloads: List[Any]) -> List[Dict]:
        """Fold unit payloads (in unit order) into the final rows."""
        if self.combine_fn is not None:
            return self.combine_fn(payloads)
        rows: List[Dict] = []
        for payload in payloads:
            rows.extend(payload)
        return rows


_REGISTRY: Dict[str, ExperimentSpec] = {}


def experiment(
    key: str,
    *,
    claim: str,
    title: str,
    units: Callable[..., List[Dict]],
    run_unit: Callable[[Dict], Any],
    combine: Optional[Callable[[List[Any]], List[Dict]]] = None,
    small: Optional[Dict[str, Any]] = None,
):
    """Register the decorated public experiment function (returned as-is)."""

    def decorate(fn: Callable[..., List[Dict]]) -> Callable[..., List[Dict]]:
        if key in _REGISTRY:
            raise ValueError(f"experiment {key!r} registered twice")
        _REGISTRY[key] = ExperimentSpec(
            key=key,
            claim=claim,
            title=title,
            fn=fn,
            units_fn=units,
            run_unit_fn=run_unit,
            combine_fn=combine,
            small_params=dict(small or {}),
        )
        return fn

    return decorate


def _ensure_loaded() -> None:
    # Registrations live in the decorators of repro.analysis.experiments;
    # importing it populates the registry (idempotent).
    from . import experiments  # noqa: F401


def _key_order(key: str):
    # e1 … e15 sort numerically; anything else sorts after them,
    # lexicographically.
    if key.startswith("e") and key[1:].isdigit():
        return (0, int(key[1:]), key)
    return (1, 0, key)


def all_keys() -> List[str]:
    """Registered experiment keys in numeric order (e1 … e14)."""
    _ensure_loaded()
    return sorted(_REGISTRY, key=_key_order)


def get(key: str) -> ExperimentSpec:
    """Look up one experiment; raises ``KeyError`` for unknown keys."""
    _ensure_loaded()
    return _REGISTRY[key]


def resolve_params(
    spec: ExperimentSpec,
    overrides: Optional[Dict[str, Any]] = None,
    grid: str = "default",
) -> Dict[str, Any]:
    """Final parameter dict: signature defaults, then the ``--grid small``
    overrides, then explicit per-call overrides.  Unknown override names
    raise — a misspelled parameter must not silently run the default grid."""
    params = spec.default_params()
    if grid == "small":
        params.update(spec.small_params)
    elif grid != "default":
        raise ValueError(f"unknown grid {grid!r} (choose 'default' or 'small')")
    for name, value in (overrides or {}).items():
        if name not in params:
            raise TypeError(f"{spec.key}: unknown parameter {name!r}")
        params[name] = value
    return params


def plan_units(spec: ExperimentSpec, params: Dict[str, Any]) -> List[Dict]:
    """The deterministic unit plan for one parameterization."""
    units = spec.units_fn(**params)
    for unit in units:
        # Units must round-trip through JSON: the artifacts record each
        # one next to its timing.
        json.dumps(unit)
    return units


def run_registered(key: str, params: Optional[Dict[str, Any]] = None) -> List[Dict]:
    """Engine behind the public ``e*`` functions: plan units, run each,
    combine."""
    spec = get(key)
    resolved = dict(spec.default_params())
    resolved.update(params or {})
    return spec.combine([spec.run_unit_fn(unit) for unit in plan_units(spec, resolved)])
