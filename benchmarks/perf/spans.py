"""Per-layer spans for the traced benchmark run, recorded from outside.

The benchmark changes nothing under ``src/``: it wraps the callables that
form each layer's boundary at every name their callers bind, records one
span per call (name, start, end, parent) in memory, and restores the
originals afterwards.  A layer's *self time* is its spans' duration minus
the time covered by child spans, so the self times of all layers plus the
benchmark's own untraced remainder add up to the traced wall time.

Nothing here wraps a callable that runs more than ~10^5 times per run
(``successor_cw``, ``t_position`` and friends stay bare): the wrapper costs
about a microsecond per call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


class Recorder:
    """Spans of one traced run, with running self-time and call totals."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        #: ``(name, t0, t1, parent_index)`` per finished span, in start order.
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        self._open: List[list] = []  # [span index, child seconds, name]

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def innermost(self) -> Optional[str]:
        """Name of the innermost span still open, if any."""
        return self._open[-1][2] if self._open else None

    def call(self, name: str, fn: Callable, args, kwargs):
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0.0, name]
        parent = self._open[-1][0] if self._open else -1
        self._open.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._open.pop()
            took = t1 - t0
            self.self_s[name] = self.self_s.get(name, 0.0) + took - frame[1]
            if self._open:
                self._open[-1][1] += took
            self.spans[index] = (name, t0, t1, parent)

    def write_jsonl(self, path) -> None:
        """One JSON object per span, times in seconds from the run start."""
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                if span is None:  # still open: a call that never returned
                    continue
                name, t0, t1, parent = span
                fh.write(json.dumps({
                    "id": i, "parent": parent, "name": name,
                    "t0": round(t0 - self.t0, 9), "t1": round(t1 - self.t0, 9),
                }) + "\n")


@dataclass(frozen=True)
class Target:
    """One layer boundary: ``module`` attribute ``attr`` (``Class.method``
    for methods), recorded as spans named ``layer``.  ``calls`` names a
    counter bumped per call; ``on_result(recorder, result)`` derives
    counts from the return value.  For a generator function each step is
    a span and ``calls`` is bumped per yielded item.  With ``within`` set
    the target records no span: ``calls`` is bumped only for calls made
    while the innermost open span is ``within``."""

    layer: Optional[str]
    module: str
    attr: str
    calls: Optional[str] = None
    on_result: Optional[Callable[[Recorder, Any], None]] = None
    within: Optional[str] = None


def _dfs_result(rec: Recorder, result) -> None:
    rec.count("core.dfs.phases", result.phases)
    rec.count("core.dfs.components", sum(result.separator_phases.values()))


def _separator_result(rec: Recorder, result) -> None:
    if result.phase.startswith("phase4"):
        rec.count("core.separator.phase4.calls")


#: Boundaries of the layers the in-process workloads exercise.
CORE_TARGETS = (
    Target("core.dfs", "repro.core.dfs", "dfs_tree", on_result=_dfs_result),
    Target("core.separator", "repro.core.separator", "cycle_separator",
           calls="core.separator.calls", on_result=_separator_result),
    Target("core.augment", "repro.core.augment", "balanced_insertion"),
    Target("core.augment", "repro.core.augment", "heavy_nested_insertion"),
    # ``insertion_variants`` yields the planar insertions of a virtual
    # edge; each candidate slot pair it tries starts with one
    # ``insert_edge`` on a copy of the rotation system.
    Target("core.augment", "repro.core.augment", "insertion_variants",
           calls="core.augment.variants"),
    Target(None, "repro.planar.rotation", "RotationSystem.insert_edge",
           calls="core.augment.candidates", within="core.augment"),
    Target("core.certify", "repro.core.certify", "certify_cycle"),
    Target("core.config", "repro.core.config", "PlanarConfiguration.__init__"),
    Target("core.faces.face_view", "repro.core.faces", "face_view",
           calls="core.faces.face_view.calls"),
    Target("core.verify", "repro.core.verify", "check_dfs_tree", calls="core.verify.calls"),
    Target("core.verify", "repro.core.verify", "check_separator", calls="core.verify.calls"),
    Target("planar.embed", "repro.planar.construct", "embed"),
    Target("planar.embed_subgraph", "repro.planar.construct", "embed_subgraph"),
    Target("planar.checks.require_planar", "repro.planar.checks", "require_planar",
           calls="planar.checks.require_planar.calls"),
    Target("planar.rotation.validate", "repro.planar.rotation", "RotationSystem.validate",
           calls="planar.rotation.validate.calls"),
    Target("planar.rotation.copy", "repro.planar.rotation", "RotationSystem.copy"),
    Target("dynamic.mutations", "repro.dynamic.mutations", "DynamicPlanarGraph.apply"),
    Target("dynamic.repair", "repro.dynamic.repair", "DynamicPipeline.apply"),
)

#: The serve parent's own boundaries.  The pipeline runs in pool workers,
#: whose phases come from the engine's request traces instead.
SERVE_TARGETS = (
    Target("serve.cache.get", "repro.analysis.cache", "InstanceCache.get"),
    Target("serve.cache.put", "repro.analysis.cache", "InstanceCache.put"),
)


def _wrapper(rec: Recorder, target: Target, fn: Callable) -> Callable:
    if target.within is not None:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if rec.innermost() == target.within:
                rec.count(target.calls)
            return fn(*args, **kwargs)

        return counted

    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_steps(*args, **kwargs):
            steps = fn(*args, **kwargs)
            while True:
                try:
                    item = rec.call(target.layer, next, (steps,), {})
                except StopIteration:
                    return
                if target.calls:
                    rec.count(target.calls)
                yield item

        return traced_steps

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if target.calls:
            rec.count(target.calls)
        result = rec.call(target.layer, fn, args, kwargs)
        if target.on_result is not None:
            target.on_result(rec, result)
        return result

    return traced


class Instrumentation:
    """Install wrappers for ``targets`` into ``recorder``; :meth:`restore`
    puts every original back.  A target missing from the code (renamed
    or removed by a later change) raises ``AttributeError``, so the traced
    run fails instead of reporting that layer as zero."""

    def __init__(self, recorder: Recorder, targets) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []
        for target in targets:
            self._install(recorder, target)

    def _install(self, rec: Recorder, target: Target) -> None:
        owner: Any = importlib.import_module(target.module)
        *path, name = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, name)
        wrapped = _wrapper(rec, target, original)
        if path:  # a method: one binding, on its class
            self._bind(owner, name, wrapped)
            return
        # A function: rebind every module-level name that holds it, so
        # ``from x import f`` call sites see the wrapper too.
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._bind(module, key, wrapped)

    def _bind(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
