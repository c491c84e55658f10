"""Named metrics with Prometheus-style exposition and JSON export.

A :class:`MetricsRegistry` holds three metric families:

* :class:`Counter` — monotone totals (``congest_messages_total``), with
  optional labels (``congest_node_dispatch_total{node="7"}`` is how
  hot-node detection works: one label value per node, ``Counter.top``
  ranks them);
* :class:`Gauge` — last-written values (scheduler queue depth);
* :class:`Histogram` — fixed-bucket distributions with cumulative
  bucket counts, sum and count (per-round handler wall-clock).

Metric names follow the Prometheus conventions (``*_total`` for
counters, ``*_seconds`` for durations); :meth:`MetricsRegistry.to_prometheus`
renders the classic text exposition (``# HELP`` / ``# TYPE`` / samples)
and :meth:`MetricsRegistry.to_dict` a JSON-friendly mirror, which the
experiment runner merges into ``BENCH_SUMMARY.json``.

The registry is in-process and dependency-free — there is no server; the
exposition is a string the caller writes wherever it wants (the runner
writes ``metrics.prom`` beside its JSON artifacts; CI greps it for the
required metric names).  Everything is deterministic given deterministic
inputs: sample ordering is sorted, nothing samples the clock.

Feeding metrics never perturbs a simulation: ``Network.run(metrics=...)``
only *reads* scheduler state, so ``run_fingerprint`` is identical with
and without a registry (locked by ``tests/test_obs.py``).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "DEFAULT_BUCKETS"]

#: Default histogram buckets (seconds): microseconds through tens of
#: seconds, the range a simulated round or an experiment unit lands in.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def _format_value(value: float) -> str:
    """Prometheus sample formatting: integers without a trailing ``.0``."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _escape_label_value(value: Any) -> str:
    """Label-value escaping per the text exposition format: backslash,
    double-quote and newline (the one ``chr``-era versions missed)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """HELP text escaping: backslash and newline (quotes stay bare)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{n}="{_escape_label_value(v)}"' for n, v in zip(names, values)
    )
    return "{" + inner + "}"


class _Metric:
    """Shared plumbing: name, help text, declared label names."""

    kind = "untyped"
    __slots__ = ("name", "help", "labels", "_values")

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.labels = tuple(labels)
        #: label-value tuple -> stored value; ``()`` for the unlabeled sample
        self._values: Dict[Tuple[str, ...], Any] = {}

    def _key(self, labels: Dict[str, Any]) -> Tuple[str, ...]:
        if set(labels) != set(self.labels):
            raise ValueError(
                f"metric {self.name!r} declares labels {self.labels}, got "
                f"{tuple(sorted(labels))}"
            )
        return tuple(str(labels[n]) for n in self.labels)

    def samples(self) -> Iterable[Tuple[str, Tuple[str, ...], float]]:
        """Yield ``(suffix, label_values, value)`` rows, sorted."""
        for key in sorted(self._values):
            yield "", key, self._values[key]

    def as_dict(self) -> Dict[str, Any]:
        if not self.labels:
            return {"type": self.kind, "value": self._values.get((), 0)}
        return {
            "type": self.kind,
            "labels": list(self.labels),
            "values": {",".join(k): v for k, v in sorted(self._values.items())},
        }


class Counter(_Metric):
    """Monotone counter; ``inc`` with the declared labels as kwargs."""

    kind = "counter"
    __slots__ = ()

    def inc(self, amount: float = 1, **labels: Any) -> None:
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(self._key(labels), 0)

    @property
    def total(self) -> float:
        """Sum across every label combination."""
        return sum(self._values.values())

    def top(self, k: int = 10) -> List[Tuple[Tuple[str, ...], float]]:
        """The ``k`` largest label combinations — hot-node detection."""
        return sorted(
            self._values.items(), key=lambda kv: (-kv[1], kv[0])
        )[:k]


class Gauge(_Metric):
    """Last-written value; also tracks the high-water mark via ``max``."""

    kind = "gauge"
    __slots__ = ()

    def set(self, value: float, **labels: Any) -> None:
        self._values[self._key(labels)] = value

    def set_max(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        if value > self._values.get(key, float("-inf")):
            self._values[key] = value

    def inc(self, amount: float = 1, **labels: Any) -> None:
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(self._key(labels), 0)


class Histogram(_Metric):
    """Fixed-bucket histogram with Prometheus cumulative exposition."""

    kind = "histogram"
    __slots__ = ("buckets",)

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, labels)
        self.buckets = tuple(sorted(buckets))

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        state = self._values.get(key)
        if state is None:
            state = self._values[key] = {
                "buckets": [0] * len(self.buckets),
                "sum": 0.0,
                "count": 0,
            }
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                state["buckets"][i] += 1
                break
        state["sum"] += value
        state["count"] += 1

    def count(self, **labels: Any) -> int:
        state = self._values.get(self._key(labels))
        return 0 if state is None else state["count"]

    def sum(self, **labels: Any) -> float:
        state = self._values.get(self._key(labels))
        return 0.0 if state is None else state["sum"]

    def quantile(self, q: float, **labels: Any) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) by linear
        interpolation within the bucket that contains the target rank —
        the classic ``histogram_quantile`` estimator.  Observations in
        the overflow bucket clamp to the last finite bound; an empty
        histogram returns 0.0.
        """
        state = self._values.get(self._key(labels))
        if state is None or not state["count"]:
            return 0.0
        target = min(max(q, 0.0), 1.0) * state["count"]
        cumulative = 0
        lower = 0.0
        for bound, n in zip(self.buckets, state["buckets"]):
            cumulative += n
            if n and cumulative >= target:
                fraction = (target - (cumulative - n)) / n
                return lower + (bound - lower) * fraction
            lower = bound
        return self.buckets[-1]

    def samples(self) -> Iterable[Tuple[str, Tuple[str, ...], float]]:
        for key in sorted(self._values):
            state = self._values[key]
            cumulative = 0
            for bound, n in zip(self.buckets, state["buckets"]):
                cumulative += n
                yield f'_bucket{{le="{_format_value(float(bound))}"}}', key, cumulative
            yield '_bucket{le="+Inf"}', key, state["count"]
            yield "_sum", key, state["sum"]
            yield "_count", key, state["count"]

    def as_dict(self) -> Dict[str, Any]:
        def one(state):
            return {
                "count": state["count"],
                "sum": round(state["sum"], 9),
                "buckets": {
                    _format_value(float(b)): n
                    for b, n in zip(self.buckets, state["buckets"])
                    if n
                },
            }

        if not self.labels:
            state = self._values.get(())
            body = one(state) if state else {"count": 0, "sum": 0.0, "buckets": {}}
            return {"type": self.kind, **body}
        return {
            "type": self.kind,
            "labels": list(self.labels),
            "values": {",".join(k): one(v) for k, v in sorted(self._values.items())},
        }


class MetricsRegistry:
    """Get-or-create registry over named metrics.

    Re-requesting a name returns the existing metric (so the scheduler
    and a caller can share handles); re-requesting with a different type
    or label set raises — a name means one thing.
    """

    def __init__(self):
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, labels: Sequence[str], **kw):
        metric = self._metrics.get(name)
        if metric is not None:
            if not isinstance(metric, cls) or metric.labels != tuple(labels):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind} "
                    f"with labels {metric.labels}"
                )
            return metric
        metric = cls(name, help, labels, **kw)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def __iter__(self):
        return iter(sorted(self._metrics.values(), key=lambda m: m.name))

    def __len__(self) -> int:
        return len(self._metrics)

    # -- exposition -----------------------------------------------------
    def to_prometheus(self) -> str:
        """The classic text exposition: HELP/TYPE headers plus samples."""
        lines: List[str] = []
        for metric in self:
            if metric.help:
                lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for suffix, label_values, value in metric.samples():
                labels = _format_labels(metric.labels, label_values)
                lines.append(
                    f"{metric.name}{suffix}{labels} {_format_value(float(value))}"
                    if not (suffix.startswith("_bucket") and labels)
                    else (
                        # histogram bucket suffix already carries {le=...};
                        # merge declared labels into the same brace group
                        f"{metric.name}{suffix[:-1]},{labels[1:]} "
                        f"{_format_value(float(value))}"
                    )
                )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly mirror of the exposition (for artifacts)."""
        return {metric.name: metric.as_dict() for metric in self}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MetricsRegistry({len(self)} metrics)"
