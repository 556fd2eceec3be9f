"""Counters, gauges and histograms behind a process-global registry.

The measured counterparts of the quantities the paper's evaluation is
built on: wire bytes per collective kind (Fig. 20), cache
hit/miss/eviction traffic (Section 4.1.3), embedding lookup rows
(Section 4.1.1) and gradient norms. Components publish into a
:class:`MetricRegistry` through named scopes::

    comms = registry.scope("comms")
    comms.counter("wire_bytes", collective="all_reduce").inc(4096)

Metric identity is ``name`` plus sorted ``labels``; ``counter()`` /
``gauge()`` / ``histogram()`` get-or-create, so call sites never need
registration boilerplate. A process-global default registry
(:func:`default_registry`) exists for ambient instrumentation; components
that need isolation (every :class:`repro.comms.SimProcessGroup`, every
trainer) hold their own registry instance instead.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from .. import check

__all__ = ["Counter", "Gauge", "Histogram", "MetricRegistry", "MetricScope",
           "default_registry"]


def _metric_key(name: str, labels: Dict[str, Any]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing value (int or float)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, Any]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        check.nonnegative(self.name, amount)  # a counter never decreases
        self.value += amount

    def snapshot_value(self) -> float:
        return self.value


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, Any]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot_value(self) -> float:
        return self.value


class Histogram:
    """A streaming distribution: count/total/min/max plus raw samples.

    Runs in this reproduction are small (tens of iterations), so samples
    are kept verbatim; :meth:`summary` reduces them.
    """

    __slots__ = ("name", "labels", "values")

    def __init__(self, name: str, labels: Dict[str, Any]) -> None:
        self.name = name
        self.labels = labels
        self.values: List[float] = []

    def record(self, value: float) -> None:
        self.values.append(float(value))

    def record_many(self, values) -> None:
        self.values.extend(float(v) for v in values)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    def summary(self) -> Dict[str, float]:
        if not self.values:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0}
        return {"count": self.count, "total": self.total,
                "min": min(self.values), "max": max(self.values),
                "mean": self.total / self.count}

    def snapshot_value(self) -> Dict[str, float]:
        return self.summary()


class MetricRegistry:
    """Get-or-create registry of metrics, addressable by scoped names."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}
        #: bumped by every :meth:`reset`, so a caller that caches metric
        #: objects can tell when the registry dropped them
        self.generation = 0

    def _get_or_create(self, cls, name: str, labels: Dict[str, Any]):
        key = _metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, dict(labels))
            self._metrics[key] = metric
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {key!r} already registered as "
                f"{type(metric).__name__}, requested {cls.__name__}")
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get_or_create(Histogram, name, labels)

    def scope(self, prefix: str) -> "MetricScope":
        """A view that prefixes every metric name with ``prefix.``."""
        return MetricScope(self, prefix)

    # -- inspection -----------------------------------------------------
    def metrics(self, prefix: Optional[str] = None) -> Iterator[Any]:
        """All metric objects, optionally restricted to a name prefix."""
        for metric in self._metrics.values():
            if prefix is None or metric.name.startswith(prefix):
                yield metric

    def by_label(self, name: str, label: str) -> Dict[Any, float]:
        """``{label value -> metric value}`` over metrics named ``name``.

        The accessor behind the legacy per-collective dict views on
        :class:`repro.comms.CommsLog`.
        """
        out: Dict[Any, float] = {}
        for metric in self._metrics.values():
            if metric.name == name and label in metric.labels:
                out[metric.labels[label]] = metric.snapshot_value()
        return out

    def snapshot(self, prefix: Optional[str] = None) -> Dict[str, Any]:
        """``{scoped key -> value}`` for every matching metric."""
        return {key: m.snapshot_value()
                for key, m in sorted(self._metrics.items())
                if prefix is None or m.name.startswith(prefix)}

    def reset(self, prefix: Optional[str] = None) -> None:
        """Drop all metrics, or only those under a name prefix."""
        self.generation += 1
        if prefix is None:
            self._metrics.clear()
            return
        for key in [k for k, m in self._metrics.items()
                    if m.name.startswith(prefix)]:
            del self._metrics[key]


class MetricScope:
    """A named window onto a registry; scopes nest via :meth:`scope`."""

    def __init__(self, registry: MetricRegistry, prefix: str) -> None:
        if not prefix:
            raise ValueError("scope prefix must be non-empty")
        self.registry = registry
        self.prefix = prefix

    def _name(self, name: str) -> str:
        return f"{self.prefix}.{name}"

    def counter(self, name: str, **labels: Any) -> Counter:
        return self.registry.counter(self._name(name), **labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self.registry.gauge(self._name(name), **labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self.registry.histogram(self._name(name), **labels)

    def scope(self, prefix: str) -> "MetricScope":
        return MetricScope(self.registry, self._name(prefix))

    def by_label(self, name: str, label: str) -> Dict[Any, float]:
        return self.registry.by_label(self._name(name), label)

    def snapshot(self) -> Dict[str, Any]:
        return self.registry.snapshot(prefix=self.prefix + ".")

    def reset(self) -> None:
        self.registry.reset(prefix=self.prefix + ".")


_DEFAULT_REGISTRY = MetricRegistry()


def default_registry() -> MetricRegistry:
    """The process-global registry for ambient instrumentation."""
    return _DEFAULT_REGISTRY
