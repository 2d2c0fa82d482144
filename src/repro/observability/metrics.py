"""Named metrics: counters, gauges, and fixed-bucket histograms.

Every count in the system is a named metric in the
:class:`MetricsRegistry` of the object that owns it: a deployment's
``fault.*`` miss-path counters, a scheduler's ``sched.*`` series
(shard-labeled in a fleet's shared registry), the fleet's ``fleet.*``
series.  Exporters, ``repro top``, the SLO layer and tests read one
schema, and a new subsystem gets observability by naming a metric.
Owners resolve their metrics once and change them only through the
mutators — ``add``, ``set``/``set_max``, ``observe`` — never by
assigning ``value`` (a lint rule in ``tests/test_lint.py``), so the lock
and the watchers always run.

Metrics are deliberately primitive — a ``value`` plus an
``add``/``set``/``observe`` method — so the hot paths that bump them pay
one locked update, not a dispatch tree.  Histograms keep both
fixed-bucket counts (stable export schema) and the raw samples (exact
p50/p95/p99 by nearest rank); serving runs observe at most a few
thousand samples per metric, so exactness is cheaper than a sketch.

Every mutator takes the metric's own lock.  The program itself runs on
the caller's thread (the edge's c workers are a simulated model), but a
caller may share a registry across its own threads, and
``value += amount`` / ``insort`` are not atomic under the interpreter.
Reads stay lock-free — a torn read of a monotone counter
is at worst one update stale, which exporters tolerate.

Counters and histograms additionally accept *watchers* — callbacks
invoked with each new observation, the tap the sliding-window layer
(:mod:`repro.observability.windows`) attaches to build time-windowed
views without the metric paying anything when unwatched: the default is
a shared empty tuple, so an unwatched ``observe``/``add`` costs one
truthiness check and zero allocations.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, insort
from collections import deque
from typing import Iterator, Optional, Sequence, Union

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS_MS",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "labeled",
    "parse_labels",
]


def labeled(name: str, **labels: object) -> str:
    """Canonical labeled series name: ``labeled("sched.queue_depth", shard=2)``
    → ``"sched.queue_depth{shard=2}"``.

    Labels distinguish instances of the same logical metric sharing one
    registry (e.g. the N shard schedulers of a fleet); with no labels the
    bare name comes back unchanged, so single-instance callers keep their
    historical series names bit-for-bit.  Label keys are sorted so the
    same label set always produces the same series name.  A label value
    must be a ``str`` or an ``int``: any other value would be written
    through its ``repr`` (an object address, say), which no reader could
    name again, so it raises :class:`TypeError`.
    """
    if not labels:
        return name
    for key, value in labels.items():
        if not isinstance(value, (str, int)):
            raise TypeError(
                f"label {key}={value!r} of {name!r} must be a str or an int, "
                f"not {type(value).__name__}"
            )
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


def parse_labels(name: str) -> tuple[str, dict[str, str]]:
    """Inverse of :func:`labeled`: series name → ``(base, labels)``.

    ``parse_labels("sched.queue_depth{shard=2}")`` →
    ``("sched.queue_depth", {"shard": "2"})``; a bare name comes back
    with an empty label dict.  Label values are returned as strings
    (the series name is the only durable encoding), so the round trip
    ``labeled(base, **labels) == name`` holds for every name
    :func:`labeled` can produce — the property the SLO layer and
    ``repro top`` rely on to group per-shard series.
    """
    if not name.endswith("}"):
        return name, {}
    brace = name.find("{")
    if brace < 0:
        return name, {}
    base, inner = name[:brace], name[brace + 1 : -1]
    labels: dict[str, str] = {}
    if inner:
        for part in inner.split(","):
            key, _, value = part.partition("=")
            labels[key] = value
    return base, labels

#: Default latency buckets (upper bounds, ms).  Values above the last
#: bound land in the implicit overflow bucket.
DEFAULT_BUCKETS_MS: tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


class Counter:
    """A monotone (by convention) accumulator; ``value`` may be int or float."""

    kind = "counter"
    __slots__ = ("name", "value", "_lock", "_watchers")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Union[int, float] = 0
        self._lock = threading.Lock()
        self._watchers: tuple = ()

    def add(self, amount: Union[int, float] = 1) -> None:
        with self._lock:
            self.value += amount
        if self._watchers:
            for watch in self._watchers:
                watch(amount)

    def watch(self, fn) -> None:
        """Attach ``fn(amount)``, called after every :meth:`add`."""
        with self._lock:
            self._watchers = (*self._watchers, fn)

    def unwatch(self, fn) -> None:
        with self._lock:
            self._watchers = tuple(w for w in self._watchers if w is not fn)

    def reset(self) -> None:
        self.value = 0

    def state(self) -> object:
        return self.value

    def restore(self, state: object) -> None:
        self.value = state  # type: ignore[assignment]

    def as_dict(self) -> dict[str, object]:
        return {"name": self.name, "kind": self.kind, "value": self.value}


class Gauge:
    """A point-in-time value (queue depth, clock position)."""

    kind = "gauge"
    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        self.value = value

    def set_max(self, value: float) -> None:
        """Retain the high-water mark (read-compare-store, so locked)."""
        with self._lock:
            if value > self.value:
                self.value = value

    def reset(self) -> None:
        self.value = 0.0

    def state(self) -> object:
        return self.value

    def restore(self, state: object) -> None:
        self.value = state  # type: ignore[assignment]

    def as_dict(self) -> dict[str, object]:
        return {"name": self.name, "kind": self.kind, "value": self.value}


class Histogram:
    """Fixed-bucket histogram with exact percentile summaries.

    ``bounds`` are inclusive upper bounds of each bucket; one overflow
    bucket catches everything beyond the last bound.  ``observe`` is the
    only mutator.  Percentiles use the nearest-rank definition on the
    sorted sample list, so the edge cases are crisp: an empty histogram
    has ``None`` percentiles, a single-sample histogram answers every
    quantile with that sample.

    **Bounded mode** (``max_samples=N``): exact mode keeps every raw
    observation, which grows without bound in a long-running fleet.
    With ``max_samples`` set, only the most recent ``N`` observations
    are retained (a fixed-capacity ring) and percentiles are exact
    *over that suffix* — the documented error is that quantiles reflect
    the last ``N`` samples, not all time.  ``count``/``total``/
    ``bucket_counts``/``mean`` stay exact all-time in both modes;
    ``min``/``max`` cover the retained window in bounded mode.  Exact
    mode remains the default so tests and benches keep their all-time
    percentiles.
    """

    kind = "histogram"
    __slots__ = (
        "name", "bounds", "bucket_counts", "count", "total", "max_samples",
        "_sorted", "_ring", "_lock", "_watchers",
    )

    def __init__(
        self,
        name: str,
        bounds: Sequence[float] = DEFAULT_BUCKETS_MS,
        max_samples: Optional[int] = None,
    ) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be strictly increasing")
        if max_samples is not None and max_samples < 1:
            raise ValueError("max_samples must be at least 1 (or None for exact)")
        self.name = name
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.max_samples = max_samples
        self._sorted: list[float] = []
        self._ring: Optional[deque] = (
            deque(maxlen=max_samples) if max_samples is not None else None
        )
        self._lock = threading.Lock()
        self._watchers: tuple = ()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.bucket_counts[bisect_left(self.bounds, value)] += 1
            self.count += 1
            self.total += value
            if self._ring is not None:
                self._ring.append(value)
            else:
                insort(self._sorted, value)
        if self._watchers:
            for watch in self._watchers:
                watch(value)

    def watch(self, fn) -> None:
        """Attach ``fn(value)``, called after every :meth:`observe`."""
        with self._lock:
            self._watchers = (*self._watchers, fn)

    def unwatch(self, fn) -> None:
        with self._lock:
            self._watchers = tuple(w for w in self._watchers if w is not fn)

    def _samples(self) -> list[float]:
        """Retained samples in sorted order (all in exact mode, the most
        recent ``max_samples`` in bounded mode)."""
        if self._ring is not None:
            return sorted(self._ring)
        return self._sorted

    @property
    def retained(self) -> int:
        """How many raw samples back the percentiles: ``count`` in exact
        mode, at most ``max_samples`` in bounded mode."""
        return len(self._ring) if self._ring is not None else self.count

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    @property
    def min(self) -> Optional[float]:
        samples = self._samples()
        return samples[0] if samples else None

    @property
    def max(self) -> Optional[float]:
        samples = self._samples()
        return samples[-1] if samples else None

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank percentile; ``q`` in [0, 100].  ``None`` if empty."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        samples = self._samples()
        n = len(samples)
        if not n:
            return None
        if q == 0.0:
            return samples[0]
        rank = -(-q * n // 100)  # ceil(q/100 * n) without floats
        return samples[int(rank) - 1]

    @property
    def p50(self) -> Optional[float]:
        return self.percentile(50.0)

    @property
    def p95(self) -> Optional[float]:
        return self.percentile(95.0)

    @property
    def p99(self) -> Optional[float]:
        return self.percentile(99.0)

    def reset(self) -> None:
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        if self._ring is not None:
            self._ring.clear()
        else:
            self._sorted = []

    def state(self) -> object:
        retained = self._ring if self._ring is not None else self._sorted
        return (list(self.bucket_counts), self.count, self.total, list(retained))

    def restore(self, state: object) -> None:
        counts, count, total, values = state  # type: ignore[misc]
        self.bucket_counts = list(counts)
        self.count = count
        self.total = total
        if self._ring is not None:
            self._ring = deque(values, maxlen=self.max_samples)
        else:
            self._sorted = list(values)

    def as_dict(self) -> dict[str, object]:
        """JSON-ready summary: counts, moments, and the percentile trio."""
        return {
            "name": self.name,
            "kind": self.kind,
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "buckets": {
                **{str(b): c for b, c in zip(self.bounds, self.bucket_counts)},
                "+inf": self.bucket_counts[-1],
            },
        }


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A namespace of metrics, created on first use.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same name returns the same object, and asking for a name
    already registered under a different kind is an error (a silent
    retype would corrupt exported schemas).
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, factory, kind: str):
        # Locked so concurrent first-use of the same name yields one
        # object — a lost-insert race would silently split increments
        # across two counters.
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
        if metric.kind != kind:
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, requested as {kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, lambda: Counter(name), "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get(name, lambda: Gauge(name), "gauge")

    def histogram(
        self,
        name: str,
        bounds: Sequence[float] = DEFAULT_BUCKETS_MS,
        max_samples: Optional[int] = None,
    ) -> Histogram:
        """Get-or-create; ``bounds``/``max_samples`` apply only on first
        creation (subsequent calls return the existing histogram as-is)."""
        return self._get(
            name, lambda: Histogram(name, bounds, max_samples=max_samples), "histogram"
        )

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def labeled_group(self, base: str) -> dict[tuple[tuple[str, str], ...], Metric]:
        """Every series of one logical metric, keyed by sorted label items.

        ``labeled_group("sched.queue_depth")`` over a fleet registry maps
        ``(("shard", "0"),) → Gauge`` etc.; an unlabeled series appears
        under the empty key ``()``.  This is the programmatic grouping
        the SLO layer and ``repro top`` use to walk per-shard series.
        """
        out: dict[tuple[tuple[str, str], ...], Metric] = {}
        for name, metric in list(self._metrics.items()):
            got, labels = parse_labels(name)
            if got == base:
                out[tuple(sorted(labels.items()))] = metric
        return out

    def __iter__(self) -> Iterator[Metric]:
        # Snapshot under the lock: exporters iterate while request
        # threads get-or-create metrics, and a live dict-values iterator
        # raises "dictionary changed size during iteration" mid-scrape.
        with self._lock:
            return iter(list(self._metrics.values()))

    def __len__(self) -> int:
        return len(self._metrics)

    def reset(self) -> None:
        for metric in self._metrics.values():
            metric.reset()

    def state(self) -> dict[str, object]:
        """Snapshot every metric's raw state (for scoped restore)."""
        return {name: m.state() for name, m in self._metrics.items()}

    def restore(self, state: dict[str, object]) -> None:
        """Restore a :meth:`state` snapshot.

        Metrics created after the snapshot are reset (they did not exist
        then); metrics present in both are restored in place.
        """
        for name, metric in self._metrics.items():
            if name in state:
                metric.restore(state[name])
            else:
                metric.reset()

    def as_dict(self) -> dict[str, object]:
        """JSON-ready snapshot grouped by kind, names sorted."""
        out: dict[str, dict[str, object]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                summary = metric.as_dict()
                del summary["name"], summary["kind"]
                out["histograms"][name] = summary
            elif isinstance(metric, Gauge):
                out["gauges"][name] = metric.value
            else:
                out["counters"][name] = metric.value
        return out

