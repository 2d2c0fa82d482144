"""Sliding time-window views over registry metrics.

The PR 4 metrics are cumulative-since-start: perfect for "how did the
run go", useless for "how is the fleet doing *right now*".  This module
adds the rate plane: a :class:`WindowedSeries` is a bounded ring of
``(t_ms, value)`` samples answering exact within-window queries (count,
sum, rate, mean, max, nearest-rank percentiles), and a
:class:`MetricWindows` binder taps existing :class:`~.metrics.Counter` /
:class:`~.metrics.Histogram` objects through their watcher hooks so the
hot paths that bump metrics never know windows exist.

Two clock domains, never conflated (the same discipline as
:mod:`~repro.observability.clock`):

* **simulated ms** — the scheduler/fleet clocks.  A series driven by a
  simulated clock is fully deterministic: the same run produces the
  same windows, which is what the SLO acceptance tests assert.
* **wall ms** — :func:`~repro.observability.clock.now_ms`, for windows
  over real elapsed time (live dashboards against wall-clock traffic).

The clock is just a ``() -> float`` callable supplied by the owner, so
either domain works; timestamps are assumed non-decreasing (both clocks
are), and every query takes an explicit ``now``.

Memory is bounded twice over: a series retains at most ``capacity``
samples (oldest evicted first, counted in ``dropped``) and prunes
anything older than its retention window on every observe.  Queries may
ask for any window at or under the retention window — the fast/slow
burn-rate windows of one SLO share a single ring.

:class:`Hysteresis` is the one anti-flapping machine the controllers
that read these windows share: the fleet autoscaler, the τ controller
and the SLO alert clear each classify their own signal and hand the
reading to it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional, Sequence

from .metrics import (
    DEFAULT_BUCKETS_MS,
    Counter,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "DEAD_BAND",
    "Hysteresis",
    "MetricWindows",
    "OVER",
    "UNDER",
    "WindowedSeries",
]

#: Default per-series sample capacity; at one observation per request
#: this covers a few thousand in-window requests per series.
DEFAULT_WINDOW_CAPACITY = 2048

#: The readings :meth:`Hysteresis.step` takes (besides ``None``, no
#: evidence) and the directions it returns.
OVER = "over"
UNDER = "under"
DEAD_BAND = "dead-band"


class WindowedSeries:
    """A bounded ring of timestamped samples with sliding-window queries.

    ``window_ms`` is the *retention* window (the widest window a query
    may ask for); ``capacity`` caps memory regardless of traffic rate.
    ``observe`` appends; queries answer over ``[now - window, now]``
    with exact arithmetic on the retained samples.  When capacity
    evicts samples that were still inside the retention window, the
    eviction is counted in ``dropped`` — windows silently narrowed by
    memory pressure are visible, not invisible.
    """

    __slots__ = ("name", "window_ms", "capacity", "dropped", "_samples")

    def __init__(
        self,
        name: str = "",
        window_ms: float = 60_000.0,
        capacity: int = DEFAULT_WINDOW_CAPACITY,
    ) -> None:
        if window_ms <= 0:
            raise ValueError("window_ms must be positive")
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.name = name
        self.window_ms = float(window_ms)
        self.capacity = int(capacity)
        self.dropped = 0
        self._samples: deque = deque()

    def __len__(self) -> int:
        return len(self._samples)

    def observe(self, value: float, t_ms: float) -> None:
        """Append one sample; prunes anything older than retention."""
        samples = self._samples
        samples.append((float(t_ms), float(value)))
        lo = t_ms - self.window_ms
        while samples and samples[0][0] < lo:
            samples.popleft()
        while len(samples) > self.capacity:
            samples.popleft()
            self.dropped += 1

    def _window(self, now_ms: float, window_ms: Optional[float]) -> list[float]:
        w = self.window_ms if window_ms is None else float(window_ms)
        if w > self.window_ms:
            raise ValueError(
                f"query window {w}ms exceeds retention window {self.window_ms}ms"
            )
        lo = now_ms - w
        return [v for (t, v) in self._samples if lo <= t <= now_ms]

    def count(self, now_ms: float, window_ms: Optional[float] = None) -> int:
        return len(self._window(now_ms, window_ms))

    def total(self, now_ms: float, window_ms: Optional[float] = None) -> float:
        return sum(self._window(now_ms, window_ms))

    def mean(self, now_ms: float, window_ms: Optional[float] = None) -> Optional[float]:
        values = self._window(now_ms, window_ms)
        return sum(values) / len(values) if values else None

    def max_value(
        self, now_ms: float, window_ms: Optional[float] = None
    ) -> Optional[float]:
        values = self._window(now_ms, window_ms)
        return max(values) if values else None

    def rate_per_s(self, now_ms: float, window_ms: Optional[float] = None) -> float:
        """Sum of in-window values per second of window (0 when empty)."""
        w = self.window_ms if window_ms is None else float(window_ms)
        return self.total(now_ms, w) / w * 1e3 if w > 0 else 0.0

    def count_above(
        self, threshold: float, now_ms: float, window_ms: Optional[float] = None
    ) -> int:
        """In-window samples strictly above ``threshold`` (the "bad
        event" count a quantile objective reduces to)."""
        return sum(1 for v in self._window(now_ms, window_ms) if v > threshold)

    def percentile(
        self, q: float, now_ms: float, window_ms: Optional[float] = None
    ) -> Optional[float]:
        """Exact nearest-rank percentile over the window; ``None`` if empty."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        values = sorted(self._window(now_ms, window_ms))
        n = len(values)
        if not n:
            return None
        if q == 0.0:
            return values[0]
        rank = -(-q * n // 100)
        return values[int(rank) - 1]


class MetricWindows:
    """Windowed views over one registry's counters and histograms.

    ``watch_histogram(name)`` / ``watch_counter(name)`` get-or-create
    the metric and attach a watcher that stamps each new observation
    with ``clock()`` into a :class:`WindowedSeries` — histogram values
    feed percentile/threshold queries, counter increments feed
    rate/sum queries.  Attaching is idempotent per name; ``detach()``
    removes every watcher this binder installed (tests use it so shared
    registries don't accumulate taps).

    The watcher is the *only* coupling: metrics without a window
    attached pay nothing, and the observing hot path never blocks on
    window state (``WindowedSeries`` is touched only from the thread
    that observed; fleet/scheduler metric observation points are the
    serial phases of ``flush``).
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        clock: Callable[[], float],
        window_ms: float = 60_000.0,
        capacity: int = DEFAULT_WINDOW_CAPACITY,
    ) -> None:
        self.registry = registry
        self.clock = clock
        self.window_ms = float(window_ms)
        self.capacity = int(capacity)
        self._series: dict[str, WindowedSeries] = {}
        self._taps: list[tuple[object, Callable]] = []

    def series(self, name: str) -> Optional[WindowedSeries]:
        return self._series.get(name)

    def _attach(self, metric, name: str) -> WindowedSeries:
        series = WindowedSeries(
            name=name, window_ms=self.window_ms, capacity=self.capacity
        )
        clock = self.clock

        def tap(value: float, _series=series, _clock=clock) -> None:
            _series.observe(value, _clock())

        metric.watch(tap)
        self._series[name] = series
        self._taps.append((metric, tap))
        return series

    def watch_histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS_MS
    ) -> WindowedSeries:
        if name in self._series:
            return self._series[name]
        return self._attach(self.registry.histogram(name, bounds), name)

    def watch_counter(self, name: str) -> WindowedSeries:
        if name in self._series:
            return self._series[name]
        return self._attach(self.registry.counter(name), name)

    def watch(self, name: str) -> WindowedSeries:
        """Attach to an *existing* metric of either watchable kind."""
        if name in self._series:
            return self._series[name]
        metric = self.registry.get(name)
        if metric is None:
            raise KeyError(f"no metric named {name!r} to watch")
        if not isinstance(metric, (Counter, Histogram)):
            raise TypeError(
                f"metric {name!r} is a {metric.kind}; only counters and "
                "histograms support windowed views"
            )
        return self._attach(metric, name)

    def detach(self) -> None:
        """Remove every watcher this binder installed."""
        for metric, tap in self._taps:
            metric.unwatch(tap)
        self._taps.clear()


class Hysteresis:
    """Streak / dead-band / cooldown machine: the anti-flapping contract.

    Each round the caller classifies its signal into one reading and
    :meth:`step` advances the streaks: :data:`OVER` or :data:`UNDER`
    extends its own streak and breaks the other, :data:`DEAD_BAND`
    breaks both, and ``None`` (no evidence this round) breaks only the
    over streak.  While the cooldown runs, :meth:`step` still advances
    the streaks but consumes one cooldown round and answers ``None``;
    otherwise it answers the
    direction whose streak reached ``hold_rounds``, never on a ``None``
    round.  It acts on nothing itself: the caller then calls
    :meth:`fire` on that direction (reset its streak, arm the cooldown),
    calls :meth:`reset` (reset the streak only), or leaves the streak
    counting, so that it fires again on the next round the caller can
    act.
    """

    __slots__ = ("hold_rounds", "cooldown_rounds", "over", "under", "cooldown")

    def __init__(self, hold_rounds: int, cooldown_rounds: int = 0) -> None:
        if hold_rounds < 1:
            raise ValueError("hold_rounds must be at least 1")
        if cooldown_rounds < 0:
            raise ValueError("cooldown_rounds must be non-negative")
        self.hold_rounds = int(hold_rounds)
        self.cooldown_rounds = int(cooldown_rounds)
        self.over = 0
        self.under = 0
        self.cooldown = 0

    @staticmethod
    def classify(value: float, low: float, high: float) -> str:
        """The reading of ``value`` against a ``[low, high]`` dead band
        (inclusive thresholds: ``high`` itself reads :data:`OVER`)."""
        if value >= high:
            return OVER
        if value <= low:
            return UNDER
        return DEAD_BAND

    def step(self, reading: Optional[str]) -> Optional[str]:
        """Feed one round's reading; returns the ready direction or ``None``."""
        if reading == OVER:
            self.over += 1
            self.under = 0
        elif reading == UNDER:
            self.under += 1
            self.over = 0
        else:
            self.over = 0
            if reading == DEAD_BAND:
                self.under = 0
        if self.cooldown > 0:
            self.cooldown -= 1
            return None
        # Only the reading's own streak can be ready: the other was just
        # broken, and a None round never fires.
        if reading == OVER and self.over >= self.hold_rounds:
            return OVER
        if reading == UNDER and self.under >= self.hold_rounds:
            return UNDER
        return None

    def fire(self, direction: str) -> None:
        """An action was taken: reset that streak and arm the cooldown."""
        self.reset(direction)
        self.cooldown = self.cooldown_rounds

    def reset(self, direction: str) -> None:
        """Spend ``direction``'s streak without arming the cooldown."""
        if direction == OVER:
            self.over = 0
        else:
            self.under = 0
