"""Observability: one clock, one metrics registry, one request tracer.

The measurement substrate beneath every ``BENCH_*.json`` number and
latency claim in this repository:

* :mod:`~repro.observability.clock` — the only sanctioned wall-clock
  (simulated-ms and wall-ms must never be conflated; a lint test rejects
  direct ``time.perf_counter()`` use elsewhere);
* :mod:`~repro.observability.metrics` — named counters / gauges /
  fixed-bucket histograms with p50/p95/p99 summaries, the registry the
  legacy counter dataclasses now facade over;
* :mod:`~repro.observability.tracing` — span-based request tracing with
  a trace id per serving chunk and an allocation-free
  :data:`NULL_RECORDER` default;
* :mod:`~repro.observability.export` — JSONL, Chrome ``trace_event``,
  and Prometheus text-format exporters (``repro trace`` CLI,
  Perfetto-loadable timelines, scrape endpoints);
* :mod:`~repro.observability.windows` — sliding time-window views
  (bounded rings, exact within-window percentiles) tapped onto metrics
  through their watcher hooks, and the :class:`~.windows.Hysteresis`
  streak/cooldown machine the autoscaler, τ controller and SLO alerts
  share;
* :mod:`~repro.observability.slo` — declarative objectives with
  multi-window burn-rate alerting over those windows;
* :mod:`~repro.observability.top` — the ``repro top`` / ``repro
  health`` dashboard renderer (pure formatting over health snapshots).
"""

from .clock import Stopwatch, now_ms, now_s
from .export import (
    chrome_trace,
    prometheus_text,
    spans_to_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from .metrics import (
    Counter,
    DEFAULT_BUCKETS_MS,
    Gauge,
    Histogram,
    MetricsRegistry,
    labeled,
    parse_labels,
)
from .slo import (
    BurnRatePolicy,
    SloMonitor,
    SloSpec,
    default_fleet_slos,
)
from .top import render_fleet_top
from .tracing import NULL_RECORDER, NullRecorder, Span, TelemetrySummary, Tracer
from .windows import MetricWindows, WindowedSeries

__all__ = [
    "BurnRatePolicy",
    "Counter",
    "DEFAULT_BUCKETS_MS",
    "Gauge",
    "Histogram",
    "MetricWindows",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "SloMonitor",
    "SloSpec",
    "Span",
    "Stopwatch",
    "TelemetrySummary",
    "Tracer",
    "WindowedSeries",
    "chrome_trace",
    "default_fleet_slos",
    "labeled",
    "now_ms",
    "now_s",
    "parse_labels",
    "prometheus_text",
    "render_fleet_top",
    "spans_to_jsonl",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
]
