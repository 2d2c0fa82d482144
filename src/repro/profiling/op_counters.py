"""Runtime counter facades over the observability metrics registry.

Two counter families grew up ad hoc around the system — miss-path
transport counters (:class:`FaultCounters`) and shared-edge counters
(:class:`SchedulerCounters`).  They are *facades*: every field is
backed by a named metric in a
:class:`~repro.observability.metrics.MetricsRegistry`, so exporters and
the ``repro trace`` telemetry read one schema, while the existing call
sites (``counters.frames_sent += 1``) and ``as_dict`` layouts keep
working bit-for-bit.

Because counters now have a registry behind them, *scoping* them is
possible: :func:`counters_scope` snapshots every live facade plus the
true process-global counters (the bit-packing popcount totals and the
observability global registry) and restores them on exit — the fixture
``tests/conftest.py`` installs so tests stop leaking counter state into
each other through session-scoped engines.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from typing import Iterator, Mapping, Optional, Union

from ..observability.metrics import MetricsRegistry, labeled

#: Live counter facades, tracked weakly so :func:`counters_scope` can
#: snapshot instances held by long-lived fixtures (session-scoped
#: trained systems, module-level deployments) without pinning them.
_LIVE_FACADES: "weakref.WeakSet" = weakref.WeakSet()

#: Batch sizes are small integers; a dedicated bucket ladder keeps the
#: dynamic-batching histogram readable.
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


class _RegistryFacade:
    """Base for counter facades: named fields backed by registry counters.

    Subclasses declare ``_FIELDS`` (name → zero value); instances route
    attribute reads/writes for those names to registry counters, so the
    historical ``counters.x += 1`` mutation style is preserved while the
    registry remains the single source of truth.
    """

    _FIELDS: dict[str, Union[int, float]] = {}
    _PREFIX = "counters"

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[Mapping[str, object]] = None,
        **values: Union[int, float],
    ) -> None:
        d = self.__dict__
        d["registry"] = registry if registry is not None else MetricsRegistry()
        d["_labels"] = dict(labels) if labels else {}
        d["_metrics"] = {
            name: d["registry"].counter(self.metric_name(name))
            for name in self._FIELDS
        }
        _LIVE_FACADES.add(self)
        for name, value in values.items():
            if name not in self._FIELDS:
                raise TypeError(f"{type(self).__name__} has no field {name!r}")
            setattr(self, name, value)

    def metric_name(self, suffix: str) -> str:
        """Full registry name of one field: prefix, suffix, and labels.

        Unlabeled facades keep the historical ``<prefix>.<field>`` names;
        labeled ones (e.g. a fleet shard's scheduler) write distinct
        series like ``sched.accepted_samples{shard=2}`` so N instances can
        share one registry without folding into a single series.
        """
        return labeled(f"{self._PREFIX}.{suffix}", **self.__dict__["_labels"])

    @property
    def labels(self) -> dict[str, object]:
        return dict(self.__dict__["_labels"])

    def __getattr__(self, name: str):
        metrics = self.__dict__.get("_metrics")
        if metrics is not None and name in metrics:
            return metrics[name].value
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def __setattr__(self, name: str, value) -> None:
        metrics = self.__dict__.get("_metrics")
        if metrics is not None and name in metrics:
            metrics[name].value = value
        else:
            self.__dict__[name] = value

    def reset(self) -> None:
        for name, zero in self._FIELDS.items():
            self._metrics[name].value = zero

    def as_dict(self) -> dict[str, object]:
        return {name: self._metrics[name].value for name in self._FIELDS}

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"{type(self).__name__}({fields})"


class FaultCounters(_RegistryFacade):
    """Miss-path transport failure/recovery statistics for one deployment.

    The session layer bumps these as collaborative frames travel the
    (possibly faulty) link: every attempt is a ``frames_sent``; failures
    split by cause; ``retries`` counts re-sends after a failure; and
    ``fallbacks`` counts samples/chunks that exhausted the retry policy
    and were answered by the local binary branch instead.
    """

    _PREFIX = "fault"
    _FIELDS = {
        "frames_sent": 0,
        "frames_dropped": 0,
        "frames_timed_out": 0,
        "frames_corrupted": 0,
        "frames_duplicated": 0,
        "edge_errors": 0,
        "overloads": 0,
        "replies_rejected": 0,
        "retries": 0,
        "fallbacks": 0,
    }

    @property
    def failures(self) -> int:
        """Attempts that did not yield a valid reply."""
        return (
            self.frames_dropped
            + self.frames_timed_out
            + self.edge_errors
            + self.replies_rejected
        )


class SchedulerCounters(_RegistryFacade):
    """Aggregate telemetry of one :class:`~repro.runtime.scheduler.EdgeScheduler`.

    Request/sample counters split admission outcomes (accepted vs shed
    vs malformed); batch counters describe what the trunk actually
    executed; ``queue_wait_ms`` accumulates simulated per-sample
    waiting (window + head-of-line + edge busy).  Per-tenant rows keep
    the fairness policy observable, and the registry additionally
    carries ``sched.batch_size`` / ``sched.queue_wait_ms`` histograms
    so p50/p95/p99 queueing summaries fall out of any run.
    """

    _PREFIX = "sched"
    _FIELDS = {
        "submitted_requests": 0,
        "accepted_requests": 0,
        "shed_requests": 0,
        "malformed_requests": 0,
        "submitted_samples": 0,
        "accepted_samples": 0,
        "shed_samples": 0,
        "samples_served": 0,
        "batches": 0,
        "busy_ms": 0.0,
        "queue_wait_ms": 0.0,
        "max_queue_depth": 0,
        "max_workers_busy": 0,
    }

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[Mapping[str, object]] = None,
        **values,
    ) -> None:
        super().__init__(registry=registry, labels=labels, **values)
        d = self.__dict__
        d["batch_size_hist"] = {}
        d["per_tenant"] = {}
        d["_batch_size_h"] = d["registry"].histogram(
            self.metric_name("batch_size"), bounds=_BATCH_SIZE_BUCKETS
        )
        d["_queue_wait_h"] = d["registry"].histogram(
            self.metric_name("batch_queue_wait_ms")
        )
        # Per-request waits feed the windowed p99 SLO; bounded mode caps
        # retained samples so long-running fleets don't grow without
        # bound (bucket counts and the sum stay exact regardless).
        d["_request_wait_h"] = d["registry"].histogram(
            self.metric_name("request_queue_wait_ms"), max_samples=4096
        )

    def tenant(self, tenant_id: int) -> dict[str, int]:
        """The (created-on-demand) counter row for one session/tenant."""
        return self.per_tenant.setdefault(
            int(tenant_id), {"submitted": 0, "accepted": 0, "shed": 0, "served": 0}
        )

    def record_batch(self, batch_size: int, exec_ms: float, waits_ms: float) -> None:
        self.batches += 1
        self.samples_served += batch_size
        self.busy_ms += exec_ms
        self.queue_wait_ms += waits_ms
        self.batch_size_hist[batch_size] = self.batch_size_hist.get(batch_size, 0) + 1
        self._batch_size_h.observe(batch_size)
        self._queue_wait_h.observe(waits_ms / batch_size if batch_size else 0.0)

    def record_request_wait(self, wait_ms: float) -> None:
        """One request's simulated queue wait (per-request resolution,
        unlike :meth:`record_batch`'s per-batch mean)."""
        self._request_wait_h.observe(wait_ms)

    @property
    def request_wait_histogram(self):
        """The ``sched.request_queue_wait_ms`` histogram (bounded mode)."""
        return self._request_wait_h

    @property
    def shed_rate(self) -> float:
        """Fraction of submitted samples refused with a 503."""
        if self.submitted_samples == 0:
            return 0.0
        return self.shed_samples / self.submitted_samples

    @property
    def mean_batch_size(self) -> float:
        return self.samples_served / self.batches if self.batches else 0.0

    @property
    def mean_queue_wait_ms(self) -> float:
        if self.samples_served == 0:
            return 0.0
        return self.queue_wait_ms / self.samples_served

    @property
    def throughput_rps(self) -> float:
        """Samples per second of edge busy time (serving efficiency)."""
        if self.busy_ms <= 0:
            return 0.0
        return self.samples_served / self.busy_ms * 1e3

    def reset(self) -> None:
        super().reset()
        self.__dict__["batch_size_hist"] = {}
        self.__dict__["per_tenant"] = {}
        self._batch_size_h.reset()
        self._queue_wait_h.reset()
        self._request_wait_h.reset()

    def as_dict(self) -> dict[str, object]:
        out = super().as_dict()
        out.update(
            {
                "shed_rate": self.shed_rate,
                "mean_batch_size": self.mean_batch_size,
                "mean_queue_wait_ms": self.mean_queue_wait_ms,
                "throughput_rps": self.throughput_rps,
                "batch_size_hist": {
                    str(k): v for k, v in sorted(self.batch_size_hist.items())
                },
                "per_tenant": {
                    str(k): dict(v) for k, v in sorted(self.per_tenant.items())
                },
            }
        )
        return out


# ----------------------------------------------------------------------
# Scoping: snapshot/restore every counter a test could leak through
# ----------------------------------------------------------------------
@contextmanager
def counters_scope() -> Iterator[None]:
    """Snapshot all live counter state; restore it on exit.

    Covers both facade families (wherever their instances live —
    session-scoped engines, module-level deployments), the bit-packing
    kernel's process-global popcount totals, and the observability
    global registry.  Facades *created inside* the scope are left alone
    (they did not exist at snapshot time and own no prior state), so
    wrapping every test makes counter state order-independent without
    touching tests that build their own deployments.
    """
    from ..observability.metrics import global_registry
    from ..wasm import bitpack

    facades = [f for f in _LIVE_FACADES]
    reg_snaps = [(f, f.registry.state()) for f in facades]
    dict_snaps = [
        (
            f,
            {k: dict(v) for k, v in f.per_tenant.items()},
            dict(f.batch_size_hist),
        )
        for f in facades
        if isinstance(f, SchedulerCounters)
    ]
    global_snap = global_registry().state()
    bitpack_snap = bitpack._REGISTRY.state()
    try:
        yield
    finally:
        for f, snap in reg_snaps:
            f.registry.restore(snap)
        for f, tenants, hist in dict_snaps:
            f.__dict__["per_tenant"] = tenants
            f.__dict__["batch_size_hist"] = hist
        global_registry().restore(global_snap)
        bitpack._REGISTRY.restore(bitpack_snap)
