"""Outside-in per-layer timing for the end-to-end benchmark.

The program has no spans of its own at the layer boundaries this
benchmark cares about, so the traced run wraps each layer's public
callable from the outside, records one span per call, and restores the
original afterwards.  Nothing here is imported by the program.

A span is ``(id, layer, start_s, end_s, parent_id, request, value)``, timed
with the repository's wall clock.
Each thread keeps its own stack of open spans; a span opened on a thread
with nothing open (a trunk batch on a scheduler pool thread) takes the
innermost span open on the driver thread as its parent, so the edge work
nests under the ``sched.flush`` that waited for it.  ``value`` is an
optional per-call quantity (rows for a trunk call, payload bytes for an
encode).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import defaultdict
from pathlib import Path

from repro.observability.clock import now_s

#: Timed layers, in report order.  ``session`` is the root of every
#: request: the driver's call into ``run_session`` or
#: ``run_concurrent_sessions``; its self time is what no other layer
#: covers.
LAYERS = (
    "wasm.stem",
    "wasm.branch",
    "browser.gate",
    "pricing.plan",
    "pricing.simulate",
    "codec.encode",
    "codec.decode",
    "protocol.frame",
    "edge.server",
    "edge.trunk",
    "sched.submit",
    "sched.flush",
    "sched.collect",
    "fleet.submit",
    "fleet.flush",
    "network.exchange",
    "session",
)
ROOT_LAYER = "session"


class SpanRecorder:
    """Collects spans in memory; thread-safe through per-thread stacks."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.request = 0
        self._ids = itertools.count(1)
        self._driver = threading.get_ident()
        self._driver_stack: list[int] = []
        self._local = threading.local()
        self._undo: list = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._driver:
            return self._driver_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn, measure=None):
        """``fn`` recording one ``layer`` span per call."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            if stack:
                parent = stack[-1]
            elif rec._driver_stack:
                parent = rec._driver_stack[-1]
            else:
                parent = 0
            span_id = next(rec._ids)
            stack.append(span_id)
            start = now_s()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = now_s()
                stack.pop()
                rec.spans.append((span_id, layer, start, end, parent, rec.request, 0))
                raise
            end = now_s()
            stack.pop()
            value = measure(args, result) if measure is not None else 0
            rec.spans.append((span_id, layer, start, end, parent, rec.request, value))
            return result

        return traced

    def patch(self, owner, attr: str, layer: str, measure=None) -> None:
        """Wrap ``owner.attr`` in place until :meth:`restore`.

        ``owner`` is a module, a class, or an instance.  A method an
        instance inherits is shadowed by an instance attribute, so two
        engines of one class can be told apart.
        """
        raw = vars(owner).get(attr)
        if raw is None:
            setattr(owner, attr, self.wrap(layer, getattr(owner, attr), measure))
            self._undo.append(lambda: delattr(owner, attr))
            return
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap(layer, raw.__func__, measure))
        else:
            wrapped = self.wrap(layer, raw, measure)
        setattr(owner, attr, wrapped)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span_id, layer, start, end, parent, request, value in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": layer,
                            "start_s": start,
                            "end_s": end,
                            "parent": parent,
                            "request": request,
                            "value": value,
                        }
                    )
                    + "\n"
                )


def install(rec: SpanRecorder, deployments) -> None:
    """Wrap every layer boundary the request path crosses."""
    from repro.runtime import fleet, protocol, scheduler, session, network

    for dep in deployments:
        rec.patch(dep.browser.stem_engine, "forward_planned", "wasm.stem")
        rec.patch(dep.browser.branch_engine, "forward_planned", "wasm.branch")
    rec.patch(session.BrowserClient, "process_batch", "browser.gate")
    rec.patch(session.LCRSAssets, "plan", "pricing.plan")
    rec.patch(session, "simulate_plan", "pricing.simulate")
    rec.patch(
        protocol.BatchInferenceRequest,
        "from_features",
        "codec.encode",
        measure=lambda args, req: len(req.payload),
    )
    rec.patch(protocol.BatchInferenceRequest, "features", "codec.decode")
    for module in (session, scheduler, fleet, protocol):
        rec.patch(module, "encode_frame", "protocol.frame")
        rec.patch(module, "decode_frame", "protocol.frame")
    rec.patch(protocol.EdgeProtocolServer, "handle", "edge.server")
    rec.patch(
        session.EdgeEndpoint, "infer", "edge.trunk",
        measure=lambda args, logits: len(args[1]),
    )
    for attr in ("submit", "flush", "collect"):
        rec.patch(scheduler.EdgeScheduler, attr, f"sched.{attr}")
    for attr in ("submit", "flush"):
        rec.patch(fleet.FleetRouter, attr, f"fleet.{attr}")
    rec.patch(network.NetworkLink, "exchange", "network.exchange")
    rec.patch(network.FaultyLink, "exchange", "network.exchange")
    rec.patch(session.LCRSDeployment, "run_session", ROOT_LAYER)
    rec.patch(scheduler, "run_concurrent_sessions", ROOT_LAYER)


def _covered_s(start: float, end: float, intervals: list) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def layer_budget(spans: list, service_model) -> dict:
    """Per-layer self time, calls and values, summed over all requests.

    Self time is a span's duration minus the part of it its children
    cover.  Returns ``{"layers": {layer: {self_s, calls, value, dur_s}},
    "self_s": total self time, "model_ms": trunk time the service model
    predicts for the same calls}``.
    """
    children: dict[int, list] = defaultdict(list)
    for span_id, _, start, end, parent, _, _ in spans:
        children[parent].append((start, end))
    layers = {name: {"self_s": 0.0, "calls": 0, "value": 0, "dur_s": 0.0} for name in LAYERS}
    self_total = 0.0
    model_ms = 0.0
    for span_id, layer, start, end, parent, _, value in spans:
        dur = end - start
        own = dur - _covered_s(start, end, children.get(span_id, ()))
        row = layers[layer]
        row["self_s"] += own
        row["calls"] += 1
        row["value"] += value
        row["dur_s"] += dur
        self_total += own
        if layer == "edge.trunk" and value:
            model_ms += service_model.batch_ms(value)
    return {"layers": layers, "self_s": self_total, "model_ms": model_ms}
