#!/usr/bin/env python3
"""End-to-end wall-clock benchmark of the LCRS request path.

Run from anywhere; paths resolve against this file::

    python3 benchmarks/e2e/run.py --workload edge-miss --seed 0 --seconds 15 --trace 0

measures one workload in this process.  It prints one ``workload metric
value unit`` line per metric and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reruns the first quarter
of the requests with every layer boundary wrapped and reports the
per-layer budget instead (see ``layers.py``).

Without ``--workload`` (or with several) every selected workload runs in
its own fresh process, untraced and then traced.  ``--smoke`` replaces
the time budget with a fixed tenth of each workload's nominal request
count and three bring-ups, so two smoke runs with one seed serve the
same frames.  ``--out DIR`` also writes one ``*.result.json`` per run
(the input of ``compare.py``) and, for traced runs, the spans.

The fixture model is trained once per source tree and cached under
``.bench_build/e2e``.  The exit status is non-zero when an output check
fails, when the compiled-plan backend is unavailable, or when the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
CACHE = ROOT / ".bench_build" / "e2e"

#: The fixture: a LeNet LCRS jointly trained on synthetic MNIST.  The
#: eval split is the pool every request draws its frames from.
FIXTURE = {
    "dataset": "mnist",
    "train": 600,
    "eval": 1000,
    "data_seed": 7,
    "epochs": 4,
    "batch_size": 64,
    "lr_main": 2e-3,
}

#: Untimed requests between the first bring-up and the measured phase, so
#: trunk plans for every batch capacity the workload reaches are compiled.
WARMUP_REQUESTS = 32
#: Requests replayed through the interpreter and module trunk.
CHECK_REQUESTS = 64
#: Upper bound on frames per second, used only to size the result arrays.
MAX_FRAME_RATE = 50_000
#: Bring-ups per second of the measured phase: one spare bring-up runs
#: untimed at the start of every segment, so set-up time is sampled
#: across the whole run rather than in one burst.
BRING_UPS_PER_S = 2
#: Other tenants of a shared host slow this process down, in bursts and in
#: periods of minutes, and never speed it up.  The timed metrics are
#: therefore taken per window of this many seconds, and the run reports
#: its fastest window: the one least disturbed by the rest of the host.
WINDOW_S = 0.1

SERVED_CODES = {"binary-branch": 0, "edge": 1, "binary-fallback": 2}
FALLBACK = SERVED_CODES["binary-fallback"]
NOT_SERVED = -1


@dataclass(frozen=True)
class Workload:
    """One request mix.  ``sessions == 0`` is a solo ``run_session``
    deployment; otherwise one request is one lockstep round of
    ``sessions`` sessions, each submitting one ``frames``-frame chunk."""

    name: str
    sessions: int
    frames: int
    requests: int
    tau: str
    fleet: bool = False
    faults: bool = False

    @property
    def frames_per_request(self) -> int:
        return max(1, self.sessions) * self.frames


WORKLOADS = {
    w.name: w
    for w in (
        Workload("browser-exit", sessions=0, frames=8, requests=10_000, tau="exit"),
        Workload("edge-miss", sessions=0, frames=8, requests=5_000, tau="miss"),
        Workload("shared-edge", sessions=8, frames=4, requests=1_000, tau="mid"),
        Workload(
            "fleet-faults", sessions=4, frames=1, requests=2_500, tau="mid",
            fleet=True, faults=True,
        ),
    )
}


# ----------------------------------------------------------------------
# Fixture
# ----------------------------------------------------------------------
def _fixture_dir() -> Path:
    """Cache directory keyed by the program's sources and the recipe."""
    digest = hashlib.sha256(json.dumps(FIXTURE, sort_keys=True).encode())
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return CACHE / digest.hexdigest()[:16]


def build_fixture(target: Path) -> None:
    """Train, calibrate and save the fixture system into ``target``."""
    from repro.core import JointTrainingConfig, LCRS, save_system
    from repro.data import make_dataset
    from repro.observability.clock import now_s
    from repro.runtime import LCRSDeployment, four_g

    train, test = make_dataset(
        FIXTURE["dataset"], FIXTURE["train"], FIXTURE["eval"], seed=FIXTURE["data_seed"]
    )
    t0 = now_s()
    system = LCRS.build(
        "lenet",
        train,
        training_config=JointTrainingConfig(
            epochs=FIXTURE["epochs"],
            batch_size=FIXTURE["batch_size"],
            lr_main=FIXTURE["lr_main"],
            seed=0,
        ),
        dataset_name=FIXTURE["dataset"],
        seed=0,
    )
    system.fit(train)
    system.calibrate(test)
    train_s = now_s() - t0
    target.mkdir(parents=True)
    save_system(system, target / "system.npz")
    np.savez(target / "eval.npz", images=test.images, labels=test.labels)
    # tau_mid: the median entropy the browser gate sees, so about half of
    # the eval frames exit locally.
    browser = LCRSDeployment(system, four_g().deterministic()).browser
    _, _, entropies, _ = browser.process_batch(test.images)
    meta = {"tau_mid": float(np.median(entropies)), "train_s": train_s}
    (target / "meta.json").write_text(json.dumps(meta))


def ensure_fixture() -> Path:
    """The cached fixture directory, built in a child process on a miss
    so that training leaves no trace in the workload's memory."""
    final = _fixture_dir()
    if (final / "meta.json").exists():
        return final
    CACHE.mkdir(parents=True, exist_ok=True)
    staging = CACHE / f"tmp-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--build-fixture", str(staging)],
        check=True,
    )
    try:
        os.replace(staging, final)
    except OSError:
        # Another process finished the same fixture first.
        shutil.rmtree(staging, ignore_errors=True)
    return final


# ----------------------------------------------------------------------
# Bring-up and serving
# ----------------------------------------------------------------------
class Rig:
    """One bring-up: the deployments and the edge a workload serves through."""

    def __init__(self, workload: Workload, system, threshold: float, seed: int,
                 compile_plan: bool = True) -> None:
        from repro.runtime import (
            EdgeScheduler,
            FleetConfig,
            FleetRouter,
            LCRSDeployment,
            SchedulerConfig,
            ServiceTimeModel,
            SessionConfig,
            four_g,
            scheduler,
        )

        self.workload = workload
        # Looked up on every round, so a traced run sees its wrapper.
        self._scheduler_module = scheduler
        self.deployments = [
            LCRSDeployment(system, four_g(seed).deterministic())
            for _ in range(max(1, workload.sessions))
        ]
        self.config = SessionConfig(
            batch_size=workload.frames, threshold=threshold, compile_plan=compile_plan
        )
        self.edge = None
        self.schedulers = []
        if workload.fleet:
            self.edge = FleetRouter.for_system(
                system,
                FleetConfig(
                    num_shards=2, placement="hash",
                    scheduler=SchedulerConfig(num_workers=1),
                ),
            )
            self.schedulers = [self.edge.shard(sid).scheduler for sid in self.edge.shard_ids]
        elif workload.sessions:
            self.edge = EdgeScheduler.for_system(system, config=SchedulerConfig(num_workers=2))
            self.schedulers = [self.edge]
        for sched in self.schedulers:
            sched.endpoint.compile_plan = compile_plan
        self.service_model = (
            self.schedulers[0].service_model
            if self.schedulers
            else ServiceTimeModel.from_profile(self.deployments[0].assets.trunk_profile)
        )

    def config_for(self, fault_seed: int):
        if not self.workload.faults:
            return self.config
        return replace(self.config, fault_profile="smoke", fault_seed=int(fault_seed))

    def reset_clock(self) -> None:
        # Session clocks restart at 0 every round; without this the edge
        # clock runs ahead of them and queue waits grow with run length.
        for sched in self.schedulers:
            sched.clock_ms = 0.0

    def serve(self, images, config) -> list:
        """One request: image chunk in, one outcome per frame out."""
        w = self.workload
        if not w.sessions:
            return self.deployments[0].run_session(images, config=config).outcomes
        streams = images.reshape(w.sessions, w.frames, *images.shape[1:])
        results = self._scheduler_module.run_concurrent_sessions(
            self.deployments, streams, self.edge, config=config
        )
        return [o for r in results for o in r.outcomes]

    def close(self) -> None:
        for sched in self.schedulers:
            sched.worker_pool.close()

    def plan_cache(self) -> dict:
        totals = {"hits": 0, "misses": 0, "failures": 0}
        for dep in self.deployments:
            for engine in (dep.browser.stem_engine, dep.browser.branch_engine):
                info = engine.plan_cache_info()
                for key in totals:
                    totals[key] += info[key]
        return totals


class RequestStream:
    """Frame indices and fault seeds of every request, drawn from a seed."""

    def __init__(self, seed, count: int, frames: int, pool: int) -> None:
        rng = np.random.default_rng(seed)
        self.frames = rng.integers(0, pool, size=(count, frames), dtype=np.int32)
        self.fault_seeds = rng.integers(0, 2**31 - 1, size=count)


class Served:
    """Per-request and per-frame results in preallocated arrays."""

    def __init__(self, count: int, workload: Workload) -> None:
        f = workload.frames_per_request
        self.expected_index = list(range(workload.frames)) * max(1, workload.sessions)
        self.walls_ms = np.zeros(count)
        self.preds = np.zeros((count, f), dtype=np.int64)
        self.exits = np.zeros((count, f), dtype=bool)
        self.served = np.zeros((count, f), dtype=np.int8)
        self.attempts = np.zeros((count, f), dtype=np.int16)
        self.sim_ms = np.zeros((count, f))
        self.queue_ms = np.zeros((count, f))
        self.attempted = 0
        self.failed = 0
        #: ``(first request, end request, wall s, cpu s)`` per window.
        self.windows: list[tuple[int, int, float, float]] = []

    @property
    def wall_s(self) -> float:
        return sum(w[2] for w in self.windows)

    @property
    def cpu_s(self) -> float:
        return sum(w[3] for w in self.windows)

    def record(self, n: int, outcomes, wall_ms: float) -> None:
        self.walls_ms[n] = wall_ms
        if outcomes is None or [o.index for o in outcomes] != self.expected_index:
            self.failed += 1
            self.served[n] = NOT_SERVED
            return
        for j, o in enumerate(outcomes):
            self.preds[n, j] = o.prediction
            self.exits[n, j] = o.exited_locally
            self.served[n, j] = SERVED_CODES.get(o.served_by, len(SERVED_CODES))
            self.attempts[n, j] = o.attempts
            self.sim_ms[n, j] = o.cost.total_ms
            self.queue_ms[n, j] = o.cost.queue_ms

    def trim(self) -> None:
        n = self.attempted
        for name in ("walls_ms", "preds", "exits", "served", "attempts", "sim_ms", "queue_ms"):
            setattr(self, name, getattr(self, name)[:n])


def _cpu_s() -> float:
    """CPU time of this process, every thread."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def serve_requests(rig: Rig, stream: RequestStream, images, limit: int,
                   seconds: float | None = None, segments: int = 1,
                   between=None, rec=None) -> Served:
    """Closed loop, one request in flight: serve ``stream`` in order.

    The phase is cut into ``segments`` equal slices of ``seconds`` of wall
    time, or of ``limit`` requests when there is no time budget; it never
    serves more than ``limit`` requests.  ``between()`` runs untimed
    before every segment but the first.  Within a segment, a window
    closes after the first request that ends ``WINDOW_S`` after it opened;
    a trailing window shorter than half that is dropped.
    """
    from repro.observability.clock import now_s

    out = Served(limit, rig.workload)
    n = 0
    for k in range(segments):
        if k and between is not None:
            between()
        gc.collect()
        stop = limit if seconds is not None else limit * (k + 1) // segments
        first, t0, c0 = n, now_s(), _cpu_s()
        deadline = t0 + seconds / segments if seconds is not None else None
        while n < stop:
            batch = images[stream.frames[n]]
            config = rig.config_for(stream.fault_seeds[n])
            rig.reset_clock()
            if rec is not None:
                rec.request = n
            start = now_s()
            try:
                outcomes = rig.serve(batch, config)
            except Exception:
                traceback.print_exc()
                outcomes = None
            end = now_s()
            out.record(n, outcomes, (end - start) * 1e3)
            n += 1
            last = n >= stop or (deadline is not None and end >= deadline)
            if end - t0 >= WINDOW_S or (last and 2 * (end - t0) >= WINDOW_S):
                now, cpu = now_s(), _cpu_s()
                out.windows.append((first, n, now - t0, cpu - c0))
                first, t0, c0 = n, now, cpu
            if last:
                break
        if n >= limit:
            break
    out.attempted = n
    out.trim()
    return out


def output_check(workload, system, threshold, seed, stream, images, measured) -> dict:
    """Replay the first requests through the interpreter and module trunk;
    predictions, exit decisions and ``served_by`` must be identical."""
    rig = Rig(workload, system, threshold, seed, compile_plan=False)
    k = min(CHECK_REQUESTS, measured.attempted)
    replay = serve_requests(rig, stream, images, limit=k)
    rig.close()
    same = {
        name: bool(np.array_equal(getattr(replay, name), getattr(measured, name)[:k]))
        for name in ("preds", "exits", "served")
    }
    ok = all(same.values()) and replay.failed == 0 and measured.failed == 0
    return {"ok": ok, "requests": k, **same}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _quantile(values, q: float) -> float:
    return float(np.quantile(values, q)) if len(values) else 0.0


def window_stats(measured: Served) -> dict:
    """Per-window request p50 (ms), frames per second and CPU us per frame."""
    ok = measured.served[:, 0] != NOT_SERVED
    fpr = measured.served.shape[1]
    p50, rate, cpu = [], [], []
    for first, end, wall_s, cpu_s in measured.windows:
        frames = int(ok[first:end].sum()) * fpr
        if frames:
            p50.append(float(np.median(measured.walls_ms[first:end])))
            rate.append(frames / wall_s)
            cpu.append(cpu_s / frames * 1e6)
    return {"p50": p50, "rate": rate, "cpu": cpu}


def e2e_metrics(measured: Served, setup_s: list, peak_rss_mb: float, labels, stream) -> dict:
    ok = measured.served[:, 0] != NOT_SERVED
    truth = labels[stream.frames[: measured.attempted]]
    win = window_stats(measured)
    return {
        "setup_s": (float(np.median(setup_s)), "s"),
        "request_ms_p50": (min(win["p50"], default=0.0), "ms"),
        "frames_per_s": (max(win["rate"], default=0.0), "frames/s"),
        "cpu_us_per_frame": (min(win["cpu"], default=0.0), "us"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "accuracy": (float((measured.preds[ok] == truth[ok]).mean()), "share"),
    }


def layer_metrics(measured: Served, traced: Served, budget: dict, rig: Rig) -> dict:
    from layers import LAYERS, ROOT_LAYER

    n = max(traced.attempted, 1)
    layers = budget["layers"]
    out = {}
    for layer in LAYERS:
        row = layers[layer]
        out[f"{layer}.self_ms"] = (row["self_s"] * 1e3 / n, "ms")
        out[f"{layer}.calls"] = (row["calls"] / n, "count")
    trunk = layers["edge.trunk"]
    rows = trunk["value"]
    served = measured.served != NOT_SERVED
    attempts = measured.attempts[~measured.exits & served]
    traced_misses = int((~traced.exits & (traced.served != NOT_SERVED)).sum())
    cache = rig.plan_cache()
    lookups = cache["hits"] + cache["misses"]
    untraced_p50 = float(np.median(measured.walls_ms))
    # The driver's own clock around each traced request: the residual is
    # the time no span, not even the root, accounts for.
    traced_s = float(traced.walls_ms.sum()) / 1e3
    out.update(
        {
            "gate.exit_share": (float(measured.exits[served].mean()), "share"),
            "edge.trunk.rows_per_call": (rows / trunk["calls"] if trunk["calls"] else 0.0, "rows"),
            "edge.trunk.ms_per_row": (trunk["dur_s"] * 1e3 / rows if rows else 0.0, "ms"),
            "edge.trunk.measured_over_model": (
                trunk["dur_s"] * 1e3 / budget["model_ms"] if budget["model_ms"] else 0.0,
                "ratio",
            ),
            "sched.queue_wait_ms_p50": (
                _quantile(measured.queue_ms[measured.served == SERVED_CODES["edge"]], 0.5),
                "sim_ms",
            ),
            "transport.attempts_per_miss": (float(attempts.mean()) if attempts.size else 0.0, "count"),
            "transport.retry_share": (float((attempts > 1).mean()) if attempts.size else 0.0, "share"),
            "codec.wire_bytes_per_miss": (
                layers["codec.encode"]["value"] / traced_misses if traced_misses else 0.0,
                "bytes",
            ),
            "wasm.plan_cache_hit_ratio": (cache["hits"] / lookups if lookups else 0.0, "ratio"),
            "process.cpu_over_wall": (measured.cpu_s / measured.wall_s, "ratio"),
            "request.ms_p99": (_quantile(measured.walls_ms, 0.99), "ms"),
            "request.count": (float(measured.attempted), "count"),
            "trace.overhead_pct": (
                (float(np.median(traced.walls_ms)) / untraced_p50 - 1.0) * 100.0, "%"
            ),
            "trace.unattributed_share": (layers[ROOT_LAYER]["self_s"] / traced_s, "share"),
            "trace.residual_pct": ((budget["self_s"] / traced_s - 1.0) * 100.0, "%"),
            "failed_share": (
                float(((measured.served == FALLBACK) | ~served).sum()) / measured.served.size,
                "share",
            ),
            "sim_frame_ms_p50": (_quantile(measured.sim_ms[served], 0.5), "sim_ms"),
            "sim_frame_ms_p99": (_quantile(measured.sim_ms[served], 0.99), "sim_ms"),
        }
    )
    return out


def host_fingerprint(meta: dict) -> dict:
    from repro.wasm import backend_available

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "backend_available": backend_available(),
        "tau_mid": meta["tau_mid"],
        "train_s": meta["train_s"],
    }


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_workload(args) -> int:
    from repro.core import load_system
    from repro.observability.clock import now_s
    from repro.wasm import backend_available, backend_error

    if not backend_available():
        print(f"compiled-plan backend unavailable: {backend_error()}", file=sys.stderr)
        return 3
    workload = WORKLOADS[args.workload[0]]
    trace = bool(args.trace)
    fixture = ensure_fixture()
    meta = json.loads((fixture / "meta.json").read_text())
    with np.load(fixture / "eval.npz") as data:
        images, labels = data["images"], data["labels"]
    threshold = {"exit": 1.0, "miss": 0.0, "mid": meta["tau_mid"]}[workload.tau]
    fpr = workload.frames_per_request
    if args.smoke:
        limit, seconds, segments = workload.requests // 10, None, 3
    else:
        limit = max(1, int(args.seconds * MAX_FRAME_RATE / fpr))
        seconds, segments = args.seconds, max(3, round(args.seconds * BRING_UPS_PER_S))
    warm = RequestStream([args.seed, 1], WARMUP_REQUESTS, fpr, len(images))
    setup_s = []

    def bring_up():
        t0 = now_s()
        system = load_system(fixture / "system.npz")
        rig = Rig(workload, system, threshold, args.seed)
        rig.reset_clock()
        rig.serve(images[warm.frames[0]], rig.config_for(warm.fault_seeds[0]))
        setup_s.append(now_s() - t0)
        return system, rig

    def spare_bring_up():
        bring_up()[1].close()

    # The first bring-up serves the run; spare ones start later segments.
    system, rig = bring_up()
    serve_requests(rig, warm, images, limit=WARMUP_REQUESTS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    stream = RequestStream([args.seed, 0], limit, fpr, len(images))
    if trace:
        measured = serve_requests(rig, stream, images, limit, seconds)
    else:
        measured = serve_requests(rig, stream, images, limit, seconds, segments, spare_bring_up)
    attempted, failed = measured.attempted, measured.failed

    if trace:
        from layers import SpanRecorder, install, layer_budget

        rec = SpanRecorder()
        install(rec, rig.deployments)
        try:
            traced = serve_requests(rig, stream, images, max(1, measured.attempted // 4), rec=rec)
        finally:
            rec.restore()
        attempted += traced.attempted
        failed += traced.failed
        metrics = layer_metrics(measured, traced, layer_budget(rec.spans, rig.service_model), rig)
    else:
        metrics = e2e_metrics(measured, setup_s, peak_rss_mb, labels, stream)

    check = output_check(workload, system, threshold, args.seed, stream, images, measured)
    plan_failures = rig.plan_cache()["failures"]
    correct = check["ok"] and plan_failures == 0

    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} {value:.6g} {unit}")
    if not correct:
        print(f"output check failed: {check}, plan failures {plan_failures}", file=sys.stderr)
    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        record = {
            "workload": workload.name,
            "seed": args.seed,
            "trace": int(trace),
            "smoke": args.smoke,
            "seconds": seconds,
            "host": host_fingerprint(meta),
            "setup_samples_s": setup_s,
            "windows": window_stats(measured),
            "check": check,
            **summary,
        }
        stamp = f"{workload.name}.trace{int(trace)}.seed{args.seed}.{os.getpid()}"
        (out / f"{stamp}.result.json").write_text(json.dumps(record, indent=1))
        if trace:
            rec.write_jsonl(out / f"{workload.name}.spans.jsonl")
    print(json.dumps(summary))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every selected workload in a fresh child process of its own."""
    ensure_fixture()
    names = args.workload or list(WORKLOADS)
    traces = [args.trace] if args.trace is not None else [0, 1]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        for trace in traces:
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            cmd += ["--smoke"] if args.smoke else []
            cmd += ["--out", args.out] if args.out else []
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{name} trace {trace}: no result (exit {proc.returncode})", file=sys.stderr)
                return proc.returncode or 1
            correct &= result["correct"] and proc.returncode == 0
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, value in result["metrics"].items():
                metrics[f"{name}/{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="wall-clock length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer budget")
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of the nominal requests and three bring-ups")
    parser.add_argument("--out", help="directory for result JSONs and spans")
    parser.add_argument("--build-fixture", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.build_fixture:
        build_fixture(Path(args.build_fixture))
        return 0
    if args.workload and len(args.workload) == 1:
        if args.trace is None:
            args.trace = 0
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
