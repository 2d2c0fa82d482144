"""Command-line interface: ``python -m repro <command>``.

Twelve commands cover the library's lifecycle without writing Python:

* ``train``   — joint-train an LCRS on a synthetic dataset, calibrate,
  report, and optionally checkpoint.
* ``evaluate``— load a checkpoint and report accuracy/exit behaviour on
  a fresh draw of its dataset.
* ``export``  — write the browser bundle (``.lcrs``) from a checkpoint.
* ``study``   — run the training-free latency/communication study
  (Tables II/III, Figures 6/7).
* ``session`` — drive a deployed collaborative session from a
  checkpoint, optionally over a fault-injected link, and report exit /
  fallback / retry behaviour.
* ``scale``   — sweep concurrent sessions × batching windows through
  the shared edge scheduler and report throughput/queueing/shedding.
* ``trace``   — run a traced multi-session scheduler round and export
  the timeline as Chrome ``trace_event`` JSON (Perfetto-loadable) or a
  JSONL span log.
* ``fleet``   — sweep shard counts through the multi-edge fleet router
  (capacity vs the M/M/c·N bound), optionally drill a mid-run shard
  partition, and print the users-per-p99-target planning table.
* ``health``  — run the SLO-monitored partition drill and print the
  fleet health snapshot (per-shard queue/busy/p99, burn-rate alerts,
  error-budget report) as JSON; optionally dump Prometheus text.
* ``top``     — the same drill rendered live: one per-round frame of
  shard state, windowed p99 waits, budgets, and firing alerts.
* ``plan``    — compile the trace-compiled inference plans (stem,
  binary branch, edge trunk) from a checkpoint, verify them bit-for-bit
  against the interpreter, and dump the fused steps with per-step
  wall time (from one traced replay) and the kernel variant serving
  each native record.
* ``tau``     — run the open- vs closed-loop adaptive-τ overload drill
  (the :class:`~repro.runtime.tau_control.TauController` relief valve)
  and print the shed/latency/accuracy trade-off curve.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .core import LCRS, JointTrainingConfig, load_system, save_system
from .data import make_dataset
from .data.synthetic import DATASET_NAMES
from .models import MODEL_NAMES


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all four subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LCRS: lightweight collaborative recognition (ICDCS'19 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="joint-train, calibrate, and report")
    train.add_argument("--network", choices=MODEL_NAMES, default="lenet")
    train.add_argument("--dataset", choices=DATASET_NAMES, default="mnist")
    train.add_argument("--train-samples", type=int, default=1500)
    train.add_argument("--test-samples", type=int, default=400)
    train.add_argument("--epochs", type=int, default=6)
    train.add_argument("--lr-main", type=float, default=2e-3)
    train.add_argument("--lr-binary", type=float, default=2e-3)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--checkpoint", type=Path, help="save the trained system here")

    evaluate = sub.add_parser("evaluate", help="evaluate a checkpoint")
    evaluate.add_argument("checkpoint", type=Path)
    evaluate.add_argument("--test-samples", type=int, default=400)
    evaluate.add_argument("--seed", type=int, default=100)

    export = sub.add_parser("export", help="write the .lcrs browser bundle")
    export.add_argument("checkpoint", type=Path)
    export.add_argument("output", type=Path)

    study = sub.add_parser("study", help="latency/communication study (no training)")
    study.add_argument("--samples", type=int, default=100)
    study.add_argument("--seed", type=int, default=0)

    from .runtime.network import FAULT_PROFILES, LINK_PRESETS

    session = sub.add_parser(
        "session", help="run a deployed session, optionally over a faulty link"
    )
    session.add_argument("checkpoint", type=Path)
    session.add_argument("--samples", type=int, default=100)
    session.add_argument("--seed", type=int, default=0)
    session.add_argument("--link", choices=sorted(LINK_PRESETS), default="4g")
    session.add_argument("--batch-size", type=int, default=None)
    session.add_argument(
        "--fault-profile", choices=sorted(FAULT_PROFILES), default="none",
        help="named fault-injection profile applied to the link",
    )
    session.add_argument("--drop", type=float, default=None, help="frame drop probability")
    session.add_argument("--timeout-prob", type=float, default=None, help="reply timeout probability")
    session.add_argument("--corrupt", type=float, default=None, help="frame corruption probability")
    session.add_argument("--duplicate", type=float, default=None, help="frame duplication probability")
    session.add_argument("--max-attempts", type=int, default=3)
    session.add_argument("--attempt-timeout-ms", type=float, default=1000.0)
    session.add_argument("--backoff-ms", type=float, default=50.0)
    session.add_argument(
        "--json", type=Path, default=None,
        help="write the session report (aggregate + per-sample costs "
        "incl. retry_ms/queue_ms) as JSON here",
    )

    scale = sub.add_parser(
        "scale", help="concurrent-session sweep through the edge scheduler"
    )
    scale.add_argument("checkpoint", type=Path)
    scale.add_argument(
        "--users", type=int, nargs="+", default=[1, 4, 16],
        help="concurrent session counts to sweep",
    )
    scale.add_argument(
        "--window-ms", type=float, nargs="+", default=[0.0, 4.0],
        help="dynamic batching windows (simulated ms) to sweep",
    )
    scale.add_argument("--max-batch", type=int, default=32)
    scale.add_argument("--queue-capacity", type=int, default=256)
    scale.add_argument(
        "--workers", type=int, default=1,
        help="simulated trunk workers on the shared edge (the M/M/c c)",
    )
    scale.add_argument(
        "--session-batch", type=int, default=4,
        help="frames per browser-side chunk (one miss frame each)",
    )
    scale.add_argument("--samples", type=int, default=32, help="frames per user")
    scale.add_argument(
        "--threshold", type=float, default=None,
        help="override the calibrated exit threshold tau (a well-calibrated "
        "system may exit ~everything locally and starve the scheduler; "
        "tighten tau to exercise the miss path)",
    )
    scale.add_argument("--seed", type=int, default=0)
    scale.add_argument(
        "--calibrate", action="store_true",
        help="fit the service model from measured trunk timings "
        "instead of the FLOPs-only profile",
    )
    scale.add_argument("--json", type=Path, default=None, help="also write JSON here")

    trace = sub.add_parser(
        "trace", help="trace a multi-session scheduler run and export the timeline"
    )
    trace.add_argument("checkpoint", type=Path)
    trace.add_argument("--users", type=int, default=2, help="concurrent sessions")
    trace.add_argument("--samples", type=int, default=16, help="frames per user")
    trace.add_argument(
        "--session-batch", type=int, default=4,
        help="frames per browser-side chunk (one trace per chunk)",
    )
    trace.add_argument(
        "--threshold", type=float, default=None,
        help="override the calibrated exit threshold tau (tighten it to "
        "force misses onto the traced edge path)",
    )
    trace.add_argument("--window-ms", type=float, default=4.0)
    trace.add_argument("--max-batch", type=int, default=32)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--format", choices=("chrome", "jsonl"), default="chrome",
        help="chrome: trace_event JSON for Perfetto/chrome://tracing; "
        "jsonl: one span object per line",
    )
    trace.add_argument(
        "--out", type=Path, default=Path("trace.json"),
        help="output path for the exported timeline",
    )

    fleet = sub.add_parser(
        "fleet", help="multi-shard fleet: capacity sweep, partition drill, planning"
    )
    fleet.add_argument("checkpoint", type=Path)
    fleet.add_argument(
        "--shards", type=int, nargs="+", default=[1, 2, 4],
        help="shard counts to sweep in the capacity burst",
    )
    fleet.add_argument(
        "--requests", type=int, default=48,
        help="burst requests (must divide by every shard count x workers)",
    )
    fleet.add_argument("--batch-size", type=int, default=4, help="samples per request")
    fleet.add_argument(
        "--workers", type=int, default=1, help="trunk workers per shard (M/M/c c)"
    )
    fleet.add_argument(
        "--partition", action="store_true",
        help="also run the mid-run shard-partition drill with live sessions",
    )
    fleet.add_argument(
        "--partition-sessions", type=int, default=4,
        help="concurrent sessions in the partition drill",
    )
    fleet.add_argument(
        "--partition-samples", type=int, default=16,
        help="frames per session in the partition drill",
    )
    fleet.add_argument(
        "--p99-ms", type=float, nargs="+", default=[10.0, 25.0, 50.0],
        help="p99 queueing-delay targets for the capacity-planning table",
    )
    fleet.add_argument(
        "--per-user-rps", type=float, default=1.0,
        help="miss-path sample arrivals per user per second",
    )
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--json", type=Path, default=None, help="also write JSON here")

    health = sub.add_parser(
        "health",
        help="run the monitored partition drill and print the fleet "
        "health snapshot (SLO report, burn-rate alerts) as JSON",
    )
    _add_slo_drill_args(health)
    health.add_argument(
        "--out", type=Path, default=None,
        help="also write the snapshot JSON here",
    )
    health.add_argument(
        "--prometheus", type=Path, default=None,
        help="also write the metrics registry in Prometheus text format here",
    )

    top = sub.add_parser(
        "top",
        help="live per-round fleet view (shard queue/busy/p99/budget "
        "plus firing alerts) over the monitored partition drill",
    )
    _add_slo_drill_args(top)
    top.add_argument(
        "--interval", type=float, default=0.0,
        help="wall seconds to hold each frame (0: print frames back to back)",
    )
    top.add_argument(
        "--no-ansi", action="store_true",
        help="do not clear the screen between frames (pipe-friendly)",
    )

    plan = sub.add_parser(
        "plan", help="compile and inspect the trace-compiled inference plans"
    )
    plan.add_argument("checkpoint", type=Path)
    plan.add_argument(
        "--batch", type=int, default=64,
        help="plan capacity: the largest batch the flat plans will replay",
    )
    plan.add_argument("--seed", type=int, default=0)
    plan.add_argument(
        "--json", type=Path, default=None,
        help="write the plan descriptions (steps, traced step times, arenas) as JSON here",
    )

    tau = sub.add_parser(
        "tau",
        help="open- vs closed-loop adaptive-τ overload drill "
        "(shed/latency/accuracy trade-off curve)",
    )
    tau.add_argument("checkpoint", type=Path)
    tau.add_argument(
        "--sessions", type=int, nargs="+", default=[2, 4, 8],
        help="arrival-rate levels: concurrent sessions per drill",
    )
    tau.add_argument(
        "--rounds", type=int, default=12,
        help="fleet rounds in the overload→drain stream",
    )
    tau.add_argument(
        "--batch-size", type=int, default=4,
        help="frames per browser-side chunk",
    )
    tau.add_argument(
        "--bases", type=int, default=1,
        help="ABC-Net binary bases in the branch (accuracy tiers the "
        "controller may step down)",
    )
    tau.add_argument(
        "--queue-capacity", type=int, default=24,
        help="shard admission queue (samples) — the overload cliff",
    )
    tau.add_argument(
        "--workers", type=int, default=1,
        help="trunk workers per shard (M/M/c c)",
    )
    tau.add_argument("--seed", type=int, default=0)
    tau.add_argument("--json", type=Path, default=None, help="also write JSON here")
    return parser


def _add_slo_drill_args(sub: argparse.ArgumentParser) -> None:
    """Shared flags for the SLO-monitored partition drill (health/top)."""
    sub.add_argument("checkpoint", type=Path)
    sub.add_argument("--sessions", type=int, default=4, help="concurrent sessions")
    sub.add_argument("--shards", type=int, default=2, help="fleet shard count")
    sub.add_argument("--samples", type=int, default=40, help="frames per session")
    sub.add_argument(
        "--partition-round", type=int, default=2,
        help="fleet round at which one shard is partitioned away",
    )
    sub.add_argument(
        "--heal-round", type=int, default=7,
        help="fleet round at which the shard heals and placement rebalances",
    )
    sub.add_argument(
        "--p99-ms", type=float, default=25.0,
        help="queue-wait p99 SLO threshold (simulated ms)",
    )
    sub.add_argument(
        "--availability", type=float, default=0.99,
        help="per-shard request availability objective",
    )
    sub.add_argument(
        "--fallback", type=float, default=0.05,
        help="max fleet-wide fallback fraction objective",
    )
    sub.add_argument("--seed", type=int, default=0)


def _load_drill_inputs(args: argparse.Namespace):
    system = load_system(args.checkpoint)
    if not system.dataset_name:
        print("checkpoint has no dataset name; cannot regenerate data", file=sys.stderr)
        return None
    _, test = make_dataset(
        system.dataset_name, 10, max(args.samples, 64), seed=args.seed
    )
    if system.calibration is None:
        system.calibrate(test)
    return system, test


def _cmd_health(args: argparse.Namespace) -> int:
    import json

    from .experiments import run_fleet_slo

    loaded = _load_drill_inputs(args)
    if loaded is None:
        return 2
    system, test = loaded
    result = run_fleet_slo(
        system,
        test.images[: args.samples],
        sessions=args.sessions,
        num_shards=args.shards,
        partition_round=args.partition_round,
        heal_round=args.heal_round,
        seed=args.seed,
        queue_wait_p99_ms=args.p99_ms,
        max_fallback_fraction=args.fallback,
        min_availability=args.availability,
    )
    snapshot = result.health
    print(json.dumps(snapshot, indent=2))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result.as_dict(), indent=2))
        print(f"wrote {args.out}", file=sys.stderr)
    if args.prometheus is not None:
        from .observability import prometheus_text

        args.prometheus.parent.mkdir(parents=True, exist_ok=True)
        args.prometheus.write_text(prometheus_text(result.registry))
        print(f"wrote {args.prometheus}", file=sys.stderr)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from .experiments import run_fleet_slo
    from .observability import render_fleet_top

    loaded = _load_drill_inputs(args)
    if loaded is None:
        return 2
    system, test = loaded
    clear = not args.no_ansi

    def frame(router, round_no: int) -> None:
        print(render_fleet_top(router.health().as_dict(), clear=clear))
        if args.interval > 0:
            time.sleep(args.interval)

    result = run_fleet_slo(
        system,
        test.images[: args.samples],
        sessions=args.sessions,
        num_shards=args.shards,
        partition_round=args.partition_round,
        heal_round=args.heal_round,
        seed=args.seed,
        queue_wait_p99_ms=args.p99_ms,
        max_fallback_fraction=args.fallback,
        min_availability=args.availability,
        on_round=frame,
    )
    fired = result.fired
    cleared = result.cleared
    print(
        f"drill complete: {result.samples} samples, "
        f"alerts fired={len(fired)} cleared={len(cleared)} "
        f"active={len(result.health['alerts'])}"
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    train, test = make_dataset(
        args.dataset, args.train_samples, args.test_samples, seed=args.seed
    )
    system = LCRS.build(
        args.network,
        train,
        training_config=JointTrainingConfig(
            epochs=args.epochs,
            lr_main=args.lr_main,
            lr_binary=args.lr_binary,
            seed=args.seed,
        ),
        dataset_name=args.dataset,
        seed=args.seed,
    )
    system.fit(train, test, verbose=True)
    system.calibrate(test)
    report = system.report(test)
    print(
        f"\n{report.network}/{report.dataset}: "
        f"M_Acc={100 * report.main_accuracy:.2f}% "
        f"B_Acc={100 * report.binary_accuracy:.2f}% "
        f"tau={report.threshold:.4f} exit={100 * report.exit_rate:.0f}% "
        f"sizes={report.main_size_mb:.3f}/{report.binary_size_mb:.4f}MB "
        f"({report.compression_ratio:.1f}x)"
    )
    if args.checkpoint is not None:
        path = save_system(system, args.checkpoint)
        print(f"checkpoint written: {path}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    system = load_system(args.checkpoint)
    if not system.dataset_name:
        print("checkpoint has no dataset name; cannot regenerate data", file=sys.stderr)
        return 2
    _, test = make_dataset(
        system.dataset_name, 10, args.test_samples, seed=args.seed
    )
    if system.calibration is None:
        system.calibrate(test)
    report = system.report(test)
    print(
        f"{report.network}/{report.dataset} (fresh draw, seed={args.seed}): "
        f"M_Acc={100 * report.main_accuracy:.2f}% "
        f"B_Acc={100 * report.binary_accuracy:.2f}% "
        f"collab={100 * report.collaborative_accuracy:.2f}% "
        f"exit={100 * report.exit_rate:.0f}%"
    )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .wasm import serialize_browser_bundle

    system = load_system(args.checkpoint)
    model = system.model
    payload = serialize_browser_bundle(
        model.browser_modules(),
        (model.in_channels, model.input_size, model.input_size),
        metadata={
            "network": model.base_name,
            "tau": system.calibration.threshold if system.calibration else None,
        },
    )
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_bytes(payload)
    print(f"wrote {len(payload):,} bytes to {args.output}")
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    from .experiments import run_figure6, run_figure7, run_latency_comparison

    comparison = run_latency_comparison(num_samples=args.samples, seed=args.seed)
    print(comparison.table2())
    print()
    print(comparison.table3())
    print()
    for line in comparison.shape_checks():
        print(line)
    print()
    print(run_figure6(seed=args.seed).render())
    print()
    print(run_figure7(seed=args.seed).render())
    return 0


def _cmd_session(args: argparse.Namespace) -> int:
    from .runtime import FAULT_COUNTERS, LCRSDeployment, RetryPolicy
    from .runtime.network import LINK_PRESETS, faulty

    system = load_system(args.checkpoint)
    if not system.dataset_name:
        print("checkpoint has no dataset name; cannot regenerate data", file=sys.stderr)
        return 2
    _, test = make_dataset(system.dataset_name, 10, args.samples, seed=args.seed)
    if system.calibration is None:
        system.calibrate(test)

    link = LINK_PRESETS[args.link](seed=args.seed)
    overrides = {
        key: value
        for key, value in (
            ("drop_prob", args.drop),
            ("timeout_prob", args.timeout_prob),
            ("corrupt_prob", args.corrupt),
            ("duplicate_prob", args.duplicate),
        )
        if value is not None
    }
    if args.fault_profile != "none" or overrides:
        link = faulty(link, args.fault_profile, seed=args.seed, **overrides)

    from .runtime import SessionConfig

    deployment = LCRSDeployment(
        system,
        link,
        retry_policy=RetryPolicy(
            max_attempts=args.max_attempts,
            per_attempt_timeout_ms=args.attempt_timeout_ms,
            backoff_base_ms=args.backoff_ms,
        ),
    )
    config = SessionConfig(
        batch_size=args.batch_size if args.batch_size is not None else 1
    )
    result = deployment.run_session(test.images, config=config)
    served = result.served_by_counts
    print(
        f"{system.model.base_name}/{system.dataset_name} over {link.name} "
        f"({args.samples} samples, seed={args.seed}):"
    )
    print(
        f"  accuracy={100 * result.accuracy(test.labels):.2f}% "
        f"exit={100 * result.exit_rate:.0f}% "
        f"fallback={100 * result.fallback_rate:.1f}% "
        f"mean_latency={result.mean_latency_ms:.1f}ms "
        f"mean_attempts={result.mean_attempts:.2f}"
    )
    print(
        "  served_by: "
        + " ".join(f"{name}={count}" for name, count in sorted(served.items()))
    )
    counters = {
        name: deployment.registry.counter(f"fault.{name}").value
        for name in FAULT_COUNTERS
    }
    print(
        "  link: "
        + " ".join(f"{name}={value}" for name, value in counters.items())
    )
    if args.json is not None:
        import json

        record = {
            "network": system.model.base_name,
            "dataset": system.dataset_name,
            "link": link.name,
            "samples": args.samples,
            "seed": args.seed,
            "accuracy": result.accuracy(test.labels),
            "exit_rate": result.exit_rate,
            "fallback_rate": result.fallback_rate,
            "mean_latency_ms": result.mean_latency_ms,
            "mean_attempts": result.mean_attempts,
            "mean_retry_ms": result.trace.mean_retry_ms,
            "mean_queue_ms": result.trace.mean_queue_ms,
            "served_by": served,
            "fault_counters": counters,
            "per_sample": [
                {
                    "index": o.index,
                    "served_by": o.served_by,
                    "attempts": o.attempts,
                    "total_ms": o.cost.total_ms,
                    "retry_ms": o.cost.retry_ms,
                    "queue_ms": o.cost.queue_ms,
                }
                for o in result.outcomes
            ],
        }
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(record, indent=2))
        print(f"wrote {args.json}")
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    import json

    from .experiments import ConcurrencySweepConfig, run_concurrency
    from .runtime import SessionConfig, measure_service_model

    system = load_system(args.checkpoint)
    if not system.dataset_name:
        print("checkpoint has no dataset name; cannot regenerate data", file=sys.stderr)
        return 2
    _, test = make_dataset(system.dataset_name, 10, args.samples, seed=args.seed)
    if system.calibration is None:
        system.calibrate(test)

    service_model = None
    if args.calibrate:
        service_model = measure_service_model(
            system.model.main_trunk, system.model.stem_output_shape, seed=args.seed
        )
        print(
            f"calibrated service model: base={service_model.base_ms:.3f}ms "
            f"per_sample={service_model.per_sample_ms:.4f}ms"
        )

    result = run_concurrency(
        system,
        test.images[: args.samples],
        config=ConcurrencySweepConfig(
            users=tuple(args.users),
            windows_ms=tuple(args.window_ms),
            max_batch_size=args.max_batch,
            queue_capacity=args.queue_capacity,
            session_config=SessionConfig(
                batch_size=args.session_batch, threshold=args.threshold
            ),
            seed=args.seed,
            num_workers=args.workers,
        ),
        service_model=service_model,
    )
    print(
        f"{result.network}: {args.samples} frames/user, "
        f"session batch {result.session_batch_size}, workers {args.workers}"
    )
    print(
        f"{'users':>5} {'window':>7} {'maxb':>5} {'tput(r/s)':>10} "
        f"{'batch':>6} {'qwait':>7} {'shed':>6} {'fallback':>8}"
    )
    for p in result.points:
        print(
            f"{p.users:>5} {p.window_ms:>7.1f} {p.max_batch_size:>5} "
            f"{p.throughput_rps:>10.0f} {p.mean_batch_size:>6.2f} "
            f"{p.mean_queue_wait_ms:>7.2f} {p.shed_rate:>6.3f} "
            f"{p.fallback_rate:>8.3f}"
        )
    for users in args.users:
        for window in args.window_ms:
            speedup = result.speedup(users, window, args.max_batch)
            print(
                f"speedup vs per-request @ users={users} window={window}: "
                f"{speedup:.2f}x"
            )
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(result.as_dict(), indent=2))
        print(f"wrote {args.json}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .observability import Tracer, write_chrome_trace, write_jsonl
    from .runtime import LCRSDeployment, SessionConfig
    from .runtime.network import four_g
    from .runtime.scheduler import (
        EdgeScheduler,
        SchedulerConfig,
        run_concurrent_sessions,
    )

    system = load_system(args.checkpoint)
    if not system.dataset_name:
        print("checkpoint has no dataset name; cannot regenerate data", file=sys.stderr)
        return 2
    _, test = make_dataset(system.dataset_name, 10, args.samples, seed=args.seed)
    if system.calibration is None:
        system.calibrate(test)

    deployments = [
        LCRSDeployment(system, four_g(seed=args.seed * 10_000 + i))
        for i in range(args.users)
    ]
    scheduler = EdgeScheduler.for_system(
        system,
        config=SchedulerConfig(window_ms=args.window_ms, max_batch_size=args.max_batch),
    )
    tracer = Tracer()
    results = run_concurrent_sessions(
        deployments,
        [test.images[: args.samples]] * args.users,
        scheduler,
        config=SessionConfig(batch_size=args.session_batch, threshold=args.threshold),
        recorder=tracer,
    )

    summary = tracer.summary()
    print(
        f"{system.model.base_name}/{system.dataset_name}: {args.users} users x "
        f"{args.samples} frames, session batch {args.session_batch}"
    )
    print(
        f"  traces={summary.traces} spans={summary.spans} "
        f"exit={sum(r.exit_rate for r in results) / len(results):.2f} "
        f"batches={scheduler.health()['batches']}"
    )
    for name in sorted(summary.by_name):
        stat = summary.by_name[name]
        sim = stat.get("sim_ms")
        sim_part = f" sim={sim:8.2f}ms" if sim is not None else ""
        print(f"  {name:<16} x{stat['count']:<4}{sim_part}")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    if args.format == "chrome":
        write_chrome_trace(tracer, args.out)
        print(f"wrote {args.out} (load in Perfetto or chrome://tracing)")
    else:
        write_jsonl(tracer, args.out)
        print(f"wrote {args.out} (one span per line)")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json

    from .experiments import (
        capacity_planning_table,
        render_capacity_table,
        run_capacity_sweep,
        run_fleet_partition,
    )
    from .profiling.layer_stats import NetworkProfile
    from .runtime import ServiceTimeModel

    system = load_system(args.checkpoint)
    if not system.dataset_name:
        print("checkpoint has no dataset name; cannot regenerate data", file=sys.stderr)
        return 2
    need = args.requests * args.batch_size
    _, test = make_dataset(system.dataset_name, 10, max(need, 64), seed=args.seed)
    if system.calibration is None:
        system.calibrate(test)

    capacity = run_capacity_sweep(
        system,
        test.images,
        shards=tuple(args.shards),
        workers=(args.workers,),
        requests=args.requests,
        batch_size=args.batch_size,
    )
    print(
        f"{capacity.network}: {args.requests} requests x {args.batch_size} samples, "
        f"{args.workers} worker(s)/shard"
    )
    print(
        f"{'shards':>6} {'makespan':>9} {'tput(s/s)':>10} {'speedup':>8} "
        f"{'shard/MMc':>9} {'fleet/MMcN':>10} {'identical':>9}"
    )
    for p in capacity.points:
        print(
            f"{p.shards:>6} {p.makespan_ms:>9.2f} {p.throughput_rps:>10.0f} "
            f"{p.speedup:>8.2f} {p.worst_shard_ratio:>9.2f} "
            f"{p.capacity_ratio:>10.2f} {str(p.bit_identical):>9}"
        )

    records: dict[str, object] = {"capacity": capacity.as_dict()}

    if args.partition:
        drill = run_fleet_partition(
            system,
            test.images[: args.partition_samples],
            sessions=args.partition_sessions,
            seed=args.seed,
        )
        print(
            f"\npartition drill: shard {drill.partitioned_shard} killed at round "
            f"{drill.partition_round} under {drill.sessions} sessions"
        )
        print(
            f"  served_by={drill.served_by} rerouted={drill.sessions_rerouted} "
            f"tickets_lost={drill.tickets_lost} "
            f"all_served={drill.all_samples_served}"
        )
        records["partition"] = drill.as_dict()

    service_model = ServiceTimeModel.from_profile(
        NetworkProfile.of(system.model.main_trunk, system.model.stem_output_shape)
    )
    rows = capacity_planning_table(
        service_model,
        shard_counts=tuple(args.shards),
        p99_targets_ms=tuple(args.p99_ms),
        workers_per_shard=args.workers,
        batch_size=args.batch_size,
        per_user_rps=args.per_user_rps,
    )
    print("\ncapacity planning (users servable at p99 queueing <= target):")
    print(render_capacity_table(rows))
    records["planning"] = [r.as_dict() for r in rows]

    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(records, indent=2))
        print(f"\nwrote {args.json}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    import numpy as np

    from .nn.autograd import Tensor, no_grad
    from .wasm import (
        ModelFormatError,
        WasmModel,
        backend_available,
        backend_error,
        load_trunk_engine,
        profile_plan,
        serialize_browser_bundle,
    )

    system = load_system(args.checkpoint)
    model = system.model
    input_shape = (model.in_channels, model.input_size, model.input_size)
    stem_shape = model.stem_output_shape
    stem_engine = WasmModel.load(serialize_browser_bundle(model.stem, input_shape))
    branch_engine = WasmModel.load(
        serialize_browser_bundle(model.binary_branch, stem_shape)
    )
    try:
        trunk_engine = load_trunk_engine(model.main_trunk, stem_shape)
    except ModelFormatError as exc:
        trunk_engine = None
        print(f"trunk: not serializable ({exc}); the edge runs the module")

    print(
        f"{model.base_name}: C kernel backend "
        + ("available" if backend_available() else f"unavailable ({backend_error()})")
    )
    rng = np.random.default_rng(args.seed)
    probe = rng.standard_normal((args.batch, *input_shape)).astype(np.float32)
    stem_out = stem_engine.forward(probe)

    records: dict[str, object] = {"network": model.base_name, "capacity": args.batch}
    targets = [
        ("stem", stem_engine, probe),
        ("binary_branch", branch_engine, stem_out),
        ("trunk", trunk_engine, stem_out),
    ]
    for name, engine, x in targets:
        plan = engine.plan_for(args.batch) if engine is not None else None
        if plan is None:
            print(f"\n{name}: no compiled plan (interpreter fallback)")
            records[name] = None
            continue
        out, desc = profile_plan(plan, x)
        record = {**desc, "bit_identical": bool(np.array_equal(out, engine.forward(x)))}
        if name == "trunk":
            # The edge trunk's distance from the training framework's
            # module, which validate_bundle bounds at 1e-3.
            model.main_trunk.eval()
            with no_grad():
                ref = model.main_trunk(Tensor(x)).data
            record["max_abs_vs_module"] = float(np.max(np.abs(out - ref)))
        _print_plan(name, record)
        records[name] = record

    if args.json is not None:
        import json

        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(records, indent=2))
        print(f"\nwrote {args.json}")
    return 0


def _print_plan(name: str, desc: dict) -> None:
    vs_module = (
        f", max_abs_vs_module={desc['max_abs_vs_module']:.2e}"
        if "max_abs_vs_module" in desc else ""
    )
    print(
        f"\n{name}: {desc['num_steps']} fused steps, capacity {desc['capacity']}, "
        f"arena {desc['arena_bytes'] / 1e6:.2f}MB, "
        f"tier {desc['tier'] or 'first'}, bit_identical={desc['bit_identical']}"
        f"{vs_module}"
    )
    for step in desc["steps"]:
        print(
            f"  step[{step['index']}] {step['name']:<40} "
            f"runners={step['runners']} wall={step['wall_ms']:.3f}ms"
        )
        if step["kernels"]:
            print(f"      kernels: {' '.join(step['kernels'])}")


def _cmd_tau(args: argparse.Namespace) -> int:
    import json

    from .experiments import run_adaptive_tau

    system = load_system(args.checkpoint)
    if not system.dataset_name:
        print("checkpoint has no dataset name; cannot regenerate data", file=sys.stderr)
        return 2
    need = args.rounds * args.batch_size
    _, test = make_dataset(system.dataset_name, 10, max(need, 64), seed=args.seed)
    if system.calibration is None:
        system.calibrate(test)

    result = run_adaptive_tau(
        system,
        test.images,
        test.labels,
        session_levels=tuple(args.sessions),
        rounds=args.rounds,
        batch_size=args.batch_size,
        num_bases=args.bases,
        queue_capacity=args.queue_capacity,
        num_workers=args.workers,
        seed=args.seed,
    )
    print(
        f"{result.network}: adaptive τ drill, static τ={result.static_tau:.3f}, "
        f"{result.samples_per_session} frames/session, {args.bases} base(s), "
        f"queue={args.queue_capacity}"
    )
    print(
        f"{'sessions':>8} {'loop':>7} {'shed%':>7} {'p99wait':>9} "
        f"{'exit%':>7} {'acc':>6} {'lat(ms)':>8} {'adjusts':>7}"
    )
    for p in result.points:
        acc = "-" if p.accuracy is None else f"{p.accuracy:.3f}"
        print(
            f"{p.sessions:>8} {'closed' if p.controller else 'open':>7} "
            f"{100 * p.shed_rate:>6.1f}% {p.p99_queue_wait_ms:>9.2f} "
            f"{100 * p.exit_rate:>6.1f}% {acc:>6} {p.mean_latency_ms:>8.1f} "
            f"{len(p.adjustments):>7}"
        )
    head = result.headline
    print(
        f"\nheadline @ {int(head['peak_sessions'])} sessions: "
        f"static sheds {100 * head['static_shed_rate']:.1f}% of attempts "
        f"(p99 wait {head['static_p99_wait_ms']:.0f}ms); closed loop sheds "
        f"{100 * head['closed_shed_rate']:.1f}% (p99 wait "
        f"{head['closed_p99_wait_ms']:.0f}ms) in {int(head['tau_adjustments'])} "
        f"adjustments"
    )
    if "accuracy_drop" in head:
        print(
            f"accuracy: static {head['static_accuracy']:.3f} -> closed "
            f"{head['closed_accuracy']:.3f} (drop {head['accuracy_drop']:.3f})"
        )
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(result.as_dict(), indent=2))
        print(f"\nwrote {args.json}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "export": _cmd_export,
    "study": _cmd_study,
    "session": _cmd_session,
    "scale": _cmd_scale,
    "trace": _cmd_trace,
    "fleet": _cmd_fleet,
    "health": _cmd_health,
    "top": _cmd_top,
    "plan": _cmd_plan,
    "tau": _cmd_tau,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)
