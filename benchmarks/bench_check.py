"""Regression gate over the committed ``BENCH_*.json`` headline ratios.

The bench harnesses (``make bench-plan`` / ``bench-par`` / ``bench-fleet``)
write their results to ``BENCH_<name>.json`` at the repo root.  Those
files are committed, so their headlines double as a contract: this
script re-reads them and fails (exit 1) if any headline has slipped
under its floor.  It never *runs* a benchmark — it only checks what the
last run recorded — so it is cheap enough to sit in ``make verify``.

Each file carries a ``clock`` tag: ``"wall"`` for measured wall time,
``"sim"`` for the simulated clock.  A check on the simulated clock is a
model check, and the two capacity ratios below hold by construction of
the model (c workers or shards serve c times one), so they are gated as
*model identities*, never reported as speed-ups.

Floors (mirroring the claims in DESIGN.md):

* ``BENCH_plan.json``     — ``session.speedup``        >= 3.0x, wall
  (trace-compiled plans vs the interpreter on the session hot path).
* ``BENCH_parallel.json`` — ``results.worker_scaling.headline
  .speedup_vs_serial``    >= 2.5x, sim: the 4-worker capacity ratio, a
  model identity.  The c workers are simulated lanes and the program
  runs on the caller's thread, so no wall-clock worker speedup is gated.
* ``BENCH_fleet.json``    — ``results.headline_speedup`` >= 3.0x, sim:
  the 4-shard to 1-shard capacity ratio, a model identity.
* ``BENCH_adaptive.json`` — ``results.headline_shed_margin`` >= 0.10
  (at peak load the closed-loop τ controller sheds at least ten points
  fewer admission attempts than the static-τ fleet), plus the wait
  relief (>= 3x) and retained-accuracy (>= 0.9) side contracts.

``--dry-run`` tolerates *missing* files (a fresh clone that has not run
the benches yet still verifies) but still fails on a regression in any
file that is present.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parent.parent


def _dig(payload: dict, path: str):
    node = payload
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


class HeadlineCheck:
    """One (file, json-path, floor) contract."""

    def __init__(
        self,
        filename: str,
        path: str,
        floor: float,
        label: str,
        clock: str,
    ) -> None:
        self.filename = filename
        self.path = path
        self.floor = floor
        self.label = label
        #: "wall" (measured) or "sim" (simulated clock: a model check)
        self.clock = clock

    def run(self, root: Path) -> tuple[str, str]:
        """Returns (status, message); status in {ok, missing, fail}."""
        file = root / self.filename
        if not file.exists():
            return "missing", f"{self.filename}: not found"
        try:
            payload = json.loads(file.read_text())
        except ValueError as exc:
            return "fail", f"{self.filename}: unreadable JSON ({exc})"
        value = _dig(payload, self.path)
        if not isinstance(value, (int, float)):
            return "fail", f"{self.filename}: no numeric value at {self.path}"
        if value < self.floor:
            return "fail", (
                f"{self.filename} [{self.clock}]: {self.label} = {value:.3f}x "
                f"REGRESSED below floor {self.floor:.1f}x"
            )
        return "ok", (
            f"{self.filename} [{self.clock}]: {self.label} = {value:.3f}x "
            f"(floor {self.floor:.1f}x)"
        )


CHECKS = [
    HeadlineCheck(
        "BENCH_plan.json",
        "session.speedup",
        3.0,
        "compiled-plan session speedup",
        "wall",
    ),
    HeadlineCheck(
        "BENCH_parallel.json",
        "results.worker_scaling.headline.speedup_vs_serial",
        2.5,
        "4-worker capacity ratio (model identity)",
        "sim",
    ),
    HeadlineCheck(
        "BENCH_fleet.json",
        "results.headline_speedup",
        3.0,
        "4-shard fleet capacity ratio (model identity)",
        "sim",
    ),
    HeadlineCheck(
        "BENCH_adaptive.json",
        "results.headline_shed_margin",
        0.10,
        "closed-loop shed-rate margin over static τ",
        "sim",
    ),
    HeadlineCheck(
        "BENCH_adaptive.json",
        "results.checks.wait_relief",
        3.0,
        "closed-loop p99 queue-wait relief",
        "sim",
    ),
    HeadlineCheck(
        "BENCH_adaptive.json",
        "results.checks.accuracy_retained",
        0.9,
        "closed-loop retained accuracy",
        "sim",
    ),
]


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dry-run", action="store_true",
        help="tolerate missing BENCH files (regressions still fail)",
    )
    parser.add_argument(
        "--root", type=Path, default=REPO_ROOT,
        help="directory holding the BENCH_*.json files",
    )
    args = parser.parse_args(argv)

    failures = 0
    for check in CHECKS:
        status, message = check.run(args.root)
        if status == "fail" or (status == "missing" and not args.dry_run):
            failures += 1
            print(f"FAIL  {message}")
        else:
            print(f"{status:<5} {message}")
    if failures:
        print(f"bench-check: {failures} failure(s)")
        return 1
    print("bench-check: all headline floors hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
