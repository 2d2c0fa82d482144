"""Golden adaptive-τ drill: a frozen overload→drain run, on and off loop.

The fixture (``tests/golden/adaptive_tau_trace.json``) freezes what the
tiny LeNet fleet did on the seeded overload drill — the per-round
τ/tier trajectories, every controller action in order, the shed count,
who served each sample, and a digest of all session predictions — once
with the controller off (the static-τ baseline every PR inherits) and
once with an aggressive closed-loop policy whose low ``tau_max`` pins τ
immediately so the tier-down/tier-up path is exercised too.  The drill
runs on ``golden_system``, the committed one-thread checkpoint of the
suite's recipe: with weights trained on the host's BLAS, the closed loop
takes different actions from host to host.

Any drift — a controller-policy change, a scheduler reorder, a tier
pricing change, a kernel tweak in the tiered branch — fails here with a
field-level diff.  To regenerate after an intentional behaviour
change (this retrains the checkpoint at ``OPENBLAS_NUM_THREADS=1``
first)::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_golden_tau.py
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.experiments import build_overload_stream, run_tau_drill
from repro.runtime import TauControlConfig
from repro.runtime.tau_control import ACTION_RAISE_TAU, ACTION_TIER_DOWN

GOLDEN = Path(__file__).parent / "golden" / "adaptive_tau_trace.json"
NUM_BASES = 3
SESSIONS = 6
ROUNDS = 12
BATCH_SIZE = 4

pytestmark = [pytest.mark.tau, pytest.mark.slow]


def drill_control(static_tau: float) -> TauControlConfig:
    """Low ``tau_max`` pins τ fast, so the golden run reaches tier-down."""
    return TauControlConfig(
        tau_min=static_tau,
        tau_max=static_tau + 0.02,
        tau_initial=static_tau,
        step_up=0.02,
        step_down=0.01,
        target_wait_ms=2.0,
        low_wait_ms=0.5,
        hold_rounds=1,
        cooldown_rounds=0,
        window_ms=40.0,
        tier_hold_rounds=1,
    )


def _prediction_digest(predictions) -> str:
    h = hashlib.sha256()
    for session in predictions:
        for p in session:
            h.update(f"{int(p)};".encode())
    return h.hexdigest()


def _drill_record(result) -> dict:
    return {
        "controller": result.controller,
        "shed_samples": result.shed_samples,
        "rounds": result.rounds,
        "tau_trajectory": [
            [round(t, 6) for t in row] for row in result.tau_trajectory
        ],
        "tier_trajectory": [list(row) for row in result.tier_trajectory],
        "actions": [
            [a["shard"], a["action"], round(a["tau"], 6), a["quality_tier"]]
            for a in result.adjustments
        ],
        "served_by": {k: result.served_by[k] for k in sorted(result.served_by)},
        "prediction_digest": _prediction_digest(result.predictions),
    }


@pytest.fixture(scope="module")
def drill_records(golden_system, tiny_mnist) -> dict:
    _, test = tiny_mnist
    stream = build_overload_stream(
        golden_system,
        test.images,
        test.labels,
        batch_size=BATCH_SIZE,
        rounds=ROUNDS,
        num_bases=NUM_BASES,
    )
    runs = {
        mode: run_tau_drill(
            golden_system,
            stream,
            controller=on,
            sessions=SESSIONS,
            num_bases=NUM_BASES,
            control=drill_control(stream.static_tau),
            seed=0,
        )
        for mode, on in (("static", False), ("closed", True))
    }
    return {
        "network": golden_system.model.base_name,
        "static_tau": round(stream.static_tau, 6),
        "miss_plan": list(stream.miss_plan),
        "static": _drill_record(runs["static"]),
        "closed": _drill_record(runs["closed"]),
    }


@pytest.fixture(autouse=True)
def _maybe_regenerate(request):
    """With REPRO_REGEN_GOLDEN set, rewrite the fixture before checking."""
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        record = request.getfixturevalue("drill_records")
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(record, indent=2) + "\n")


class TestGoldenTauTrace:
    def test_fixture_committed(self):
        assert GOLDEN.exists(), (
            f"{GOLDEN} missing — regenerate with REPRO_REGEN_GOLDEN=1 "
            "python -m pytest tests/test_golden_tau.py"
        )

    def test_drill_matches_golden(self, drill_records):
        golden = json.loads(GOLDEN.read_text())
        assert drill_records == golden

    def test_trace_exercises_the_loop(self, drill_records):
        """A golden drill that never acts (or never degrades) pins
        nothing: the closed run must raise τ, step a tier down, and the
        static run must shed where the closed run does not."""
        static, closed = drill_records["static"], drill_records["closed"]
        assert static["actions"] == []
        assert all(
            row == [drill_records["static_tau"]]
            for row in static["tau_trajectory"]
        )
        fired = [a[1] for a in closed["actions"]]
        assert ACTION_RAISE_TAU in fired
        assert ACTION_TIER_DOWN in fired
        assert min(t for row in closed["tier_trajectory"] for t in row) < NUM_BASES
        # Shed-free at this load — the shed contrast under real overload
        # is asserted by the drill integration test and the bench gate.
        assert static["shed_samples"] == closed["shed_samples"] == 0
