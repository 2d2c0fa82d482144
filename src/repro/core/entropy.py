"""Normalized entropy exit criterion and threshold calibration.

Equation 7 of the paper: for a softmax vector **x** over |C| classes,

    S(x) = − Σ_i  x_i · log(x_i) / log|C|    ∈ [0, 1]

A sample exits from the binary branch when ``S(x) < τ``.  The paper picks
τ per network/dataset "in the same way" as BranchyNet — by screening
candidate thresholds on held-out data and choosing the one that satisfies
the application's accuracy constraint; :func:`calibrate_threshold`
implements that screening.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


def normalized_entropy(probs: np.ndarray, axis: int = -1) -> np.ndarray:
    """Eq. 7: entropy normalized to [0, 1] by log|C|.

    Accepts a single probability vector or a batch; zero probabilities
    contribute zero (the 0·log 0 → 0 convention).
    """
    probs = np.asarray(probs, dtype=np.float64)
    num_classes = probs.shape[axis]
    if num_classes < 2:
        raise ValueError("entropy needs at least two classes")
    safe = np.where(probs > 0, probs, 1.0)
    ent = -(probs * np.log(safe)).sum(axis=axis)
    return ent / np.log(num_classes)


def softmax_entropy(logits: np.ndarray, log_classes: Optional[float] = None) -> np.ndarray:
    """Eq. 7 of the softmax of each row of an ``(N, |C|)`` logit batch.

    Bit for bit ``normalized_entropy(softmax(logits, axis=1), axis=1)``
    (the reference): the same ufuncs on the same values in the same
    order and layout, in fewer calls and temporaries.  The softmax runs
    in one buffer, the log skips ``p <= 0`` (and NaN) through ``where=``
    into zeros instead of a ``np.where`` copy, the products and row sums
    reuse buffers, and every ufunc takes its output positionally (a
    keyword ``out=`` costs about 0.2 us a call to parse).
    ``log_classes`` is ``np.log(|C|)``, for a caller that gates every
    batch of one branch and keeps it.
    """
    num_classes = logits.shape[1]
    if num_classes < 2:
        raise ValueError("entropy needs at least two classes")
    if log_classes is None:
        log_classes = np.log(num_classes)
    probs = np.subtract(logits, np.maximum.reduce(logits, 1, None, None, True))
    np.exp(probs, probs)
    np.divide(probs, np.add.reduce(probs, 1, None, None, True), probs)
    probs = probs.astype(np.float64, copy=False)
    terms = np.zeros(probs.shape)
    np.log(probs, terms, where=np.greater(probs, 0.0))
    np.multiply(probs, terms, terms)
    ent = np.add.reduce(terms, 1)
    # Negate, then divide: dividing by -log|C| gives the same numbers but
    # flips the sign bit of a NaN row's entropy.
    np.negative(ent, ent)
    np.divide(ent, log_classes, ent)
    return ent


@dataclass(frozen=True)
class ThresholdCalibration:
    """Outcome of a BranchyNet-style τ screening."""

    threshold: float
    exit_rate: float
    exit_accuracy: float
    overall_accuracy: float
    candidates_screened: int


def exit_statistics(
    entropies: np.ndarray,
    binary_correct: np.ndarray,
    main_correct: np.ndarray,
    threshold: float,
) -> tuple[float, float, float]:
    """Return (exit_rate, exit_accuracy, overall_accuracy) for one τ.

    Samples with entropy < τ take the binary branch's answer; the rest
    fall through to the main branch (the collaborative path).
    """
    exits = entropies < threshold
    exit_rate = float(exits.mean()) if len(exits) else 0.0
    if exits.any():
        exit_accuracy = float(binary_correct[exits].mean())
    else:
        exit_accuracy = 1.0
    overall = np.where(exits, binary_correct, main_correct)
    return exit_rate, exit_accuracy, float(overall.mean())


def calibrate_threshold(
    entropies: np.ndarray,
    binary_correct: np.ndarray,
    main_correct: np.ndarray,
    min_overall_accuracy: Optional[float] = None,
    accuracy_tolerance: float = 0.02,
    candidates: Optional[Sequence[float]] = None,
) -> ThresholdCalibration:
    """Screen candidate thresholds and pick the best τ (BranchyNet style).

    The objective is the paper's: exit as many samples as possible from
    the binary branch while keeping overall accuracy within
    ``accuracy_tolerance`` of the main branch (or above an explicit
    ``min_overall_accuracy`` floor when given).

    Parameters
    ----------
    entropies:
        Normalized entropies of the binary branch on calibration data.
    binary_correct / main_correct:
        Boolean per-sample correctness of each branch.
    """
    entropies = np.asarray(entropies, dtype=np.float64)
    binary_correct = np.asarray(binary_correct, dtype=bool)
    main_correct = np.asarray(main_correct, dtype=bool)
    if not (len(entropies) == len(binary_correct) == len(main_correct)):
        raise ValueError("calibration arrays must have equal length")

    main_accuracy = float(main_correct.mean())
    floor = (
        min_overall_accuracy
        if min_overall_accuracy is not None
        else main_accuracy - accuracy_tolerance
    )

    if candidates is None:
        # Candidate grid: the observed entropy quantiles plus a log sweep,
        # so both very strict (1e-4, LeNet in Table I) and loose (0.05,
        # VGG16) regimes are reachable.
        quantiles = np.quantile(entropies, np.linspace(0.01, 0.99, 50))
        log_sweep = np.logspace(-5, 0, 40)
        candidates = np.unique(np.concatenate([quantiles, log_sweep]))

    best: Optional[ThresholdCalibration] = None
    for tau in candidates:
        exit_rate, exit_acc, overall = exit_statistics(
            entropies, binary_correct, main_correct, float(tau)
        )
        if overall < floor:
            continue
        if best is None or exit_rate > best.exit_rate:
            best = ThresholdCalibration(
                threshold=float(tau),
                exit_rate=exit_rate,
                exit_accuracy=exit_acc,
                overall_accuracy=overall,
                candidates_screened=len(candidates),
            )

    if best is None:
        # No candidate satisfies the constraint: fall back to the
        # strictest threshold (exit almost nothing) — the system is then
        # effectively edge-only but never *less* accurate than required.
        tau = float(np.min(candidates))
        exit_rate, exit_acc, overall = exit_statistics(
            entropies, binary_correct, main_correct, tau
        )
        best = ThresholdCalibration(
            threshold=tau,
            exit_rate=exit_rate,
            exit_accuracy=exit_acc,
            overall_accuracy=overall,
            candidates_screened=len(candidates),
        )
    return best
