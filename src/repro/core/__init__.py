"""Core LCRS contribution: composite network, joint training, exit policy."""

from .checkpoint import CheckpointError, load_system, save_system
from .composite import (
    BinaryBranchConfig,
    CompositeNetwork,
    build_binary_branch,
    build_quantized_branch,
)
from .exit_criteria import (
    EXIT_CRITERIA,
    calibrate_criterion,
    compare_criteria,
    entropy_criterion,
    get_criterion,
    margin_criterion,
    max_probability_criterion,
)
from .entropy import (
    ThresholdCalibration,
    calibrate_threshold,
    exit_statistics,
    normalized_entropy,
)
from .inference import (
    CollaborativePredictor,
    ExitRecord,
    InferenceResult,
    branch_entropies,
)
from .system import DEFAULT_BRANCH_CONFIGS, LCRS, SystemReport
from .training import (
    EpochStats,
    JointTrainer,
    JointTrainingConfig,
    TrainingHistory,
)

__all__ = [
    "BinaryBranchConfig",
    "CheckpointError",
    "EXIT_CRITERIA",
    "CollaborativePredictor",
    "CompositeNetwork",
    "DEFAULT_BRANCH_CONFIGS",
    "EpochStats",
    "ExitRecord",
    "InferenceResult",
    "JointTrainer",
    "JointTrainingConfig",
    "LCRS",
    "SystemReport",
    "ThresholdCalibration",
    "TrainingHistory",
    "branch_entropies",
    "build_binary_branch",
    "build_quantized_branch",
    "calibrate_criterion",
    "calibrate_threshold",
    "compare_criteria",
    "entropy_criterion",
    "exit_statistics",
    "get_criterion",
    "load_system",
    "margin_criterion",
    "max_probability_criterion",
    "normalized_entropy",
    "save_system",
]
