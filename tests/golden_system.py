"""The tiny LeNet LCRS recipe behind ``trained_system`` and the golden suites.

``trained_system`` (``conftest.py``) trains this recipe once per test
session.  The golden suites instead load a committed checkpoint of it,
``tests/golden/lenet_system.npz``: training runs on the host's BLAS, whose
CPU kernels and thread count move the trained weights' low bits, and the
closed-loop τ drill amplifies those bits into different controller
actions.  The checkpoint was trained with one OpenBLAS thread; rewrite it
(only after an intentional change to the recipe or the training code) with::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m tests.golden_system

which is what ``REPRO_REGEN_GOLDEN=1`` runs in a subprocess.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.core import LCRS, JointTrainingConfig
from repro.data import make_dataset

GOLDEN_SYSTEM = Path(__file__).parent / "golden" / "lenet_system.npz"


def tiny_mnist_split():
    """The small synthetic MNIST-like split the suite shares."""
    return make_dataset("mnist", 300, 120, seed=7)


def train_system(train, test) -> LCRS:
    """A LeNet LCRS joint-trained on the tiny MNIST split and calibrated."""
    system = LCRS.build(
        "lenet",
        train,
        training_config=JointTrainingConfig(
            epochs=5, batch_size=64, lr_main=2e-3, seed=0
        ),
        dataset_name="mnist",
        seed=0,
    )
    system.fit(train)
    system.calibrate(test)
    return system


def main(argv: list[str]) -> None:
    from repro.core import save_system

    path = Path(argv[0]) if argv else GOLDEN_SYSTEM
    print(save_system(train_system(*tiny_mnist_split()), path))


if __name__ == "__main__":
    main(sys.argv[1:])
