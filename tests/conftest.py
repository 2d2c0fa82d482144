"""Shared fixtures: tiny datasets and a trained LCRS system.

Expensive artifacts (the trained system) are session-scoped so the
integration tests share one joint-training run.

The one Hypothesis profile for the suite is registered here.  ``tier1``
(the default) is derandomized and keeps no example database, so every
run draws the same examples; a counterexample worth keeping is committed
as an explicit ``@example``.  ``fuzz`` is the randomized exploratory
profile behind ``make fuzz`` (``--hypothesis-profile=fuzz``).  A module
that needs a different example count sets it per test with
``@settings(max_examples=...)``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core import LCRS, JointTrainingConfig
from repro.data import ArrayDataset, make_dataset
from repro.profiling import counters_scope

settings.register_profile(
    "tier1", max_examples=25, deadline=None, derandomize=True, database=None
)
settings.register_profile("fuzz", max_examples=500, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def _isolated_counters():
    """Snapshot/restore the process-global counter state around each test.

    Counters (fault/scheduler facades, the global metrics registry, the
    bitpack byte tally) are process-global by design; without this scope
    a test that bumps them leaks state into whichever test runs next.
    """
    with counters_scope():
        yield


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_mnist() -> tuple[ArrayDataset, ArrayDataset]:
    """Small synthetic MNIST-like split shared across tests."""
    return make_dataset("mnist", 300, 120, seed=7)


@pytest.fixture(scope="session")
def tiny_cifar() -> tuple[ArrayDataset, ArrayDataset]:
    return make_dataset("cifar10", 200, 80, seed=7)


@pytest.fixture(scope="session")
def trained_system(tiny_mnist) -> LCRS:
    """A LeNet LCRS joint-trained on the tiny MNIST split and calibrated."""
    train, test = tiny_mnist
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
