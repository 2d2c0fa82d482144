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

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from repro.core import LCRS, load_system
from repro.data import ArrayDataset, make_dataset
from repro.wasm import bitpack

from .golden_system import GOLDEN_SYSTEM, tiny_mnist_split, train_system

settings.register_profile(
    "tier1", max_examples=25, deadline=None, derandomize=True, database=None
)
settings.register_profile("fuzz", max_examples=500, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def _isolated_popcount_tally():
    """Snapshot/restore bitpack's popcount tally around each test.

    It is the one process-global counter left: deployments, schedulers
    and fleets each own their metrics registry, so a test that bumps
    those leaks nothing into the next test.
    """
    snapshot = bitpack._REGISTRY.state()
    yield
    bitpack._REGISTRY.restore(snapshot)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_mnist() -> tuple[ArrayDataset, ArrayDataset]:
    """Small synthetic MNIST-like split shared across tests."""
    return tiny_mnist_split()


@pytest.fixture(scope="session")
def tiny_cifar() -> tuple[ArrayDataset, ArrayDataset]:
    return make_dataset("cifar10", 200, 80, seed=7)


@pytest.fixture(scope="session")
def trained_system(tiny_mnist) -> LCRS:
    """A LeNet LCRS joint-trained on the tiny MNIST split and calibrated."""
    return train_system(*tiny_mnist)


@pytest.fixture(scope="session")
def golden_system() -> LCRS:
    """The same recipe, loaded from the committed one-thread checkpoint.

    Only the golden suites and the committed capacity-record pins use
    it: their fixtures pin decisions that the host BLAS would otherwise
    move through training (see ``golden_system.py``).  With ``REPRO_REGEN_GOLDEN`` set, the checkpoint
    is first retrained in a subprocess with ``OPENBLAS_NUM_THREADS=1``.
    """
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        root = Path(__file__).resolve().parent.parent
        pythonpath = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        subprocess.run(
            [sys.executable, "-m", "tests.golden_system", str(GOLDEN_SYSTEM)],
            cwd=root,
            env={
                **os.environ,
                "OPENBLAS_NUM_THREADS": "1",
                "PYTHONPATH": os.pathsep.join(p for p in pythonpath if p),
            },
            check=True,
        )
    return load_system(GOLDEN_SYSTEM)
