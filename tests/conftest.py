"""Shared fixtures: small datasets, pipelines and benchmark processes.

Everything here is intentionally tiny so the full suite runs in seconds;
scaling up is exercised by the benchmark harness instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.benchmark import BenchmarkProcess
from repro.data.synthetic import (
    make_gaussian_blobs,
    make_nonlinear_classification,
    make_peptide_binding,
)
from repro.pipelines.linear import LogisticRegressionPipeline
from repro.pipelines.mlp import MLPClassifierPipeline, MLPRegressorPipeline
from repro.utils.rng import SeedScope


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: multi-process or whole-suite test (kept in the tier-1 run; "
        "deselect with -m 'not slow' for a fast inner loop)",
    )


@pytest.fixture
def rng():
    """Deterministic generator for tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def seed_bundle():
    """A seed bundle with every source derived from one root seed."""
    return SeedScope.from_state(1234).bundle()


@pytest.fixture
def blobs_dataset():
    """Small, easy multi-class classification dataset."""
    return make_gaussian_blobs(
        n_samples=200, n_features=6, n_classes=3, class_separation=3.0, random_state=0
    )


@pytest.fixture
def hard_dataset():
    """Small binary dataset with a nonlinear boundary."""
    return make_nonlinear_classification(n_samples=200, n_features=6, random_state=0)


@pytest.fixture
def regression_dataset():
    """Small peptide-binding-style regression dataset."""
    return make_peptide_binding(n_samples=150, peptide_length=4, allele_length=2, random_state=0)


@pytest.fixture
def fast_classifier():
    """A very small MLP classifier pipeline."""
    return MLPClassifierPipeline(hidden_sizes=(8,), n_epochs=3, batch_size=32)


@pytest.fixture
def fast_regressor():
    """A very small MLP regressor pipeline."""
    return MLPRegressorPipeline(hidden_sizes=(8,), n_epochs=3, batch_size=32)


@pytest.fixture
def linear_classifier():
    """A logistic-regression baseline pipeline."""
    return LogisticRegressionPipeline(n_epochs=3, batch_size=32)


@pytest.fixture
def classification_process(blobs_dataset, fast_classifier):
    """Benchmark process on the easy classification dataset."""
    return BenchmarkProcess(blobs_dataset, fast_classifier, hpo_budget=3)


@pytest.fixture
def hard_process(hard_dataset, fast_classifier):
    """Benchmark process on the harder binary dataset."""
    return BenchmarkProcess(hard_dataset, fast_classifier, hpo_budget=3)


@pytest.fixture
def regression_process(regression_dataset, fast_regressor):
    """Benchmark process on the regression dataset."""
    return BenchmarkProcess(regression_dataset, fast_regressor, hpo_budget=3)
