"""One seeding regime: every public seeded entry point goes through SeedScope.

Each public core and simulation function takes ``random_state`` and starts
from ``SeedScope.from_state(random_state)``.  So an int seed and the scope
built from it must give bitwise the same result, and two generators seeded
alike must too (each contributes exactly one draw, the root seed).
"""

import dataclasses

import numpy as np
import pytest

from repro.core.benchmark import BenchmarkProcess
from repro.core.comparison import AverageComparison, ProbabilityOfOutperforming
from repro.core.estimators import FixHOptEstimator, IdealEstimator
from repro.core.pairing import (
    compare_pipelines,
    paired_measurements,
    paired_seed_bundles,
)
from repro.core.sources import VarianceSource
from repro.core.variance import (
    EstimatorQualityStudy,
    hpo_variance_study,
    variance_decomposition_study,
)
from repro.data.synthetic import make_gaussian_blobs
from repro.hpo.random_search import RandomSearch
from repro.pipelines.linear import LogisticRegressionPipeline
from repro.pipelines.mlp import MLPClassifierPipeline
from repro.simulation.detection import (
    detection_rate,
    detection_rate_curve,
    robustness_to_sample_size,
    robustness_to_threshold,
)
from repro.simulation.performance_model import SimulatedTask
from repro.utils.rng import SeedScope

SEED = 3


def _process(pipeline=None):
    dataset = make_gaussian_blobs(
        n_samples=120, n_features=4, n_classes=2, class_separation=1.5, random_state=0
    )
    pipeline = pipeline or MLPClassifierPipeline(hidden_sizes=(4,), n_epochs=2)
    return BenchmarkProcess(dataset, pipeline, hpo_budget=2)


def _linear_process():
    return _process(LogisticRegressionPipeline(n_epochs=2))


_TASK = SimulatedTask(
    name="toy", mean=0.7, sigma=0.02, biased_bias_std=0.01, biased_measurement_std=0.018
)


class _Recording(AverageComparison):
    """Average comparison that logs every simulated score pair it judges.

    A detection rate is a coarse count; the logged scores make the parity
    check see every simulation's seed.  The serial executor runs in the
    caller, so the log fills in this process.
    """

    def __init__(self, log, delta=0.0):
        super().__init__(delta=delta)
        self.log = log

    def decide(self, scores_a, scores_b):
        self.log.append((scores_a, scores_b))
        return super().decide(scores_a, scores_b)


def _variance_decomposition(random_state):
    decomposition = variance_decomposition_study(
        _process(),
        sources=[VarianceSource.DATA, VarianceSource.INIT],
        n_seeds=2,
        random_state=random_state,
    )
    return decomposition.scores


def _hpo_variance(random_state):
    return hpo_variance_study(
        _process(),
        {"random_search": RandomSearch()},
        n_repetitions=2,
        random_state=random_state,
    )


def _estimator_quality(random_state):
    study = EstimatorQualityStudy(subsets=("init",), n_repetitions=2, k_max=2)
    results = study.run(_process(), random_state=random_state)
    return {name: (r.score_matrix, r.reference_mean) for name, r in results.items()}


def _ideal_estimate(random_state):
    return IdealEstimator().estimate(_process(), 2, random_state=random_state).scores


def _fixhopt_estimate(random_state):
    result = FixHOptEstimator("data").estimate(_process(), 3, random_state=random_state)
    return result.scores, result.hparams


def _paired_bundles(random_state):
    return [b.as_dict() for b in paired_seed_bundles(3, random_state=random_state)]


def _paired_measurements(random_state):
    paired = paired_measurements(
        _process(), _linear_process(), 2, run_hpo=False, random_state=random_state
    )
    return paired.scores_a, paired.scores_b


def _detection_rate(random_state):
    log = []
    rate = detection_rate(
        _Recording(log), _TASK, 0.7, k=5, n_simulations=6, random_state=random_state
    )
    # The probability criterion runs its own seeded bootstrap on top.
    bootstrapped = detection_rate(
        ProbabilityOfOutperforming(n_bootstraps=20),
        _TASK,
        0.7,
        k=5,
        n_simulations=6,
        estimator="biased",
        random_state=random_state,
    )
    return rate, log, bootstrapped


def _detection_rate_curve(random_state):
    log = []
    rates = detection_rate_curve(
        _Recording(log),
        _TASK,
        [0.5, 0.9],
        k=5,
        n_simulations=4,
        random_state=random_state,
    ).rates
    return rates, log


def _robustness_to_sample_size(random_state):
    log = []
    rates = robustness_to_sample_size(
        {"average": _Recording(log)},
        _TASK,
        sample_sizes=(3, 6),
        n_simulations=4,
        random_state=random_state,
    )
    return rates, log


def _robustness_to_threshold(random_state):
    log = []
    rates = robustness_to_threshold(
        lambda gamma: _Recording(log, delta=gamma * _TASK.sigma),
        _TASK,
        thresholds=(0.6, 0.8),
        k=5,
        n_simulations=4,
        random_state=random_state,
    )
    return rates, log


def _compare_pipelines(random_state):
    report, scores = compare_pipelines(
        _process(), _linear_process(), k=3, random_state=random_state
    )
    return dataclasses.asdict(report), scores.scores_a, scores.scores_b


ENTRY_POINTS = {
    "variance_decomposition_study": _variance_decomposition,
    "hpo_variance_study": _hpo_variance,
    "EstimatorQualityStudy.run": _estimator_quality,
    "IdealEstimator.estimate": _ideal_estimate,
    "FixHOptEstimator.estimate": _fixhopt_estimate,
    "paired_seed_bundles": _paired_bundles,
    "paired_measurements": _paired_measurements,
    "detection_rate": _detection_rate,
    "detection_rate_curve": _detection_rate_curve,
    "robustness_to_sample_size": _robustness_to_sample_size,
    "robustness_to_threshold": _robustness_to_threshold,
    "compare_pipelines": _compare_pipelines,
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_int_scope_and_generator_agree(name):
    call = ENTRY_POINTS[name]
    from_int = call(SEED)
    np.testing.assert_equal(call(SeedScope.from_state(SEED)), from_int)
    np.testing.assert_equal(
        call(np.random.default_rng(SEED)), call(np.random.default_rng(SEED))
    )
