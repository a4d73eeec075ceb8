"""Tests for the BenchmarkProcess."""

import numpy as np
import pytest

from repro.core.benchmark import BenchmarkProcess
from repro.hpo.grid import NoisyGridSearch
from repro.utils.rng import SeedScope


class TestSplit:
    def test_split_driven_by_data_seed(self, classification_process):
        bundle = SeedScope.from_state(1).bundle()
        test_a = classification_process.split(bundle)[2]
        test_b = classification_process.split(bundle)[2]
        np.testing.assert_array_equal(test_a.X, test_b.X)

    def test_different_data_seed_changes_split(self, classification_process):
        bundle = SeedScope.from_state(1).bundle()
        other = bundle.with_seeds(data=bundle.seed_for("data") + 1)
        test_a = classification_process.split(bundle)[2]
        test_b = classification_process.split(other)[2]
        assert test_a.n_samples != test_b.n_samples or not np.array_equal(test_a.X, test_b.X)


class TestMeasure:
    def test_measurement_fields(self, classification_process, seed_bundle):
        measurement = classification_process.measure(seed_bundle)
        assert 0.0 <= measurement.test_score <= 1.0
        assert measurement.n_fits == 1
        assert measurement.hparams

    def test_reproducible_given_seeds(self, classification_process, seed_bundle):
        a = classification_process.measure(seed_bundle).test_score
        b = classification_process.measure(seed_bundle).test_score
        assert a == b

    def test_explicit_hparams_used(self, classification_process, seed_bundle):
        measurement = classification_process.measure(
            seed_bundle, {"learning_rate": 0.011}
        )
        assert measurement.hparams["learning_rate"] == pytest.approx(0.011)


class TestRunHpo:
    def test_budget_respected(self, classification_process, seed_bundle):
        result = classification_process.run_hpo(seed_bundle, budget=4)
        assert result.n_trials == 4

    def test_hopt_seed_controls_outcome(self, classification_process):
        bundle = SeedScope.from_state(1).bundle()
        a = classification_process.run_hpo(bundle)
        b = classification_process.run_hpo(bundle)
        assert a.best_config == b.best_config
        c = classification_process.run_hpo(
            bundle.with_seeds(hopt=bundle.seed_for("hopt") + 1)
        )
        assert c.best_config != a.best_config

    def test_alternative_algorithm(self, blobs_dataset, fast_classifier, seed_bundle):
        process = BenchmarkProcess(
            blobs_dataset, fast_classifier, hpo_algorithm=NoisyGridSearch(), hpo_budget=4
        )
        result = process.run_hpo(seed_bundle)
        assert result.n_trials == 4

    def test_objective_is_validation_error(self, classification_process, seed_bundle):
        result = classification_process.run_hpo(seed_bundle, budget=3)
        assert all(0.0 <= t.value <= 1.0 for t in result.trials)


class TestMeasureWithHpo:
    def test_cost_accounting(self, classification_process, seed_bundle):
        measurement = classification_process.measure_with_hpo(seed_bundle)
        assert measurement.n_fits == classification_process.hpo_budget + 1

    def test_selected_hparams_within_search_space(self, classification_process, seed_bundle):
        measurement = classification_process.measure_with_hpo(seed_bundle)
        space = classification_process.pipeline.search_space()
        for name in space.names:
            assert name in measurement.hparams

    def test_invalid_budget_rejected(self, blobs_dataset, fast_classifier):
        with pytest.raises(ValueError):
            BenchmarkProcess(blobs_dataset, fast_classifier, hpo_budget=0)
