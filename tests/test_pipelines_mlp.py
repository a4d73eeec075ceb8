"""Tests for the MLP classifier and regressor pipelines."""

import numpy as np
import pytest

from repro.data.synthetic import make_gaussian_blobs
from repro.hpo.space import SearchSpace
from repro.pipelines.base import fit_and_score
from repro.pipelines.mlp import MLPClassifierPipeline, MLPRegressorPipeline, _clip_hparams


class TestMLPClassifierPipeline:
    def test_learns_easy_task(self, blobs_dataset, seed_bundle):
        pipeline = MLPClassifierPipeline(hidden_sizes=(16,), n_epochs=15)
        outcome = pipeline.fit(blobs_dataset, pipeline.default_hparams(), seed_bundle)
        assert outcome.train_score > 0.8

    def test_beats_chance_on_held_out_data(self, seed_bundle):
        train = make_gaussian_blobs(n_samples=300, n_classes=3, class_separation=3.0, random_state=0)
        test = make_gaussian_blobs(n_samples=200, n_classes=3, class_separation=3.0, random_state=0)
        pipeline = MLPClassifierPipeline(hidden_sizes=(16,), n_epochs=15)
        outcome = fit_and_score(pipeline, train, test, None, seed_bundle)
        assert outcome.test_score > 0.6

    def test_reproducible_given_seeds(self, blobs_dataset, seed_bundle):
        pipeline = MLPClassifierPipeline(hidden_sizes=(8,), n_epochs=3)
        a = pipeline.fit(blobs_dataset, None, seed_bundle).train_score
        b = pipeline.fit(blobs_dataset, None, seed_bundle).train_score
        assert a == b

    def test_init_seed_changes_outcome(self, blobs_dataset, seed_bundle):
        pipeline = MLPClassifierPipeline(hidden_sizes=(8,), n_epochs=2)
        other = seed_bundle.with_seeds(init=seed_bundle.seed_for("init") + 1)
        a = pipeline.fit(blobs_dataset, None, seed_bundle)
        b = pipeline.fit(blobs_dataset, None, other)
        assert not np.allclose(a.model.weights[0], b.model.weights[0])

    def test_search_space_contains_paper_dimensions(self):
        space = MLPClassifierPipeline(optimizer="sgd").search_space()
        assert isinstance(space, SearchSpace)
        assert {"learning_rate", "weight_decay", "momentum", "gamma"} <= set(space.names)

    def test_adam_variant_exposes_init_scale(self):
        space = MLPClassifierPipeline(optimizer="adam").search_space()
        assert "init_scale" in space.names
        assert "momentum" not in space.names

    def test_unknown_hyperparameter_rejected(self, blobs_dataset, seed_bundle):
        pipeline = MLPClassifierPipeline(n_epochs=1)
        with pytest.raises(ValueError, match="unknown hyperparameters"):
            pipeline.fit(blobs_dataset, {"not_a_param": 1.0}, seed_bundle)

    def test_invalid_optimizer_rejected(self):
        with pytest.raises(ValueError):
            MLPClassifierPipeline(optimizer="rmsprop")

    def test_history_recorded(self, blobs_dataset, seed_bundle):
        pipeline = MLPClassifierPipeline(hidden_sizes=(8,), n_epochs=4)
        outcome = pipeline.fit(blobs_dataset, None, seed_bundle)
        assert len(outcome.history["losses"]) == 4


class TestClipHparams:
    def test_momentum_and_gamma_clipped(self):
        clipped = _clip_hparams({"momentum": 1.2, "gamma": 1.05})
        assert clipped["momentum"] <= 0.999
        assert clipped["gamma"] <= 1.0

    def test_negative_weight_decay_clipped(self):
        assert _clip_hparams({"weight_decay": -0.1})["weight_decay"] == 0.0

    def test_valid_values_untouched(self):
        params = {"learning_rate": 0.01, "momentum": 0.9, "gamma": 0.97}
        assert _clip_hparams(params) == params


class TestMLPRegressorPipeline:
    def test_fits_regression_task(self, regression_dataset, seed_bundle):
        pipeline = MLPRegressorPipeline(hidden_sizes=(16,), n_epochs=15)
        outcome = pipeline.fit(regression_dataset, None, seed_bundle)
        assert outcome.train_score > 0.0  # better than predicting the mean

    def test_default_metric_is_r2(self):
        assert MLPRegressorPipeline().metric_name == "r2"

    def test_evaluate_uses_metric(self, regression_dataset, seed_bundle):
        pipeline = MLPRegressorPipeline(hidden_sizes=(8,), n_epochs=3)
        outcome = pipeline.fit(regression_dataset, None, seed_bundle)
        score = pipeline.evaluate(outcome.model, regression_dataset)
        assert -1.0 <= score <= 1.0
