"""Ablation (Appendix B) — out-of-bootstrap vs cross-validation resampling.

The paper argues for out-of-bootstrap resampling over cross-validation:
cross-validation ties the number of resamples to the number of folds (and
to the training-set size), while the bootstrap provides arbitrarily many
resamples of constant training-set size, which is what the estimators of
Section 3 need.  This ablation measures the data-sampling variance obtained
with both schemes and checks they agree on the order of magnitude, while
the bootstrap can keep producing fresh resamples past the fold limit.
"""

from __future__ import annotations

import numpy as np

from conftest import run_once
from repro.core.benchmark import BenchmarkProcess
from repro.data.resampling import CrossValidationResampler
from repro.data.tasks import get_task
from repro.utils.rng import SeedScope
from repro.utils.tables import format_table


def _variance_with_bootstrap(process, n_splits, scope):
    base = scope.bundle()
    scores = [
        process.measure(
            base.with_seeds(data=scope.child("split", i).seed())
        ).test_score
        for i in range(n_splits)
    ]
    return np.asarray(scores)


def _variance_with_cross_validation(process, n_folds, scope):
    resampler = CrossValidationResampler(n_folds=n_folds)
    seeds = scope.bundle()
    scores = []
    for train, valid, test in resampler.splits(process.dataset, scope.rng()):
        outcome = process.pipeline.fit(
            train, process.pipeline.default_hparams(), seeds, valid=valid
        )
        scores.append(process.pipeline.evaluate(outcome.model, test))
    return np.asarray(scores)


def test_ablation_bootstrap_vs_cross_validation(benchmark, scale):
    def run():
        scope = SeedScope.from_state(0)
        task = get_task("entailment")
        dataset = task.make_dataset(
            random_state=scope.child("dataset").rng(), n_samples=scale["dataset_size"]
        )
        process = BenchmarkProcess(dataset, task.make_pipeline(), hpo_budget=3)
        n = max(10, scale["n_splits"])
        bootstrap_scores = _variance_with_bootstrap(process, n, scope.child("bootstrap"))
        cv_scores = _variance_with_cross_validation(process, 5, scope.child("cv"))
        return bootstrap_scores, cv_scores

    bootstrap_scores, cv_scores = run_once(benchmark, run)
    rows = [
        {
            "scheme": "out-of-bootstrap",
            "n_resamples": bootstrap_scores.size,
            "mean": float(bootstrap_scores.mean()),
            "std": float(bootstrap_scores.std(ddof=1)),
        },
        {
            "scheme": "5-fold cross-validation",
            "n_resamples": cv_scores.size,
            "mean": float(cv_scores.mean()),
            "std": float(cv_scores.std(ddof=1)),
        },
    ]
    print()
    print(format_table(rows, title="Appendix B ablation — resampling schemes"))
    benchmark.extra_info["rows"] = rows

    # Both schemes see real data-sampling variance of the same order.
    assert bootstrap_scores.std(ddof=1) > 0
    assert cv_scores.std(ddof=1) > 0
    ratio = bootstrap_scores.std(ddof=1) / cv_scores.std(ddof=1)
    assert 0.2 < ratio < 5.0
    # The bootstrap is not limited to the number of folds.
    assert bootstrap_scores.size > cv_scores.size
    # Mean performance agrees between the two schemes.
    assert abs(bootstrap_scores.mean() - cv_scores.mean()) < 0.15
