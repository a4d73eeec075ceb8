"""Experiment E10 — hyperparameter-optimization curves (Figure F.2).

For each case-study analogue and each HOpt algorithm (Bayesian
optimization, noisy grid search, random search), several independent HOpt
runs are executed with only the HOpt seed varied; the best-so-far
validation regret and the corresponding test regret are recorded per
iteration.  Figure F.2's two findings are checked: the search spaces are
well optimized by every algorithm, and the across-seed standard deviation
stabilizes early.

The independent HOpt runs execute through the measurement engine as
``WorkItem(with_hpo=True)`` batches: each measurement carries the full
:class:`~repro.hpo.base.HPOResult` back on ``Measurement.hpo_result``, so
the optimization *curves* parallelize over ``n_jobs`` and replay from a
warm :class:`~repro.engine.cache.MeasurementCache` without refitting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.api.registry import register_study
from repro.core.benchmark import BenchmarkProcess
from repro.data.tasks import get_task
from repro.engine import MeasurementCache, ParallelExecutor, StudyRunner, WorkItem
from repro.hpo.bayesopt import BayesianOptimization
from repro.hpo.grid import NoisyGridSearch
from repro.hpo.random_search import RandomSearch
from repro.utils.rng import SeedScope
from repro.utils.tables import format_table
from repro.utils.validation import check_positive_int

__all__ = ["HPOCurvesResult", "run_hpo_curves_study"]


@dataclass
class HPOCurvesResult:
    """Best-so-far optimization curves per task and HOpt algorithm.

    ``curves[task][algorithm]`` is an array of shape
    ``(n_repetitions, budget)`` holding the best validation regret found up
    to each iteration, for each independent HOpt run.
    """

    curves: Dict[str, Dict[str, np.ndarray]] = field(default_factory=dict)
    test_scores: Dict[str, Dict[str, np.ndarray]] = field(default_factory=dict)

    def rows(self) -> List[dict]:
        """Mean and std of the best-so-far regret at each iteration."""
        rows: List[dict] = []
        for task_name, algorithms in self.curves.items():
            for algorithm, matrix in algorithms.items():
                means = matrix.mean(axis=0)
                stds = matrix.std(axis=0, ddof=1) if matrix.shape[0] > 1 else np.zeros(matrix.shape[1])
                for iteration, (mean, std) in enumerate(zip(means, stds), start=1):
                    rows.append(
                        {
                            "task": task_name,
                            "algorithm": algorithm,
                            "iteration": iteration,
                            "best_validation_regret_mean": float(mean),
                            "best_validation_regret_std": float(std),
                        }
                    )
        return rows

    def final_std(self, task: str, algorithm: str) -> float:
        """Across-seed std of the final best validation regret."""
        matrix = self.curves[task][algorithm]
        if matrix.shape[0] < 2:
            return 0.0
        return float(np.std(matrix[:, -1], ddof=1))

    def report(self) -> str:
        """Plain-text rendition of Figure F.2."""
        return format_table(
            self.rows(),
            columns=[
                "task",
                "algorithm",
                "iteration",
                "best_validation_regret_mean",
                "best_validation_regret_std",
            ],
            title="Figure F.2 — hyperparameter optimization curves",
        )


@register_study(
    "hpo_curves",
    artefact="Figure F.2",
    size_params=("budget", "n_repetitions", "dataset_size"),
    smoke_params={
        "task_names": ["entailment"],
        "budget": 3,
        "n_repetitions": 2,
        "dataset_size": 200,
    },
    shard_param="task_names",
    benchmark="benchmarks/bench_figF2_hpo_curves.py",
)
def run_hpo_curves_study(
    task_names: Sequence[str] = ("entailment",),
    *,
    budget: int = 10,
    n_repetitions: int = 3,
    dataset_size: Optional[int] = None,
    n_jobs: int = 1,
    backend: str = "thread",
    cache: Optional[MeasurementCache] = None,
    executor: Optional[ParallelExecutor] = None,
    random_state=None,
) -> HPOCurvesResult:
    """Run independent HOpt executions and collect their optimization curves.

    Parameters
    ----------
    task_names:
        Case-study analogue tasks to include.
    budget:
        HOpt trial budget per run (paper: 200).
    n_repetitions:
        Independent HOpt runs per algorithm (paper: 20).
    dataset_size:
        Optional dataset-size override for faster runs.
    n_jobs:
        Workers for the measurement engine; the per-repetition HOpt seeds
        are pre-drawn, so curves are identical for any value at a fixed
        ``random_state``.
    backend:
        Executor backend when no ``executor`` is supplied.
    cache:
        Optional measurement cache; a warm cache replays full optimization
        curves (carried on ``Measurement.hpo_result``) without refitting.
    executor:
        Pre-built executor shared across studies (overrides
        ``n_jobs``/``backend``).
    random_state:
        Seed, generator or :class:`~repro.utils.rng.SeedScope`; each
        repetition's HOpt seed is derived from its
        task/algorithm/repetition scope path, so per-task shards reproduce
        the full run bitwise.
    """
    check_positive_int(budget, "budget")
    check_positive_int(n_repetitions, "n_repetitions")
    scope = SeedScope.from_state(random_state)
    algorithms = {
        "random_search": lambda: RandomSearch(),
        "noisy_grid_search": lambda: NoisyGridSearch(),
        "bayesopt": lambda: BayesianOptimization(n_initial_points=3, n_candidates=64),
    }
    result = HPOCurvesResult()
    for task_name in task_names:
        task_scope = scope.child("task", task_name)
        task = get_task(task_name)
        dataset_kwargs = {"n_samples": dataset_size} if dataset_size else {}
        dataset = task.make_dataset(
            random_state=task_scope.child("dataset").rng(), **dataset_kwargs
        )
        pipeline = task.make_pipeline()
        result.curves[task_name] = {}
        result.test_scores[task_name] = {}
        base_seeds = task_scope.bundle()
        for algorithm_name, factory in algorithms.items():
            process = BenchmarkProcess(
                dataset, pipeline, hpo_algorithm=factory(), hpo_budget=budget
            )
            runner = StudyRunner(
                process, executor=executor, n_jobs=n_jobs, backend=backend, cache=cache
            )
            # Derive the per-repetition HOpt seeds from their scope paths,
            # then fan the full HOpt runs out as with_hpo work items (the
            # HOpt loop runs its own optimizer copy per item, so repetitions
            # never share search state).
            items = [
                WorkItem(
                    seeds=base_seeds.with_seeds(
                        hopt=task_scope.child("algorithm", algorithm_name)
                        .child("rep", i)
                        .seed()
                    ),
                    with_hpo=True,
                    scope_path=task_scope.child("algorithm", algorithm_name)
                    .child("rep", i)
                    .path_str(),
                )
                for i in range(n_repetitions)
            ]
            measurements = runner.run(items)
            result.curves[task_name][algorithm_name] = np.stack(
                [m.hpo_result.optimization_curve() for m in measurements]
            )
            result.test_scores[task_name][algorithm_name] = np.array(
                [m.test_score for m in measurements], dtype=float
            )
    return result
