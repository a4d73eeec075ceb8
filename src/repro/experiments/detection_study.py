"""Experiment E7/E8 — error rates of comparison criteria (Figures 6 and I.6).

Simulated benchmark outcomes (parameterized by the variances measured on
the case studies) are fed to the three comparison criteria; their detection
rates are recorded as the true probability of outperforming sweeps from 0.4
to 1.0, for both the ideal and the biased estimator models, together with
the oracle reference.  The robustness study varies the sample size and the
threshold γ (Figure I.6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy import stats as sps

from repro.api.registry import register_study
from repro.core.comparison import (
    AverageComparison,
    ComparisonMethod,
    ProbabilityOfOutperforming,
    SinglePointComparison,
)
from repro.engine.cache import MeasurementCache
from repro.engine.executor import ParallelExecutor, ensure_executor
from repro.simulation.detection import (
    DetectionRateResult,
    detection_rate_curve,
    robustness_to_sample_size,
    robustness_to_threshold,
)
from repro.simulation.oracle import OracleComparison
from repro.simulation.performance_model import DEFAULT_SIMULATED_TASKS, SimulatedTask
from repro.utils.rng import SeedScope
from repro.utils.tables import format_table

__all__ = [
    "DetectionStudyResult",
    "default_comparison_methods",
    "run_detection_study",
    "run_robustness_study",
]


def default_comparison_methods(
    sigma: float,
    *,
    gamma: float = 0.75,
    delta_multiplier: float = 1.9952,
    n_bootstraps: int = 200,
) -> Dict[str, ComparisonMethod]:
    """The three criteria of Figure 6, calibrated to a task's σ.

    ``delta_multiplier`` is the paper's regression fit that matches δ to the
    scale of published improvements (δ = 1.9952 σ).
    """
    return {
        "single_point": SinglePointComparison(delta=delta_multiplier * sigma),
        "average": AverageComparison.from_sigma(sigma, multiplier=delta_multiplier),
        "probability_of_outperforming": ProbabilityOfOutperforming(
            gamma=gamma, n_bootstraps=n_bootstraps
        ),
    }


@dataclass
class DetectionStudyResult:
    """Detection-rate curves per (criterion, estimator) plus the oracle."""

    task: SimulatedTask = None
    curves: List[DetectionRateResult] = field(default_factory=list)
    oracle_rates: np.ndarray = None
    probabilities: np.ndarray = None
    gamma: float = 0.75

    def rows(self) -> List[dict]:
        """One row per (criterion, estimator, P(A>B)) point of Figure 6."""
        rows: List[dict] = []
        for p, rate in zip(self.probabilities, self.oracle_rates):
            rows.append(
                {
                    "method": "oracle",
                    "estimator": "exact",
                    "p_a_gt_b": float(p),
                    "detection_rate": float(rate),
                }
            )
        for curve in self.curves:
            rows.extend(curve.as_rows())
        return rows

    def false_positive_rate(self, method: str, estimator: str) -> float:
        """Average detection rate in the H0 region (P(A>B) ≤ 0.5)."""
        return self._region_rate(method, estimator, lambda p: p <= 0.5)

    def false_negative_rate(self, method: str, estimator: str) -> float:
        """Average miss rate in the H1 region (P(A>B) > γ)."""
        return 1.0 - self._region_rate(method, estimator, lambda p: p > self.gamma)

    def _region_rate(self, method: str, estimator: str, predicate) -> float:
        for curve in self.curves:
            if curve.method == method and curve.estimator == estimator:
                mask = np.array([predicate(p) for p in curve.probabilities])
                if not mask.any():
                    return float("nan")
                return float(np.mean(curve.rates[mask]))
        raise KeyError(f"no curve for method={method!r}, estimator={estimator!r}")

    def report(self) -> str:
        """Plain-text rendition of Figure 6."""
        return format_table(
            self.rows(),
            columns=["method", "estimator", "p_a_gt_b", "detection_rate"],
            title="Figure 6 — rate of detections of comparison methods",
        )


@register_study(
    "detection",
    artefact="Figure 6",
    size_params=("probabilities", "k", "n_simulations"),
    smoke_params={"probabilities": [0.4, 0.9], "k": 5, "n_simulations": 5},
    benchmark="benchmarks/bench_fig6_detection_rates.py",
)
def run_detection_study(
    task: SimulatedTask | None = None,
    *,
    probabilities: Sequence[float] = (0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 0.99),
    k: int = 50,
    n_simulations: int = 50,
    gamma: float = 0.75,
    estimators: Sequence[str] = ("ideal", "biased"),
    n_jobs: int = 1,
    backend: str = "thread",
    cache: Optional[MeasurementCache] = None,
    executor: Optional[ParallelExecutor] = None,
    random_state=None,
) -> DetectionStudyResult:
    """Run the Figure 6 detection-rate experiment.

    Parameters
    ----------
    task:
        Simulated task statistics; defaults to the entailment-like task
        (largest variance, hence the most interesting regime).
    probabilities:
        True P(A>B) values to sweep.
    k:
        Number of measurements per simulated benchmark (paper: 50).
    n_simulations:
        Simulated benchmarks per point (paper uses a large number; 50-200
        already gives stable rates).
    gamma:
        Meaningfulness threshold of the P(A>B) criterion and the oracle.
    estimators:
        Which simulation models to use (``"ideal"``, ``"biased"``).
    n_jobs:
        Workers for the simulation fan-out; per-simulation seeds are
        pre-drawn, so the rates are identical for any value.
    backend:
        ``"thread"`` (default) or ``"process"`` — the simulations are
        pure-Python and GIL-bound, so real speedup needs the process
        backend (everything submitted is picklable).
    cache:
        Accepted for API uniformity; the simulations draw from parametric
        models, so there are no benchmark measurements to memoize.
    executor:
        Pre-built executor shared across studies (overrides
        ``n_jobs``/``backend``).
    random_state:
        Seed, generator or :class:`~repro.utils.rng.SeedScope`; each
        (estimator, criterion, probability, simulation) cell draws its
        seed from its own scope path, independent of sweep order.
    """
    scope = SeedScope.from_state(random_state)
    if task is None:
        task = DEFAULT_SIMULATED_TASKS[2]
    methods = default_comparison_methods(task.sigma, gamma=gamma)
    probabilities_arr = np.asarray(list(probabilities), dtype=float)
    oracle = OracleComparison(gamma=gamma)
    result = DetectionStudyResult(
        task=task,
        probabilities=probabilities_arr,
        oracle_rates=np.array([float(oracle.decide(p)) for p in probabilities_arr]),
        gamma=gamma,
    )
    with ensure_executor(executor, n_jobs, backend=backend) as executor:
        for estimator in estimators:
            for name, method in methods.items():
                # The single-point comparison uses one run regardless of k.
                effective_k = 1 if isinstance(method, SinglePointComparison) else k
                result.curves.append(
                    detection_rate_curve(
                        method,
                        task,
                        probabilities_arr,
                        k=effective_k,
                        estimator=estimator,
                        n_simulations=n_simulations,
                        scope=scope.child("estimator", estimator).child("method", name),
                        executor=executor,
                    )
                )
    return result


@dataclass
class RobustnessStudyResult:
    """Detection rates as sample size and threshold vary (Figure I.6)."""

    by_sample_size: Dict[str, np.ndarray] = field(default_factory=dict)
    sample_sizes: Sequence[int] = ()
    by_threshold: Dict[str, Dict[float, float]] = field(default_factory=dict)
    p_a_gt_b: float = 0.75

    def rows(self) -> List[dict]:
        """Flattened rows for reporting."""
        rows: List[dict] = []
        for method, rates in self.by_sample_size.items():
            for k, rate in zip(self.sample_sizes, rates):
                rows.append(
                    {
                        "sweep": "sample_size",
                        "method": method,
                        "value": int(k),
                        "detection_rate": float(rate),
                    }
                )
        for method, mapping in self.by_threshold.items():
            for gamma, rate in mapping.items():
                rows.append(
                    {
                        "sweep": "threshold",
                        "method": method,
                        "value": float(gamma),
                        "detection_rate": float(rate),
                    }
                )
        return rows

    def report(self) -> str:
        """Plain-text rendition of Figure I.6."""
        return format_table(
            self.rows(),
            columns=["sweep", "method", "value", "detection_rate"],
            title="Figure I.6 — robustness of comparison methods",
        )


@register_study(
    "robustness",
    artefact="Figure I.6",
    size_params=("sample_sizes", "thresholds", "k", "n_simulations"),
    smoke_params={
        "sample_sizes": [5, 10],
        "thresholds": [0.7, 0.9],
        "k": 5,
        "n_simulations": 5,
    },
    benchmark="benchmarks/bench_figI6_robustness.py",
)
def run_robustness_study(
    task: SimulatedTask | None = None,
    *,
    p_a_gt_b: float = 0.75,
    sample_sizes: Sequence[int] = (10, 20, 50, 100),
    thresholds: Sequence[float] = (0.6, 0.7, 0.75, 0.8, 0.9),
    k: int = 50,
    n_simulations: int = 50,
    n_jobs: int = 1,
    backend: str = "thread",
    cache: Optional[MeasurementCache] = None,
    executor: Optional[ParallelExecutor] = None,
    random_state=None,
) -> RobustnessStudyResult:
    """Run the Figure I.6 robustness experiment.

    The threshold sweep converts each γ into the equivalent average-
    comparison threshold δ = Φ⁻¹(γ)·σ, as described in Appendix I.
    ``n_jobs`` fans the independent simulations out over the measurement
    engine's executor without changing the rates (``cache`` is accepted
    for API uniformity; parametric simulations have nothing to memoize).
    Every sweep cell draws its seed from its own scope path.
    """
    scope = SeedScope.from_state(random_state)
    if task is None:
        task = DEFAULT_SIMULATED_TASKS[2]
    methods = {
        "average": AverageComparison.from_sigma(task.sigma),
        "probability_of_outperforming": ProbabilityOfOutperforming(n_bootstraps=200),
        "t_test_like_average": AverageComparison(delta=0.0),
    }
    result = RobustnessStudyResult(sample_sizes=list(sample_sizes), p_a_gt_b=p_a_gt_b)
    with ensure_executor(executor, n_jobs, backend=backend) as executor:
        result.by_sample_size = robustness_to_sample_size(
            methods,
            task,
            sample_sizes=sample_sizes,
            p_a_gt_b=p_a_gt_b,
            n_simulations=n_simulations,
            scope=scope.child("sweep", "sample_size"),
            executor=executor,
        )
        result.by_threshold["probability_of_outperforming"] = robustness_to_threshold(
            lambda gamma: ProbabilityOfOutperforming(gamma=gamma, n_bootstraps=200),
            task,
            thresholds=thresholds,
            p_a_gt_b=p_a_gt_b,
            k=k,
            n_simulations=n_simulations,
            scope=scope.child("sweep", "threshold_prob"),
            executor=executor,
        )
        result.by_threshold["average"] = robustness_to_threshold(
            lambda gamma: AverageComparison(
                delta=float(sps.norm.ppf(gamma)) * task.sigma
            ),
            task,
            thresholds=thresholds,
            p_a_gt_b=p_a_gt_b,
            k=k,
            n_simulations=n_simulations,
            scope=scope.child("sweep", "threshold_avg"),
            executor=executor,
        )
    return result
