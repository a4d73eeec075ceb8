"""Variance studies: per-source decomposition and estimator quality.

Two experimental protocols from the paper are implemented here:

* the **per-source variance study** behind Figure 1: hold every seed fixed
  except one source, repeat the measurement many times, and report the
  standard deviation attributable to that source (plus the numerical-noise
  floor measured with *all* seeds fixed);
* the **estimator quality study** behind Figures 5, H.4 and H.5: compare
  the standard error of ``IdealEst(k)`` with that of
  ``FixHOptEst(k, Init/Data/All)`` as ``k`` grows, and decompose their mean
  squared error into bias, variance and measurement correlation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.benchmark import BenchmarkProcess
from repro.core.estimators import FixHOptEstimator, IdealEstimator
from repro.core.sources import VarianceSource
from repro.engine.runner import StudyRunner, WorkItem, ensure_runner
from repro.stats.correlated import MSEDecomposition, mse_decomposition
from repro.utils.rng import SeedBundle, SeedScope
from repro.utils.validation import check_positive_int, check_random_state

__all__ = [
    "VarianceDecomposition",
    "LayerVarianceBudget",
    "layer_variance_budget",
    "variance_decomposition_study",
    "hpo_variance_study",
    "estimator_standard_error_curve",
    "EstimatorQualityStudy",
    "EstimatorQualityResult",
]


@dataclass
class VarianceDecomposition:
    """Per-source standard deviations of the benchmark measurement.

    Attributes
    ----------
    task_name:
        Name of the benchmark / task studied.
    stds:
        Mapping from source name to the standard deviation of the test
        score when only that source is randomized.
    scores:
        Mapping from source name to the raw scores behind each std, kept
        for normality analyses (Figure G.3).
    """

    task_name: str
    stds: Dict[str, float] = field(default_factory=dict)
    scores: Dict[str, np.ndarray] = field(default_factory=dict)

    def relative_to(self, reference: str = "data") -> Dict[str, float]:
        """Standard deviations as a fraction of the reference source's std.

        Figure 1 reports every source relative to the variance induced by
        bootstrapping the data.
        """
        if reference not in self.stds:
            raise KeyError(f"reference source {reference!r} not in the study")
        ref = self.stds[reference]
        if ref == 0:
            raise ValueError("reference source has zero standard deviation")
        return {name: std / ref for name, std in self.stds.items()}

    def as_rows(self) -> List[Dict[str, object]]:
        """Rows for :func:`repro.utils.tables.format_table`."""
        reference = self.stds.get("data", 0.0)
        rows = []
        for name, std in self.stds.items():
            rows.append(
                {
                    "source": name,
                    "std": std,
                    "relative_to_data": std / reference if reference else float("nan"),
                }
            )
        return rows


@dataclass(frozen=True)
class LayerVarianceBudget:
    """Variance budget of counterfactual noise-layer toggles.

    Built from a one-at-a-time toggle grid: the all-layers-on variance is
    the *total*, the all-layers-off variance is the *floor* (numerical
    noise only), and each single-layer-on variance is that layer's
    isolated *component*.  Because layers interact through the nonlinear
    training dynamics the components need not sum to the total; the gap is
    reported as an explicit *residual* interaction term rather than being
    silently normalized away.

    Attributes
    ----------
    total_variance:
        Variance with every layer enabled.
    floor_variance:
        Variance with every layer disabled (the noise floor).
    components:
        Mapping from layer name to the variance measured with only that
        layer enabled.
    """

    total_variance: float
    floor_variance: float
    components: Dict[str, float]

    def fractions(self) -> Dict[str, float]:
        """Each layer's share of the total variance, clipped into [0, 1].

        A degenerate budget (``total_variance <= 0``) yields zero for
        every layer so the residual carries the full unit mass.
        """
        if not np.isfinite(self.total_variance) or self.total_variance <= 0:
            return {name: 0.0 for name in self.components}
        return {
            name: float(np.clip(value / self.total_variance, 0.0, 1.0))
            for name, value in self.components.items()
        }

    def residual(self) -> float:
        """Interaction term closing the budget: ``1 - sum(fractions)``.

        Negative when layer variances overlap (components over-explain the
        total), positive when interactions add variance no single layer
        shows in isolation.  Either way fractions + residual sum to 1
        exactly — the invariant the property tests pin.
        """
        return float(1.0 - sum(self.fractions().values()))

    def as_rows(self) -> List[Dict[str, object]]:
        """Rows for :func:`repro.utils.tables.format_table`."""
        fractions = self.fractions()
        rows: List[Dict[str, object]] = [
            {
                "component": name,
                "variance": float(self.components[name]),
                "fraction": fractions[name],
            }
            for name in sorted(self.components)
        ]
        rows.append(
            {
                "component": "residual (interactions)",
                "variance": float(self.total_variance - sum(self.components.values())),
                "fraction": self.residual(),
            }
        )
        return rows


def layer_variance_budget(
    total_variance: float,
    layer_variances: Mapping[str, float],
    *,
    floor_variance: float = 0.0,
) -> LayerVarianceBudget:
    """Build a :class:`LayerVarianceBudget` from raw toggle-grid variances.

    Parameters
    ----------
    total_variance:
        Variance of the all-layers-on runs.
    layer_variances:
        Per-layer variance with only that layer enabled.
    floor_variance:
        Variance of the all-layers-off runs (defaults to 0 when the grid
        did not include the ``"none"`` combination).
    """
    for name, value in {"total_variance": total_variance, "floor_variance": floor_variance}.items():
        if value < 0:
            raise ValueError(f"{name} must be non-negative")
    components = {}
    for name, value in layer_variances.items():
        if value < 0:
            raise ValueError(f"variance of layer {name!r} must be non-negative")
        components[name] = float(value)
    return LayerVarianceBudget(
        total_variance=float(total_variance),
        floor_variance=float(floor_variance),
        components=components,
    )


def variance_decomposition_study(
    process: BenchmarkProcess,
    *,
    sources: Optional[Sequence[VarianceSource]] = None,
    n_seeds: int = 20,
    hparams: Optional[Mapping[str, float]] = None,
    include_numerical_noise: bool = True,
    random_state=None,
    runner: Optional[StudyRunner] = None,
    n_jobs: int = 1,
    scope: Optional[SeedScope] = None,
) -> VarianceDecomposition:
    """Measure the variance contributed by each source in isolation.

    For every studied source, all other seeds are held at their base value
    while the studied source's seed is re-drawn ``n_seeds`` times; the
    standard deviation of the resulting test scores is that source's
    contribution.  Hyperparameters are fixed (the paper uses pre-selected
    reasonable defaults for this study) so :math:`\\xi_H` is excluded — HOpt
    variance is studied separately by :func:`hpo_variance_study`.

    All seed bundles are pre-drawn before any fit runs, and the batch is
    executed through a :class:`~repro.engine.runner.StudyRunner`, so the
    scores are bitwise identical for any ``n_jobs`` at a fixed
    ``random_state``.

    Parameters
    ----------
    process:
        The benchmark process under study.
    sources:
        Learning-procedure sources to probe; defaults to data, augment,
        order, init and dropout.
    n_seeds:
        Number of seed draws per source (the paper uses 200; the analogue
        tasks are cheap enough that 20-50 already gives stable estimates).
    hparams:
        Hyperparameters used for every fit; defaults to the pipeline's
        defaults.
    include_numerical_noise:
        Also measure the all-seeds-fixed noise floor.
    random_state:
        Seed or generator for the study (stream-drawn seeds; ignored when
        ``scope`` is given).
    runner:
        Measurement engine to execute (and possibly cache) the batch;
        built on demand from ``n_jobs`` when omitted.
    n_jobs:
        Worker count for the on-demand runner (ignored when ``runner`` is
        given).
    scope:
        Optional :class:`~repro.utils.rng.SeedScope`; when given, every
        seed is derived from its scope path (``source=<name>/rep=<i>``)
        instead of consuming the ``random_state`` stream, making the study
        independent of what ran before it — the property sharded execution
        relies on.
    """
    n_seeds = check_positive_int(n_seeds, "n_seeds", minimum=2)
    runner = ensure_runner(runner, process, n_jobs=n_jobs)
    if sources is None:
        sources = (
            VarianceSource.DATA,
            VarianceSource.AUGMENT,
            VarianceSource.ORDER,
            VarianceSource.INIT,
            VarianceSource.DROPOUT,
        )
    decomposition = VarianceDecomposition(task_name=process.pipeline.name)
    names = [VarianceSource(source).value for source in sources]
    if include_numerical_noise:
        # All seeds fixed: only the injected numerical-noise stream differs
        # between runs, mirroring the paper's fixed-seed runs.
        names.append("numerical")
    if scope is not None:
        base_seeds = scope.bundle()
        items = [
            WorkItem(
                seeds=base_seeds.with_seeds(
                    **{name: scope.child("source", name).child("rep", i).seed()}
                ),
                hparams=hparams,
                scope_path=scope.child("source", name).child("rep", i).path_str(),
            )
            for name in names
            for i in range(n_seeds)
        ]
    else:
        rng = check_random_state(random_state)
        base_seeds = SeedBundle.random(rng)
        items = [
            WorkItem(seeds=base_seeds.randomized([name], rng), hparams=hparams)
            for name in names
            for _ in range(n_seeds)
        ]
    all_scores = runner.run_scores(items)
    for position, name in enumerate(names):
        scores = all_scores[position * n_seeds : (position + 1) * n_seeds]
        decomposition.scores[name] = scores
        decomposition.stds[name] = float(np.std(scores, ddof=1))
    return decomposition


def hpo_variance_study(
    process: BenchmarkProcess,
    hpo_algorithms: Mapping[str, object],
    *,
    n_repetitions: int = 10,
    random_state=None,
    runner: Optional[StudyRunner] = None,
    n_jobs: int = 1,
    scope: Optional[SeedScope] = None,
) -> Dict[str, np.ndarray]:
    """Variance induced by the hyperparameter-optimization procedure.

    All :math:`\\xi_O` seeds are held fixed; only the HOpt seed is varied
    across ``n_repetitions`` independent HOpt runs per algorithm (Section
    2.2).  The returned scores are the test performances obtained with each
    run's selected hyperparameters.  The repetitions are independent:
    their seed bundles are pre-drawn, and every algorithm's repetitions
    run as one batch through the measurement engine (``n_jobs``
    workers).

    Parameters
    ----------
    process:
        Benchmark process under study.
    hpo_algorithms:
        Mapping from algorithm name to an :class:`~repro.hpo.base.HPOptimizer`
        instance (e.g. random search, noisy grid search, Bayesian
        optimization).
    n_repetitions:
        Number of independent HOpt runs per algorithm.
    random_state:
        Seed or generator (stream-drawn seeds; ignored when ``scope`` is
        given).
    runner:
        Measurement engine used to execute the batch; built on demand
        from ``n_jobs`` when omitted.
    n_jobs:
        Worker count for the on-demand runner.
    scope:
        Optional :class:`~repro.utils.rng.SeedScope`; when given, the HOpt
        seed of each repetition is derived from the scope path
        ``algorithm=<name>/rep=<i>`` instead of the ``random_state``
        stream, so the study's seeds are independent of iteration order.
    """
    n_repetitions = check_positive_int(n_repetitions, "n_repetitions", minimum=2)
    runner = ensure_runner(runner, process, n_jobs=n_jobs)
    if scope is not None:
        base_seeds = scope.bundle()
        rng = None
    else:
        rng = check_random_state(random_state)
        base_seeds = SeedBundle.random(rng)
    # Every item carries its algorithm, so all algorithms x repetitions go
    # out as one batch and the process is never mutated.
    items = []
    for name, algorithm in hpo_algorithms.items():
        for i in range(n_repetitions):
            if scope is not None:
                rep_scope = scope.child("algorithm", name).child("rep", i)
                seeds = base_seeds.with_seeds(hopt=rep_scope.seed())
                scope_path = rep_scope.path_str()
            else:
                seeds = base_seeds.randomized(["hopt"], rng)
                scope_path = None
            items.append(
                WorkItem(
                    seeds=seeds,
                    with_hpo=True,
                    scope_path=scope_path,
                    hpo_algorithm=algorithm,
                )
            )
    scores = runner.run_scores(items)
    results: Dict[str, np.ndarray] = {}
    for position, name in enumerate(hpo_algorithms):
        start = position * n_repetitions
        results[name] = scores[start : start + n_repetitions]
    return results


def estimator_standard_error_curve(
    score_matrix: np.ndarray,
    ks: Iterable[int],
) -> np.ndarray:
    """Standard deviation of :math:`\\mu_{(k)}` as a function of ``k``.

    Parameters
    ----------
    score_matrix:
        Array of shape ``(n_repetitions, k_max)``: each row holds the
        sequence of measurements of one estimator realization.
    ks:
        Values of ``k`` at which to evaluate the curve (each must be
        ``<= k_max``).

    Returns
    -------
    ndarray
        For each ``k``, the standard deviation across repetitions of the
        mean of the first ``k`` measurements — the y-axis of Figures 5 and
        H.4.
    """
    matrix = np.asarray(score_matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("score_matrix must be 2-D (n_repetitions, k_max)")
    n_rep, k_max = matrix.shape
    if n_rep < 2:
        raise ValueError("at least two repetitions are needed")
    checked = []
    for k in ks:
        k = check_positive_int(k, "k")
        if k > k_max:
            raise ValueError(f"k={k} exceeds the number of measurements {k_max}")
        checked.append(k)
    if not checked:
        return np.array([])
    # One cumulative-sum pass gives every prefix mean at once — O(n·k_max)
    # instead of the O(n·k_max²) of re-averaging matrix[:, :k] per k.
    prefix_sums = np.cumsum(matrix, axis=1)
    ks_arr = np.asarray(checked, dtype=int)
    means = prefix_sums[:, ks_arr - 1] / ks_arr
    return np.std(means, axis=0, ddof=1)


@dataclass
class EstimatorQualityResult:
    """Outputs of :class:`EstimatorQualityStudy` for one estimator variant."""

    name: str
    score_matrix: np.ndarray
    reference_mean: float

    def standard_error_curve(self, ks: Sequence[int]) -> np.ndarray:
        """Standard error of the estimator at each ``k``."""
        return estimator_standard_error_curve(self.score_matrix, ks)

    def mse(self, k: Optional[int] = None) -> MSEDecomposition:
        """Bias/variance/correlation decomposition at sample size ``k``."""
        k = self.score_matrix.shape[1] if k is None else k
        realizations = self.score_matrix[:, :k].mean(axis=1)
        return mse_decomposition(
            realizations, self.reference_mean, measurements=self.score_matrix[:, :k]
        )


class EstimatorQualityStudy:
    """Compare the ideal estimator with biased estimator variants.

    The protocol follows Section 3.3: one long run of the ideal estimator
    provides the reference mean and its standard error curve (its samples
    are i.i.d., so sub-sampling rows is valid); each biased variant is
    repeated ``n_repetitions`` times with different arbitrary fixed seeds
    and a shared HOpt budget.

    Parameters
    ----------
    subsets:
        The ``FixHOptEst`` randomization subsets to study.
    n_repetitions:
        Number of repetitions (arbitrary ξ draws) per biased variant.
    k_max:
        Number of measurements per estimator realization.
    """

    def __init__(
        self,
        subsets: Sequence[str] = ("init", "data", "all"),
        *,
        n_repetitions: int = 5,
        k_max: int = 20,
    ) -> None:
        self.subsets = tuple(subsets)
        self.n_repetitions = check_positive_int(n_repetitions, "n_repetitions", minimum=2)
        self.k_max = check_positive_int(k_max, "k_max", minimum=2)

    def run(
        self,
        process: BenchmarkProcess,
        *,
        random_state=None,
        runner: Optional[StudyRunner] = None,
        n_jobs: int = 1,
        scope: Optional[SeedScope] = None,
    ) -> Dict[str, EstimatorQualityResult]:
        """Run the study and return one result per estimator variant.

        ``runner`` (or the ``n_jobs`` shortcut) is forwarded to every
        estimator so each realization's ``k_max`` measurements fan out
        through the measurement engine.  With ``scope`` given, every
        realization derives its seeds from the scope path
        (``ideal|fixhopt=<subset>/rep=<r>``) instead of the shared
        ``random_state`` stream.
        """
        runner = ensure_runner(runner, process, n_jobs=n_jobs)
        if scope is not None:
            rng = None
            ideal_scopes = [
                scope.child("ideal").child("rep", r)
                for r in range(self.n_repetitions)
            ]
            ideal = IdealEstimator().estimate(
                process, self.k_max, scope=ideal_scopes[0], runner=runner
            )
        else:
            rng = check_random_state(random_state)
            ideal_scopes = None
            ideal = IdealEstimator().estimate(
                process, self.k_max, random_state=rng, runner=runner
            )
        reference_mean = ideal.mean
        results: Dict[str, EstimatorQualityResult] = {}
        # The ideal estimator's measurements are i.i.d.; independent "rows"
        # are obtained by collecting separate batches.
        ideal_matrix = [ideal.scores]
        for r in range(1, self.n_repetitions):
            ideal_matrix.append(
                IdealEstimator()
                .estimate(
                    process,
                    self.k_max,
                    random_state=rng,
                    scope=None if ideal_scopes is None else ideal_scopes[r],
                    runner=runner,
                )
                .scores
            )
        results["IdealEst"] = EstimatorQualityResult(
            name="IdealEst",
            score_matrix=np.vstack(ideal_matrix),
            reference_mean=reference_mean,
        )
        for subset in self.subsets:
            rows = []
            for r in range(self.n_repetitions):
                estimator = FixHOptEstimator(randomize=subset)
                rows.append(
                    estimator.estimate(
                        process,
                        self.k_max,
                        random_state=rng,
                        scope=(
                            None
                            if scope is None
                            else scope.child("fixhopt", subset).child("rep", r)
                        ),
                        runner=runner,
                    ).scores
                )
            results[f"FixHOptEst({subset})"] = EstimatorQualityResult(
                name=f"FixHOptEst({subset})",
                score_matrix=np.vstack(rows),
                reference_mean=reference_mean,
            )
        return results
