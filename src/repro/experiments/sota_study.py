"""Experiment E3 — published improvements vs benchmark variance (Figure 3).

The benchmark standard deviation σ (from the ideal estimator or from the
variance study) is overlaid on a timeline of published results; every new
state of the art is marked significant when its improvement over the
previous best exceeds the z-test threshold.  The headline observation of
Figure 3 is that σ is of the same order as typical published increments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional

from repro.api.registry import register_study
from repro.engine import MeasurementCache, ParallelExecutor, ensure_executor
from repro.simulation.sota import (
    PublishedResult,
    load_sota_timeline,
    significance_timeline,
)
from repro.utils.tables import format_table

__all__ = ["SotaStudyResult", "run_sota_study"]


@dataclass
class SotaStudyResult:
    """Annotated timelines for each benchmark."""

    timelines: Dict[str, List] = field(default_factory=dict)
    sigmas: Dict[str, float] = field(default_factory=dict)

    def rows(self) -> List[dict]:
        """One row per published result with its significance flag."""
        rows = []
        for benchmark, entries in self.timelines.items():
            for entry in entries:
                rows.append(
                    {
                        "benchmark": benchmark,
                        "year": entry.year,
                        "accuracy": entry.accuracy,
                        "improvement": entry.improvement,
                        "sigma": self.sigmas[benchmark],
                        "significant": entry.significant,
                    }
                )
        return rows

    def fraction_significant(self, benchmark: str) -> float:
        """Fraction of post-initial results whose improvement is significant."""
        entries = self.timelines[benchmark][1:]
        if not entries:
            return 0.0
        return sum(e.significant for e in entries) / len(entries)

    def report(self) -> str:
        """Plain-text rendition of Figure 3."""
        return format_table(
            self.rows(),
            columns=["benchmark", "year", "accuracy", "improvement", "sigma", "significant"],
            title="Figure 3 — published improvements compared to benchmark variance",
        )


def _annotate_timeline(job: tuple, *, alpha: float) -> tuple:
    """Annotate one (benchmark, timeline, sigma) job (picklable helper)."""
    benchmark, timeline, sigma = job
    return benchmark, significance_timeline(timeline, sigma, alpha=alpha)


@register_study(
    "sota",
    artefact="Figure 3",
    size_params=(),
    smoke_params={},
    benchmark="benchmarks/bench_fig3_sota.py",
)
def run_sota_study(
    sigmas: Dict[str, float] | None = None,
    *,
    timelines: Dict[str, List[PublishedResult]] | None = None,
    alpha: float = 0.05,
    n_jobs: int = 1,
    backend: str = "thread",
    cache: Optional[MeasurementCache] = None,
    executor: Optional[ParallelExecutor] = None,
    random_state=None,
) -> SotaStudyResult:
    """Annotate SOTA timelines with significance w.r.t. benchmark variance.

    Parameters
    ----------
    sigmas:
        Benchmark standard deviation per benchmark name; defaults to the
        scales measured in the paper (≈0.002 for CIFAR10, ≈0.005 for SST-2,
        as fractions of accuracy).
    timelines:
        Published-result timelines; defaults to the frozen snapshots.
    alpha:
        Significance level of the z-test band.
    n_jobs, backend, executor:
        Per-benchmark annotation fans out over the executor (the study is
        deterministic, so worker count never changes the timelines).
    cache, random_state:
        Accepted for API uniformity; the study involves no measurements
        and no randomness, so the determinism contract holds trivially
        (every annotation is a pure function of its timeline and sigma).
    """
    if sigmas is None:
        sigmas = {"cifar10": 0.002, "sst2": 0.005}
    if timelines is None:
        timelines = {name: load_sota_timeline(name) for name in sigmas}
    result = SotaStudyResult(sigmas=dict(sigmas))
    jobs = []
    for benchmark, timeline in timelines.items():
        if benchmark not in sigmas:
            raise KeyError(f"no sigma provided for benchmark {benchmark!r}")
        jobs.append((benchmark, timeline, sigmas[benchmark]))
    with ensure_executor(executor, n_jobs, backend=backend) as executor:
        for benchmark, annotated in executor.map(
            partial(_annotate_timeline, alpha=alpha), jobs
        ):
            result.timelines[benchmark] = annotated
    return result
