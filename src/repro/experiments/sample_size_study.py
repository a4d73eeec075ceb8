"""Experiment E9 — minimum sample size vs threshold γ (Figure C.1)."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional, Sequence

import numpy as np

from repro.api.registry import register_study
from repro.core.sample_size import minimum_sample_size
from repro.engine import MeasurementCache, ParallelExecutor, ensure_executor
from repro.utils.tables import format_table

__all__ = ["SampleSizeStudyResult", "run_sample_size_study"]


@dataclass
class SampleSizeStudyResult:
    """Minimum Noether sample size for each threshold γ."""

    gammas: np.ndarray = None
    sample_sizes: np.ndarray = None
    alpha: float = 0.05
    beta: float = 0.05
    recommended_gamma: float = 0.75

    def rows(self) -> List[dict]:
        """One row per threshold, flagging the paper's recommended γ=0.75."""
        return [
            {
                "gamma": float(g),
                "min_sample_size": int(n),
                "recommended": bool(abs(g - self.recommended_gamma) < 1e-9),
            }
            for g, n in zip(self.gammas, self.sample_sizes)
        ]

    @property
    def recommended_sample_size(self) -> int:
        """Sample size at the recommended threshold γ=0.75 (paper: 29)."""
        return minimum_sample_size(self.recommended_gamma, alpha=self.alpha, beta=self.beta)

    def report(self) -> str:
        """Plain-text rendition of Figure C.1."""
        return format_table(
            self.rows(),
            columns=["gamma", "min_sample_size", "recommended"],
            title="Figure C.1 — minimum sample size to detect P(A>B) > gamma",
        )


@register_study(
    "sample_size",
    artefact="Figure C.1",
    size_params=("gammas",),
    smoke_params={"gammas": [0.7, 0.75]},
    shard_param="gammas",
    benchmark="benchmarks/bench_figC1_sample_size.py",
)
def run_sample_size_study(
    gammas: Sequence[float] = (0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99),
    *,
    alpha: float = 0.05,
    beta: float = 0.05,
    n_jobs: int = 1,
    backend: str = "thread",
    cache: Optional[MeasurementCache] = None,
    executor: Optional[ParallelExecutor] = None,
    random_state=None,
) -> SampleSizeStudyResult:
    """Tabulate Noether's minimum sample size over thresholds γ.

    The study is analytical: ``cache`` and ``random_state`` are accepted
    for API uniformity (there are no measurements to memoize and no
    randomness), while the per-γ searches fan out over the executor.
    Because each γ's row is a pure function of γ alone, the determinism
    contract (per-γ shards bitwise-equal to the full run) holds trivially
    — this is the degenerate case of scope-addressed derivation.
    """
    gammas_arr = np.asarray(list(gammas), dtype=float)
    with ensure_executor(executor, n_jobs, backend=backend) as executor:
        sizes = np.array(
            executor.map(
                partial(minimum_sample_size, alpha=alpha, beta=beta), gammas_arr
            ),
            dtype=int,
        )
    return SampleSizeStudyResult(
        gammas=gammas_arr, sample_sizes=sizes, alpha=alpha, beta=beta
    )
