"""Common interface and result containers for hyperparameter optimizers.

All optimizers minimize an objective ``objective(config) -> float`` (the
validation error / regret, matching the paper's Figure F.2 which tracks
error-rates) over a :class:`~repro.hpo.space.SearchSpace`, within a budget
of ``T`` trials.  Every stochastic choice is drawn from the generator the
caller provides, so the whole procedure is a deterministic function of its
seed — that seed *is* the :math:`\\xi_H` variance source.

Optimizers are ask-style (:meth:`HPOptimizer.propose`), so
:func:`optimize_lockstep` can advance B independent runs trial by trial and
score each trial's B configurations with one batched objective call — the
stacked fit kernel then trains them together.  :meth:`HPOptimizer.optimize`
is the B=1 case of that loop.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.hpo.space import SearchSpace
from repro.utils.validation import check_positive_int, check_random_state

__all__ = ["Trial", "HPOResult", "HPOptimizer", "optimize_lockstep"]

#: Type of the objective handed to optimizers: smaller is better.
Objective = Callable[[Dict[str, float]], float]
#: Batched objective: one value per configuration, in order.
ObjectiveMany = Callable[[List[Dict[str, float]]], Sequence[float]]


@dataclass(frozen=True)
class Trial:
    """One evaluated hyperparameter configuration."""

    config: Dict[str, float]
    value: float
    index: int


@dataclass
class HPOResult:
    """Outcome of a hyperparameter-optimization run.

    Attributes
    ----------
    trials:
        All evaluated trials in execution order.
    """

    trials: List[Trial] = field(default_factory=list)

    @property
    def best_trial(self) -> Trial:
        """Trial with the smallest objective value."""
        if not self.trials:
            raise ValueError("no trials were run")
        return min(self.trials, key=lambda t: t.value)

    @property
    def best_config(self) -> Dict[str, float]:
        """Configuration of the best trial."""
        return dict(self.best_trial.config)

    @property
    def best_value(self) -> float:
        """Objective value of the best trial."""
        return self.best_trial.value

    @property
    def n_trials(self) -> int:
        """Number of trials executed."""
        return len(self.trials)

    def optimization_curve(self) -> np.ndarray:
        """Best objective value found up to each trial (Figure F.2 curves)."""
        values = np.array([t.value for t in self.trials], dtype=float)
        return np.minimum.accumulate(values)


class HPOptimizer(ABC):
    """Base class for hyperparameter optimizers."""

    #: Registry name of the algorithm.
    name: str = "hpoptimizer"

    @abstractmethod
    def propose(
        self,
        space: SearchSpace,
        history: List[Trial],
        rng: np.random.Generator,
        budget: int,
    ) -> Dict[str, float]:
        """Propose the next configuration to evaluate."""

    def prepare(self, space: SearchSpace, rng: np.random.Generator, budget: int) -> SearchSpace:
        """Hook run once before optimization; may return a modified space."""
        return space

    def optimize(
        self,
        objective: Objective,
        space: SearchSpace,
        *,
        budget: int = 50,
        random_state=None,
    ) -> HPOResult:
        """Run the optimizer for ``budget`` trials and return all trials.

        The B=1 call of :func:`optimize_lockstep`.

        Parameters
        ----------
        objective:
            Function mapping a configuration dict to a value to minimize.
        space:
            Search space.
        budget:
            Number of trials ``T``.
        random_state:
            Seed or generator — the :math:`\\xi_H` source.
        """
        return optimize_lockstep(
            [self],
            lambda configs: [objective(config) for config in configs],
            space,
            budget=budget,
            random_states=[random_state],
        )[0]


def optimize_lockstep(
    optimizers: Sequence[HPOptimizer],
    objective_many: ObjectiveMany,
    space: SearchSpace,
    *,
    budget: int,
    random_states: Sequence,
) -> List[HPOResult]:
    """Run B independent HOpt runs in lockstep, one trial at a time.

    Item ``b`` keeps its own deep copy of ``optimizers[b]`` (optimizers may
    keep per-run state, e.g. the grid a grid search lays out in
    :meth:`~HPOptimizer.prepare`), its own generator from
    ``random_states[b]``, its own prepared space and its own trial history.
    At trial ``t`` every item proposes in item order, then the B configs
    are scored by one ``objective_many`` call.  Each item draws from its
    generator in the same order a run on its own would, so item ``b`` is
    bitwise-identical to ``optimizers[b].optimize(...)`` with the same
    seed and an objective that scores each configuration the same way.
    """
    budget = check_positive_int(budget, "budget")
    if len(optimizers) != len(random_states):
        raise ValueError("optimizers and random_states must align")
    optimizers = [copy.deepcopy(optimizer) for optimizer in optimizers]
    rngs = [check_random_state(state) for state in random_states]
    spaces = [
        optimizer.prepare(space, rng, budget)
        for optimizer, rng in zip(optimizers, rngs)
    ]
    results = [HPOResult() for _ in optimizers]
    for index in range(budget):
        configs = [
            dict(optimizer.propose(item_space, result.trials, rng, budget))
            for optimizer, item_space, result, rng in zip(
                optimizers, spaces, results, rngs
            )
        ]
        values = list(objective_many(configs))
        if len(values) != len(configs):
            raise ValueError("objective_many must return one value per config")
        for result, config, value in zip(results, configs, values):
            result.trials.append(Trial(config=config, value=float(value), index=index))
    return results
