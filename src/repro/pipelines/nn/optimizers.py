"""First-order optimizers: SGD with momentum, and Adam.

Weight decay is applied as an L2 penalty added to the gradients (coupled
weight decay), matching the formulation of the regularized objective in
Equation 1 of the paper.

Every hyperparameter (learning rate, momentum, weight decay) is either one
float or a ``(B,)`` array of per-slice values for the ``(B, ...)`` parameter
stacks of a :class:`~repro.pipelines.nn.batched.BatchedNetwork`: slice ``b``
is then updated exactly as a serial optimizer built from the ``b``-th values
would update that item's parameters, bit for bit.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Union

import numpy as np

__all__ = ["Optimizer", "SGD", "Adam"]

#: One hyperparameter value: a float, or one float per stacked slice.
Hyperparameter = Union[float, np.ndarray]


def _hyperparameter(value) -> Hyperparameter:
    """A float, or a ``(B,)`` float array of per-slice values."""
    # The float check first: steps call this once each, and the serial
    # path must not pay numpy's scalar-to-array conversion on every step.
    if type(value) is float:
        return value
    array = np.asarray(value, dtype=float)
    return float(array) if array.ndim == 0 else array


def _per_slice(value: Hyperparameter, param: np.ndarray) -> Hyperparameter:
    """Broadcast a per-slice ``(B,)`` value over a ``(B, ...)`` stack."""
    if type(value) is float:
        return value
    return value.reshape((-1,) + (1,) * (param.ndim - 1))


class Optimizer(ABC):
    """Base class holding per-parameter state for in-place updates."""

    def __init__(
        self, learning_rate: Hyperparameter, weight_decay: Hyperparameter = 0.0
    ) -> None:
        self.learning_rate = _hyperparameter(learning_rate)
        self.weight_decay = _hyperparameter(weight_decay)
        if np.any(self.learning_rate <= 0):
            raise ValueError("learning_rate must be positive")
        if np.any(self.weight_decay < 0):
            raise ValueError("weight_decay must be non-negative")

    @abstractmethod
    def update(
        self,
        parameters: List[np.ndarray],
        gradients: List[np.ndarray],
        learning_rate: Hyperparameter,
    ) -> None:
        """Apply one in-place update of ``parameters`` given ``gradients``."""

    def step(
        self,
        parameters: List[np.ndarray],
        gradients: List[np.ndarray],
        learning_rate: Hyperparameter | None = None,
    ) -> None:
        """Update parameters, adding the weight-decay term to the gradients.

        The term is added only where the weight decay is positive, per
        slice: ``g + 0.0 * p`` would turn a ``-0.0`` gradient into ``+0.0``.
        """
        lr = (
            self.learning_rate
            if learning_rate is None
            else _hyperparameter(learning_rate)
        )
        decay = self.weight_decay
        if type(decay) is float:
            if decay > 0:
                gradients = [g + decay * p for g, p in zip(gradients, parameters)]
        else:
            positive = decay > 0
            if positive.any():
                decayed = [
                    g + _per_slice(decay, p) * p for g, p in zip(gradients, parameters)
                ]
                if not positive.all():
                    decayed = [
                        np.where(_per_slice(positive, p), g_decayed, g)
                        for g_decayed, g, p in zip(decayed, gradients, parameters)
                    ]
                gradients = decayed
        self.update(parameters, gradients, lr)


class SGD(Optimizer):
    """Stochastic gradient descent with classical momentum."""

    def __init__(
        self,
        learning_rate: Hyperparameter,
        momentum: Hyperparameter = 0.0,
        weight_decay: Hyperparameter = 0.0,
    ) -> None:
        super().__init__(learning_rate, weight_decay)
        self.momentum = _hyperparameter(momentum)
        if not np.all((0.0 <= self.momentum) & (self.momentum < 1.0)):
            raise ValueError("momentum must be in [0, 1)")
        self._velocities: List[np.ndarray] | None = None

    def update(
        self,
        parameters: List[np.ndarray],
        gradients: List[np.ndarray],
        learning_rate: Hyperparameter,
    ) -> None:
        if self._velocities is None:
            self._velocities = [np.zeros_like(p) for p in parameters]
        for param, grad, velocity in zip(parameters, gradients, self._velocities):
            velocity *= _per_slice(self.momentum, param)
            velocity -= _per_slice(learning_rate, param) * grad
            param += velocity


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba), used for the BERT-like pipelines."""

    def __init__(
        self,
        learning_rate: Hyperparameter,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        weight_decay: Hyperparameter = 0.0,
    ) -> None:
        super().__init__(learning_rate, weight_decay)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self._m: List[np.ndarray] | None = None
        self._v: List[np.ndarray] | None = None
        self._t = 0

    def update(
        self,
        parameters: List[np.ndarray],
        gradients: List[np.ndarray],
        learning_rate: Hyperparameter,
    ) -> None:
        if self._m is None or self._v is None:
            self._m = [np.zeros_like(p) for p in parameters]
            self._v = [np.zeros_like(p) for p in parameters]
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for param, grad, m, v in zip(parameters, gradients, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            lr = _per_slice(learning_rate, param)
            param -= lr * m_hat / (np.sqrt(v_hat) + self.epsilon)
