"""Seed-controlled mini-batch training loop.

This is where the paper's learning-procedure variance sources
:math:`\\xi_O` physically enter a fit:

* ``order``      — the permutation of examples at every epoch,
* ``dropout``    — the dropout masks,
* ``augment``    — stochastic data augmentation applied per epoch,
* ``init``       — consumed earlier, when the network weights are drawn,
* ``numerical``  — a small post-training parameter perturbation emulating
  non-deterministic kernels (Appendix A measures this as the noise floor).

Each source reads from its own :class:`numpy.random.Generator` supplied by a
:class:`~repro.utils.rng.SeedBundle`, so experiments can randomize any
subset while holding the others fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.pipelines.nn.batched import BatchedNetwork
from repro.pipelines.nn.network import MLPNetwork
from repro.pipelines.nn.optimizers import Optimizer
from repro.utils.rng import SeedBundle
from repro.utils.validation import check_positive_int

__all__ = [
    "TrainingConfig",
    "TrainingHistory",
    "train_network",
    "train_network_many",
]

#: Type of an augmentation transform: (X, rng) -> X'.
Transform = Callable[[np.ndarray, np.random.Generator], np.ndarray]


@dataclass(frozen=True)
class TrainingConfig:
    """Static configuration of one training run.

    Attributes
    ----------
    n_epochs:
        Number of passes over the training data.
    batch_size:
        Mini-batch size.
    schedule:
        Callable mapping epoch index to learning rate.
    augmentations:
        Sequence of stochastic transforms applied to each epoch's features.
    numerical_noise_scale:
        Relative scale of the post-training parameter perturbation emulating
        numerical non-determinism; 0 disables it.
    shuffle:
        Whether to reshuffle the data every epoch (the ``order`` source).
    """

    n_epochs: int = 20
    batch_size: int = 32
    schedule: Optional[Callable[[int], float]] = None
    augmentations: Sequence[Transform] = ()
    numerical_noise_scale: float = 0.0
    shuffle: bool = True


@dataclass
class TrainingHistory:
    """Per-epoch diagnostics collected during training."""

    losses: List[float] = field(default_factory=list)
    learning_rates: List[float] = field(default_factory=list)

    def as_dict(self) -> dict:
        """Plain-dict view used by :class:`repro.pipelines.base.FitOutcome`."""
        return {"losses": list(self.losses), "learning_rates": list(self.learning_rates)}


def _epoch_batches(
    n_samples: int,
    batch_size: int,
    order_rng: Optional[np.random.Generator],
    shuffle: bool,
) -> List[np.ndarray]:
    """Split sample indices into mini-batches, optionally shuffled."""
    if shuffle and order_rng is not None:
        indices = order_rng.permutation(n_samples)
    else:
        indices = np.arange(n_samples)
    return [
        indices[start : start + batch_size]
        for start in range(0, n_samples, batch_size)
    ]


def train_network(
    network: MLPNetwork,
    train: Dataset,
    optimizer: Optimizer,
    config: TrainingConfig,
    seeds: SeedBundle,
) -> TrainingHistory:
    """Train ``network`` in place on ``train`` and return the loss history.

    Parameters
    ----------
    network:
        A freshly initialized :class:`~repro.pipelines.nn.network.MLPNetwork`
        (its weights should have been drawn with the ``init`` stream of the
        same seed bundle).
    train:
        Training dataset.
    optimizer:
        Optimizer instance holding learning rate / momentum state.
    config:
        Static training configuration.
    seeds:
        Seed bundle supplying the ``order``, ``dropout``, ``augment`` and
        ``numerical`` random streams.
    """
    check_positive_int(config.n_epochs, "n_epochs")
    check_positive_int(config.batch_size, "batch_size")
    order_rng = seeds.rng_for("order")
    dropout_rng = seeds.rng_for("dropout") if network.dropout_rate > 0 else None
    augment_rng = seeds.rng_for("augment") if config.augmentations else None
    history = TrainingHistory()
    parameters = network.parameters()
    for epoch in range(config.n_epochs):
        lr = (
            config.schedule(epoch)
            if config.schedule is not None
            else optimizer.learning_rate
        )
        X_epoch = train.X
        if augment_rng is not None:
            for transform in config.augmentations:
                X_epoch = transform(X_epoch, augment_rng)
        epoch_loss = 0.0
        batches = _epoch_batches(
            train.n_samples, config.batch_size, order_rng, config.shuffle
        )
        for batch in batches:
            loss, gradients = network.loss_and_gradients(
                X_epoch[batch], train.y[batch], dropout_rng=dropout_rng
            )
            optimizer.step(parameters, gradients, lr)
            epoch_loss += loss * batch.size
        history.losses.append(epoch_loss / train.n_samples)
        history.learning_rates.append(lr)
    if config.numerical_noise_scale > 0:
        network.perturb_parameters(
            config.numerical_noise_scale, seeds.rng_for("numerical")
        )
    return history


def train_network_many(
    batched: "BatchedNetwork",
    trains: Sequence[Dataset],
    optimizer: Optimizer,
    configs: Sequence[TrainingConfig],
    seeds_list: Sequence[SeedBundle],
) -> List[TrainingHistory]:
    """Train B stacked networks in lockstep, one per ``(train, config, seeds)``.

    The vectorized twin of :func:`train_network`: every random stream
    (order permutations, dropout masks, augmentations, the numerical
    perturbation) is consumed *per item* from that item's own seed bundle
    in exactly the order the serial loop consumes it, while the arithmetic
    between draws (forward, backward, optimizer step) runs once on the
    ``(B, ...)`` stacks.  Each item keeps its own learning-rate schedule,
    and the optimizer may hold per-slice ``(B,)`` hyperparameters (see
    :mod:`repro.pipelines.nn.optimizers`), so the items of one batch can
    train under different hyperparameters.  Everything else in the configs
    must agree, and every training set must have the same shape —
    :meth:`repro.pipelines.base.Pipeline.fit_many` checks this and falls
    back to a serial loop otherwise.

    Returns one :class:`TrainingHistory` per item, bitwise-equal to the
    serial histories.
    """
    trains = list(trains)
    configs = list(configs)
    seeds_list = list(seeds_list)
    n_items = batched.n_items
    if not len(trains) == len(configs) == len(seeds_list) == n_items:
        raise ValueError("trains, configs, seeds_list and the batch must align")
    config = configs[0]
    shared = replace(config, schedule=None)
    if any(replace(item, schedule=None) != shared for item in configs):
        raise ValueError("stacked items may differ only in their schedule")
    check_positive_int(config.n_epochs, "n_epochs")
    check_positive_int(config.batch_size, "batch_size")
    n_samples = trains[0].n_samples
    if any(t.n_samples != n_samples for t in trains):
        raise ValueError("all training sets must have the same size")
    order_rngs = [seeds.rng_for("order") for seeds in seeds_list]
    dropout_rngs = (
        [seeds.rng_for("dropout") for seeds in seeds_list]
        if batched.dropout_rate > 0
        else None
    )
    augment_rngs = (
        [seeds.rng_for("augment") for seeds in seeds_list]
        if config.augmentations
        else None
    )
    histories = [TrainingHistory() for _ in range(n_items)]
    parameters = batched.parameters()
    base_rates = np.broadcast_to(optimizer.learning_rate, (n_items,))
    for epoch in range(config.n_epochs):
        lrs = [
            item.schedule(epoch) if item.schedule is not None else base_rates[index]
            for index, item in enumerate(configs)
        ]
        lr = np.array(lrs, dtype=float)
        X_epochs = []
        for index, train in enumerate(trains):
            X_epoch = train.X
            if augment_rngs is not None:
                for transform in config.augmentations:
                    X_epoch = transform(X_epoch, augment_rngs[index])
            X_epochs.append(X_epoch)
        epoch_losses = np.zeros(n_items)
        item_batches = [
            _epoch_batches(n_samples, config.batch_size, order_rngs[index], config.shuffle)
            for index in range(n_items)
        ]
        for step in range(len(item_batches[0])):
            batch_indices = [batches[step] for batches in item_batches]
            X_stack = np.stack(
                [X_epochs[index][batch_indices[index]] for index in range(n_items)]
            )
            y_stack = np.stack(
                [trains[index].y[batch_indices[index]] for index in range(n_items)]
            )
            losses, gradients = batched.loss_and_gradients(
                X_stack, y_stack, dropout_rngs=dropout_rngs
            )
            optimizer.step(parameters, gradients, lr)
            epoch_losses += losses * batch_indices[0].size
        for index in range(n_items):
            histories[index].losses.append(float(epoch_losses[index] / n_samples))
            histories[index].learning_rates.append(lrs[index])
    if config.numerical_noise_scale > 0:
        batched.perturb_parameters(
            config.numerical_noise_scale,
            [seeds.rng_for("numerical") for seeds in seeds_list],
        )
    return histories
