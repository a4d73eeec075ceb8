"""MLP classification and regression pipelines.

These are the workhorse pipelines of the reproduction.  The classifier
stands in for the deep-network case studies (VGG11, BERT fine-tuning); the
regressor stands in for the MHC binding-affinity MLP.  Hyperparameter
search spaces follow the paper's per-task spaces (Tables 2, 3, 5, 6):
learning rate and weight decay on a log scale, momentum and the
learning-rate decay ``gamma`` on a linear scale, plus dropout and the
initialization standard deviation for the BERT-like configuration.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.dataset import Dataset
from repro.pipelines.base import FitOutcome, HParams, Pipeline, per_item_hparams
from repro.pipelines.layers import NOISE_LAYERS, combo_label, normalize_layers
from repro.pipelines.metrics import METRICS
from repro.pipelines.nn.batched import BatchedNetwork
from repro.pipelines.nn.network import MLPNetwork
from repro.pipelines.nn.optimizers import SGD, Adam
from repro.pipelines.nn.schedules import ExponentialDecaySchedule
from repro.pipelines.training import TrainingConfig, train_network, train_network_many
from repro.utils.rng import SeedBundle

__all__ = ["MLPClassifierPipeline", "MLPRegressorPipeline"]

#: Seed of the frozen initialization stream used when the ``init`` noise
#: layer is toggled off: every fit then starts from the same deterministic
#: weights while all other streams keep their per-run draws.
_FROZEN_INIT_SEED = 0x1217_5EED


def _build_search_space(include_init_std: bool, include_momentum: bool):
    """Construct the default search space shared by the MLP pipelines."""
    from repro.hpo.space import LinearDimension, LogUniformDimension, SearchSpace

    dims = {
        "learning_rate": LogUniformDimension(1e-3, 3e-1),
        "weight_decay": LogUniformDimension(1e-6, 1e-2),
        "gamma": LinearDimension(0.96, 0.999),
    }
    if include_momentum:
        dims["momentum"] = LinearDimension(0.5, 0.99)
    if include_init_std:
        dims["init_scale"] = LogUniformDimension(0.01, 0.5)
    return SearchSpace(dims)


def _clip_hparams(hparams: Mapping[str, Any]) -> Dict[str, Any]:
    """Project hyperparameters into their physically valid ranges.

    Hyperparameter optimizers such as the noisy grid search deliberately
    shift their search bounds (Appendix E.2), which can propose values just
    outside hard constraints (momentum ≥ 1, decay γ > 1, negative weight
    decay).  Training still has to be well defined for such proposals, so
    they are clipped here rather than rejected.
    """
    clipped = dict(hparams)
    if "learning_rate" in clipped:
        clipped["learning_rate"] = max(float(clipped["learning_rate"]), 1e-8)
    if "weight_decay" in clipped:
        clipped["weight_decay"] = max(float(clipped["weight_decay"]), 0.0)
    if "momentum" in clipped:
        clipped["momentum"] = float(np.clip(clipped["momentum"], 0.0, 0.999))
    if "gamma" in clipped:
        clipped["gamma"] = float(np.clip(clipped["gamma"], 1e-3, 1.0))
    if "dropout_rate" in clipped:
        clipped["dropout_rate"] = float(np.clip(clipped["dropout_rate"], 0.0, 0.95))
    if "init_scale" in clipped:
        clipped["init_scale"] = max(float(clipped["init_scale"]), 1e-8)
    return clipped


def _stackable(
    pipeline, trains: Sequence[Dataset], hparams_list: Sequence[HParams] = ()
) -> bool:
    """Whether a batch of training sets can share one stacked kernel.

    Bootstrap resamples of one dataset normally have identical train
    shapes (the in-bag size is fixed), but degenerate resamples (an empty
    out-of-bag set shrinks the in-bag pool) or a resample that misses the
    top class (changing the classifier's output width) break the stacking
    precondition — those batches fall back to the serial loop.  So does a
    batch whose items ask for different dropout rates: the stacked forward
    pass draws one mask shape at one rate for every item.
    """
    if len(trains) < 2:
        return False
    if len({train.X.shape for train in trains}) != 1:
        return False
    if len({pipeline._output_size(train) for train in trains}) != 1:
        return False
    rates = {pipeline.resolve_hparams(h).get("dropout_rate") for h in hparams_list}
    return len(rates) <= 1


def _fit_many_stacked(
    pipeline,
    trains: Sequence[Dataset],
    hparams_list: Sequence[HParams],
    seeds_list: Sequence[SeedBundle],
    valids: Sequence[Optional[Dataset]],
) -> List[FitOutcome]:
    """Vectorized multi-seed fit shared by the linear and MLP pipelines.

    Per-item networks are initialized from each seed's own ``init`` stream
    (identical draws to the serial path), stacked into ``(B, in, out)``
    tensors, and trained in one lockstep pass.  Each item brings its own
    hyperparameters: a single element-wise optimizer instance holds them
    as ``(B,)`` per-slice values and updates all B weight stacks per step,
    and each item keeps its own learning-rate schedule.  Scores and
    histories are bitwise-identical to B serial :meth:`Pipeline.fit` calls.
    """
    hparams_list = [_clip_hparams(pipeline.resolve_hparams(h)) for h in hparams_list]
    networks = [
        pipeline._build_network(train, hparams, seeds)
        for train, hparams, seeds in zip(trains, hparams_list, seeds_list)
    ]
    batched = BatchedNetwork(networks)
    per_slice = {
        name: np.array([hparams[name] for hparams in hparams_list], dtype=float)
        for name in ("learning_rate", "momentum", "weight_decay")
    }
    optimizer = pipeline._build_optimizer(per_slice)
    configs = [pipeline._training_config(hparams) for hparams in hparams_list]
    histories = train_network_many(batched, trains, optimizer, configs, seeds_list)
    batched.unstack()
    return [
        FitOutcome(
            model=network,
            train_score=pipeline.evaluate(network, train),
            valid_score=(
                pipeline.evaluate(network, valid) if valid is not None else None
            ),
            hparams=dict(hparams),
            seeds=seeds,
            history=history.as_dict(),
        )
        for network, train, hparams, seeds, valid, history in zip(
            networks, trains, hparams_list, seeds_list, valids, histories
        )
    ]


class _BaseMLPPipeline(Pipeline):
    """Shared implementation of the MLP pipelines."""

    task_type = "classification"

    def __init__(
        self,
        *,
        hidden_sizes: Sequence[int] = (32,),
        n_epochs: int = 20,
        batch_size: int = 32,
        activation: str = "relu",
        optimizer: str = "sgd",
        metric_name: str = "accuracy",
        augmentations: Sequence = (),
        dropout_rate: float = 0.0,
        numerical_noise_scale: float = 0.0,
        noise_layers: Optional[Sequence[str]] = None,
        name: Optional[str] = None,
    ) -> None:
        self.hidden_sizes = tuple(int(h) for h in hidden_sizes)
        self.n_epochs = int(n_epochs)
        self.batch_size = int(batch_size)
        self.activation = activation
        self.optimizer_name = optimizer
        self.metric_name = metric_name
        self.augmentations = tuple(augmentations)
        self.dropout_rate = float(dropout_rate)
        self.numerical_noise_scale = float(numerical_noise_scale)
        self.noise_layers = (
            NOISE_LAYERS if noise_layers is None else normalize_layers(noise_layers)
        )
        if optimizer not in ("sgd", "adam"):
            raise ValueError("optimizer must be 'sgd' or 'adam'")
        if metric_name not in METRICS:
            raise ValueError(f"unknown metric {metric_name!r}")
        self.name = name or f"mlp-{self.task_type}"
        self._base_name = self.name
        if self.noise_layers != NOISE_LAYERS:
            self.name = f"{self._base_name}[layers={combo_label(self.noise_layers)}]"

    def _layer_on(self, layer: str) -> bool:
        """Whether a noise layer is enabled for this pipeline."""
        return layer in self.noise_layers

    def with_noise_layers(self, layers) -> "_BaseMLPPipeline":
        """A clone of this pipeline with the given noise layers enabled.

        The clone's ``name`` carries the layer-combination label (unless
        every layer is on) because the measurement cache keys pipelines by
        name — two toggle variants must never collide on one cache entry.
        A layer-off clone consumes exactly the same seed streams for the
        remaining layers as the original, making its measurements true
        counterfactuals under a shared seed bundle.
        """
        layers = normalize_layers(layers)
        clone = copy.copy(self)
        clone.noise_layers = layers
        clone.name = clone._base_name
        if layers != NOISE_LAYERS:
            clone.name = f"{clone._base_name}[layers={combo_label(layers)}]"
        return clone

    def default_hparams(self) -> Dict[str, Any]:
        return {
            "learning_rate": 0.03,
            "weight_decay": 2e-3,
            "momentum": 0.9,
            "gamma": 0.97,
            "dropout_rate": self.dropout_rate,
            "init_scale": 1.0,
        }

    def search_space(self):
        return _build_search_space(
            include_init_std=self.optimizer_name == "adam",
            include_momentum=self.optimizer_name == "sgd",
        )

    def _output_size(self, train: Dataset) -> int:
        raise NotImplementedError

    def _init_scheme(self) -> str:
        return "gaussian" if self.optimizer_name == "adam" else "glorot_uniform"

    def _build_network(
        self, train: Dataset, hparams: Mapping[str, Any], seeds: SeedBundle
    ) -> MLPNetwork:
        layer_sizes = [train.n_features, *self.hidden_sizes, self._output_size(train)]
        if self._layer_on("init"):
            init_rng = seeds.rng_for("init")
        else:
            # Counterfactual: frozen deterministic init, other streams
            # untouched (each source owns an independent generator).
            init_rng = np.random.default_rng(_FROZEN_INIT_SEED)
        return MLPNetwork(
            layer_sizes,
            activation=self.activation,
            task_type=self.task_type,
            dropout_rate=(
                float(hparams["dropout_rate"]) if self._layer_on("dropout") else 0.0
            ),
            init_scheme=self._init_scheme(),
            init_scale=float(hparams["init_scale"]),
            init_rng=init_rng,
        )

    def _build_optimizer(self, hparams: Mapping[str, Any]):
        """The optimizer; values may be floats or ``(B,)`` per-slice arrays."""
        if self.optimizer_name == "adam":
            return Adam(
                learning_rate=hparams["learning_rate"],
                weight_decay=hparams["weight_decay"],
            )
        return SGD(
            learning_rate=hparams["learning_rate"],
            momentum=hparams["momentum"],
            weight_decay=hparams["weight_decay"],
        )

    def _training_config(self, hparams: Mapping[str, Any]) -> TrainingConfig:
        schedule = ExponentialDecaySchedule(
            learning_rate=float(hparams["learning_rate"]), gamma=float(hparams["gamma"])
        )
        return TrainingConfig(
            n_epochs=self.n_epochs,
            batch_size=self.batch_size,
            schedule=schedule,
            augmentations=self.augmentations if self._layer_on("augment") else (),
            numerical_noise_scale=self.numerical_noise_scale,
            shuffle=self._layer_on("order"),
        )

    def fit(
        self,
        train: Dataset,
        hparams: Mapping[str, Any],
        seeds: SeedBundle,
        valid: Optional[Dataset] = None,
    ) -> FitOutcome:
        hparams = _clip_hparams(self.resolve_hparams(hparams))
        network = self._build_network(train, hparams, seeds)
        optimizer = self._build_optimizer(hparams)
        config = self._training_config(hparams)
        history = train_network(network, train, optimizer, config, seeds)
        outcome = FitOutcome(
            model=network,
            train_score=self.evaluate(network, train),
            valid_score=self.evaluate(network, valid) if valid is not None else None,
            hparams=dict(hparams),
            seeds=seeds,
            history=history.as_dict(),
        )
        return outcome

    def fit_many(
        self,
        trains: Sequence[Dataset],
        hparams: Union[HParams, Sequence[HParams]],
        seeds_list: Sequence[SeedBundle],
        valids: Optional[Sequence[Optional[Dataset]]] = None,
    ) -> List[FitOutcome]:
        if valids is None:
            valids = [None] * len(trains)
        hparams_list = per_item_hparams(hparams, len(trains))
        if not _stackable(self, trains, hparams_list):
            return super().fit_many(trains, hparams_list, seeds_list, valids=valids)
        return _fit_many_stacked(self, trains, hparams_list, seeds_list, valids)

    def evaluate(self, model: MLPNetwork, dataset: Dataset) -> float:
        metric = METRICS[self.metric_name]
        predictions = model.predict(dataset.X)
        return float(metric(dataset.y, predictions))


class MLPClassifierPipeline(_BaseMLPPipeline):
    """Multi-layer perceptron classifier pipeline.

    Parameters
    ----------
    hidden_sizes:
        Hidden-layer widths.
    n_epochs, batch_size:
        Training-loop configuration (not tuned by HOpt, matching the paper
        which fixes batch size).
    optimizer:
        ``"sgd"`` (CIFAR10/VGG-like configuration, Glorot init, momentum) or
        ``"adam"`` (BERT-like configuration, Gaussian init with tunable
        standard deviation).
    metric_name:
        One of :data:`repro.pipelines.metrics.METRICS`.
    augmentations:
        Optional stochastic data augmentations (``augment`` variance source).
    numerical_noise_scale:
        Scale of the simulated numerical noise floor.
    """

    task_type = "classification"

    def _output_size(self, train: Dataset) -> int:
        return int(np.max(train.y)) + 1


class MLPRegressorPipeline(_BaseMLPPipeline):
    """Multi-layer perceptron regressor (MHC binding-affinity analogue).

    Uses a single linear output unit trained with mean squared error; the
    default evaluation metric is the coefficient of determination, but the
    Pearson correlation used in the paper's Table 8 is also available.
    """

    task_type = "regression"

    def __init__(self, **kwargs) -> None:
        kwargs.setdefault("metric_name", "r2")
        kwargs.setdefault("hidden_sizes", (64,))
        super().__init__(**kwargs)

    def _output_size(self, train: Dataset) -> int:
        return 1
