"""Small differentiable models built from adapter-augmented linear layers.

A network is a stack of bias-free linear maps y = x @ W with an elementwise
activation after each, followed by a batch-mean loss. The backward pass is
analytic and layer-local (three primitives do not warrant an autodiff tape),
which keeps the full weight gradients exact and reproducible — they are the
reference every adjustment check compares against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import NonFiniteError, ShapeError, StaleCacheError
from .gradadjust import GradBundle, lora_raw_grads
from .linalg import as_matrix
from .lora import LoraLayer, effective_weight

__all__ = [
    "ACTIVATIONS",
    "LOSS_KINDS",
    "Network",
    "Batch",
    "ForwardCache",
    "forward",
    "forward_with_weights",
    "backward",
    "backward_weight_grads",
]

ACTIVATIONS = ("identity", "relu", "tanh")
LOSS_KINDS = ("mse", "softmax_cross_entropy")


@dataclass
class Network:
    layers: list[LoraLayer]
    activations: list[str]
    loss_kind: str = "mse"

    def __post_init__(self):
        if len(self.layers) != len(self.activations):
            raise ShapeError(
                f"{len(self.layers)} layers but {len(self.activations)} activations"
            )
        for act in self.activations:
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}, expected one of {ACTIVATIONS}")
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.loss_kind!r}, expected one of {LOSS_KINDS}")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.shape[1] != nxt.shape[0]:
                raise ShapeError(
                    f"layer dimensions do not compose: {prev.shape} feeds {nxt.shape}"
                )

    def effective_weights(self) -> list[np.ndarray]:
        return [effective_weight(layer) for layer in self.layers]


@dataclass
class Batch:
    """Inputs (batch x d_in) and targets: floats (batch x d_out) or int class ids."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = as_matrix(self.inputs, "inputs")
        targets = np.asarray(self.targets)
        if np.issubdtype(targets.dtype, np.integer):
            if targets.ndim != 1:
                raise ShapeError(f"class-index targets must be 1-D, got ndim={targets.ndim}")
            self.targets = targets.astype(np.int64)
        else:
            self.targets = as_matrix(targets, "targets")
        if len(self.targets) != self.inputs.shape[0]:
            raise ShapeError(
                f"batch size mismatch: {self.inputs.shape[0]} inputs, {len(self.targets)} targets"
            )


@dataclass
class ForwardCache:
    weights: list[np.ndarray]
    pre_activations: list[np.ndarray]
    post_activations: list[np.ndarray]  # index 0 is the input batch
    batch: Batch
    loss: float
    # per layer (w0, copy of b, copy of a, scaling), when ``forward`` made the cache
    layers_seen: list[tuple] | None = field(default=None, init=False, repr=False, compare=False)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "identity":
        return z
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _activate_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "identity":
        return np.ones_like(z)
    if kind == "relu":
        # subgradient at exactly 0 is fixed to 0
        return (z > 0.0).astype(np.float64)
    return 1.0 - np.tanh(z) ** 2


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _one_hot(targets: np.ndarray, k: int) -> np.ndarray:
    if np.issubdtype(targets.dtype, np.integer):
        if targets.min() < 0 or targets.max() >= k:
            raise ShapeError(f"class ids must lie in [0, {k}), got range "
                             f"[{targets.min()}, {targets.max()}]")
        onehot = np.zeros((targets.shape[0], k))
        onehot[np.arange(targets.shape[0]), targets] = 1.0
        return onehot
    return targets


def _checked_targets(pred: np.ndarray, batch: Batch, kind: str) -> np.ndarray:
    """The targets as an array shaped like ``pred``: the float targets, or one-hot class ids."""
    if kind == "mse":
        targets = batch.targets
        if np.issubdtype(targets.dtype, np.integer):
            raise ShapeError("mse loss requires float targets, got class indices")
        if targets.shape != pred.shape:
            raise ShapeError(f"targets {targets.shape} do not match predictions {pred.shape}")
        return targets
    onehot = _one_hot(batch.targets, pred.shape[1])
    if onehot.shape != pred.shape:
        raise ShapeError(f"targets {onehot.shape} do not match logits {pred.shape}")
    return onehot


def _loss(pred: np.ndarray, batch: Batch, kind: str) -> float:
    targets = _checked_targets(pred, batch, kind)
    batch_size = pred.shape[0]
    if kind == "mse":
        diff = pred - targets
        return float(np.sum(diff**2)) / batch_size
    # softmax cross entropy in the stable shifted form
    shifted = pred - pred.max(axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1))
    return float(np.sum(log_z - np.sum(shifted * targets, axis=1))) / batch_size


def _loss_grad(pred: np.ndarray, batch: Batch, kind: str) -> np.ndarray:
    """The gradient of ``_loss`` with respect to ``pred``."""
    targets = _checked_targets(pred, batch, kind)
    batch_size = pred.shape[0]
    if kind == "mse":
        return (2.0 / batch_size) * (pred - targets)
    # softmax cross entropy, fused: the gradient is (softmax - onehot)
    return (_softmax(pred) - targets) / batch_size


def forward_with_weights(
    weights: Sequence[np.ndarray],
    activations: Sequence[str],
    loss_kind: str,
    batch: Batch,
) -> tuple[float, ForwardCache]:
    """Forward pass over explicit per-layer weights (used directly by full fine-tuning)."""
    x = batch.inputs
    if x.shape[1] != weights[0].shape[0]:
        raise ShapeError(
            f"input dim {x.shape[1]} does not match first layer rows {weights[0].shape[0]}"
        )
    pre, post = [], [x]
    for w, act in zip(weights, activations):
        if post[-1].shape[1] != w.shape[0]:
            raise ShapeError(f"dimension chain broken at weight of shape {w.shape}")
        z = post[-1] @ w
        pre.append(z)
        post.append(_activate(z, act))
    loss = _loss(post[-1], batch, loss_kind)
    if not np.isfinite(loss):
        raise NonFiniteError(f"forward produced non-finite loss {loss}")
    return loss, ForwardCache(
        weights=[w for w in weights],
        pre_activations=pre,
        post_activations=post,
        batch=batch,
        loss=loss,
    )


def forward(net: Network, batch: Batch) -> tuple[float, ForwardCache]:
    loss, cache = forward_with_weights(
        net.effective_weights(), net.activations, net.loss_kind, batch
    )
    cache.layers_seen = [
        (layer.w0, layer.b.copy(), layer.a.copy(), layer.scaling) for layer in net.layers
    ]
    return loss, cache


def _unchanged_since(cache: ForwardCache, net: Network) -> bool:
    """Whether every layer still has the w0, factor values and scaling ``forward`` saw.

    w0 is frozen, so it is compared by identity; the factors, which a
    training loop may write in place, by value.
    """
    if cache.layers_seen is None or len(cache.layers_seen) != len(net.layers):
        return False
    return all(
        layer.w0 is w0
        and layer.scaling == scaling
        and np.array_equal(layer.b, b)
        and np.array_equal(layer.a, a)
        for layer, (w0, b, a, scaling) in zip(net.layers, cache.layers_seen)
    )


def backward_weight_grads(cache: ForwardCache, activations: Sequence[str],
                          loss_kind: str) -> list[np.ndarray]:
    """Exact batch-loss gradient with respect to each layer's weight matrix."""
    delta = _loss_grad(cache.post_activations[-1], cache.batch, loss_kind)
    grads: list[np.ndarray] = [None] * len(cache.weights)  # type: ignore[list-item]
    for i in reversed(range(len(cache.weights))):
        delta = delta * _activate_grad(cache.pre_activations[i], activations[i])
        grads[i] = cache.post_activations[i].T @ delta
        if i > 0:
            delta = delta @ cache.weights[i].T
    return grads


def backward(net: Network, cache: ForwardCache) -> list[GradBundle]:
    """Per-layer gradient bundles (full weight gradient plus raw factor gradients).

    Raises StaleCacheError if the network's effective weights are no longer
    the ones ``cache`` was computed with. A cache that ``forward`` made from
    layers whose w0, factors and scaling are unchanged passes without
    recomputing the effective weights. A non-finite weight gradient raises
    NonFiniteError naming its layer.
    """
    if not _unchanged_since(cache, net):
        current = net.effective_weights()
        if len(current) != len(cache.weights) or any(
            w.shape != cw.shape or not np.array_equal(w, cw)
            for w, cw in zip(current, cache.weights)
        ):
            raise StaleCacheError("cache does not match the network's current weights")
    grads = backward_weight_grads(cache, net.activations, net.loss_kind)
    bundles = []
    for i, (layer, g) in enumerate(zip(net.layers, grads)):
        try:
            bundles.append(lora_raw_grads(layer, g))
        except NonFiniteError as exc:
            raise NonFiniteError(f"layer {i}: {exc}") from exc
    return bundles
