"""Small differentiable models built from adapter-augmented linear layers.

A network is a stack of bias-free linear maps y = x @ W with an elementwise
activation after each, followed by a batch-mean loss. The backward pass is
analytic and layer-local (three primitives do not warrant an autodiff tape),
which keeps the full weight gradients exact and reproducible — they are the
reference every adjustment check compares against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonFiniteError, ShapeError
from .gradadjust import GradBundle, lora_raw_grads
from .linalg import as_matrix, replace_unchecked
from .lora import LoraLayer, capture, effective_weight, holds

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
    """What a forward pass computed, and all that its backward pass reads."""

    weights: list[np.ndarray]
    pre_activations: list[np.ndarray]
    post_activations: list[np.ndarray]  # index 0 is the input batch
    batch: Batch
    activations: list[str]
    loss_kind: str
    # (layer, lora.capture of it) per layer when ``forward`` made the cache;
    # None when ``forward_with_weights`` made it from bare weights
    layers: list[tuple[LoraLayer, tuple]] | None = None


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
    # a diverging run overflows here into inf or NaN, which ends in the
    # caller's NonFiniteError rather than in a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
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
    pre, post = [], [batch.inputs]
    for i, (w, act) in enumerate(zip(weights, activations)):
        if post[-1].shape[1] != w.shape[0]:
            raise ShapeError(f"layer {i} gets inputs of dim {post[-1].shape[1]}, "
                             f"but its weight has {w.shape[0]} rows")
        z = post[-1] @ w
        pre.append(z)
        post.append(_activate(z, act))
    loss = _loss(post[-1], batch, loss_kind)
    if not np.isfinite(loss):
        raise NonFiniteError(f"forward produced non-finite loss {loss}")
    return loss, ForwardCache(weights=list(weights), pre_activations=pre, post_activations=post,
                              batch=batch, activations=list(activations), loss_kind=loss_kind)


def forward(net: Network, batch: Batch) -> tuple[float, ForwardCache]:
    loss, cache = forward_with_weights(
        [effective_weight(layer) for layer in net.layers], net.activations, net.loss_kind, batch
    )
    cache.layers = [(layer, capture(layer)) for layer in net.layers]
    return loss, cache


def backward_weight_grads(cache: ForwardCache) -> list[np.ndarray]:
    """Exact batch-loss gradient with respect to each layer's weight matrix."""
    delta = _loss_grad(cache.post_activations[-1], cache.batch, cache.loss_kind)
    grads: list[np.ndarray] = [None] * len(cache.weights)  # type: ignore[list-item]
    for i in reversed(range(len(cache.weights))):
        delta = delta * _activate_grad(cache.pre_activations[i], cache.activations[i])
        grads[i] = cache.post_activations[i].T @ delta
        if i > 0:
            delta = delta @ cache.weights[i].T
    return grads


def backward(cache: ForwardCache) -> list[GradBundle]:
    """Per-layer gradient bundles (full weight gradient plus raw factor gradients).

    Differentiates the forward pass that made ``cache``: the raw factor
    gradients come from the layers as ``forward`` captured them, whatever the
    network or its layers have done since. A cache of ``forward_with_weights``
    holds no layers and raises ShapeError. A non-finite weight gradient
    raises NonFiniteError naming its layer.
    """
    if cache.layers is None:
        raise ShapeError("a forward_with_weights cache holds no layers to take factor "
                         "gradients of; backward_weight_grads takes its weight gradients")
    grads = backward_weight_grads(cache)
    bundles = []
    for i, ((layer, captured), g) in enumerate(zip(cache.layers, grads)):
        if not holds(layer, captured):  # a new value only for a layer changed since
            _, _, b, a, alpha, rank, mode = captured
            layer = replace_unchecked(layer, b=b, a=a, alpha=alpha, rank=rank, scaling_mode=mode)
        try:
            bundles.append(lora_raw_grads(layer, g))
        except NonFiniteError as exc:
            raise NonFiniteError(f"layer {i}: {exc}") from exc
    return bundles
