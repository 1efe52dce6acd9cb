"""Small differentiable models built from adapter-augmented linear layers.

A network is a stack of bias-free linear maps y = x @ W with an elementwise
activation after each, followed by a batch-mean loss. The backward pass is
analytic and layer-local (three primitives do not warrant an autodiff tape).

An adapter layer's W = W0 + s*B*A is never formed: ``forward`` computes
x @ W0 + s*(x @ B) @ A, and ``backward`` gives each layer's weight gradient
factored, as x^T delta, beside the factor gradients it determines. The
dense pair ``forward_with_weights``/``backward_weight_grads`` takes explicit
weights; full fine-tuning trains with it, and the certification suite
checks the factored pair against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonFiniteError, ShapeError
from .gradadjust import GradBundle
from .linalg import as_matrix, build_unchecked
from .lora import LoraLayer

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

    # the weights of ``forward_with_weights``; None when ``forward`` made the cache
    weights: list[np.ndarray] | None
    pre_activations: list[np.ndarray]
    post_activations: list[np.ndarray]  # index 0 is the input batch
    batch: Batch
    activations: list[str]
    loss_kind: str
    # (the layer, x @ B) per layer when ``forward`` made the cache; None when
    # ``forward_with_weights`` made it
    layers: list[tuple[LoraLayer, np.ndarray]] | None = None


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
    # 1 - tanh(z)^2 in one buffer
    grad = np.tanh(z)
    grad *= grad
    return np.subtract(1.0, grad, out=grad)


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
    """Forward pass of the adapter network, each layer as x @ W0 + s*(x @ B) @ A.

    The cache keeps, per layer, the layer itself, which cannot change, and
    x @ B, so ``backward`` differentiates this pass whatever the network
    holds afterwards.
    """
    pre, post, layers = [], [batch.inputs], []
    for i, (layer, act) in enumerate(zip(net.layers, net.activations)):
        x = post[-1]
        if x.shape[1] != layer.w0.shape[0]:
            raise ShapeError(f"layer {i} gets inputs of dim {x.shape[1]}, "
                             f"but its weight has {layer.w0.shape[0]} rows")
        xb = x @ layer.b
        z = x @ layer.w0
        z += (layer.scaling * xb) @ layer.a
        pre.append(z)
        post.append(_activate(z, act))
        layers.append((layer, xb))
    loss = _loss(post[-1], batch, net.loss_kind)
    if not np.isfinite(loss):
        raise NonFiniteError(f"forward produced non-finite loss {loss}")
    return loss, ForwardCache(weights=None, pre_activations=pre, post_activations=post,
                              batch=batch, activations=list(net.activations),
                              loss_kind=net.loss_kind, layers=layers)


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
    """Per-layer gradient bundles: the raw factor gradients and the weight gradient.

    The loss gradient delta at a layer's output goes down as
    delta @ W0^T + s*(delta @ A^T) @ B^T. Each layer's bundle holds
    g_a_lora = s*(x @ B)^T delta, g_b_lora = s*x^T (delta @ A^T) and the
    weight gradient g = x^T delta. Where (2r + batch)(m + n) < m n, as on
    layers much wider than the batch, g is held as its factors ``x`` and
    ``delta`` and no m x n array is formed (``GradBundle.full_gradient``
    forms g on request); on smaller layers it is held as ``g_full``.

    Differentiates the forward pass that made ``cache``, at the layers it
    saw, whatever the network has held since. A cache of
    ``forward_with_weights`` holds no layers and raises ShapeError. Each
    bundle holds the layer it differentiates. The bundles' arrays derive
    from the checked forward pass and are not checked again: an overflow in
    them shows in the discrepancy
    (``harness.discrepancy``), which a training step checks.
    """
    if cache.layers is None:
        raise ShapeError("a forward_with_weights cache holds no layers to take factor "
                         "gradients of; backward_weight_grads takes its weight gradients")
    delta = _loss_grad(cache.post_activations[-1], cache.batch, cache.loss_kind)
    bundles: list[GradBundle] = [None] * len(cache.layers)  # type: ignore[list-item]
    for i in reversed(range(len(cache.layers))):
        layer, xb = cache.layers[i]
        x = cache.post_activations[i]
        if cache.activations[i] != "identity":  # whose derivative is 1, exactly
            # in place: delta is this pass's own array, the loss gradient or
            # the product carried down from the layer above
            delta *= _activate_grad(cache.pre_activations[i], cache.activations[i])
        # s scales the rank-sized products, not delta, which the bundle keeps
        s = layer.scaling
        g_a = xb.T @ delta
        g_a *= s
        scaled_a = delta @ layer.a.T
        scaled_a *= s
        # g stays factored where the discrepancy's two k x k Grams,
        # k = 2r + batch, take fewer products than g itself; elsewhere it is
        # formed once here, no larger than those Grams' inputs, and the
        # discrepancy forms the residual from it
        m, n = layer.shape
        if (2 * layer.rank + len(x)) * (m + n) < m * n:
            g = {"x": x, "delta": delta}
        else:
            g = {"g_full": x.T @ delta}
        bundles[i] = build_unchecked(GradBundle, layer=layer, g_a_lora=g_a,
                                     g_b_lora=x.T @ scaled_a, **g)
        if i > 0:
            delta = delta @ layer.w0.T
            delta += scaled_a @ layer.b.T
    return bundles
