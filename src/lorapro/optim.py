"""Optimizer steps: adjusted-gradient SGD and AdamW, and the two AdamW references.

The AdamW variant tracks first and second moments of the *equivalent
gradient* at the full m x n weight shape (the price of mimicking full
fine-tuning), re-projects the moment-transformed gradient onto the factors,
adjusts a second time, and applies weight decay in the decomposed form that
decays the merged weight exactly. The references are the ``lora`` method
(AdamW with per-factor moments on the raw factor gradients) and the
``full_ft`` method (AdamW on the weight matrix itself).

A run's optimizer settings, AdamW's beta1, beta2 and epsilon included, are
one ``HyperParams``, checked when it is built; each AdamW step reads them
from the ``hp`` it is given. An ``AdamWState`` holds only what changes from
step to step: one matrix's two moments and its step count.

The LoRA-Pro steps start from what one adjustment already solved: the SGD
step from the X = 0 ``Projection`` of the layer's gradients, which it
shifts by the strategy's X, and the AdamW step from that projection's X = 0
pair, with the layer's ``TangentGeometry``. The AdamW step forms the pair's
equivalent gradient, the new moments, the Adam direction and the
direction's re-projection onto the factors in one pass per block of rows,
so beside its two new moments it holds no m x n array; the Adam arithmetic
of a block is ``adamw_transform``'s, operation for operation.

All step functions are functional: they return fresh layer/state values and
write to no input but a buffer handed over for the moment-transformed
direction: ``adamw_transform`` and ``full_ft_adamw_step`` consume the buffer
passed as ``out``, if any. The values they return are computed from inputs
that were checked where they entered, so they are built without re-running
the constructors' checks: a layer by ``lora.derived``, its new arrays
read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .gradadjust import (
    GradBundle,
    Projection,
    TangentGeometry,
    _check_pair_shapes,
    adjust,
    shift,
)
from .linalg import as_matrix, build_unchecked, replace_unchecked
from .lora import LoraLayer, apply_decayed_merge_step, derived

__all__ = [
    "HyperParams",
    "AdamWState",
    "init_adamw_state",
    "lr_at",
    "adamw_transform",
    "lorapro_sgd_step",
    "lorapro_adamw_step",
    "lora_adamw_step",
    "full_ft_adamw_step",
]

SCHEDULES = ("constant", "cosine_with_warmup")
# The size of each of lorapro_adamw_step's two block buffers, in bytes: a
# block is max(1, BLOCK_BYTES // (8 n)) rows of an m x n layer.
BLOCK_BYTES = 64 * 1024


@dataclass
class HyperParams:
    """Every optimizer setting of a run, each checked when it is built."""

    lr: float
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    schedule: str = "constant"
    warmup_ratio: float = 0.0

    def __post_init__(self):
        for name in ("lr", "weight_decay", "beta1", "beta2", "epsilon", "warmup_ratio"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.lr < 0.0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        # lr is the schedule's peak, so this bounds the decay of every step
        if self.weight_decay < 0.0 or self.lr * self.weight_decay >= 1.0:
            raise ValueError(
                f"weight_decay must be >= 0 with lr * weight_decay < 1, got "
                f"weight_decay={self.weight_decay}, lr={self.lr}"
            )
        for name, beta in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0.0 <= beta < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {beta}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}, expected one of {SCHEDULES}")
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ValueError(f"warmup_ratio must be in [0, 1), got {self.warmup_ratio}")


@dataclass
class AdamWState:
    """Exponential moment accumulators and step count for one parameter matrix."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    def __post_init__(self):
        self.m = as_matrix(self.m, "m")
        self.v = as_matrix(self.v, "v")
        if self.m.shape != self.v.shape:
            raise ShapeError(f"moment shapes differ: {self.m.shape} vs {self.v.shape}")
        if np.any(self.v < 0.0):
            raise ValueError("second moment must be entrywise nonnegative")
        if self.t < 0:
            raise ValueError(f"step counter must be >= 0, got {self.t}")


def init_adamw_state(shape: tuple[int, int]) -> AdamWState:
    return AdamWState(m=np.zeros(shape), v=np.zeros(shape))


def lr_at(hp: HyperParams, step: int, total_steps: int) -> float:
    """Schedule evaluation: linear warmup from 0, then cosine decay to 0.

    ``step`` counts applied optimizer steps (0 = before the first update) and
    clamps to ``total_steps``.
    """
    if total_steps < 1:
        raise ValueError(f"total_steps must be >= 1, got {total_steps}")
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    step = min(step, total_steps)
    if hp.schedule == "constant":
        return hp.lr
    warmup = math.ceil(hp.warmup_ratio * total_steps)
    if step < warmup:
        return hp.lr * step / warmup
    frac = (step - warmup) / max(1, total_steps - warmup)
    return hp.lr * 0.5 * (1.0 + math.cos(math.pi * frac))


def _adam_rows(m0, v0, grad, hp: HyperParams, t: int, m, v, direction, scratch):
    """The Adam arithmetic of step ``t`` on one set of rows, into the buffers given.

    m = beta1*m0 + (1-beta1)*grad,  v = beta2*v0 + (1-beta2)*grad**2,
    direction = (m / (1-beta1**t)) / (sqrt(v / (1-beta2**t)) + epsilon),
    the same operations in the same order wherever it runs, so a row
    computed in a block has the bits of that row computed whole. ``grad``
    is read in full before ``direction`` is written, so ``direction`` may
    be its buffer; ``scratch`` is any float64 buffer of grad's shape.
    """
    beta1, beta2 = hp.beta1, hp.beta2
    np.multiply(grad, 1.0 - beta1, out=scratch)
    np.multiply(m0, beta1, out=m)
    m += scratch
    np.square(grad, out=scratch)
    scratch *= 1.0 - beta2
    np.multiply(v0, beta2, out=v)
    v += scratch
    np.divide(m, 1.0 - beta1**t, out=direction)
    np.divide(v, 1.0 - beta2**t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += hp.epsilon
    direction /= scratch
    return direction


def adamw_transform(
    state: AdamWState,
    grad: np.ndarray,
    hp: HyperParams,
    out: np.ndarray | None = None,
    *,
    checked: bool = False,
) -> tuple[np.ndarray, AdamWState]:
    """One moment update plus bias-corrected normalization of a gradient.

    The moment settings are ``hp``'s ``beta1``, ``beta2`` and ``epsilon``.

    The direction is written into ``out`` when it is given: a float64 array
    of the state's shape, which may be ``grad`` itself (the gradient is read
    in full before the direction is written). Without ``out`` no input is
    written to. Either way the state's moments are left as they were.

    ``checked`` is the caller's word that ``grad`` is a float64 matrix
    derived from checked values, such as a gradient bundle's array. It is
    then not read again to check it, and an overflow in it shows in the
    new moments.
    """
    if not checked:
        grad = as_matrix(grad, "grad")
    if grad.shape != state.m.shape:
        raise ShapeError(f"gradient shape {grad.shape} does not match state {state.m.shape}")
    if out is not None and not (
        isinstance(out, np.ndarray) and out.shape == grad.shape and out.dtype == np.float64
    ):
        kind = getattr(out, "dtype", type(out).__name__)
        raise ShapeError(f"out must be a float64 {grad.shape} array, got {kind} {np.shape(out)}")
    # the two new moments, the direction and one scratch array
    m, v, scratch = np.empty(grad.shape), np.empty(grad.shape), np.empty(grad.shape)
    direction = np.empty(grad.shape) if out is None else out
    t = state.t + 1
    _adam_rows(state.m, state.v, grad, hp, t, m, v, direction, scratch)
    return direction, replace_unchecked(state, m=m, v=v, t=t)


def lorapro_sgd_step(
    projection: Projection, hp: HyperParams, strategy: str = "sylvester"
) -> LoraLayer:
    """Plain gradient descent on the factors with adjusted gradients; no decay.

    ``projection`` is the X = 0 adjustment that ``adjust`` made of the
    layer's gradients; the step shifts it by the strategy's X and solves
    nothing else.
    """
    if hp.weight_decay != 0.0:
        raise ValueError("the SGD loop has no weight decay; got a nonzero weight_decay")
    adjusted = shift(projection, strategy)
    layer = projection.geometry.layer
    return derived(
        layer,
        b=layer.b - hp.lr * adjusted.g_b,
        a=layer.a - hp.lr * adjusted.g_a,
    )


def lorapro_adamw_step(
    geometry: TangentGeometry,
    state: AdamWState,
    g_a: np.ndarray,
    g_b: np.ndarray,
    hp: HyperParams,
    x_strategy: str = "sylvester",
) -> tuple[LoraLayer, AdamWState]:
    """AdamW on the equivalent gradient of the layer ``geometry`` describes.

    (``g_a``, ``g_b``) is the X = 0 adjustment of the layer's gradients (X
    cannot change the equivalent gradient, so the cheapest choice serves):
    float64 arrays of the shapes of A and B, derived from checked values.
    The step runs the equivalent gradient g~ = s*(B g_a + g_b A) through the
    moment transform, re-projects the direction D onto the factor shapes as
    (s*B^T D, s*D A^T), adjusts that pair in ``geometry`` with the
    configured X selection, applies decomposed weight decay, then updates
    the factors.

    The m x n work runs in one pass per block of rows: each block forms its
    rows of g~, writes its rows of the new moments, turns them into its rows
    of D and adds them into the re-projected pair. So no m x n g~, direction
    or scratch array exists: the step's m x n working set is its two new
    moments and two block buffers of ``BLOCK_BYTES`` each. A row's moments
    have the bits ``adamw_transform`` gives it, and a layer of one block
    takes the arithmetic of ``equivalent_gradient``, ``adamw_transform`` and
    ``lora_raw_grads`` whole. No input is written to.
    """
    layer = geometry.layer
    if state.m.shape != layer.shape:
        raise ShapeError(
            f"moment shape {state.m.shape} does not match layer shape {layer.shape}"
        )
    # the block buffers are float64; the entries are not read to check them
    for name, value in (("g_a", g_a), ("g_b", g_b)):
        if not (isinstance(value, np.ndarray) and value.dtype == np.float64):
            kind = getattr(value, "dtype", type(value).__name__)
            raise ShapeError(f"{name} must be a float64 array, got {kind}")
    _check_pair_shapes(layer, g_a, g_b)
    m, n = layer.shape
    s, b, a_t = layer.scaling, layer.b, layer.a.T
    t = state.t + 1
    rows = min(m, max(1, BLOCK_BYTES // (8 * n)))
    new_m, new_v = np.empty((m, n)), np.empty((m, n))
    tilde, scratch = np.empty((rows, n)), np.empty((rows, n))
    raw_a, raw_b = None, np.empty((m, layer.rank))
    for start in range(0, m, rows):
        block = slice(start, min(start + rows, m))
        til, scr = tilde[: block.stop - start], scratch[: block.stop - start]
        # g~'s rows as equivalent_gradient forms them: s*(B g_a) + s*(g_b A)
        np.matmul(b[block], g_a, out=til)
        til *= s
        np.matmul(g_b[block], layer.a, out=scr)
        scr *= s
        til += scr
        # the direction's rows overwrite g~'s, which the moments have read
        direction = _adam_rows(state.m[block], state.v[block], til, hp, t,
                               new_m[block], new_v[block], til, scr)
        # B^T D sums over the row blocks; D A^T is D's rows times A^T
        part = b[block].T @ direction
        if raw_a is None:
            raw_a = part
        else:
            raw_a += part
        np.matmul(direction, a_t, out=raw_b[block])
    del tilde, scratch, til, scr, direction  # free the block buffers before adjust allocates
    raw_a *= s
    raw_b *= s
    # a factor-only bundle of values derived from checked ones
    reprojected = build_unchecked(GradBundle, layer=layer, g_a_lora=raw_a, g_b_lora=raw_b)
    second = adjust(
        layer, reprojected, strategy=x_strategy, policy=geometry.policy, geometry=geometry
    )

    layer = apply_decayed_merge_step(layer, hp.lr, hp.weight_decay)
    layer = derived(
        layer,
        b=layer.b - hp.lr * second.g_b,
        a=layer.a - hp.lr * second.g_a,
    )
    return layer, replace_unchecked(state, m=new_m, v=new_v, t=t)


def lora_adamw_step(
    layer: LoraLayer,
    state_a: AdamWState,
    state_b: AdamWState,
    bundle: GradBundle,
    hp: HyperParams,
) -> tuple[LoraLayer, AdamWState, AdamWState]:
    """Unadjusted baseline: standard AdamW with per-factor moments."""
    # a bundle's arrays were checked, or derived from checked ones, when it was built
    dir_a, state_a = adamw_transform(state_a, bundle.g_a_lora, hp, checked=True)
    dir_b, state_b = adamw_transform(state_b, bundle.g_b_lora, hp, checked=True)
    decay = 1.0 - hp.lr * hp.weight_decay
    layer = derived(
        layer,
        a=decay * layer.a - hp.lr * dir_a,
        b=decay * layer.b - hp.lr * dir_b,
    )
    return layer, state_a, state_b


def full_ft_adamw_step(
    w: np.ndarray,
    state: AdamWState,
    g: np.ndarray,
    hp: HyperParams,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, AdamWState]:
    """Reference trajectory: AdamW directly on the weight matrix.

    ``out`` is ``adamw_transform``'s: the buffer the Adam direction is
    written into, which may be ``g`` itself. A caller done with the
    gradient passes it, so the step allocates no direction of its own.
    """
    w = as_matrix(w, "w")
    direction, state = adamw_transform(state, g, hp, out=out)
    # (1 - lr*wd)*w - lr*direction, in one new array
    new_w = np.multiply(w, 1.0 - hp.lr * hp.weight_decay)
    direction *= hp.lr
    new_w -= direction
    return new_w, state
