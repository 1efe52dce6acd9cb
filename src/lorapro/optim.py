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
shifts by the strategy's X, and the AdamW step from the equivalent gradient
of that projection, with the layer's ``TangentGeometry``.

All step functions are functional: they return fresh layer/state values and
write to no input but a buffer handed over for the moment-transformed
direction. ``lorapro_adamw_step`` always consumes its ``g_tilde`` that way;
``adamw_transform`` and ``full_ft_adamw_step`` consume the buffer passed as
``out``, if any. The values they return are computed from inputs that were
checked where they entered, so they are built without re-running the
constructors' checks: a layer by ``lora.derived``, its new arrays read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .gradadjust import GradBundle, Projection, TangentGeometry, adjust, lora_raw_grads, shift
from .linalg import as_matrix, replace_unchecked
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
    t = state.t + 1
    beta1, beta2 = hp.beta1, hp.beta2
    # m = beta1*m + (1-beta1)*g,  v = beta2*v + (1-beta2)*g**2,
    # direction = (m / (1-beta1**t)) / (sqrt(v / (1-beta2**t)) + epsilon),
    # in the two new moments, the direction and one scratch array, with the
    # same operations in the same order
    scratch = np.multiply(grad, 1.0 - beta1)
    m = np.multiply(state.m, beta1)
    m += scratch
    np.square(grad, out=scratch)
    scratch *= 1.0 - beta2
    v = np.multiply(state.v, beta2)
    v += scratch
    # grad is not read again, so out may be its buffer
    direction = np.divide(m, 1.0 - beta1**t, out=out)
    np.divide(v, 1.0 - beta2**t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += hp.epsilon
    direction /= scratch
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
    g_tilde: np.ndarray,
    hp: HyperParams,
    x_strategy: str = "sylvester",
) -> tuple[LoraLayer, AdamWState]:
    """AdamW on the equivalent gradient of the layer ``geometry`` describes.

    ``g_tilde`` is the equivalent gradient of the X = 0 adjustment of the
    layer's gradients (X cannot change the equivalent gradient, so the
    cheapest choice serves), a float64 array of the layer's shape. The step
    runs it through the moment transform, re-projects the result onto the
    factor shapes, adjusts it in ``geometry`` with the configured X
    selection, applies decomposed weight decay, then updates the factors.

    ``g_tilde`` is consumed: the step overwrites it with the
    moment-transformed direction, so the m x n working set of the step is
    the two new moments, that buffer and one scratch array. No other input
    is written to.
    """
    layer = geometry.layer
    if state.m.shape != layer.shape:
        raise ShapeError(
            f"moment shape {state.m.shape} does not match layer shape {layer.shape}"
        )
    direction, state = adamw_transform(state, g_tilde, hp, out=g_tilde)

    reprojected = lora_raw_grads(layer, direction)
    second = adjust(
        layer, reprojected, strategy=x_strategy, policy=geometry.policy, geometry=geometry
    )

    layer = apply_decayed_merge_step(layer, hp.lr, hp.weight_decay)
    layer = derived(
        layer,
        b=layer.b - hp.lr * second.g_b,
        a=layer.a - hp.lr * second.g_a,
    )
    return layer, state


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
