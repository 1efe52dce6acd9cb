"""Low-rank adapter layers: W = W0 + s*B*A.

W0 (m x n) is frozen; B (m x r) and A (r x n) are the trainable factors. The
scaling s is alpha/r in "lora" mode and alpha/sqrt(r) in "rslora" mode
(the default, which stabilizes larger ranks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .linalg import as_matrix, replace_unchecked

__all__ = [
    "SCALING_MODES",
    "INIT_KINDS",
    "InitScheme",
    "LoraLayer",
    "capture",
    "holds",
    "scaling_factor",
    "init_layer",
    "effective_weight",
    "apply_decayed_merge_step",
]

SCALING_MODES = ("lora", "rslora")
INIT_KINDS = ("standard", "gaussian_both")


def scaling_factor(alpha: float, rank: int, mode: str) -> float:
    if mode == "lora":
        return alpha / rank
    if mode == "rslora":
        return alpha / math.sqrt(rank)
    raise ValueError(f"unknown scaling mode {mode!r}, expected one of {SCALING_MODES}")


@dataclass
class InitScheme:
    """How to draw the initial factors.

    ``standard``: A uniform in (-1/sqrt(n), 1/sqrt(n)), B zero, so the adapter
    contributes nothing at step 0. ``gaussian_both``: both factors i.i.d.
    Gaussian with standard deviation 1/sqrt(r) — a test-only scheme that is
    full rank from the start.
    """

    kind: str = "standard"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in INIT_KINDS:
            raise ValueError(f"unknown init kind {self.kind!r}, expected one of {INIT_KINDS}")


@dataclass
class LoraLayer:
    """Frozen base weight plus trainable low-rank factors and their scaling."""

    w0: np.ndarray
    b: np.ndarray
    a: np.ndarray
    alpha: float
    rank: int
    scaling_mode: str = "rslora"

    def __post_init__(self):
        self.w0 = as_matrix(self.w0, "w0")
        self.b = as_matrix(self.b, "b")
        self.a = as_matrix(self.a, "a")
        m, n = self.w0.shape
        r = self.rank
        if not 1 <= r <= min(m, n):
            raise ShapeError(f"rank {r} must be in [1, min(m,n)={min(m, n)}]")
        if self.b.shape != (m, r):
            raise ShapeError(f"b must be {m}x{r}, got {self.b.shape}")
        if self.a.shape != (r, n):
            raise ShapeError(f"a must be {r}x{n}, got {self.a.shape}")
        if self.scaling_mode not in SCALING_MODES:
            raise ValueError(
                f"unknown scaling mode {self.scaling_mode!r}, expected one of {SCALING_MODES}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.w0.shape

    @property
    def scaling(self) -> float:
        return scaling_factor(self.alpha, self.rank, self.scaling_mode)


def _read_only(factor: np.ndarray) -> np.ndarray:
    if factor.flags.writeable:
        factor = factor.copy()
        factor.setflags(write=False)
    return factor


def capture(layer: LoraLayer) -> tuple:
    """What a value computed from ``layer`` now is computed from, for ``holds``:
    (b, a, b's values, a's values, alpha, rank, mode). A read-only factor is
    its own values, as it cannot change in place; a writable one's are a
    read-only copy."""
    b, a = layer.b, layer.a
    return b, a, _read_only(b), _read_only(a), layer.alpha, layer.rank, layer.scaling_mode


def holds(layer: LoraLayer, captured: tuple) -> bool:
    """Whether ``layer`` holds exactly what ``capture`` recorded: the same factor
    arrays, at the captured values where writable, and the same alpha, rank
    and mode. The one rule by which a forward pass, a geometry or a gradient
    bundle computed from a layer is known to still describe it."""
    b, a, b_values, a_values, alpha, rank, mode = captured
    return (layer.b is b and layer.a is a
            and (b_values is b or np.array_equal(b, b_values))
            and (a_values is a or np.array_equal(a, a_values))
            and layer.alpha == alpha and layer.rank == rank and layer.scaling_mode == mode)


def init_layer(
    m: int,
    n: int,
    r: int,
    alpha: float = 16.0,
    mode: str = "rslora",
    scheme: InitScheme = InitScheme(),
    w0: np.ndarray | None = None,
) -> LoraLayer:
    """Build a fresh adapter layer; ``w0`` defaults to zeros.

    A read-only ``w0`` is held as it is, since nothing can write into it, so
    layers built from one shared base weight share its memory; a writable
    one is copied, so the caller's later writes never reach the layer.
    """
    if r > min(m, n):
        raise ShapeError(f"rank {r} exceeds min(m, n) = {min(m, n)}")
    rng = np.random.default_rng(np.random.SeedSequence(scheme.seed))
    if scheme.kind == "standard":
        bound = 1.0 / math.sqrt(n)
        a = rng.uniform(-bound, bound, size=(r, n))
        b = np.zeros((m, r))
    else:  # gaussian_both
        scale = 1.0 / math.sqrt(r)
        a = rng.normal(0.0, scale, size=(r, n))
        b = rng.normal(0.0, scale, size=(m, r))
    base = np.zeros((m, n)) if w0 is None else _read_only(as_matrix(w0, "w0"))
    if base.shape != (m, n):
        raise ShapeError(f"w0 must be {m}x{n}, got {base.shape}")
    return LoraLayer(w0=base, b=b, a=a, alpha=alpha, rank=r, scaling_mode=mode)


def effective_weight(layer: LoraLayer) -> np.ndarray:
    """The weight the layer exposes to the forward pass: w0 + s*b*a."""
    # in one m x n buffer; w0 is added last, which gives the same bits since
    # floating-point addition commutes
    weight = layer.b @ layer.a
    weight *= layer.scaling
    weight += layer.w0
    return weight


def apply_decayed_merge_step(layer: LoraLayer, lr: float, weight_decay: float) -> LoraLayer:
    """Decoupled weight decay on the merged weight, split across the parts.

    Scaling w0 by (1 - lr*wd) and each factor by sqrt(1 - lr*wd) decays the
    effective weight by exactly (1 - lr*wd), since the factor product picks up
    the square of the factor scaling.
    """
    gamma_lambda = lr * weight_decay
    if gamma_lambda < 0.0 or gamma_lambda >= 1.0:
        raise ValueError(f"lr*weight_decay must be in [0, 1), got {gamma_lambda}")
    if gamma_lambda == 0.0:
        return layer
    factor = 1.0 - gamma_lambda
    root = math.sqrt(factor)
    return replace_unchecked(layer, w0=factor * layer.w0, b=root * layer.b, a=root * layer.a)
