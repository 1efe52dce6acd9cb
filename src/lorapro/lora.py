"""Low-rank adapter layers: W = W0 + s*B*A.

W0 (m x n) is frozen; B (m x r) and A (r x n) are the trainable factors. A
layer holds the scaling s itself, computed once by ``scaling_factor``:
alpha/r in "lora" mode and alpha/sqrt(r) in "rslora" mode (the default,
which stabilizes larger ranks). A layer is a value: a step
derives a new one, so what is computed from a layer object (a forward pass,
a geometry, a gradient bundle) describes it for as long as it lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .linalg import as_matrix, build_unchecked, replace_unchecked

__all__ = [
    "SCALING_MODES",
    "INIT_KINDS",
    "InitScheme",
    "LoraLayer",
    "scaling_factor",
    "init_layer",
    "effective_weight",
    "freeze",
    "derived",
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


@dataclass(frozen=True, eq=False)
class LoraLayer:
    """Frozen base weight, trainable low-rank factors and the scaling s.

    ``w0``, ``b`` and ``a`` are read-only: a read-only input is held as it
    is, so layers built from one shared array share its memory, and a
    writable one is copied, so the caller's later writes never reach the
    layer. The rank r is B's column count; the constructor requires
    1 <= r <= min(m, n) and A of shape r x n. ``scaling`` is s itself,
    finite and nonzero, of either sign; ``scaling_factor`` computes it from
    alpha, r and a mode. Two layers are equal only if they are the same
    object.
    """

    w0: np.ndarray
    b: np.ndarray
    a: np.ndarray
    scaling: float

    def __post_init__(self):
        for name in ("w0", "b", "a"):
            object.__setattr__(self, name, _read_only(as_matrix(getattr(self, name), name)))
        m, n = self.w0.shape
        r = self.rank
        if not 1 <= r <= min(m, n):
            raise ShapeError(f"rank {r} must be in [1, min(m,n)={min(m, n)}]")
        if self.b.shape != (m, r):
            raise ShapeError(f"b must be {m}x{r}, got {self.b.shape}")
        if self.a.shape != (r, n):
            raise ShapeError(f"a must be {r}x{n}, got {self.a.shape}")
        # either sign scales the adapter; 0, NaN or inf would leave s*B*A undefined or zero
        if not (math.isfinite(self.scaling) and self.scaling != 0.0):
            raise ValueError(f"scaling must be finite and nonzero, got {self.scaling}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.w0.shape

    @property
    def rank(self) -> int:
        return self.b.shape[1]


def freeze(*arrays: np.ndarray) -> None:
    """Make ``arrays``, each its holder's alone, read-only in place; a layer shares them."""
    for array in arrays:
        array.setflags(write=False)


def _read_only(array: np.ndarray) -> np.ndarray:
    if array.flags.writeable:
        array = array.copy()
        freeze(array)
    return array


def derived(layer: LoraLayer | None = None, /, **fields) -> LoraLayer:
    """``layer`` with ``fields`` in place of its own (a layer of ``fields`` alone
    without ``layer``: ``w0``, ``b``, ``a`` and ``scaling``), unchecked, for a
    step or a restore that derives it from checked values. Each ``w0``, ``b``
    or ``a`` in ``fields`` is made for this layer alone, so it is frozen in
    place rather than copied."""
    for name in ("w0", "b", "a"):
        if name in fields:
            freeze(fields[name])
    if layer is None:
        return build_unchecked(LoraLayer, **fields)
    return replace_unchecked(layer, **fields)


def init_layer(
    m: int,
    n: int,
    r: int,
    alpha: float = 16.0,
    mode: str = "rslora",
    scheme: InitScheme = InitScheme(),
    w0: np.ndarray | None = None,
) -> LoraLayer:
    """Build a fresh adapter layer of rank ``r``, scaled by
    ``scaling_factor(alpha, r, mode)``; ``w0`` defaults to zeros.

    ``w0`` is held as ``LoraLayer`` holds it: shared if read-only, copied if
    writable. The factors drawn here, and the zeros, are frozen, not copied.
    """
    if not 1 <= r <= min(m, n):
        raise ShapeError(f"rank {r} must be in [1, min(m,n)={min(m, n)}]")
    scaling = scaling_factor(alpha, r, mode)
    rng = np.random.default_rng(np.random.SeedSequence(scheme.seed))
    if scheme.kind == "standard":
        bound = 1.0 / math.sqrt(n)
        a = rng.uniform(-bound, bound, size=(r, n))
        b = np.zeros((m, r))
    else:  # gaussian_both
        scale = 1.0 / math.sqrt(r)
        a = rng.normal(0.0, scale, size=(r, n))
        b = rng.normal(0.0, scale, size=(m, r))
    freeze(a, b)
    if w0 is None:
        w0 = np.zeros((m, n))
        freeze(w0)
    base = as_matrix(w0, "w0")
    if base.shape != (m, n):
        raise ShapeError(f"w0 must be {m}x{n}, got {base.shape}")
    return LoraLayer(w0=base, b=b, a=a, scaling=scaling)


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
    return derived(layer, w0=factor * layer.w0, b=root * layer.b, a=root * layer.a)
