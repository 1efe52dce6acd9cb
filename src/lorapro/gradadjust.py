"""Closed-form adjustment of adapter gradients.

Updating the factors (B, A) with gradients (g_b, g_a) moves the effective
weight by the rank-limited "equivalent gradient" s*B*g_a + s*g_b*A. The
adjustment below replaces the raw chain-rule gradients with the pair whose
equivalent gradient is the Frobenius-nearest point to the full weight
gradient g among all reachable directions:

    g_a = (1/s^2) (B^T B)^{-1} g_a_raw + X A
    g_b = (1/s^2) (I - B (B^T B)^{-1} B^T) g_b_raw (A A^T)^{-1} - B X

X (r x r) is a free parameter: it shifts (g_a, g_b) without changing the
equivalent gradient. Three selections are provided: zero, "symmetry"
(balancing the two terms of the equivalent gradient), and the solver route
that keeps the adjusted pair closest to the raw pair, which reduces to the
Sylvester equation  B^T B X + X A A^T = -(1/s^2) (B^T B)^{-1} g_a_raw A^T.

Every Gram above is Tikhonov-damped per a DampingPolicy, the two Sylvester
coefficients included, so the adjustment stays defined when B starts at zero
(the standard adapter initialization) and X is solved in the geometry that
the adjustment projects onto.
Both Grams are eigendecomposed once per layer-step in a TangentGeometry,
which serves the damped Gram solves, the Sylvester X and the factors' ranks.

X enters only as the shift (X A, -B X), so a bundle has one X-independent
value in its geometry: its X = 0 projection. ``adjust`` solves the bundle
once into a ``Projection``, which holds the X = 0 pair and the products its
solves formed, and ends with ``shift``, which picks X by ``choose_x`` and
moves the pair by it. ``loss_decrease_certificate`` reads the projection of
the pair it certifies, and ``shift`` by another X solves nothing but X.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DescentViolationError,
    EigenDecompositionError,
    NonFiniteError,
    ShapeError,
    SpectrumError,
)
from .linalg import _gram_rank, as_matrix, build_unchecked, factorization_error, frob_norm
from .lora import LoraLayer
from .sylvester import solve_sylvester

__all__ = [
    "X_STRATEGIES",
    "GradBundle",
    "Projection",
    "AdjustedGrads",
    "DampingPolicy",
    "TangentGeometry",
    "factor_ranks",
    "lora_raw_grads",
    "equivalent_gradient",
    "choose_x",
    "shift",
    "adjust",
    "loss_decrease_certificate",
    "validate_bundle",
]

X_STRATEGIES = ("zero", "symmetry", "sylvester")
BUNDLE_CONSISTENCY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class GradBundle:
    """Raw chain-rule gradients of one layer's factors, plus its full gradient g if known.

    g_a_lora = s * B^T * g  (r x n) and g_b_lora = s * g * A^T  (m x r), for
    the B, A and s of ``layer``. A bundle holds g densely, as ``g_full``
    (m x n), or factored, as g = x^T delta with the layer's input ``x``
    (batch x m) and the loss gradient ``delta`` at its output (batch x n),
    as ``model.backward`` gives it for layers much wider than the batch;
    ``full_gradient`` forms g from either.

    A bundle is a value, checked once, by its constructor: every array by
    ``as_matrix``, one form of g, the shapes against ``layer`` and, where g
    is known, the chain-rule identities (a factored g is formed densely for
    the check). Its fields cannot be rebound, and its layer cannot change,
    so nothing is checked again for that layer. ``lora_raw_grads``,
    ``model.backward`` and ``optim.lorapro_adamw_step`` (a factor-only one)
    build theirs from checked values, without the check.
    The arrays are neither copied nor frozen: one written in place is not
    re-read.
    """

    layer: LoraLayer
    g_a_lora: np.ndarray
    g_b_lora: np.ndarray
    g_full: np.ndarray | None = None
    x: np.ndarray | None = None
    delta: np.ndarray | None = None

    def __post_init__(self):
        if (self.x is None) != (self.delta is None):
            raise ShapeError("a factored gradient needs both x and delta")
        if self.x is not None and self.g_full is not None:
            raise ShapeError("a bundle holds g_full or its factors x and delta, not both")
        for name in ("g_a_lora", "g_b_lora", "g_full", "x", "delta"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, as_matrix(value, name))
        _check_against(self.layer, self)

    def full_gradient(self) -> np.ndarray | None:
        """g as an m x n array: ``g_full``, or x^T delta formed anew; None if unknown."""
        if self.x is None:
            return self.g_full
        return self.x.T @ self.delta


@dataclass
class AdjustedGrads:
    """Adjusted factor gradients, the X that produced them, the strategy label,
    and the projection they were shifted from."""

    g_a: np.ndarray
    g_b: np.ndarray
    x: np.ndarray
    x_strategy: str
    projection: Projection = field(repr=False)


@dataclass(frozen=True)
class DampingPolicy:
    """How to keep Gram inversions defined when a factor is rank deficient.

    Each Gram gets rel_epsilon * mean(diag(Gram)) added to its diagonal (an
    absolute rel_epsilon when the Gram is exactly zero, where the solve's
    right-hand side vanishes anyway). A policy is a value: its field cannot
    be rebound under a geometry built from it.
    """

    rel_epsilon: float = 1e-8

    def __post_init__(self):
        if not math.isfinite(self.rel_epsilon):
            raise ValueError(f"rel_epsilon must be finite, got {self.rel_epsilon}")
        if self.rel_epsilon < 0.0:
            raise ValueError(f"rel_epsilon must be >= 0, got {self.rel_epsilon}")

    def damping_for(self, gram: np.ndarray) -> float:
        if self.rel_epsilon == 0.0:
            return 0.0
        mean_diag = float(gram.trace()) / gram.shape[0]
        return self.rel_epsilon * (mean_diag if mean_diag > 0.0 else 1.0)


def _check_pair_shapes(layer: LoraLayer, g_a, g_b, names: tuple[str, str] = ("g_a", "g_b")):
    """Raise ShapeError, naming the factor by ``names``, unless ``g_a`` is r x n
    and ``g_b`` m x r, the shapes of ``layer``'s A and B."""
    m, n = layer.shape
    r = layer.rank
    if g_a.shape != (r, n):
        raise ShapeError(f"{names[0]} must be {r}x{n}, got {g_a.shape}")
    if g_b.shape != (m, r):
        raise ShapeError(f"{names[1]} must be {m}x{r}, got {g_b.shape}")


def _check_against(layer: LoraLayer, bundle: GradBundle):
    """Raise ShapeError unless ``bundle``'s arrays have ``layer``'s shapes and,
    where g is known, satisfy the chain-rule identities for ``layer``."""
    m, n = layer.shape
    _check_pair_shapes(layer, bundle.g_a_lora, bundle.g_b_lora, ("g_a_lora", "g_b_lora"))
    if bundle.g_full is not None and bundle.g_full.shape != (m, n):
        raise ShapeError(f"g_full must be {m}x{n}, got {bundle.g_full.shape}")
    if bundle.x is not None and (bundle.x.shape[1] != m or bundle.delta.shape[1] != n
                                 or bundle.x.shape[0] != bundle.delta.shape[0]):
        raise ShapeError(f"x and delta must be batch x {m} and batch x {n}, got "
                         f"{bundle.x.shape} and {bundle.delta.shape}")
    g = bundle.full_gradient()
    if g is None:
        return
    s = layer.scaling
    expect_a = s * (layer.b.T @ g)
    expect_b = s * (g @ layer.a.T)
    err_a = frob_norm(bundle.g_a_lora - expect_a)
    err_b = frob_norm(bundle.g_b_lora - expect_b)
    if err_a > BUNDLE_CONSISTENCY_TOL * max(1.0, frob_norm(expect_a)):
        raise ShapeError(f"g_a_lora inconsistent with g_full (deviation {err_a:.3e})")
    if err_b > BUNDLE_CONSISTENCY_TOL * max(1.0, frob_norm(expect_b)):
        raise ShapeError(f"g_b_lora inconsistent with g_full (deviation {err_b:.3e})")


def validate_bundle(layer: LoraLayer, bundle: GradBundle):
    """Check ``bundle`` against ``layer`` as its constructor checked it against its own.

    For the bundle's own layer object, which cannot change, nothing is read:
    the bundle was checked against it when it was built, or built from its
    checked values. Any other layer object, even one equal in value, gets
    the constructor's check: the shapes and, where g is known, the
    chain-rule identities.
    """
    if bundle.layer is not layer:
        _check_against(layer, bundle)


def lora_raw_grads(layer: LoraLayer, g_full: np.ndarray) -> GradBundle:
    """Chain-rule factor gradients induced by the full weight gradient."""
    g_full = as_matrix(g_full, "g_full")
    if g_full.shape != layer.shape:
        raise ShapeError(f"g_full must be {layer.shape}, got {g_full.shape}")
    s = layer.scaling
    g_a = s * (layer.b.T @ g_full)
    g_b = s * (g_full @ layer.a.T)
    return build_unchecked(GradBundle, layer=layer, g_a_lora=g_a, g_b_lora=g_b,
                           g_full=g_full)


def equivalent_gradient(
    layer: LoraLayer, g_a: np.ndarray, g_b: np.ndarray, *, checked: bool = False
) -> np.ndarray:
    """The update direction a (g_a, g_b) factor step induces on the effective weight.

    ``checked`` is the caller's word that ``g_a`` and ``g_b`` are float64
    matrices derived from checked values, such as a gradient bundle's arrays
    or an adjusted pair made from them. They are then not read again to
    check them, and an overflow in them shows in the result.
    """
    if not checked:
        g_a = as_matrix(g_a, "g_a")
        g_b = as_matrix(g_b, "g_b")
    _check_pair_shapes(layer, g_a, g_b)
    # s*(B g_a) + s*(g_b A) in two m x n buffers, same operations in the same order
    s = layer.scaling
    out = layer.b @ g_a
    out *= s
    right = g_b @ layer.a
    right *= s
    out += right
    return out


def _stacked_grams(layer: LoraLayer) -> np.ndarray:
    """``layer``'s Grams (B^T B, A A^T), stacked and symmetrized."""
    b, a = layer.b, layer.a
    grams = np.array((b.T @ b, a @ a.T))
    return 0.5 * (grams + grams.transpose(0, 2, 1))


def factor_ranks(layer: LoraLayer) -> tuple[int, int]:
    """The numerical ranks of ``layer``'s B and A, as its ``TangentGeometry``
    counts them: the same rule on the same Grams' eigenvalues, with no
    eigenvectors and no damping formed."""
    try:
        eigvals = np.linalg.eigvalsh(_stacked_grams(layer))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh failure is pathological
        raise EigenDecompositionError(
            "symmetric eigendecomposition of the layer Grams did not converge"
        ) from exc
    rank_b, rank_a = _gram_rank(eigvals).tolist()
    return rank_b, rank_a


class TangentGeometry:
    """The Gram geometry of one layer at one step, shared by every solve on it.

    One stacked eigendecomposition of the symmetrized (B^T B, A A^T) serves
    the damped solves that ``adjust``, ``choose_x`` and
    ``loss_decrease_certificate`` make, and the Sylvester X, which becomes an
    entrywise divide in the two eigenbases. The solves go through the
    whitening factors W = U diag(lam)^-1/2 (so that W W^T is the damped
    inverse) and the basis Q = B W_b (so that Q Q^T = B (B^T B)^-1 B^T): like
    Cholesky factors, these see only the square root of a Gram's condition
    number, where an explicit inverse would amplify rounding by all of it.

    The eigendecomposition runs at construction, and so does the count of
    the numerical ranks ``rank_b`` and ``rank_a`` it gives (plain ints, by
    ``linalg.numerical_rank``'s rule). The whitening factors are formed on
    first use, so a damped Gram that is not positive definite raises
    FactorizationError only when a solve with it is asked for. A geometry
    serves the one layer object it was built from, which cannot change;
    ``adjust`` refuses it for any other.
    """

    def __init__(self, layer: LoraLayer, policy: DampingPolicy = DampingPolicy()):
        self.layer = layer
        self.policy = policy
        self._grams = _stacked_grams(layer)
        self._damping = (policy.damping_for(self._grams[0]), policy.damping_for(self._grams[1]))
        try:
            self._w, self._v = np.linalg.eigh(self._grams)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh failure is pathological
            raise EigenDecompositionError(
                "symmetric eigendecomposition of the layer Grams did not converge"
            ) from exc
        # the numerical ranks of B and A, by linalg.numerical_rank's rule
        self.rank_b, self.rank_a = _gram_rank(self._w).tolist()

    def _whitener(self, k: int) -> np.ndarray:
        lam = self._w[k] + self._damping[k]
        if not lam[0] > 0.0:
            coeff = self._grams[k] + self._damping[k] * np.eye(self._grams.shape[1])
            raise factorization_error(coeff, self._damping[k], ("B^T B", "A A^T")[k])
        return self._v[k] / np.sqrt(lam)

    @cached_property
    def white_b(self) -> np.ndarray:
        """W_b with W_b W_b^T = (B^T B + eps_b I)^-1, eps_b the policy's damping."""
        return self._whitener(0)

    @cached_property
    def white_a(self) -> np.ndarray:
        """W_a with W_a W_a^T = (A A^T + eps_a I)^-1, eps_a the policy's damping."""
        return self._whitener(1)

    @cached_property
    def basis_b(self) -> np.ndarray:
        """Q = B W_b, orthonormal columns spanning B's column space when undamped."""
        return self.layer.b @ self.white_b

    def solve_b(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(B^T B + eps_b I)^-1 rhs, and the whitened W_b^T rhs it passes through."""
        whitened = self.white_b.T @ rhs
        return self.white_b @ whitened, whitened

    def solve_a_right(self, lhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """lhs (A A^T + eps_a I)^-1, and the whitened lhs W_a it passes through."""
        whitened = lhs @ self.white_a
        return whitened @ self.white_a.T, whitened

    def project_out_b(self, g_b: np.ndarray) -> np.ndarray:
        """(I - B (B^T B + eps_b I)^-1 B^T) g_b."""
        q = self.basis_b
        return g_b - q @ (q.T @ g_b)

    def solve_sylvester(self, c: np.ndarray) -> np.ndarray:
        """X with (B^T B + eps_b I) X + X (A A^T + eps_a I) = c: the damped Grams of
        every other solve here, by ``sylvester.solve_sylvester``."""
        w, v, eps = self._w, self._v, self._damping
        return solve_sylvester(c, w[0] + eps[0], v[0], w[1] + eps[1], v[1])


def _geometry(
    layer: LoraLayer, policy: DampingPolicy, geometry: TangentGeometry | None
) -> TangentGeometry:
    if geometry is None:
        return TangentGeometry(layer, policy)
    if geometry.layer is not layer or geometry.policy != policy:
        raise ValueError("geometry was built for another layer or damping policy")
    return geometry


class Projection:
    """The X-independent half of adjusting one bundle in one geometry.

    Every adjusted pair of the bundle is the X = 0 pair (``g_a``, ``g_b``)
    shifted by some X, so one projection, built by ``adjust``, serves each
    ``shift`` and the certificate. It also holds what its solves formed:
    ``solved_a`` = (B^T B + eps_b I)^-1 g_a_raw, ``white_g_a`` = W_b^T g_a_raw
    and ``white_g_b`` = (I - P_B) g_b_raw W_a.

    The bundle is checked against the geometry's layer by ``validate_bundle``,
    which reads nothing for the bundle's own layer. The g_b half is solved
    on first use, after X is chosen, so an X the solver refuses raises its
    SpectrumError before the Gram of A is inverted.
    """

    def __init__(self, geometry: TangentGeometry, bundle: GradBundle):
        validate_bundle(geometry.layer, bundle)
        self.geometry = geometry
        self.bundle = bundle
        # one solve serves the Sylvester right-hand side and the X = 0 g_a
        self.solved_a, self.white_g_a = geometry.solve_b(bundle.g_a_lora)
        self.g_a = self.solved_a / geometry.layer.scaling**2

    @cached_property
    def _b_half(self) -> tuple[np.ndarray, np.ndarray]:
        geo = self.geometry
        solved_b, white_g_b = geo.solve_a_right(geo.project_out_b(self.bundle.g_b_lora))
        return solved_b / geo.layer.scaling**2, white_g_b

    @property
    def g_b(self) -> np.ndarray:
        return self._b_half[0]

    @property
    def white_g_b(self) -> np.ndarray:
        return self._b_half[1]


def choose_x(projection: Projection, strategy: str = "sylvester") -> np.ndarray:
    """Pick the free r x r parameter of the adjustment for a given strategy."""
    if strategy not in X_STRATEGIES:
        raise ValueError(f"unknown X strategy {strategy!r}, expected one of {X_STRATEGIES}")
    geo = projection.geometry
    layer = geo.layer
    r = layer.rank
    if strategy == "zero":
        return np.zeros((r, r))
    s = layer.scaling
    if strategy == "symmetry":
        # X = -(1/(2 s^2)) (B^T B)^-1 B^T g_b_raw (A A^T)^-1, which balances
        # the two terms of the equivalent gradient: g_b A = B g_a.
        half, _ = geo.solve_b(layer.b.T @ projection.bundle.g_b_lora)
        x, _ = geo.solve_a_right(half)
        return -0.5 / s**2 * x

    rhs = -1.0 / s**2 * (projection.solved_a @ layer.a.T)
    try:
        return geo.solve_sylvester(rhs)
    except SpectrumError as exc:
        raise SpectrumError(
            f"X selection '{strategy}' failed: {exc}", pair=exc.pair
        ) from exc


def shift(
    projection: Projection, strategy: str = "sylvester", x_override: np.ndarray | None = None
) -> AdjustedGrads:
    """The X = 0 pair of ``projection`` shifted by X: (g_a + X A, g_b - B X).

    X is ``choose_x``'s for ``strategy``, or ``x_override`` used directly
    (the equivalent gradient does not depend on it).
    """
    layer = projection.geometry.layer
    r = layer.rank
    if x_override is None:
        # through the module-level name, the binding perfbench's tracer wraps
        x, label = choose_x(projection, strategy), strategy
    else:
        x, label = as_matrix(x_override, "x_override"), "override"
        if x.shape != (r, r):
            raise ShapeError(f"x_override must be {r}x{r}, got {x.shape}")
    return AdjustedGrads(
        g_a=projection.g_a + x @ layer.a,
        g_b=projection.g_b - layer.b @ x,
        x=x,
        x_strategy=label,
        projection=projection,
    )


def adjust(
    layer: LoraLayer,
    bundle: GradBundle,
    strategy: str = "sylvester",
    policy: DampingPolicy = DampingPolicy(),
    x_override: np.ndarray | None = None,
    geometry: TangentGeometry | None = None,
) -> AdjustedGrads:
    """Replace raw factor gradients with the optimal adjusted pair.

    Solves ``bundle`` into its ``Projection`` in this layer's geometry under
    ``policy`` (``geometry``, if the caller already holds it) and ``shift``s
    it by the strategy's X, or by ``x_override``; B at rank zero, as the
    standard initialization starts it, takes the same damped path. The
    pair's ``projection`` serves ``loss_decrease_certificate`` and a
    ``shift`` by another X.
    """
    return shift(Projection(_geometry(layer, policy, geometry), bundle), strategy, x_override)


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """The Frobenius inner product of two same-shaped arrays the certificate computed."""
    return float(np.dot(a.ravel(), b.ravel()))


def loss_decrease_certificate(adjusted: AdjustedGrads, lr: float) -> float:
    """Predicted first-order loss change of the adjusted step; never positive.

        dL = -lr * ( <g_a_raw, (1/s^2)(B^T B)^-1 g_a_raw>
                   + <g_b_raw, (1/s^2)(I - B(B^T B)^-1 B^T) g_b_raw (A A^T)^-1> )

    Both Gram quadratic forms are positive semidefinite, so dL <= 0. The
    same number must come out of -lr*(<g_a_raw, g_a> + <g_b_raw, g_b>) with
    the adjusted pair (the X terms cancel for chain-rule-consistent raw
    gradients); a mismatch or a positive value signals an implementation bug
    and raises. The quadratic forms read the whitened products of the pair's
    ``projection``.
    """
    if lr < 0.0:
        raise ValueError(f"lr must be >= 0, got {lr}")
    projection = adjusted.projection
    geo, bundle = projection.geometry, projection.bundle
    g_a = as_matrix(adjusted.g_a, "adjusted g_a")
    g_b = as_matrix(adjusted.g_b, "adjusted g_b")
    if g_a.shape != bundle.g_a_lora.shape or g_b.shape != bundle.g_b_lora.shape:
        raise ShapeError(
            f"adjusted pair {g_a.shape}/{g_b.shape} does not match the raw pair "
            f"{bundle.g_a_lora.shape}/{bundle.g_b_lora.shape}"
        )
    s = geo.layer.scaling
    white_g_a = projection.white_g_a

    # huge factors or gradients overflow here into inf or NaN, which ends in
    # the NonFiniteError below rather than in a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        # both quadratic forms in whitened coordinates: <g, M^-1 g> = ||W^T g||^2
        term_a = _inner(white_g_a, white_g_a) / s**2
        term_b = _inner(bundle.g_b_lora @ geo.white_a, projection.white_g_b) / s**2
        via_pairing = -lr * (_inner(bundle.g_a_lora, g_a) + _inner(bundle.g_b_lora, g_b))
    dl = -lr * (term_a + term_b)

    if not (math.isfinite(dl) and math.isfinite(via_pairing)):
        raise NonFiniteError(f"certificate {dl} or gradient pairing {via_pairing} is not finite")
    scale = max(1.0, abs(dl), abs(via_pairing))
    if abs(dl - via_pairing) > 1e-9 * scale:
        raise DescentViolationError(
            f"certificate {dl:.6e} disagrees with gradient pairing {via_pairing:.6e}"
        )
    if dl > 1e-10:
        raise DescentViolationError(f"predicted loss change {dl:.6e} is positive")
    return dl
