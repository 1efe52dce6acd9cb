"""Dense linear-algebra kernel used by every other module.

Matrices are plain 2-D float64 numpy arrays in row-major (C) order. All
operations are pure functions: inputs are never mutated and outputs are
freshly allocated, so values can be shared freely across threads. Heavy
lifting (Cholesky, symmetric eigendecomposition) is delegated to
numpy's LAPACK bindings, so a process loads a single BLAS runtime; this
module pins the contracts on top of them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EigenDecompositionError, FactorizationError, NonFiniteError, ShapeError

__all__ = [
    "as_matrix",
    "build_unchecked",
    "replace_unchecked",
    "frob_norm",
    "spd_solve",
    "factorization_error",
    "sym_eig",
    "numerical_rank",
]

RANK_TOL = 1e-7
# the most entries ``as_matrix`` checks through an entrywise bool temporary
ENTRYWISE_CHECK_MAX = 4096


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Validate and convert ``x`` to a 2-D float64 C-order array.

    Raises ShapeError for anything that is not a non-empty 2-D array and
    NonFiniteError if any entry is NaN/Inf.
    """
    a = np.asarray(x, dtype=np.float64, order="C")
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeError(f"{name} must have at least one row and column, got shape {a.shape}")
    # isfinite is the faster check, but its bool temporary has an entry per
    # entry of a; on a larger array the minimum and the maximum check every
    # entry without one, as a NaN or an infinity reaches one of them
    if a.size <= ENTRYWISE_CHECK_MAX:
        finite = np.isfinite(a).all()
    else:
        finite = (math.isfinite(np.minimum.reduce(a, axis=None))
                  and math.isfinite(np.maximum.reduce(a, axis=None)))
    if not finite:
        raise NonFiniteError(f"{name} contains non-finite entries")
    return a


def build_unchecked(cls, **fields):
    """An instance of the dataclass ``cls`` holding ``fields``, without ``__post_init__``.

    For values a step derives from inputs that were checked where they
    entered it: re-running the constructor's checks would only re-read every
    array. Fields left out keep their class-level defaults.
    """
    out = object.__new__(cls)
    # attribute by attribute, in field order, as the generated __init__ does,
    # so the instance keeps the class's compact shared-key attribute storage
    for name in cls.__dataclass_fields__:
        if name in fields:
            setattr(out, name, fields[name])
    return out


def replace_unchecked(value, **changes):
    """``dataclasses.replace`` without re-running ``__post_init__``; see ``build_unchecked``."""
    cls = type(value)
    current = {name: getattr(value, name) for name in cls.__dataclass_fields__}
    return build_unchecked(cls, **{**current, **changes})


def _finite_output(x: np.ndarray, op: str) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NonFiniteError(f"{op} produced non-finite entries")
    return x


def frob_norm(a) -> float:
    """Frobenius norm, sqrt of the self inner product."""
    a = as_matrix(a, "a")
    return float(np.linalg.norm(a))


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p + p.T)


def spd_solve(p, rhs, damping: float = 0.0) -> np.ndarray:
    """Solve (p + damping*I) x = rhs with p symmetric positive definite.

    The coefficient is symmetrized as (p + p^T)/2 before factorization, so
    callers may pass Gram matrices carrying rounding asymmetry. The solve goes
    through a Cholesky factorization; no explicit inverse is formed.
    """
    p = as_matrix(p, "p")
    rhs = as_matrix(rhs, "rhs")
    if p.shape[0] != p.shape[1]:
        raise ShapeError(f"p must be square, got shape {p.shape}")
    if p.shape[0] != rhs.shape[0]:
        raise ShapeError(f"rhs rows {rhs.shape[0]} do not match p dimension {p.shape[0]}")
    if damping < 0.0:
        raise ValueError(f"damping must be >= 0, got {damping}")

    coeff = _symmetrize(p)
    if damping > 0.0:
        coeff = coeff + damping * np.eye(p.shape[0])

    try:
        lower = np.linalg.cholesky(coeff)
    except np.linalg.LinAlgError:
        raise factorization_error(coeff, damping, "matrix") from None
    x = np.linalg.solve(lower.T, np.linalg.solve(lower, rhs))
    return _finite_output(np.ascontiguousarray(x), "spd_solve")


def factorization_error(coeff: np.ndarray, damping: float, what: str) -> FactorizationError:
    """The typed error for a symmetric ``coeff``, named ``what``, that is not positive definite.

    ``leading_minor`` is the order of the first leading k x k block that does
    not factor, which is where a Cholesky of the whole matrix stops; the
    blocks are factored here, so only the error path pays for the search. A
    matrix whose every block factors (an eigenvalue test can be stricter than
    the pivots) reports its full dimension.
    """
    n = coeff.shape[0]
    minor = n
    for k in range(1, n + 1):
        try:
            np.linalg.cholesky(coeff[:k, :k])
        except np.linalg.LinAlgError:
            minor = k
            break
    return FactorizationError(
        f"Cholesky factorization failed at leading minor {minor} "
        f"({what} of dimension {n}, damping {damping})",
        leading_minor=minor,
    )


def sym_eig(p) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues ascending, eigenvectors as columns) such that
    p = V diag(w) V^T with V orthogonal.
    """
    p = as_matrix(p, "p")
    if p.shape[0] != p.shape[1]:
        raise ShapeError(f"p must be square, got shape {p.shape}")
    sym = _symmetrize(p)
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh failure is pathological
        off = float(np.linalg.norm(sym - np.diag(np.diag(sym))))
        raise EigenDecompositionError(
            f"symmetric eigendecomposition did not converge (off-diagonal norm {off:.3e})"
        ) from exc
    return w, np.ascontiguousarray(v)


def numerical_rank(m) -> int:
    """Number of singular values above ``RANK_TOL`` times the largest one.

    Singular values are recovered as square roots of the eigenvalues of the
    smaller of the two Gram matrices, which is cheap at the sizes this
    package works with. The zero matrix has rank 0.
    """
    m = as_matrix(m, "m")
    if m.shape[0] >= m.shape[1]:
        gram = m.T @ m
    else:
        gram = m @ m.T
    eigvals, _ = sym_eig(gram)
    return int(_gram_rank(eigvals))


def _gram_rank(eigvals: np.ndarray):
    """``numerical_rank``'s rule on ascending Gram eigenvalues along the last
    axis (0 for a zero Gram), so ``gradadjust.TangentGeometry`` ranks its
    stacked spectra in one call; one count per spectrum."""
    sigmas = np.sqrt(np.maximum(eigvals, 0.0))
    return (sigmas > RANK_TOL * sigmas[..., -1:]).sum(axis=-1)
