"""Solver for P X + X Q = C with symmetric PSD coefficients.

Both coefficients in every call this package makes are Gram matrices, so a
spectral route suffices: eigendecompose P = U L U^T and Q = V M V^T, divide
the rotated right-hand side entrywise by the eigenvalue-pair sums, and rotate
back. No Schur decomposition is needed. ``solve_in_eigenbases`` is that
spectral step alone, for callers that already hold both eigenbases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, SpectrumError
from .linalg import as_matrix, frob_norm, sym_eig

__all__ = ["SylvesterProblem", "solve_sylvester", "solve_in_eigenbases"]

SYMMETRY_RTOL = 1e-10
DENOMINATOR_FLOOR_REL = 1e-12


@dataclass
class SylvesterProblem:
    """Coefficients p, q (square symmetric PSD) and right-hand side c, all r x r."""

    p: np.ndarray
    q: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.p = as_matrix(self.p, "p")
        self.q = as_matrix(self.q, "q")
        self.c = as_matrix(self.c, "c")
        for name, mat in (("p", self.p), ("q", self.q)):
            if mat.shape[0] != mat.shape[1]:
                raise ShapeError(f"{name} must be square, got shape {mat.shape}")
            asym = frob_norm(mat - mat.T)
            if asym > SYMMETRY_RTOL * max(1.0, frob_norm(mat)):
                raise ShapeError(f"{name} is not symmetric within tolerance (deviation {asym:.3e})")
        if not (self.p.shape == self.q.shape == self.c.shape):
            raise ShapeError(
                f"p, q, c must share one dimension, got {self.p.shape}, "
                f"{self.q.shape}, {self.c.shape}"
            )


def solve_sylvester(prob: SylvesterProblem) -> np.ndarray:
    """Solve p X + X q = c via the spectral route.

    Errors with the offending eigenvalue pair if some lambda_i + mu_j falls at
    or below the relative floor, i.e. the coefficient spectra (nearly) cancel
    and the equation has no stable unique solution. Callers decide how to
    recover; this solver never regularizes.
    """
    lam, u = sym_eig(prob.p)
    mu, v = sym_eig(prob.q)
    return solve_in_eigenbases(prob.c, lam, u, mu, v)


def solve_in_eigenbases(
    c: np.ndarray, lam: np.ndarray, u: np.ndarray, mu: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """X with P X + X Q = c, given P = U diag(lam) U^T and Q = V diag(mu) V^T.

    Rotates c into the two eigenbases, divides entrywise by the pair sums
    lambda_i + mu_j, and rotates back. Raises SpectrumError with the offending
    eigenvalue pair if some pair sum falls at or below
    DENOMINATOR_FLOOR_REL * (||lam|| + ||mu||).
    """
    floor = DENOMINATOR_FLOOR_REL * (float(np.linalg.norm(lam)) + float(np.linalg.norm(mu)))
    pair_sums = lam[:, None] + mu[None, :]
    bad = pair_sums <= floor
    if np.any(bad):
        i, j = map(int, np.argwhere(bad)[0])
        raise SpectrumError(
            f"eigenvalue pair sum {pair_sums[i, j]:.3e} at or below floor {floor:.3e} "
            f"(lambda={lam[i]:.3e}, mu={mu[j]:.3e}); coefficients share eigenvalues up to sign",
            pair=(float(lam[i]), float(mu[j])),
        )
    return u @ ((u.T @ c @ v) / pair_sums) @ v.T
