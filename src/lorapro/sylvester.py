"""Solver for P X + X Q = C with symmetric PSD coefficients, in their eigenbases.

Both coefficients of the one Sylvester equation this package solves are
Gram matrices that ``gradadjust.TangentGeometry`` has already
eigendecomposed, so a spectral route suffices: with P = U L U^T and
Q = V M V^T, divide the rotated right-hand side entrywise by the
eigenvalue-pair sums and rotate back. No Schur decomposition is needed.
"""

from __future__ import annotations

import numpy as np

from .errors import SpectrumError

__all__ = ["solve_sylvester"]

DENOMINATOR_FLOOR_REL = 1e-12


def solve_sylvester(
    c: np.ndarray, lam: np.ndarray, u: np.ndarray, mu: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """X with P X + X Q = c, given P = U diag(lam) U^T and Q = V diag(mu) V^T.

    Rotates c into the two eigenbases, divides entrywise by the pair sums
    lambda_i + mu_j, and rotates back. Raises SpectrumError with the offending
    eigenvalue pair if some pair sum falls at or below
    DENOMINATOR_FLOOR_REL * (||lam|| + ||mu||), i.e. the coefficient spectra
    (nearly) cancel and the equation has no stable unique solution. Callers
    decide how to recover; this solver never regularizes.
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
