"""Brute-force references that certify the closed-form adjustment.

Everything here deliberately avoids the code paths it checks: the
least-squares route builds the explicit vectorized design matrix, the
Sylvester reference solves the Kronecker-structured linear system, and
gradients are approximated by central differences. These routines exist to
certify, not to compute — they are only meant for tiny instances.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import RankDeficiencyError, ShapeError
from .linalg import as_matrix
from .lora import LoraLayer
from .gradadjust import GradBundle

__all__ = [
    "brute_force_optimal_grads",
    "projection_residual_norm_sq",
    "solve_sylvester_kron",
    "x_objective_scan",
    "finite_diff_grad",
]

MAX_ORACLE_ENTRIES = 4096


def brute_force_optimal_grads(
    layer: LoraLayer, g_full: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Minimize ||s*B*g_a + s*g_b*A - g||_F^2 as an explicit linear least squares.

    Row-major vectorization turns the objective into ||D u - vec(g)||^2 with
    D = [s*(B kron I_n), s*(I_m kron A^T)] and u = vec(g_a) || vec(g_b). The
    minimizer is non-unique (adding (X A, -B X) never moves the product), so
    the minimum-norm solution is returned; the objective value is unique.
    """
    g_full = as_matrix(g_full, "g_full")
    m, n = layer.shape
    r = layer.rank
    if g_full.shape != (m, n):
        raise ShapeError(f"g_full must be {m}x{n}, got {g_full.shape}")
    if m * n > MAX_ORACLE_ENTRIES:
        raise ShapeError(f"oracle guard: m*n = {m * n} exceeds {MAX_ORACLE_ENTRIES}")

    s = layer.scaling
    design = np.hstack(
        [s * np.kron(layer.b, np.eye(n)), s * np.kron(np.eye(m), layer.a.T)]
    )
    rhs = g_full.ravel()

    # The kernel {(X A, -B X)} always has dimension r^2, so a full-rank
    # factor pair yields design rank exactly r*(m+n-r); anything lower means
    # B or A is rank deficient and the closed form's assumption fails.
    expected_rank = r * (m + n - r)
    rank = int(np.linalg.matrix_rank(design))
    if rank < expected_rank:
        raise RankDeficiencyError(
            f"design rank {rank} below expected {expected_rank}; factors are rank deficient"
        )

    solution, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    g_a = solution[: r * n].reshape(r, n)
    g_b = solution[r * n :].reshape(m, r)
    objective = float(np.sum((design @ solution - rhs) ** 2))
    return g_a, g_b, float(objective)


def projection_residual_norm_sq(layer: LoraLayer, g_full: np.ndarray) -> float:
    """Analytic minimum of the same objective: the double-projection residual.

    || (I - P_B) g (I - P_A) ||_F^2 with P_B, P_A the orthogonal projectors
    onto the column space of B and row space of A. A second certificate,
    independent of both the least-squares route and the closed form.
    """
    g_full = as_matrix(g_full, "g_full")
    b, a = layer.b, layer.a
    p_b = b @ np.linalg.solve(b.T @ b, b.T)
    p_a = a.T @ np.linalg.solve(a @ a.T, a)
    resid = (np.eye(layer.shape[0]) - p_b) @ g_full @ (np.eye(layer.shape[1]) - p_a)
    return float(np.sum(resid**2))


def solve_sylvester_kron(p: np.ndarray, q: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Reference Sylvester solution via the r^2 x r^2 Kronecker system.

    Row-major vec gives (P kron I + I kron Q^T) vec(X) = vec(C).
    """
    p = as_matrix(p, "p")
    q = as_matrix(q, "q")
    c = as_matrix(c, "c")
    r = p.shape[0]
    eye = np.eye(r)
    system = np.kron(p, eye) + np.kron(eye, q.T)
    return np.linalg.solve(system, c.ravel()).reshape(r, r)


def x_objective_scan(layer: LoraLayer, bundle: GradBundle, x: np.ndarray) -> float | np.ndarray:
    """Departure of the adjusted pair at a given X from the raw gradient pair.

    Evaluates ||g_a(X) - g_a_raw||_F^2 + ||g_b(X) - g_b_raw||_F^2 on the
    solution family, with its own (undamped) linear solves. ``x`` is one
    r x r matrix, giving a float, or a (k, r, r) stack, giving a length-k
    float64 array whose entries equal the single-X values bit for bit. The
    Grams and solves do not depend on X, so a stack pays for them once.
    """
    r = layer.rank
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 2
    stack = x[np.newaxis] if single else x
    if stack.ndim != 3 or stack.shape[1:] != (r, r):
        raise ShapeError(f"x must be {r}x{r} or a (k, {r}, {r}) stack, got shape {x.shape}")
    stack = as_matrix(stack.reshape(-1, r), "x").reshape(stack.shape)
    s = layer.scaling
    b, a = layer.b, layer.a
    gram_b = b.T @ b
    gram_a = a @ a.T
    base_a = np.linalg.solve(gram_b, bundle.g_a_lora) / s**2
    projected = bundle.g_b_lora - b @ np.linalg.solve(gram_b, b.T @ bundle.g_b_lora)
    base_b = np.linalg.solve(gram_a, projected.T).T / s**2
    # g(X) - g_raw squared in place: one (k, r, n) temporary, freed before the (k, m, r) one
    departure = stack @ a
    departure += base_a
    departure -= bundle.g_a_lora
    departure *= departure
    total = departure.sum(axis=(1, 2))
    del departure
    departure = b @ stack
    np.subtract(base_b, departure, out=departure)
    departure -= bundle.g_b_lora
    departure *= departure
    total += departure.sum(axis=(1, 2))
    return float(total[0]) if single else total


def finite_diff_grad(
    f: Callable[[np.ndarray], float], at: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Entrywise central-difference gradient of a scalar function of a matrix."""
    at = as_matrix(at, "at")
    if h <= 0.0:
        raise ValueError(f"h must be > 0, got {h}")
    grad = np.zeros_like(at)
    for i in range(at.shape[0]):
        for j in range(at.shape[1]):
            bumped = at.copy()
            bumped[i, j] = at[i, j] + h
            up = f(bumped)
            bumped[i, j] = at[i, j] - h
            down = f(bumped)
            grad[i, j] = (up - down) / (2.0 * h)
    return grad
