import numpy as np
import pytest

from lorapro.errors import SpectrumError
from lorapro.linalg import frob_norm
from lorapro.oracle import solve_sylvester_kron
from lorapro.sylvester import solve_sylvester


def random_spd(rng, r, lo=0.1, hi=10.0):
    q, _ = np.linalg.qr(rng.normal(size=(r, r)))
    return q @ np.diag(rng.uniform(lo, hi, size=r)) @ q.T


def solve(p, q, c):
    """X with p X + X q = c, through the eigenbases numpy gives for p and q."""
    lam, u = np.linalg.eigh(np.asarray(p, dtype=np.float64))
    mu, v = np.linalg.eigh(np.asarray(q, dtype=np.float64))
    return solve_sylvester(np.asarray(c, dtype=np.float64), lam, u, mu, v)


def test_scalar_equation():
    p, q, c = np.array([[1.0]]), np.array([[1.0]]), np.array([[-1.0]])
    x = solve(p, q, c)
    assert np.allclose(x, [[-0.5]], atol=1e-14)
    assert abs(p @ x + x @ q - c).max() < 1e-12


def test_zero_rhs_gives_zero():
    rng = np.random.default_rng(5)
    p, q = random_spd(rng, 3), random_spd(rng, 3)
    x = solve(p, q, np.zeros((3, 3)))
    assert np.allclose(x, 0.0, atol=1e-14)


def test_diagonal_closed_form():
    p = np.diag([1.0, 2.0])
    q = np.diag([3.0, 4.0])
    c = np.array([[4.0, 5.0], [5.0, 6.0]])
    x = solve(p, q, c)
    # entrywise c_ij / (p_ii + q_jj)
    assert np.allclose(x, np.ones((2, 2)), atol=1e-12)
    assert frob_norm(p @ x + x @ q - c) <= 1e-8 * max(1.0, frob_norm(c))


@pytest.mark.parametrize("r", [1, 2, 4, 8, 16])
def test_residual_bound_across_sizes(r):
    rng = np.random.default_rng(100 + r)
    for _ in range(20):
        p, q = random_spd(rng, r), random_spd(rng, r)
        c = rng.normal(size=(r, r))
        x = solve(p, q, c)
        assert frob_norm(p @ x + x @ q - c) <= 1e-8 * max(1.0, frob_norm(c))


def test_repeated_solve_agrees():
    rng = np.random.default_rng(6)
    p, q = random_spd(rng, 5), random_spd(rng, 5)
    c = rng.normal(size=(5, 5))
    assert frob_norm(solve(p, q, c) - solve(p, q, c)) <= 1e-10


def test_agrees_with_kronecker_reference():
    rng = np.random.default_rng(7)
    for r in (1, 2, 3, 4):
        for _ in range(10):
            p, q = random_spd(rng, r), random_spd(rng, r)
            c = rng.normal(size=(r, r))
            x_ref = solve_sylvester_kron(p, q, c)
            assert frob_norm(solve(p, q, c) - x_ref) <= 1e-8 * max(1.0, frob_norm(x_ref))


def test_colliding_spectra_error_carries_pair():
    with pytest.raises(SpectrumError) as excinfo:
        solve([[0.0]], [[0.0]], [[1.0]])
    assert excinfo.value.pair == (0.0, 0.0)
