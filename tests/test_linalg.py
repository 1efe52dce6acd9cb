import tracemalloc

import numpy as np
import pytest

from lorapro.errors import FactorizationError, NonFiniteError, ShapeError
from lorapro.linalg import (
    ENTRYWISE_CHECK_MAX,
    as_matrix,
    frob_norm,
    numerical_rank,
    spd_solve,
    sym_eig,
)


def test_frob_norm_hand_value():
    g = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert frob_norm(g) == pytest.approx(np.sqrt(30.0))


def test_spd_solve_scalar_division():
    assert np.allclose(spd_solve(np.array([[2.0]]), np.array([[4.0]])), [[2.0]])


def test_spd_solve_identity_inverse():
    g = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(spd_solve(np.eye(2), g), g, atol=1e-14)


def test_spd_solve_diagonal_inverse_with_residual():
    p = np.diag([4.0, 9.0])
    x = spd_solve(p, np.eye(2))
    assert np.allclose(x, np.diag([0.25, 1.0 / 9.0]), atol=1e-14)
    assert frob_norm(p @ x - np.eye(2)) < 1e-12


def test_spd_solve_residual_on_conditioned_instances():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(2, 12))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        lam = 10.0 ** rng.uniform(-6, 0, size=n)  # condition number up to 1e6
        p = q @ np.diag(lam) @ q.T
        rhs = rng.normal(size=(n, int(rng.integers(1, 4))))
        x = spd_solve(p, rhs)
        sym = 0.5 * (p + p.T)
        assert frob_norm(sym @ x - rhs) <= 1e-8 * frob_norm(rhs)


def test_spd_solve_failure_reports_leading_minor():
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(FactorizationError) as excinfo:
        spd_solve(indefinite, np.eye(2))
    assert excinfo.value.leading_minor == 2


def test_spd_solve_leading_minor_matches_lapack_info():
    # scipy's dpotrf is the reference for the failing minor; the library itself
    # factors through numpy alone
    from scipy.linalg import lapack

    rng = np.random.default_rng(41)
    for n in range(1, 9):
        for k in range(1, n + 1):
            # p = L D L^T with L nonsingular lower triangular: the leading minors
            # below order k are positive definite and the k-th pivot is negative
            lower = np.tril(rng.normal(size=(n, n)), -1) + np.diag(rng.uniform(0.5, 2.0, n))
            pivots = rng.uniform(0.5, 2.0, n)
            pivots[k - 1] = -rng.uniform(0.5, 2.0)
            p = lower @ np.diag(pivots) @ lower.T
            p = 0.5 * (p + p.T)
            _, info = lapack.dpotrf(p, lower=1)
            assert info == k
            with pytest.raises(FactorizationError) as excinfo:
                spd_solve(p, np.ones((n, 1)))
            assert excinfo.value.leading_minor == info


def test_spd_solve_damping_recovers_singular():
    x = spd_solve(np.zeros((3, 3)), np.zeros((3, 1)), damping=1e-8)
    assert np.array_equal(x, np.zeros((3, 1)))
    with pytest.raises(ValueError):
        spd_solve(np.eye(2), np.eye(2), damping=-1.0)


def test_spd_solve_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        spd_solve(np.array([[np.nan]]), np.array([[1.0]]))
    with pytest.raises(NonFiniteError):
        spd_solve(np.array([[1.0]]), np.array([[np.inf]]))


def test_sym_eig_already_diagonal():
    w, v = sym_eig(np.diag([3.0, 1.0]))
    assert np.allclose(w, [1.0, 3.0])
    assert np.allclose(np.abs(v), np.eye(2)[:, ::-1])


def test_sym_eig_exchange_matrix():
    w, v = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0])
    expected = 1.0 / np.sqrt(2.0)
    assert np.allclose(np.abs(v), expected)


def test_sym_eig_identity():
    w, _ = sym_eig(np.eye(3))
    assert np.allclose(w, np.ones(3))


def test_sym_eig_orthogonality_and_reconstruction():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 20))
        p = rng.normal(size=(n, n))
        p = 0.5 * (p + p.T)
        w, v = sym_eig(p)
        assert np.all(np.diff(w) >= 0)
        assert frob_norm(v.T @ v - np.eye(n)) <= 1e-10 * n
        assert frob_norm(v @ np.diag(w) @ v.T - p) <= 1e-8 * max(1.0, frob_norm(p))


def test_numerical_rank_zero_matrix():
    assert numerical_rank(np.zeros((4, 2))) == 0


def test_numerical_rank_orthonormal_columns():
    m = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert numerical_rank(m) == 2


def test_numerical_rank_outer_product_vs_svd_oracle():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(rng.integers(2, 8), 1))
        v = rng.normal(size=(1, rng.integers(2, 8)))
        m = u @ v
        assert numerical_rank(m) == 1
        sv = np.linalg.svd(m, compute_uv=False)
        svd_rank = int(np.sum(sv > 1e-7 * sv[0]))
        assert numerical_rank(m) == svd_rank


def test_numerical_rank_never_exceeds_min_dim():
    rng = np.random.default_rng(4)
    for _ in range(30):
        m = rng.normal(size=(int(rng.integers(1, 9)), int(rng.integers(1, 9))))
        assert numerical_rank(m) <= min(m.shape)


# either side of ENTRYWISE_CHECK_MAX, where the check changes
CHECK_SHAPES = pytest.mark.parametrize("shape", [(4, 6), (64, 80)],
                                       ids=["entrywise", "reductions"])


@CHECK_SHAPES
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (3, 5), (-1, -1)])
def test_as_matrix_names_any_non_finite_entry(bad, where, shape):
    a = np.ones(shape)
    assert (a.size <= ENTRYWISE_CHECK_MAX) == (shape == (4, 6))
    a[where] = bad
    with pytest.raises(NonFiniteError, match="^w contains non-finite entries$"):
        as_matrix(a, "w")
    # through the float64 conversion too, and among huge finite neighbours
    with pytest.raises(NonFiniteError):
        as_matrix(a.astype(np.float32), "w")
    a[a == 1.0] = -np.finfo(np.float64).max
    with pytest.raises(NonFiniteError):
        as_matrix(a, "w")


@CHECK_SHAPES
def test_as_matrix_accepts_the_extreme_finite_values(shape):
    top = np.finfo(np.float64).max
    a = np.full(shape, -0.0)
    a[:2, :2] = [[top, -top], [np.finfo(np.float64).tiny, -0.0]]
    assert as_matrix(a, "w") is a
    for bad in (np.zeros(3), np.zeros((0, 2)), np.zeros((2, 2, 2))):
        with pytest.raises(ShapeError):
            as_matrix(bad, "w")


def test_as_matrix_checks_finiteness_without_an_entrywise_temporary():
    # a 512 x 512 float64 matrix: np.isfinite(a).all() allocates m*n bytes
    a = np.random.default_rng(3).normal(size=(512, 512))
    tracemalloc.start()
    try:
        steady = tracemalloc.get_traced_memory()[0]
        assert as_matrix(a, "a") is a
        peak = tracemalloc.get_traced_memory()[1] - steady
    finally:
        tracemalloc.stop()
    assert peak < 512 * 512 // 64, peak
