import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import EXACT
from lorapro.errors import (
    DescentViolationError,
    FactorizationError,
    NonFiniteError,
    ShapeError,
    SpectrumError,
)
from lorapro.gradadjust import (
    X_STRATEGIES,
    DampingPolicy,
    GradBundle,
    TangentGeometry,
    adjust,
    choose_x,
    equivalent_gradient,
    lora_raw_grads,
    loss_decrease_certificate,
    validate_bundle,
)
from lorapro.linalg import frob_norm, numerical_rank
from lorapro.lora import LoraLayer
from lorapro.optim import HyperParams, init_adamw_state, lorapro_adamw_step, lorapro_sgd_step
from lorapro.oracle import (
    brute_force_optimal_grads,
    projection_residual_norm_sq,
    solve_sylvester_kron,
    x_objective_scan,
)
from lorapro.sylvester import SylvesterProblem, solve_sylvester


def test_raw_grads_hand_values(unit_instance):
    layer, g = unit_instance
    bundle = lora_raw_grads(layer, g)
    assert np.allclose(bundle.g_a_lora, [[1.0, 2.0]])
    assert np.allclose(bundle.g_b_lora, [[1.0], [3.0]])
    validate_bundle(layer, bundle)


def test_raw_grads_zero_gradient(unit_instance):
    layer, _ = unit_instance
    bundle = lora_raw_grads(layer, np.zeros((2, 2)))
    assert not bundle.g_a_lora.any() and not bundle.g_b_lora.any()


def test_raw_grads_zero_b_annihilates_left_factor(unit_instance):
    layer, g = unit_instance
    zeroed = LoraLayer(w0=layer.w0, b=np.zeros_like(layer.b), a=layer.a,
                       alpha=layer.alpha, rank=layer.rank, scaling_mode=layer.scaling_mode)
    bundle = lora_raw_grads(zeroed, g)
    assert not bundle.g_a_lora.any()
    assert bundle.g_b_lora.any()


def test_equivalent_gradient_hand_value(unit_instance):
    layer, _ = unit_instance
    g_tilde = equivalent_gradient(layer, np.array([[1.0, 2.0]]), np.array([[0.0], [3.0]]))
    assert np.allclose(g_tilde, [[1.0, 2.0], [3.0, 0.0]])
    assert np.array_equal(
        equivalent_gradient(layer, np.zeros((1, 2)), np.zeros((2, 1))), np.zeros((2, 2))
    )


def test_equivalent_gradient_full_rank_limit_recovers_g():
    rng = np.random.default_rng(20)
    for _ in range(10):
        m, n, r = 4, 6, 4  # square invertible left factor
        layer = LoraLayer(
            w0=np.zeros((m, n)),
            b=rng.normal(size=(m, r)) + np.eye(m),
            a=rng.normal(size=(r, n)),
            alpha=float(r),
            rank=r,
            scaling_mode="lora",
        )
        g = rng.normal(size=(m, n))
        adj = adjust(layer, lora_raw_grads(layer, g), strategy="zero", policy=EXACT)
        g_tilde = equivalent_gradient(layer, adj.g_a, adj.g_b)
        assert frob_norm(g_tilde - g) <= 1e-9 * max(1.0, frob_norm(g))


def test_choose_x_hand_values(unit_instance):
    layer, g = unit_instance
    bundle = lora_raw_grads(layer, g)
    assert np.array_equal(choose_x(layer, bundle, "zero", EXACT), [[0.0]])
    assert np.allclose(choose_x(layer, bundle, "sylvester", EXACT), [[-0.5]], atol=1e-12)
    assert np.allclose(choose_x(layer, bundle, "symmetry", EXACT), [[-0.5]], atol=1e-12)


def test_choose_x_zero_gradient_all_strategies(unit_instance):
    layer, _ = unit_instance
    bundle = lora_raw_grads(layer, np.zeros((2, 2)))
    for strategy in ("zero", "symmetry", "sylvester"):
        assert np.allclose(choose_x(layer, bundle, strategy, EXACT), 0.0, atol=1e-14)


def test_adjust_hand_values(unit_instance):
    layer, g = unit_instance
    bundle = lora_raw_grads(layer, g)
    at_zero = adjust(layer, bundle, strategy="zero", policy=EXACT)
    assert np.allclose(at_zero.g_a, [[1.0, 2.0]])
    assert np.allclose(at_zero.g_b, [[0.0], [3.0]])
    sylv = adjust(layer, bundle, strategy="sylvester", policy=EXACT)
    assert np.allclose(sylv.g_a, [[0.5, 2.0]], atol=1e-12)
    assert np.allclose(sylv.g_b, [[0.5], [3.0]], atol=1e-12)
    for adj in (at_zero, sylv):
        g_tilde = equivalent_gradient(layer, adj.g_a, adj.g_b)
        assert np.allclose(g_tilde, [[1.0, 2.0], [3.0, 0.0]], atol=1e-12)


def test_adjust_zero_gradient(unit_instance):
    layer, _ = unit_instance
    adj = adjust(layer, lora_raw_grads(layer, np.zeros((2, 2))), policy=EXACT)
    assert not adj.g_a.any() and not adj.g_b.any()


def test_adjust_x_override_keeps_equivalent_gradient(unit_instance):
    layer, g = unit_instance
    bundle = lora_raw_grads(layer, g)
    base = adjust(layer, bundle, strategy="zero", policy=EXACT)
    shifted = adjust(layer, bundle, policy=EXACT, x_override=np.array([[3.7]]))
    t0 = equivalent_gradient(layer, base.g_a, base.g_b)
    t1 = equivalent_gradient(layer, shifted.g_a, shifted.g_b)
    assert frob_norm(t0 - t1) <= 1e-12
    assert shifted.x_strategy == "override"


def test_scaling_enters_adjustment():
    # same factors, two scalings; the equivalent gradient must stay the
    # projection of g (which does not depend on s)
    rng = np.random.default_rng(21)
    b = rng.normal(size=(5, 2))
    a = rng.normal(size=(2, 4))
    g = rng.normal(size=(5, 4))
    tildes = []
    for alpha in (1.0, 6.0):
        layer = LoraLayer(w0=np.zeros((5, 4)), b=b, a=a, alpha=alpha, rank=2,
                          scaling_mode="lora")
        adj = adjust(layer, lora_raw_grads(layer, g), strategy="zero", policy=EXACT)
        tildes.append(equivalent_gradient(layer, adj.g_a, adj.g_b))
    assert frob_norm(tildes[0] - tildes[1]) <= 1e-9 * max(1.0, frob_norm(tildes[0]))


def test_certificate_hand_value(unit_instance):
    layer, g = unit_instance
    bundle = lora_raw_grads(layer, g)
    adjusted = adjust(layer, bundle, strategy="sylvester", policy=EXACT)
    dl = loss_decrease_certificate(layer, bundle, adjusted, lr=1.0, policy=EXACT)
    assert dl == pytest.approx(-14.0, abs=1e-12)
    # cross-check: equals -<g_tilde, g> on chain-rule-consistent bundles
    g_tilde = equivalent_gradient(layer, adjusted.g_a, adjusted.g_b)
    assert dl == pytest.approx(-float(np.sum(g_tilde * g)), abs=1e-9)


def test_certificate_trivial_cases(unit_instance):
    layer, g = unit_instance
    zero_bundle = lora_raw_grads(layer, np.zeros((2, 2)))
    adj = adjust(layer, zero_bundle, policy=EXACT)
    assert loss_decrease_certificate(layer, zero_bundle, adj, lr=1.0, policy=EXACT) == 0.0
    bundle = lora_raw_grads(layer, g)
    adj = adjust(layer, bundle, policy=EXACT)
    assert loss_decrease_certificate(layer, bundle, adj, lr=0.0, policy=EXACT) == 0.0


@pytest.mark.parametrize("scale", [1e200, -1e200])
def test_certificate_overflow_raises_only_the_typed_error(unit_instance, scale):
    # <g_a, (B^T B)^-1 g_a> of a 1e200-scale gradient overflows float64: the
    # certificate reports it as NonFiniteError, with no numpy warning first,
    # so it stays typed when warnings are errors
    layer, g = unit_instance
    bundle = lora_raw_grads(layer, scale * g)
    adjusted = adjust(layer, bundle, strategy="sylvester", policy=EXACT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="not finite"):
            loss_decrease_certificate(layer, bundle, adjusted, lr=1.0, policy=EXACT)


def test_certificate_rejects_tampered_gradients(unit_instance):
    layer, g = unit_instance
    bundle = lora_raw_grads(layer, g)
    adjusted = adjust(layer, bundle, strategy="sylvester", policy=EXACT)
    tampered = type(adjusted)(
        g_a=-adjusted.g_a, g_b=-adjusted.g_b, x=adjusted.x, x_strategy=adjusted.x_strategy
    )
    with pytest.raises(DescentViolationError):
        loss_decrease_certificate(layer, bundle, tampered, lr=1.0, policy=EXACT)


def test_damped_adjustment_handles_zero_b(unit_instance):
    layer, g = unit_instance
    zeroed = LoraLayer(w0=layer.w0, b=np.zeros_like(layer.b), a=layer.a,
                       alpha=layer.alpha, rank=layer.rank, scaling_mode=layer.scaling_mode)
    bundle = lora_raw_grads(zeroed, g)
    adj = adjust(zeroed, bundle, strategy="sylvester", policy=DampingPolicy())
    assert not adj.g_a.any()          # nothing to move while b is zero
    assert np.allclose(adj.x, 0.0)    # zero right-hand side forces a zero X
    assert np.all(np.isfinite(adj.g_b)) and adj.g_b.any()


def test_passthrough_returns_raw_gradients(unit_instance):
    layer, g = unit_instance
    zeroed = LoraLayer(w0=layer.w0, b=np.zeros_like(layer.b), a=layer.a,
                       alpha=layer.alpha, rank=layer.rank, scaling_mode=layer.scaling_mode)
    bundle = lora_raw_grads(zeroed, g)
    adj = adjust(zeroed, bundle, policy=DampingPolicy(fallback="passthrough"))
    assert np.array_equal(adj.g_a, bundle.g_a_lora)
    assert np.array_equal(adj.g_b, bundle.g_b_lora)
    assert adj.x_strategy == "passthrough"
    # once b has rank again, passthrough behaves like the damped path
    full = adjust(layer, lora_raw_grads(layer, g),
                  policy=DampingPolicy(fallback="passthrough"))
    assert full.x_strategy == "sylvester"


def test_validate_bundle_rejects_inconsistency(unit_instance):
    layer, g = unit_instance
    bad = GradBundle(g_a_lora=np.ones((1, 2)) * 5.0, g_b_lora=np.ones((2, 1)), g_full=g)
    with pytest.raises(ShapeError):
        validate_bundle(layer, bad)


CONSUMERS = {
    "adjust": lambda layer, bundle: adjust(layer, bundle, policy=EXACT),
    "choose_x": lambda layer, bundle: choose_x(layer, bundle, policy=EXACT),
    "lorapro_sgd_step": lambda layer, bundle: lorapro_sgd_step(
        layer, bundle, HyperParams(lr=0.1), policy=EXACT),
    "lorapro_adamw_step": lambda layer, bundle: lorapro_adamw_step(
        layer, init_adamw_state(layer.shape), bundle, HyperParams(lr=0.1), policy=EXACT),
}


@pytest.mark.parametrize("consumer", sorted(CONSUMERS))
@pytest.mark.parametrize("factor", ["g_a_lora", "g_b_lora"])
def test_user_bundle_inconsistent_with_g_full_is_rejected(unit_instance, consumer, factor):
    layer, g = unit_instance
    derived = lora_raw_grads(layer, g)
    parts = {"g_a_lora": derived.g_a_lora.copy(), "g_b_lora": derived.g_b_lora.copy()}
    consistent = GradBundle(**parts, g_full=g)
    CONSUMERS[consumer](layer, consistent)
    parts[factor] = parts[factor] + 1e-6
    with pytest.raises(ShapeError, match=f"{factor} inconsistent with g_full"):
        CONSUMERS[consumer](layer, GradBundle(**parts, g_full=g))


def test_derived_bundle_is_rechecked_once_it_no_longer_matches(unit_instance):
    layer, g = unit_instance
    bundle = lora_raw_grads(layer, g)
    validate_bundle(layer, bundle)
    # the same bundle against other factors of the same shapes
    other = LoraLayer(w0=layer.w0, b=np.array([[0.0], [1.0]]), a=layer.a, alpha=1.0, rank=1,
                      scaling_mode="lora")
    with pytest.raises(ShapeError, match="g_a_lora inconsistent"):
        validate_bundle(other, bundle)
    # a factor gradient swapped out after lora_raw_grads built the bundle
    bundle.g_b_lora = bundle.g_b_lora + 1.0
    with pytest.raises(ShapeError, match="g_b_lora inconsistent"):
        validate_bundle(layer, bundle)


def test_adjust_shape_mismatch(unit_instance):
    layer, _ = unit_instance
    with pytest.raises(ShapeError):
        adjust(layer, GradBundle(g_a_lora=np.zeros((2, 2)), g_b_lora=np.zeros((2, 1))))


def test_rank_bound_on_random_instances():
    rng = np.random.default_rng(22)
    for _ in range(50):
        m, n = int(rng.integers(5, 9)), int(rng.integers(5, 9))
        r = int(rng.integers(1, 3))
        layer = LoraLayer(
            w0=np.zeros((m, n)),
            b=rng.normal(size=(m, r)),
            a=rng.normal(size=(r, n)),
            alpha=float(r),
            rank=r,
            scaling_mode="lora",
        )
        g = rng.normal(size=(m, n))
        adj = adjust(layer, lora_raw_grads(layer, g), strategy="zero", policy=EXACT)
        g_tilde = equivalent_gradient(layer, adj.g_a, adj.g_b)
        assert numerical_rank(g_tilde) <= 2 * r


def _factor(rng, rows, cols, cond):
    # singular values spread geometrically over [1/cond, 1]
    k = min(rows, cols)
    u, _ = np.linalg.qr(rng.normal(size=(rows, k)))
    v, _ = np.linalg.qr(rng.normal(size=(cols, k)))
    return u @ np.diag(np.geomspace(1.0, 1.0 / cond, k)) @ v.T


def _rel(diff, *scales):
    return diff / max(1e-12, *map(abs, scales))


def test_shared_geometry_changes_nothing():
    rng = np.random.default_rng(24)
    cases = []
    for gram_cond in (1.0, 1e4, 1e8):
        for _ in range(4):
            m, n = int(rng.integers(4, 9)), int(rng.integers(4, 9))
            r = int(rng.integers(2, 4))
            factor_cond = np.sqrt(gram_cond)
            layer = LoraLayer(w0=np.zeros((m, n)), b=_factor(rng, m, r, factor_cond),
                              a=_factor(rng, r, n, factor_cond), alpha=2.0 * r, rank=r,
                              scaling_mode="lora")
            cases.append((gram_cond, layer, EXACT))
    # the damped start of training: B = 0
    for _ in range(2):
        a = rng.normal(size=(3, 7))
        cases.append((None, LoraLayer(w0=np.zeros((6, 7)), b=np.zeros((6, 3)), a=a,
                                      alpha=16.0, rank=3), DampingPolicy()))

    for gram_cond, layer, policy in cases:
        g = rng.normal(size=layer.shape)
        bundle = lora_raw_grads(layer, g)
        geometry = TangentGeometry(layer, policy)
        tildes = []
        for strategy in X_STRATEGIES:
            own = adjust(layer, bundle, strategy, policy)
            shared = adjust(layer, bundle, strategy, policy, geometry=geometry)
            for name in ("g_a", "g_b", "x"):
                assert np.array_equal(getattr(own, name), getattr(shared, name)), name
            assert np.array_equal(choose_x(layer, bundle, strategy, policy),
                                  choose_x(layer, bundle, strategy, policy, geometry=geometry))
            cert_own = loss_decrease_certificate(layer, bundle, own, 0.1, policy)
            cert_shared = loss_decrease_certificate(layer, bundle, shared, 0.1, policy,
                                                    geometry=geometry)
            assert cert_own == cert_shared
            tildes.append(equivalent_gradient(layer, shared.g_a, shared.g_b))
        if gram_cond is None:
            continue  # the oracles need full-rank factors

        # the existing selfcheck tolerances against the independent references
        _, _, brute = brute_force_optimal_grads(layer, g)
        formula = projection_residual_norm_sq(layer, g)
        for g_tilde in tildes:
            ours = float(np.sum((g_tilde - g) ** 2))
            assert _rel(abs(ours - brute), ours, brute, 1.0) <= 1e-7
            assert _rel(abs(ours - formula), ours, formula, 1.0) <= 1e-8
            assert _rel(frob_norm(g_tilde - tildes[0]), frob_norm(tildes[0]), 1.0) <= 1e-9
        # undamped, the certificate is -lr ||g_tilde||^2 = -lr (||g||^2 - residual)
        expected = -0.1 * (float(np.sum(g**2)) - formula)
        assert _rel(abs(cert_shared - expected), expected, 1.0) <= 1e-8

        x_star = choose_x(layer, bundle, "sylvester", policy, geometry=geometry)
        best = x_objective_scan(layer, bundle, x_star)
        for _ in range(10):
            delta = rng.normal(size=x_star.shape)
            other = x_objective_scan(layer, bundle, x_star + 1e-3 * delta / frob_norm(delta))
            assert _rel(best - other, best, other, 1.0) <= 1e-8
        if gram_cond <= 1e4:
            # selfcheck's Kronecker agreement holds at its own conditioning; at Gram
            # condition 1e8 every float64 route is only good to about cond * eps
            s = layer.scaling
            gram_b, gram_a = layer.b.T @ layer.b, layer.a @ layer.a.T
            rhs = -np.linalg.solve(gram_b, bundle.g_a_lora) @ layer.a.T / s**2
            x_ref = solve_sylvester_kron(gram_b, gram_a, rhs)
            assert _rel(frob_norm(x_star - x_ref), frob_norm(x_ref), 1.0) <= 1e-8


def _layer(rng, m, n, r, b_scale=1.0):
    return LoraLayer(w0=np.zeros((m, n)), b=b_scale * rng.normal(size=(m, r)),
                     a=rng.normal(size=(r, n)), alpha=2.0 * r, rank=r)


def test_zero_pair_shift_and_kept_products_change_no_bit():
    # shifting adjust's X = 0 pair by X lands on the bytes of a fresh adjust,
    # and a certificate reading the products adjust kept on those of one that
    # forms its own
    rng = np.random.default_rng(25)
    for b_scale, policy in ((1.0, EXACT), (1.0, DampingPolicy()), (0.0, DampingPolicy())):
        for _ in range(4):
            layer = _layer(rng, 7, 6, 3, b_scale)
            bundle = lora_raw_grads(layer, rng.normal(size=(7, 6)))
            geometry = TangentGeometry(layer, policy)
            zero = adjust(layer, bundle, "zero", policy, geometry=geometry)
            shifts = [{"strategy": strategy} for strategy in X_STRATEGIES]
            shifts.append({"x_override": rng.normal(size=(3, 3))})
            for kwargs in shifts:
                fresh = adjust(layer, bundle, policy=policy, geometry=geometry, **kwargs)
                shifted = adjust(layer, bundle, policy=policy, geometry=geometry,
                                 zero_pair=zero, **kwargs)
                for name in ("g_a", "g_b", "x"):
                    assert getattr(shifted, name).tobytes() == getattr(fresh, name).tobytes()
                assert shifted.x_strategy == fresh.x_strategy
                by_hand = type(fresh)(g_a=fresh.g_a, g_b=fresh.g_b, x=fresh.x,
                                      x_strategy=fresh.x_strategy)
                for pair in (fresh, shifted):
                    assert loss_decrease_certificate(
                        layer, bundle, pair, 0.1, policy, geometry=geometry
                    ) == loss_decrease_certificate(layer, bundle, by_hand, 0.1, policy,
                                                   geometry=geometry)


def test_zero_pair_must_come_from_this_bundle_and_geometry(unit_instance):
    layer, g = unit_instance
    bundle = lora_raw_grads(layer, g)
    geometry = TangentGeometry(layer, EXACT)
    zero = adjust(layer, bundle, "zero", EXACT, geometry=geometry)
    other_bundle = lora_raw_grads(layer, 2.0 * g)
    for pair, kwargs in (
        (adjust(layer, bundle, "sylvester", EXACT, geometry=geometry), {}),  # not X = 0
        (type(zero)(g_a=zero.g_a, g_b=zero.g_b, x=zero.x, x_strategy="zero"), {}),  # no solves
        (adjust(layer, bundle, "zero", EXACT), {}),  # another geometry
        (zero, {"bundle": other_bundle}),
    ):
        with pytest.raises(ValueError, match="zero_pair"):
            adjust(layer, kwargs.get("bundle", bundle), "sylvester", EXACT,
                   geometry=geometry, zero_pair=pair)


@st.composite
def _factor_pairs(draw):
    """(B, A) of a layer up to 12 x 12, at any rank up to min(m, n).

    Each factor has its own scale between 1e-6 and 1e2; some columns of B
    may be zero and some rows of A may repeat others, so both can be rank
    deficient, B down to rank 0.
    """
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    r = draw(st.integers(1, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale_b, scale_a = (10.0 ** draw(st.floats(-6.0, 2.0)) for _ in range(2))
    b = scale_b * rng.normal(size=(m, r))
    b[:, draw(st.lists(st.booleans(), min_size=r, max_size=r))] = 0.0
    a = scale_a * rng.normal(size=(r, n))
    for i in range(1, r):
        source = draw(st.integers(-1, i - 1))
        if source >= 0:
            a[i] = a[source]
    return b, a


@settings(max_examples=300, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_factor_pairs())
@example((np.zeros((4, 4)), np.vstack([np.eye(4)[:3], np.eye(4)[2]])))  # square A, one repeat
@example((np.ones((12, 12)), np.diag(np.geomspace(1.0, 1e-9, 12))))  # square A, graded
def test_geometry_ranks_follow_numerical_rank(factors):
    # the trainer reads the rank metrics and the passthrough decision from the
    # geometry's eigenvalues; numerical_rank decomposes A^T A where A is
    # square, the geometry A A^T
    b, a = factors
    m, r, n = b.shape[0], b.shape[1], a.shape[1]
    layer = LoraLayer(w0=np.zeros((m, n)), b=b, a=a, alpha=1.0, rank=r)
    geometry = TangentGeometry(layer, DampingPolicy(fallback="passthrough"))
    assert (geometry.rank_a, geometry.rank_b) == (numerical_rank(a), numerical_rank(b))
    assert geometry.passthrough == (numerical_rank(b) == 0)


def test_geometry_rejects_another_layer(unit_instance):
    layer, g = unit_instance
    bundle = lora_raw_grads(layer, g)
    other = LoraLayer(w0=layer.w0, b=layer.b.copy(), a=layer.a.copy(), alpha=layer.alpha,
                      rank=layer.rank, scaling_mode=layer.scaling_mode)
    with pytest.raises(ValueError, match="another layer"):
        adjust(layer, bundle, policy=EXACT, geometry=TangentGeometry(other, EXACT))
    with pytest.raises(ValueError, match="another layer"):
        adjust(layer, bundle, policy=EXACT, geometry=TangentGeometry(layer, DampingPolicy()))
    geometry = TangentGeometry(layer, EXACT)
    layer.b = layer.b.copy()  # same layer object, a factor array it was not built from
    with pytest.raises(ValueError, match="another layer"):
        adjust(layer, bundle, policy=EXACT, geometry=geometry)


def test_singular_gram_reports_leading_minor():
    # undamped, a zero column of B leaves B^T B singular at that column's minor
    g = np.arange(12.0).reshape(4, 3)
    a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    for zero_col, minor in ((0, 1), (1, 2)):
        b = np.array([[1.0, 2.0], [0.0, 1.0], [1.0, 0.0], [2.0, 1.0]])
        b[:, zero_col] = 0.0
        layer = LoraLayer(w0=np.zeros((4, 3)), b=b, a=a, alpha=2.0, rank=2,
                          scaling_mode="lora")
        bundle = lora_raw_grads(layer, g)
        for call in (
            lambda: adjust(layer, bundle, "zero", EXACT),
            lambda: choose_x(layer, bundle, "sylvester", EXACT),
            lambda: loss_decrease_certificate(
                layer, bundle, adjust(layer, bundle, "zero", DampingPolicy()), 0.1, EXACT
            ),
        ):
            with pytest.raises(FactorizationError) as excinfo:
                call()
            assert excinfo.value.leading_minor == minor


def test_sylvester_x_spectrum_error_matches_solver():
    # B^T B = diag(1, 1e-14) still factors, but A A^T = diag(1, 0) and the
    # pair sum 1e-14 + 0 falls below the relative floor
    b = np.array([[1.0, 0.0], [0.0, 1e-7], [0.0, 0.0]])
    a = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    layer = LoraLayer(w0=np.zeros((3, 3)), b=b, a=a, alpha=2.0, rank=2, scaling_mode="lora")
    bundle = lora_raw_grads(layer, np.ones((3, 3)))
    with pytest.raises(SpectrumError, match="X selection 'sylvester' failed") as ours:
        choose_x(layer, bundle, "sylvester", EXACT)
    gram_b, gram_a = b.T @ b, a @ a.T
    rhs = -np.linalg.solve(gram_b, bundle.g_a_lora) @ a.T / layer.scaling**2
    with pytest.raises(SpectrumError) as reference:
        solve_sylvester(SylvesterProblem(p=gram_b, q=gram_a, c=rhs))
    assert ours.value.pair == pytest.approx(reference.value.pair, rel=1e-6, abs=1e-20)
