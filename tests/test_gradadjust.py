import dataclasses
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import EXACT, assert_bundle_is_value
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
    factor_ranks,
    lora_raw_grads,
    loss_decrease_certificate,
    shift,
    validate_bundle,
)
import lorapro.harness as harness
from lorapro.harness import discrepancy
from lorapro.linalg import build_unchecked, frob_norm, numerical_rank
from lorapro.lora import LoraLayer
from lorapro.model import Batch, Network, backward, forward
from lorapro.oracle import (
    brute_force_optimal_grads,
    projection_residual_norm_sq,
    solve_sylvester_kron,
    x_objective_scan,
)
from lorapro.selfcheck import MAX_FACTOR_COND, _conditioned


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
                       scaling=layer.scaling)
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
            scaling=1.0,
        )
        g = rng.normal(size=(m, n))
        adj = adjust(layer, lora_raw_grads(layer, g), strategy="zero", policy=EXACT)
        g_tilde = equivalent_gradient(layer, adj.g_a, adj.g_b)
        assert frob_norm(g_tilde - g) <= 1e-9 * max(1.0, frob_norm(g))


def _projection(layer, bundle):
    return adjust(layer, bundle, "zero", EXACT).projection


def test_choose_x_hand_values(unit_instance):
    layer, g = unit_instance
    projection = _projection(layer, lora_raw_grads(layer, g))
    assert np.array_equal(choose_x(projection, "zero"), [[0.0]])
    assert np.allclose(choose_x(projection, "sylvester"), [[-0.5]], atol=1e-12)
    assert np.allclose(choose_x(projection, "symmetry"), [[-0.5]], atol=1e-12)


def test_choose_x_zero_gradient_all_strategies(unit_instance):
    layer, _ = unit_instance
    projection = _projection(layer, lora_raw_grads(layer, np.zeros((2, 2))))
    for strategy in ("zero", "symmetry", "sylvester"):
        assert np.allclose(choose_x(projection, strategy), 0.0, atol=1e-14)


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
    for scaling in (0.5, 3.0):
        layer = LoraLayer(w0=np.zeros((5, 4)), b=b, a=a, scaling=scaling)
        adj = adjust(layer, lora_raw_grads(layer, g), strategy="zero", policy=EXACT)
        tildes.append(equivalent_gradient(layer, adj.g_a, adj.g_b))
    assert frob_norm(tildes[0] - tildes[1]) <= 1e-9 * max(1.0, frob_norm(tildes[0]))


def test_certificate_hand_value(unit_instance):
    layer, g = unit_instance
    bundle = lora_raw_grads(layer, g)
    adjusted = adjust(layer, bundle, strategy="sylvester", policy=EXACT)
    dl = loss_decrease_certificate(adjusted, lr=1.0)
    assert dl == pytest.approx(-14.0, abs=1e-12)
    # cross-check: equals -<g_tilde, g> on chain-rule-consistent bundles
    g_tilde = equivalent_gradient(layer, adjusted.g_a, adjusted.g_b)
    assert dl == pytest.approx(-float(np.sum(g_tilde * g)), abs=1e-9)


def test_certificate_trivial_cases(unit_instance):
    layer, g = unit_instance
    zero_bundle = lora_raw_grads(layer, np.zeros((2, 2)))
    adj = adjust(layer, zero_bundle, policy=EXACT)
    assert loss_decrease_certificate(adj, lr=1.0) == 0.0
    adj = adjust(layer, lora_raw_grads(layer, g), policy=EXACT)
    assert loss_decrease_certificate(adj, lr=0.0) == 0.0


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
            loss_decrease_certificate(adjusted, lr=1.0)


def test_certificate_rejects_tampered_gradients(unit_instance):
    layer, g = unit_instance
    bundle = lora_raw_grads(layer, g)
    adjusted = adjust(layer, bundle, strategy="sylvester", policy=EXACT)
    tampered = dataclasses.replace(adjusted, g_a=-adjusted.g_a, g_b=-adjusted.g_b)
    with pytest.raises(DescentViolationError):
        loss_decrease_certificate(tampered, lr=1.0)


def test_damped_adjustment_handles_zero_b(unit_instance):
    layer, g = unit_instance
    zeroed = LoraLayer(w0=layer.w0, b=np.zeros_like(layer.b), a=layer.a,
                       scaling=layer.scaling)
    bundle = lora_raw_grads(zeroed, g)
    policy = DampingPolicy()
    adj = adjust(zeroed, bundle, strategy="sylvester", policy=policy)
    assert not adj.g_a.any()          # nothing to move while b is zero
    assert np.allclose(adj.x, 0.0)    # zero right-hand side forces a zero X
    assert np.all(np.isfinite(adj.g_b)) and adj.g_b.any()
    # the damped step from B = 0: g_b_raw (A A^T + eps_a I)^-1 / s^2
    gram_a = zeroed.a @ zeroed.a.T
    gram_a += policy.damping_for(gram_a) * np.eye(zeroed.rank)
    expect_b = np.linalg.solve(gram_a, bundle.g_b_lora.T).T / zeroed.scaling**2
    assert np.allclose(adj.g_b, expect_b, rtol=1e-12, atol=0.0)
    # and it is certified like any other step
    assert loss_decrease_certificate(adj, lr=0.1) < 0.0


def test_validate_bundle_rejects_inconsistency(unit_instance):
    # the constructor refuses an inconsistent bundle for its own layer;
    # validate_bundle refuses a bundle for a layer it is inconsistent with
    layer, g = unit_instance
    with pytest.raises(ShapeError, match="g_a_lora inconsistent"):
        GradBundle(layer, g_a_lora=np.ones((1, 2)) * 5.0, g_b_lora=np.ones((2, 1)), g_full=g)
    bad = lora_raw_grads(dataclasses.replace(layer, scaling=5.0), g)
    with pytest.raises(ShapeError, match="g_a_lora inconsistent"):
        validate_bundle(layer, bad)


# a bundle enters the adjustment, and every step built on it, through adjust
CONSUMERS = {
    "adjust": lambda layer, bundle: adjust(layer, bundle, policy=EXACT),
}


@pytest.mark.parametrize("consumer", sorted(CONSUMERS))
@pytest.mark.parametrize("factor", ["g_a_lora", "g_b_lora"])
def test_user_bundle_inconsistent_with_g_full_is_rejected(unit_instance, consumer, factor):
    layer, g = unit_instance
    derived = lora_raw_grads(layer, g)
    parts = {"g_a_lora": derived.g_a_lora.copy(), "g_b_lora": derived.g_b_lora.copy()}
    consistent = GradBundle(layer, **parts, g_full=g)
    CONSUMERS[consumer](layer, consistent)
    CONSUMERS[consumer](dataclasses.replace(layer), consistent)  # rechecked, and consistent
    # the factor's expected value moves by 1e-6 on a layer whose B (for
    # g_a_lora) or A (for g_b_lora) is nudged, and on the factor itself
    nudged = {"g_a_lora": dataclasses.replace(layer, b=layer.b + 1e-6),
              "g_b_lora": dataclasses.replace(layer, a=layer.a + 1e-6)}[factor]
    with pytest.raises(ShapeError, match=f"{factor} inconsistent with g_full"):
        CONSUMERS[consumer](nudged, consistent)
    parts[factor] = parts[factor] + 1e-6
    with pytest.raises(ShapeError, match=f"{factor} inconsistent with g_full"):
        GradBundle(layer, **parts, g_full=g)


def test_derived_bundle_is_rechecked_once_it_no_longer_matches(unit_instance):
    layer, g = unit_instance
    bundle = lora_raw_grads(layer, g)
    validate_bundle(layer, bundle)
    # the same bundle against other factors of the same shapes
    other = LoraLayer(w0=layer.w0, b=np.array([[0.0], [1.0]]), a=layer.a, scaling=1.0)
    with pytest.raises(ShapeError, match="g_a_lora inconsistent"):
        validate_bundle(other, bundle)
    # a factor gradient cannot be swapped out after lora_raw_grads built the
    # bundle; a bundle rebuilt with another one is checked
    with pytest.raises(dataclasses.FrozenInstanceError):
        bundle.g_b_lora = bundle.g_b_lora + 1.0
    with pytest.raises(ShapeError, match="g_b_lora inconsistent"):
        dataclasses.replace(bundle, g_b_lora=bundle.g_b_lora + 1.0)


def _random_layer(rng, m, n, r=2):
    return LoraLayer(w0=rng.normal(size=(m, n)), b=rng.normal(size=(m, r)),
                     a=rng.normal(size=(r, n)), scaling=2.0 * math.sqrt(r))


def _backward_bundle(rng, m, n, rows):
    """A layer and the bundle ``backward`` gives it, on a random batch of ``rows``."""
    layer = _random_layer(rng, m, n)
    batch = Batch(inputs=rng.normal(size=(rows, m)), targets=rng.normal(size=(rows, n)))
    _, cache = forward(Network(layers=[layer], activations=["tanh"]), batch)
    return layer, backward(cache)[0]


def _constructed_bundle(rng, m=6, n=5):
    layer, g = _random_layer(rng, m, n), rng.normal(size=(m, n))
    s = layer.scaling
    return layer, GradBundle(layer, s * (layer.b.T @ g), s * (g @ layer.a.T), g_full=g)


def _raw_grads_bundle(rng, m=6, n=5):
    layer = _random_layer(rng, m, n)
    return layer, lora_raw_grads(layer, rng.normal(size=(m, n)))


# every path that yields a bundle, and whether it holds g factored
BUNDLE_PATHS = {
    "constructor": (_constructed_bundle, False),
    "lora_raw_grads": (_raw_grads_bundle, False),
    # (2r + batch)(m + n) against m n: 36 * 24 > 128 keeps g dense, 9 * 70 < 1200 factored
    "backward_dense": (lambda rng: _backward_bundle(rng, 8, 16, 32), False),
    "backward_factored": (lambda rng: _backward_bundle(rng, 40, 30, 5), True),
}


@pytest.mark.parametrize("path", sorted(BUNDLE_PATHS))
def test_every_bundle_is_a_value_of_its_layer(path):
    make, factored = BUNDLE_PATHS[path]
    layer, bundle = make(np.random.default_rng(81))
    assert_bundle_is_value(bundle, layer)
    assert (bundle.x is not None) == factored
    assert (bundle.g_full is None) == factored
    # and it is consistent with that layer, as a twin equal in value rechecks
    validate_bundle(dataclasses.replace(layer), bundle)


# a gradient misshapen against a 6 x 5 layer, and the error its bundle raises
MISSHAPEN_G = {
    "g_full_one_row": ({"g_full": (1, 5)}, r"g_full must be 6x5, got \(1, 5\)"),
    "g_full_one_column": ({"g_full": (6, 1)}, r"g_full must be 6x5, got \(6, 1\)"),
    "x_too_narrow": ({"x": (3, 4), "delta": (3, 5)},
                     r"x and delta must be batch x 6 and batch x 5, got \(3, 4\) and \(3, 5\)"),
}


@pytest.mark.parametrize("case", sorted(MISSHAPEN_G))
def test_bundle_of_a_misshapen_gradient_is_refused_where_it_is_built(case):
    # harness.discrepancy used to trust these: a 1 x 5 or 6 x 1 g_full
    # broadcast into a number, and a 3 x 4 x ended in a bare numpy ValueError
    rng = np.random.default_rng(83)
    layer = _random_layer(rng, 6, 5)
    shapes, match = MISSHAPEN_G[case]
    arrays = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    with pytest.raises(ShapeError, match=match):
        GradBundle(layer, rng.normal(size=(2, 5)), rng.normal(size=(6, 2)), **arrays)


def test_adjust_shape_mismatch(unit_instance):
    layer, _ = unit_instance
    with pytest.raises(ShapeError, match="g_a_lora must be 1x2"):
        GradBundle(layer, g_a_lora=np.zeros((2, 2)), g_b_lora=np.zeros((2, 1)))
    # a bundle of a rank-2 layer on the same base weight, given to adjust for the rank-1 one
    rank_2 = LoraLayer(w0=layer.w0, b=np.eye(2), a=np.eye(2), scaling=1.0)
    bundle = GradBundle(rank_2, g_a_lora=np.zeros((2, 2)), g_b_lora=np.zeros((2, 2)))
    with pytest.raises(ShapeError, match="g_a_lora must be 1x2"):
        adjust(layer, bundle)


def test_rank_bound_on_random_instances():
    rng = np.random.default_rng(22)
    for _ in range(50):
        m, n = int(rng.integers(5, 9)), int(rng.integers(5, 9))
        r = int(rng.integers(1, 3))
        layer = LoraLayer(
            w0=np.zeros((m, n)),
            b=rng.normal(size=(m, r)),
            a=rng.normal(size=(r, n)),
            scaling=1.0,
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
                              a=_factor(rng, r, n, factor_cond), scaling=2.0)
            cases.append((gram_cond, layer, EXACT))
    # the damped start of training: B = 0
    for _ in range(2):
        a = rng.normal(size=(3, 7))
        cases.append((None, LoraLayer(w0=np.zeros((6, 7)), b=np.zeros((6, 3)), a=a,
                                      scaling=16.0 / math.sqrt(3)), DampingPolicy()))

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
            assert np.array_equal(choose_x(own.projection, strategy),
                                  choose_x(shared.projection, strategy))
            cert_own = loss_decrease_certificate(own, 0.1)
            cert_shared = loss_decrease_certificate(shared, 0.1)
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

        x_star = choose_x(shared.projection, "sylvester")
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
                     a=rng.normal(size=(r, n)), scaling=2.0 * math.sqrt(r))


def test_shifting_the_zero_projection_is_adjust_byte_for_byte():
    # one X = 0 projection serves every X: shifting it lands on the bytes of
    # a fresh adjust with that X, and certifies to the same number
    rng = np.random.default_rng(25)
    for b_scale, policy in ((1.0, EXACT), (1.0, DampingPolicy()), (0.0, DampingPolicy())):
        for _ in range(4):
            layer = _layer(rng, 7, 6, 3, b_scale)
            bundle = lora_raw_grads(layer, rng.normal(size=(7, 6)))
            projection = adjust(layer, bundle, "zero", policy).projection
            shifts = [{"strategy": strategy} for strategy in X_STRATEGIES]
            shifts.append({"x_override": rng.normal(size=(3, 3))})
            for kwargs in shifts:
                fresh = adjust(layer, bundle, policy=policy, **kwargs)
                shifted = shift(projection, **kwargs)
                for name in ("g_a", "g_b", "x"):
                    assert getattr(shifted, name).tobytes() == getattr(fresh, name).tobytes()
                assert shifted.x_strategy == fresh.x_strategy
                assert (loss_decrease_certificate(shifted, 0.1)
                        == loss_decrease_certificate(fresh, 0.1))


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
    # the trainer reads the rank metrics from the geometry's eigenvalues;
    # numerical_rank decomposes A^T A where A is square, the geometry A A^T
    b, a = factors
    m, r, n = b.shape[0], b.shape[1], a.shape[1]
    layer = LoraLayer(w0=np.zeros((m, n)), b=b, a=a, scaling=1.0)
    geometry = TangentGeometry(layer, DampingPolicy())
    assert (geometry.rank_a, geometry.rank_b) == (numerical_rank(a), numerical_rank(b))
    # counted once, at construction, into plain ints
    assert type(vars(geometry)["rank_a"]) is type(vars(geometry)["rank_b"]) is int
    # a lora step reads the same ranks from the Grams' eigenvalues alone
    assert factor_ranks(layer) == (geometry.rank_b, geometry.rank_a)


RANK_LAYERS = {
    "random": lambda rng: (rng.normal(size=(9, 3)), rng.normal(size=(3, 7))),
    "rank-1": lambda rng: (np.outer(rng.normal(size=9), rng.normal(size=3)),
                           np.outer(rng.normal(size=3), rng.normal(size=7))),
    "b-zero": lambda rng: (np.zeros((9, 3)), rng.normal(size=(3, 7))),
}


@pytest.mark.parametrize("make", list(RANK_LAYERS.values()), ids=list(RANK_LAYERS))
def test_factor_ranks_are_the_geometry_ranks(make):
    # the rank-only route a lora step takes: the same stacked Grams and rule
    # as TangentGeometry, with no eigenvectors and no damping
    rng = np.random.default_rng(48)
    b, a = make(rng)
    layer = LoraLayer(w0=np.zeros((9, 7)), b=b, a=a, scaling=2.0)
    geometry = TangentGeometry(layer)
    ranks = factor_ranks(layer)
    assert ranks == (geometry.rank_b, geometry.rank_a) == (numerical_rank(b), numerical_rank(a))
    assert all(type(rank) is int for rank in ranks)


@st.composite
def _scaled_full_rank_layers(draw):
    """A layer up to 8 x 8 at rank up to 3 with its full gradient.

    The factors are drawn as selfcheck draws them, each of condition at most
    1e2, and then each is scaled by its own 10^U(-3, 3).
    """
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    r = draw(st.integers(1, min(3, m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale_b, scale_a = (10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(2))
    s = draw(st.sampled_from((0.5, 1.0, 2.0)))
    layer = LoraLayer(w0=np.zeros((m, n)),
                      b=scale_b * _conditioned(rng, (m, r), MAX_FACTOR_COND),
                      a=scale_a * _conditioned(rng, (r, n), MAX_FACTOR_COND),
                      scaling=s)
    return layer, rng.normal(size=(m, n))


@settings(max_examples=300, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_scaled_full_rank_layers())
def test_undamped_adjustment_is_optimal_at_every_factor_scale(case):
    # selfcheck's tolerances, on factors each scaled anywhere from 1e-3 to 1e3
    layer, g = case
    bundle = lora_raw_grads(layer, g)
    _, _, brute = brute_force_optimal_grads(layer, g)
    geometry = TangentGeometry(layer, EXACT)
    tildes = []
    for strategy in X_STRATEGIES:
        adjusted = adjust(layer, bundle, strategy, EXACT, geometry=geometry)
        g_tilde = equivalent_gradient(layer, adjusted.g_a, adjusted.g_b)
        ours = float(np.sum((g_tilde - g) ** 2))
        assert _rel(abs(ours - brute), ours, brute, 1.0) <= 1e-7
        assert loss_decrease_certificate(adjusted, 0.1) <= 1e-12
        tildes.append(g_tilde)
    for g_tilde in tildes[1:]:
        assert _rel(frob_norm(g_tilde - tildes[0]), frob_norm(tildes[0]), 1.0) <= 1e-9


def _with_condition(rng, shape, cond):
    """A Gaussian draw's singular vectors with singular values from 1 down to 1/cond."""
    u, _, vt = np.linalg.svd(rng.normal(size=shape), full_matrices=False)
    return (u * np.geomspace(1.0, 1.0 / cond, min(shape))) @ vt


@st.composite
def _ill_conditioned_scaled_layers(draw):
    """A layer up to 8 x 8 at rank up to 3 with its full gradient, each factor
    of condition up to 1e6 (Gram condition up to 1e12) and scaled by its own
    10^U(-3, 3)."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    r = draw(st.integers(1, min(3, m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cond_b, cond_a = (10.0 ** draw(st.floats(0.0, 6.0)) for _ in range(2))
    scale_b, scale_a = (10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(2))
    s = draw(st.sampled_from((0.5, 1.0, 2.0)))
    layer = LoraLayer(w0=np.zeros((m, n)),
                      b=scale_b * _with_condition(rng, (m, r), cond_b),
                      a=scale_a * _with_condition(rng, (r, n), cond_a),
                      scaling=s)
    return layer, rng.normal(size=(m, n))


@settings(max_examples=300, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_ill_conditioned_scaled_layers())
def test_undamped_adjustment_is_optimal_at_gram_condition_up_to_1e12(case):
    # every X strategy reaches the oracle's minimum; the X = 0 pair is also
    # certified. The X != 0 certificates and their agreement with the X = 0
    # g_tilde to 1e-9 do not hold this far out, so they are left to the
    # property above, whose factors are of condition at most 1e2
    layer, g = case
    bundle = lora_raw_grads(layer, g)
    _, _, brute = brute_force_optimal_grads(layer, g)
    geometry = TangentGeometry(layer, EXACT)
    for strategy in X_STRATEGIES:
        adjusted = adjust(layer, bundle, strategy, EXACT, geometry=geometry)
        g_tilde = equivalent_gradient(layer, adjusted.g_a, adjusted.g_b)
        ours = float(np.sum((g_tilde - g) ** 2))
        assert _rel(abs(ours - brute), ours, brute, 1.0) <= 1e-7
        if strategy == "zero":
            assert loss_decrease_certificate(adjusted, 0.1) <= 1e-12


def test_geometry_rejects_another_layer(unit_instance):
    layer, g = unit_instance
    bundle = lora_raw_grads(layer, g)
    other = LoraLayer(w0=layer.w0, b=layer.b.copy(), a=layer.a.copy(), scaling=layer.scaling)
    with pytest.raises(ValueError, match="another layer"):
        adjust(layer, bundle, policy=EXACT, geometry=TangentGeometry(other, EXACT))
    with pytest.raises(ValueError, match="another layer"):
        adjust(layer, bundle, policy=EXACT, geometry=TangentGeometry(layer, DampingPolicy()))
    # a layer equal in value, over the very same arrays, is still another layer
    twin = dataclasses.replace(layer)
    assert twin.b is layer.b and twin.a is layer.a
    with pytest.raises(ValueError, match="another layer"):
        adjust(twin, bundle, policy=EXACT, geometry=TangentGeometry(layer, EXACT))
    # and the layer a geometry was built from cannot change under it
    geometry = TangentGeometry(layer, EXACT)
    with pytest.raises(dataclasses.FrozenInstanceError):
        layer.b = layer.b.copy()
    with pytest.raises(ValueError, match="read-only"):
        layer.b *= 3.0
    # nor the policy it was built under
    with pytest.raises(dataclasses.FrozenInstanceError):
        geometry.policy.rel_epsilon = 10.0
    assert adjust(layer, bundle, policy=EXACT, geometry=geometry).x_strategy == "sylvester"


def test_bundle_of_a_layer_written_in_place_is_checked():
    # a layer cannot be written in place; a layer derived from it, even one
    # equal in value, gets lora_raw_grads's bundle checked against its own
    # values, as a bundle built by hand from the same arrays is
    rng = np.random.default_rng(71)
    layer = LoraLayer(w0=np.zeros((6, 5)), b=rng.normal(size=(6, 2)), a=rng.normal(size=(2, 5)),
                      scaling=2.0)
    bundle = lora_raw_grads(layer, rng.normal(size=(6, 5)))
    with pytest.raises(ValueError, match="read-only"):
        layer.b *= 3.0
    scaled = dataclasses.replace(layer, b=3.0 * layer.b)
    by_hand = GradBundle(layer, bundle.g_a_lora, bundle.g_b_lora, bundle.g_full)
    for checked in (by_hand, bundle):
        with pytest.raises(ShapeError, match="g_a_lora inconsistent with g_full"):
            adjust(scaled, checked)
    # g written in place after the bundle was built: its own layer does not
    # re-read it, a twin equal in value does
    bundle.g_full[:] *= 2.0  # a bundle field cannot be rebound, its array can be written
    adjust(layer, bundle)
    with pytest.raises(ShapeError, match="g_a_lora inconsistent with g_full"):
        adjust(dataclasses.replace(layer), bundle)


def test_singular_gram_reports_leading_minor():
    # undamped, a zero column of B leaves B^T B singular at that column's minor
    g = np.arange(12.0).reshape(4, 3)
    a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    for zero_col, minor in ((0, 1), (1, 2)):
        b = np.array([[1.0, 2.0], [0.0, 1.0], [1.0, 0.0], [2.0, 1.0]])
        b[:, zero_col] = 0.0
        layer = LoraLayer(w0=np.zeros((4, 3)), b=b, a=a, scaling=1.0)
        bundle = lora_raw_grads(layer, g)
        for strategy in X_STRATEGIES:
            with pytest.raises(FactorizationError) as excinfo:
                adjust(layer, bundle, strategy, EXACT)
            assert excinfo.value.leading_minor == minor


def test_sylvester_x_spectrum_error_matches_solver():
    # B^T B = diag(1, 1e-14) still factors, but A A^T = diag(1, 0) and the
    # pair sum 1e-14 + 0 falls below the relative floor: the error names the
    # smallest eigenvalue of each Gram
    b = np.array([[1.0, 0.0], [0.0, 1e-7], [0.0, 0.0]])
    a = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    layer = LoraLayer(w0=np.zeros((3, 3)), b=b, a=a, scaling=1.0)
    bundle = lora_raw_grads(layer, np.ones((3, 3)))
    with pytest.raises(SpectrumError, match="X selection 'sylvester' failed") as ours:
        adjust(layer, bundle, "sylvester", EXACT)
    expected = (np.linalg.eigvalsh(b.T @ b)[0], np.linalg.eigvalsh(a @ a.T)[0])
    assert ours.value.pair == pytest.approx(expected, rel=1e-6, abs=1e-20)


@pytest.mark.parametrize("scaled", [False, True], ids=["unit", "skewed"])
def test_certificate_holds_on_ill_conditioned_damped_layers(scaled):
    # the pair the step applies, for every X selection, certified under the
    # shipped damping at Gram condition 1e12: each X must be solvable, and the
    # 1e-9 agreement between the whitened quadratic forms and the gradient
    # pairing must hold on each. The Sylvester X is solved with both Grams
    # damped; with A A^T left undamped, B and A scaled apart made 11 of 900
    # solves raise SpectrumError and 18 certificates miss the 1e-9
    rng = np.random.default_rng(26)
    violations = 0
    for _ in range(300):
        m, n = int(rng.integers(4, 13)), int(rng.integers(4, 13))
        r = int(rng.integers(2, min(m, n) + 1))
        scale_b, scale_a = 10.0 ** rng.uniform(-3.0, 3.0, 2) if scaled else (1.0, 1.0)
        layer = LoraLayer(w0=np.zeros((m, n)), b=scale_b * _factor(rng, m, r, 1e6),
                          a=scale_a * _factor(rng, r, n, 1e6), scaling=2.0 * math.sqrt(r))
        for gram in (layer.b.T @ layer.b, layer.a @ layer.a.T):
            assert np.linalg.cond(gram) > 1e11
        bundle = lora_raw_grads(layer, rng.normal(size=(m, n)))
        for strategy in X_STRATEGIES:
            adjusted = adjust(layer, bundle, strategy)
            try:
                loss_decrease_certificate(adjusted, 0.1)
            except DescentViolationError:
                violations += 1
    assert violations == 0, f"{violations} of 900 certificates raised DescentViolationError"


@pytest.mark.parametrize("rel_epsilon", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
def test_damped_sylvester_x_converges_to_the_papers_x(rel_epsilon):
    # the paper's X solves B^T B X + X A A^T = C with the Grams undamped; the
    # X training solves, with each Gram damped by rel_epsilon times its mean
    # diagonal, stays within rel_epsilon * kappa of it relative, where kappa
    # is the Gram condition, so it converges to it as the damping goes to 0.
    # The largest gap over these 50 layers measured 0.5 * rel_epsilon * kappa.
    rng = np.random.default_rng(27)
    for _ in range(50):
        m, n = int(rng.integers(4, 13)), int(rng.integers(4, 13))
        r = int(rng.integers(2, min(m, n) + 1))
        layer = LoraLayer(w0=np.zeros((m, n)), b=_factor(rng, m, r, 1e2),
                          a=_factor(rng, r, n, 1e2), scaling=2.0 * math.sqrt(r))
        p, q = layer.b.T @ layer.b, layer.a @ layer.a.T
        kappa = max(np.linalg.cond(p), np.linalg.cond(q))
        assert kappa == pytest.approx(1e4)
        c = rng.normal(size=(r, r))
        x = TangentGeometry(layer, DampingPolicy(rel_epsilon=rel_epsilon)).solve_sylvester(c)
        x_paper = solve_sylvester_kron(p, q, c)
        assert frob_norm(x - x_paper) <= rel_epsilon * kappa * frob_norm(x_paper)


def _tangent_gradient(rng, m=40, n=30, r=2, rows=5):
    """A layer and a factored bundle whose g = x^T delta lies in the layer's
    tangent space: the rows of delta lie in the row space of A, so g = (x^T C) A.
    At these sizes the discrepancy takes the factored sum of squares."""
    layer = LoraLayer(w0=np.zeros((m, n)), b=rng.normal(size=(m, r)),
                      a=rng.normal(size=(r, n)), scaling=2.0 * math.sqrt(r))
    x = rng.normal(size=(rows, m))
    delta = rng.normal(size=(rows, r)) @ layer.a
    return layer, _factored_bundle(layer, x, delta)


def _factored_bundle(layer, x, delta):
    """The bundle of g = x^T delta on ``layer``, each factor gradient formed as backward does."""
    s = layer.scaling
    return GradBundle(layer, g_a_lora=s * ((x @ layer.b).T @ delta),
                      g_b_lora=s * (x.T @ (delta @ layer.a.T)), x=x, delta=delta)


def test_discrepancy_takes_the_dense_residual_where_its_sum_cancels():
    # LoRA-Pro's g_tilde is g projected onto the tangent space, so a g inside
    # it gives g_tilde = g up to rounding. The factored sum of squares then
    # cancels to its rounding error, some sqrt(eps) ||g|| once rooted, or
    # below zero; past DISCREPANCY_CANCELLATION the residual is formed
    # instead, and the discrepancy is the dense residual's, accurate to a few
    # eps ||g||
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(31)
    for _ in range(20):
        layer, bundle = _tangent_gradient(rng)
        validate_bundle(layer, bundle)  # chain-rule consistent with its dense g
        adjusted = adjust(layer, bundle, strategy="zero", policy=EXACT)
        g = bundle.full_gradient()
        residual = equivalent_gradient(layer, adjusted.g_a, adjusted.g_b) - g
        dense = float(np.linalg.norm(residual))
        assert dense <= 100 * eps * np.linalg.norm(g)
        got = discrepancy(bundle, adjusted.g_a, adjusted.g_b)
        assert abs(got - dense) <= 4 * eps * np.linalg.norm(g)


def test_discrepancy_of_a_dense_or_missing_full_gradient():
    rng = np.random.default_rng(32)
    layer, bundle = _tangent_gradient(rng)
    g = bundle.full_gradient()
    dense = GradBundle(layer, bundle.g_a_lora, bundle.g_b_lora, g_full=g)
    pair = (bundle.g_a_lora, bundle.g_b_lora)
    expected = float(np.linalg.norm(equivalent_gradient(layer, *pair) - g))
    assert discrepancy(dense, *pair) == expected
    assert discrepancy(bundle, *pair) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ShapeError, match="no full gradient"):
        discrepancy(GradBundle(layer, *pair), *pair)
    with pytest.raises(ShapeError, match="not both"):
        GradBundle(layer, *pair, g_full=g, x=bundle.x, delta=bundle.delta)
    with pytest.raises(ShapeError, match="both x and delta"):
        GradBundle(layer, *pair, x=bundle.x)


def test_discrepancy_checks_the_pair_and_takes_any_sign_of_scaling(monkeypatch):
    # the factored sum pairs the columns of B and g_b with the rows of A and
    # g_a, so a pair of another rank, consistent with itself, is refused
    # before either route; and a negative scaling gives the same non-negative
    # norm as the dense residual
    import lorapro.harness as harness

    rng = np.random.default_rng(35)
    layer, bundle = _tangent_gradient(rng)  # rank 2, 40 x 30
    pair = (rng.normal(size=(2, 30)), rng.normal(size=(40, 2)))
    rank_3 = (rng.normal(size=(3, 30)), rng.normal(size=(40, 3)))
    for g_a, g_b, match in ((*rank_3, "g_a must be 2x30"), (pair[0], rank_3[1], "g_b must be 40x2")):
        with pytest.raises(ShapeError, match=match):
            discrepancy(bundle, g_a, g_b)
    g = bundle.full_gradient()
    for scaling in (layer.scaling, -layer.scaling):
        signed = dataclasses.replace(layer, scaling=scaling)
        signed_bundle = _factored_bundle(signed, bundle.x, bundle.delta)
        expected = float(np.linalg.norm(equivalent_gradient(signed, *pair) - g))
        with monkeypatch.context() as patch:  # the factored sum, not the residual
            patch.setattr(harness, "equivalent_gradient", None)
            assert discrepancy(signed_bundle, *pair) == pytest.approx(expected, rel=1e-12)


@st.composite
def _factored_discrepancies(draw):
    """A factored bundle on an m x n layer at rank r <= min(m, n), for a batch of
    1 to 80 rows, and a pair: a random one, or the X = 0 adjustment of a g in
    the layer's tangent space, whose factored sum cancels (``tangent``). The
    factors have orthogonal columns and rows of norms within a decade, so the
    Grams the adjustment inverts are well conditioned."""
    m, n = draw(st.integers(1, 48)), draw(st.integers(1, 48))
    r, rows = draw(st.integers(1, min(m, n))), draw(st.integers(1, 80))
    tangent = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = np.linalg.qr(rng.normal(size=(m, r)))[0] * rng.uniform(0.5, 5.0, size=r)
    a = (np.linalg.qr(rng.normal(size=(n, r)))[0] * rng.uniform(0.5, 5.0, size=r)).T
    layer = LoraLayer(w0=np.zeros((m, n)), b=b, a=a,
                      scaling=draw(st.sampled_from((0.5, 2.0 * math.sqrt(r), -3.0))))
    x = rng.normal(size=(rows, m))
    delta = rng.normal(size=(rows, r)) @ a if tangent else rng.normal(size=(rows, n))
    bundle = _factored_bundle(layer, x, delta)
    if tangent:
        adjusted = adjust(layer, bundle, strategy="zero", policy=EXACT)
        pair = adjusted.g_a, adjusted.g_b
    else:
        pair = rng.normal(size=(r, n)), rng.normal(size=(m, r))
    return layer, bundle, pair, tangent


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_factored_discrepancies())
def test_discrepancy_block_route_matches_the_dense_residual(case):
    # the Grams filled block by block give the dense residual's norm within
    # 1e-12 of ||g_tilde|| + ||g||; where g_tilde = g up to rounding, the sum
    # cancels and the residual itself is formed, so the two agree bit for
    # bit. A random pair's sum cancels too on a few small layers (1 x 1 has
    # one term), and is then formed densely as well
    layer, bundle, (g_a, g_b), tangent = case
    g_tilde, g = equivalent_gradient(layer, g_a, g_b), bundle.full_gradient()
    dense = float(np.linalg.norm(g_tilde - g))
    with mock.patch.object(harness, "equivalent_gradient",
                           wraps=harness.equivalent_gradient) as residual:
        got = discrepancy(bundle, g_a, g_b)
    if tangent:
        assert residual.called and got == dense
    else:
        scale = float(np.linalg.norm(g_tilde) + np.linalg.norm(g))
        assert abs(got - dense) <= 1e-12 * scale, (got, dense)


def test_discrepancy_holds_no_m_by_k_array():
    # at m = n = 1500, r = 1 and a batch of 40, k = 42: one m x k array is 6.6
    # times the two k x k Grams and the m x 2r and 2r x n factors together.
    # The call's peak read 0.11 m x k arrays; concatenating U = [s B, s g_b,
    # -x^T] and V = [g_a^T, A^T, delta^T] read 2.06
    rng = np.random.default_rng(37)
    m = n = 1500
    r, rows = 1, 40
    layer = LoraLayer(w0=np.zeros((m, n)), b=rng.normal(size=(m, r)),
                      a=rng.normal(size=(r, n)), scaling=2.0)
    # the arrays' values need not be consistent, so no m x n g is formed to check them
    bundle = build_unchecked(GradBundle, layer=layer, g_a_lora=rng.normal(size=(r, n)),
                             g_b_lora=rng.normal(size=(m, r)), x=rng.normal(size=(rows, m)),
                             delta=rng.normal(size=(rows, n)))
    tracemalloc.start()
    try:
        steady = tracemalloc.get_traced_memory()[0]
        discrepancy(bundle, bundle.g_a_lora, bundle.g_b_lora)
        peak = tracemalloc.get_traced_memory()[1] - steady
    finally:
        tracemalloc.stop()
    one_u = 8 * m * (2 * r + rows)
    assert peak < 0.25 * one_u, peak / one_u


def test_user_built_factored_bundle_is_checked_against_its_dense_gradient():
    rng = np.random.default_rng(33)
    layer, bundle = _tangent_gradient(rng)
    validate_bundle(layer, bundle)
    # built by hand, or used with another layer object, a factored bundle is
    # checked against x^T delta formed densely
    with pytest.raises(ShapeError, match="g_a_lora inconsistent"):
        GradBundle(layer, bundle.g_a_lora, bundle.g_b_lora, x=bundle.x, delta=2.0 * bundle.delta)
    with pytest.raises(ShapeError, match="g_a_lora inconsistent"):
        validate_bundle(dataclasses.replace(layer, scaling=2.0 * layer.scaling), bundle)
    with pytest.raises(ShapeError, match="x and delta must be batch x 40 and batch x 30"):
        GradBundle(layer, bundle.g_a_lora, bundle.g_b_lora, x=bundle.x[:, :-1],
                   delta=bundle.delta)


@pytest.mark.parametrize("scale, match", [(1e200, "overflows to inf"),
                                          (np.inf, "g_tilde - g contains non-finite")])
def test_discrepancy_overflow_raises_only_the_typed_error(scale, match):
    # a 1e200-scale gradient overflows the factored sum of squares and then
    # the dense residual's norm; an infinite one reaches the residual itself
    layer, bundle = _tangent_gradient(np.random.default_rng(34))
    bundle.delta[0, 0] = scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=match):
            discrepancy(bundle, bundle.g_a_lora, bundle.g_b_lora)
