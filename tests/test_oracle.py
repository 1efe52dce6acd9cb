import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import EXACT
from lorapro.errors import NonFiniteError, RankDeficiencyError, ShapeError
from lorapro.gradadjust import adjust, lora_raw_grads
from lorapro.lora import LoraLayer
from lorapro.oracle import (
    brute_force_optimal_grads,
    finite_diff_grad,
    projection_residual_norm_sq,
    x_objective_scan,
)


def test_hand_instance_objective(unit_instance):
    layer, g = unit_instance
    g_a, g_b, objective = brute_force_optimal_grads(layer, g)
    # only the (2,2) entry of g, value 4, is unreachable
    assert objective == pytest.approx(16.0, abs=1e-10)
    assert projection_residual_norm_sq(layer, g) == pytest.approx(16.0, abs=1e-10)
    assert g_a.shape == (1, 2) and g_b.shape == (2, 1)


def test_representable_gradient_reaches_zero():
    rng = np.random.default_rng(40)
    layer = LoraLayer(w0=np.zeros((5, 6)), b=rng.normal(size=(5, 2)),
                      a=rng.normal(size=(2, 6)), scaling=1.0)
    g = layer.b @ rng.normal(size=(2, 6)) + rng.normal(size=(5, 2)) @ layer.a
    _, _, objective = brute_force_optimal_grads(layer, g)
    assert objective <= 1e-18


def test_square_invertible_left_factor_reaches_zero():
    rng = np.random.default_rng(41)
    m = r = 4
    layer = LoraLayer(w0=np.zeros((m, 6)), b=rng.normal(size=(m, r)) + np.eye(m),
                      a=rng.normal(size=(r, 6)), scaling=1.0)
    for _ in range(5):
        _, _, objective = brute_force_optimal_grads(layer, rng.normal(size=(m, 6)))
        assert objective <= 1e-18


def test_rank_deficient_factor_detected():
    layer = LoraLayer(w0=np.zeros((4, 4)),
                      b=np.ones((4, 2)),  # rank 1
                      a=np.random.default_rng(42).normal(size=(2, 4)),
                      scaling=1.0)
    with pytest.raises(RankDeficiencyError):
        brute_force_optimal_grads(layer, np.ones((4, 4)))


def test_desk_scale_guard():
    layer = LoraLayer(w0=np.zeros((70, 70)), b=np.ones((70, 1)),
                      a=np.ones((1, 70)), scaling=1.0)
    with pytest.raises(ShapeError):
        brute_force_optimal_grads(layer, np.zeros((70, 70)))


def test_scan_confirms_solver_choice_beats_perturbations(unit_instance):
    layer, g = unit_instance
    bundle = lora_raw_grads(layer, g)
    x_star = adjust(layer, bundle, "sylvester", EXACT).x
    best = x_objective_scan(layer, bundle, x_star)
    rng = np.random.default_rng(43)
    for _ in range(50):
        delta = rng.normal(size=x_star.shape)
        delta /= np.linalg.norm(delta)
        for mag in (1e-3, 1e-1, 1.0):
            assert best <= x_objective_scan(layer, bundle, x_star + mag * delta) + 1e-12


def test_scan_golden_section_recovers_scalar_minimizer(unit_instance):
    layer, g = unit_instance
    bundle = lora_raw_grads(layer, g)
    result = minimize_scalar(
        lambda t: x_objective_scan(layer, bundle, np.array([[t]])),
        bracket=(-2.0, 0.0, 1.0),
        method="golden",
    )
    assert result.x == pytest.approx(-0.5, abs=1e-6)
    assert x_objective_scan(layer, bundle, np.array([[0.0]])) > x_objective_scan(
        layer, bundle, np.array([[-0.5]])
    )


def test_scan_zero_gradient(unit_instance):
    layer, _ = unit_instance
    bundle = lora_raw_grads(layer, np.zeros((2, 2)))
    assert x_objective_scan(layer, bundle, np.zeros((1, 1))) == pytest.approx(0.0, abs=1e-18)


def test_scan_stack_equals_single_calls_bit_for_bit():
    from lorapro.selfcheck import random_instances

    rng = np.random.default_rng(47)
    for layer, bundle in random_instances(3, count=40):
        r = layer.rank
        stack = rng.normal(size=(6, r, r)) * 10.0 ** rng.integers(-3, 2)
        values = x_objective_scan(layer, bundle, stack)
        assert isinstance(values, np.ndarray) and values.dtype == np.float64
        single = [x_objective_scan(layer, bundle, x) for x in stack]
        assert all(type(v) is float for v in single)
        assert np.array_equal(values, single)


def test_scan_stack_shape_and_finiteness_checked(unit_instance):
    layer, g = unit_instance
    bundle = lora_raw_grads(layer, g)
    assert isinstance(x_objective_scan(layer, bundle, np.zeros((1, 1))), float)
    assert x_objective_scan(layer, bundle, np.zeros((3, 1, 1))).shape == (3,)
    for bad in (np.zeros((3, 1, 2)), np.zeros((3, 2, 2)), np.zeros((0, 1, 1)),
                np.zeros((2, 3, 1, 1)), np.zeros(1)):
        with pytest.raises(ShapeError):
            x_objective_scan(layer, bundle, bad)
    stack = np.zeros((4, 1, 1))
    stack[2, 0, 0] = np.nan
    with pytest.raises(NonFiniteError):
        x_objective_scan(layer, bundle, stack)


def test_finite_diff_on_quadratic():
    rng = np.random.default_rng(44)
    x = rng.normal(size=(3, 4))
    grad = finite_diff_grad(lambda m: float(np.sum(m**2)), x, h=1e-5)
    assert np.allclose(grad, 2.0 * x, atol=1e-9)


def test_finite_diff_on_linear():
    rng = np.random.default_rng(45)
    c = rng.normal(size=(2, 5))
    x = rng.normal(size=(2, 5))
    grad = finite_diff_grad(lambda m: float(np.sum(c * m)), x, h=1e-5)
    assert np.allclose(grad, c, atol=1e-10)


def test_finite_diff_rejects_bad_h():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda m: 0.0, np.zeros((1, 1)), h=0.0)


def test_certificate_slope_matches_realized_loss_change():
    # on a quadratic loss the realized change per unit step approaches the
    # predicted slope with a gap bounded by 10 * lr * ||g||_F^2
    from lorapro.gradadjust import loss_decrease_certificate
    from lorapro.model import Batch, Network, backward, forward

    rng = np.random.default_rng(46)
    m, n, r = 4, 5, 2
    layer = LoraLayer(w0=0.1 * rng.normal(size=(m, n)),
                      b=np.eye(m)[:, :r] + 0.3 * rng.normal(size=(m, r)),
                      a=rng.normal(size=(r, n)), scaling=1.0)
    batch = Batch(inputs=rng.normal(size=(16, m)), targets=rng.normal(size=(16, n)))
    net = Network([layer], ["identity"], "mse")
    loss0, cache = forward(net, batch)
    bundle = backward(cache)[0]
    adjusted = adjust(layer, bundle, strategy="sylvester", policy=EXACT)
    g_norm_sq = float(np.sum(bundle.full_gradient()**2))
    for gamma in (1e-2, 1e-3, 1e-4):
        dl = loss_decrease_certificate(adjusted, gamma)
        stepped = LoraLayer(w0=layer.w0, b=layer.b - gamma * adjusted.g_b,
                            a=layer.a - gamma * adjusted.g_a, scaling=layer.scaling)
        loss1, _ = forward(Network([stepped], ["identity"], "mse"), batch)
        assert abs((loss1 - loss0) / gamma - dl / gamma) <= 10.0 * gamma * g_norm_sq
