import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lorapro.model as model
from lorapro.errors import ShapeError
from lorapro.gradadjust import (
    DampingPolicy,
    adjust,
    equivalent_gradient,
    lora_raw_grads,
)
from lorapro.harness import discrepancy
from lorapro.lora import (
    SCALING_MODES,
    InitScheme,
    LoraLayer,
    effective_weight,
    init_layer,
    scaling_factor,
)
from lorapro.model import (
    Batch,
    Network,
    backward,
    backward_weight_grads,
    forward,
    forward_with_weights,
)
from lorapro.oracle import finite_diff_grad


def zero_adapter_layer(w0):
    m, n = np.asarray(w0).shape
    return init_layer(m, n, 1, w0=w0, scheme=InitScheme("standard", seed=0))


def test_identity_network_zero_loss():
    x = np.random.default_rng(0).normal(size=(3, 4))
    net = Network([zero_adapter_layer(np.eye(4))], ["identity"], "mse")
    loss, _ = forward(net, Batch(inputs=x, targets=x))
    assert loss == pytest.approx(0.0, abs=1e-15)


def test_uniform_logits_give_log_k():
    k = 5
    net = Network([zero_adapter_layer(np.zeros((3, k)))], ["identity"], "softmax_cross_entropy")
    batch = Batch(
        inputs=np.random.default_rng(1).normal(size=(4, 3)),
        targets=np.array([0, 2, 4, 1], dtype=np.int64),
    )
    loss, _ = forward(net, batch)
    assert loss == pytest.approx(np.log(k), abs=1e-12)


def test_hand_computed_relu_network_loss():
    # x @ W1 -> relu -> @ W2, mse against [[1],[0]]; worked out on paper
    w1 = np.array([[1.0, -1.0], [0.5, 2.0]])
    w2 = np.array([[0.5], [-1.0]])
    net = Network(
        [zero_adapter_layer(w1), zero_adapter_layer(w2)], ["relu", "identity"], "mse"
    )
    batch = Batch(
        inputs=np.array([[1.0, 2.0], [-1.0, 0.5]]), targets=np.array([[1.0], [0.0]])
    )
    loss, _ = forward(net, batch)
    assert loss == pytest.approx(6.5, abs=1e-12)


def test_one_hot_targets_match_class_indices():
    rng = np.random.default_rng(2)
    net = Network([zero_adapter_layer(rng.normal(size=(3, 4)))], ["identity"],
                  "softmax_cross_entropy")
    x = rng.normal(size=(5, 3))
    idx = np.array([0, 3, 1, 2, 3], dtype=np.int64)
    onehot = np.zeros((5, 4))
    onehot[np.arange(5), idx] = 1.0
    l1, _ = forward(net, Batch(inputs=x, targets=idx))
    l2, _ = forward(net, Batch(inputs=x, targets=onehot))
    assert l1 == pytest.approx(l2, abs=1e-14)


def test_zero_residual_gives_zero_gradients():
    rng = np.random.default_rng(3)
    w0 = rng.normal(size=(4, 2))
    net = Network([zero_adapter_layer(w0)], ["identity"], "mse")
    x = rng.normal(size=(6, 4))
    batch = Batch(inputs=x, targets=x @ w0)
    _, cache = forward(net, batch)
    bundle = backward(cache)[0]
    assert np.allclose(bundle.full_gradient(), 0.0, atol=1e-14)


def test_linear_mse_gradient_matches_analytic_form():
    rng = np.random.default_rng(4)
    w0 = rng.normal(size=(3, 2))
    net = Network([zero_adapter_layer(w0)], ["identity"], "mse")
    x = rng.normal(size=(5, 3))
    y = rng.normal(size=(5, 2))
    _, cache = forward(net, Batch(inputs=x, targets=y))
    bundle = backward(cache)[0]
    expected = x.T @ ((x @ w0 - y) * 2.0 / 5.0)
    assert np.allclose(bundle.full_gradient(), expected, atol=1e-12)


def test_backward_matches_finite_differences_on_deep_net():
    rng = np.random.default_rng(5)
    dims = [4, 6, 3]
    layers, acts = [], ["tanh", "identity"]
    for m, n in zip(dims, dims[1:]):
        r = 2
        layers.append(
            LoraLayer(w0=0.5 * rng.normal(size=(m, n)), b=rng.normal(size=(m, r)),
                      a=rng.normal(size=(r, n)), scaling=1.0)
        )
    net = Network(layers, acts, "mse")
    batch = Batch(inputs=rng.normal(size=(4, 4)), targets=rng.normal(size=(4, 3)))
    _, cache = forward(net, batch)
    bundles = backward(cache)
    for i, bundle in enumerate(bundles):
        def loss_at(w0, i=i):
            probe_layers = list(net.layers)
            old = probe_layers[i]
            probe_layers[i] = LoraLayer(w0=w0, b=old.b, a=old.a, scaling=old.scaling)
            return forward(Network(probe_layers, acts, "mse"), batch)[0]

        fd = finite_diff_grad(loss_at, net.layers[i].w0, h=1e-5)
        g = bundle.full_gradient()
        denom = np.linalg.norm(g) + 1e-3
        assert np.linalg.norm(fd - g) / denom < 1e-5


def test_factor_gradients_match_finite_differences():
    # the raw adapter gradients really are d(loss)/d(factor)
    rng = np.random.default_rng(6)
    layer = LoraLayer(w0=rng.normal(size=(4, 3)), b=rng.normal(size=(4, 2)),
                      a=rng.normal(size=(2, 3)), scaling=1.0)
    net = Network([layer], ["identity"], "mse")
    batch = Batch(inputs=rng.normal(size=(5, 4)), targets=rng.normal(size=(5, 3)))
    _, cache = forward(net, batch)
    bundle = backward(cache)[0]

    def loss_at_a(a):
        probe = LoraLayer(w0=layer.w0, b=layer.b, a=a, scaling=layer.scaling)
        return forward(Network([probe], ["identity"], "mse"), batch)[0]

    def loss_at_b(b):
        probe = LoraLayer(w0=layer.w0, b=b, a=layer.a, scaling=layer.scaling)
        return forward(Network([probe], ["identity"], "mse"), batch)[0]

    fd_a = finite_diff_grad(loss_at_a, layer.a, h=1e-5)
    fd_b = finite_diff_grad(loss_at_b, layer.b, h=1e-5)
    assert np.linalg.norm(fd_a - bundle.g_a_lora) / (np.linalg.norm(fd_a) + 1e-3) < 1e-5
    assert np.linalg.norm(fd_b - bundle.g_b_lora) / (np.linalg.norm(fd_b) + 1e-3) < 1e-5


def test_directional_base_weight_perturbation():
    rng = np.random.default_rng(7)
    w0 = rng.normal(size=(3, 3))
    net = Network([zero_adapter_layer(w0)], ["tanh"], "mse")
    batch = Batch(inputs=rng.normal(size=(4, 3)), targets=rng.normal(size=(4, 3)))
    loss0, cache = forward(net, batch)
    g = backward(cache)[0].full_gradient()
    direction = rng.normal(size=(3, 3))
    delta = 1e-6
    probe = Network([zero_adapter_layer(w0 + delta * direction)], ["tanh"], "mse")
    loss1, _ = forward(probe, batch)
    predicted = float(np.sum(g * direction)) * delta
    assert abs((loss1 - loss0) - predicted) < 10.0 * delta**2 * np.sum(direction**2)


@pytest.mark.parametrize("change", ["swap", "in_place", "reassign", "rescale"])
def test_backward_differentiates_the_forward_that_made_the_cache(change):
    # after the forward pass, the network's first layer is swapped, or
    # replaced by itself with b scaled, a shifted or alpha doubled, each of
    # which it refuses to take in place; backward still gives, bit for bit,
    # the bundles of a fresh forward pass at the values the cache was made from
    rng = np.random.default_rng(8)
    layers = [
        init_layer(3, 4, 2, w0=rng.normal(size=(3, 4)),
                   scheme=InitScheme("gaussian_both", seed=9)),
        init_layer(4, 2, 1, w0=rng.normal(size=(4, 2)),
                   scheme=InitScheme("gaussian_both", seed=10)),
    ]
    acts = ["tanh", "identity"]
    batch = Batch(inputs=rng.normal(size=(5, 3)), targets=rng.normal(size=(5, 2)))
    fresh = Network([dataclasses.replace(layer, b=layer.b.copy(), a=layer.a.copy())
                     for layer in layers], acts, "mse")
    net = Network(layers, acts, "mse")
    _, cache = forward(net, batch)
    first = net.layers[0]
    if change == "swap":
        net.layers[0] = init_layer(3, 4, 2, scheme=InitScheme("gaussian_both", seed=11))
    elif change == "in_place":
        with pytest.raises(ValueError, match="read-only"):
            first.b *= 3.0
        net.layers[0] = dataclasses.replace(first, b=3.0 * first.b)
    elif change == "reassign":
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.a = first.a + 1.0
        net.layers[0] = dataclasses.replace(first, a=first.a + 1.0)
    else:
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.scaling *= 2.0
        net.layers[0] = dataclasses.replace(first, scaling=2.0 * first.scaling)
    _, fresh_cache = forward(fresh, batch)
    for ours, ref in zip(backward(cache), backward(fresh_cache), strict=True):
        assert np.array_equal(ours.full_gradient(), ref.full_gradient())
        for part in ("g_a_lora", "g_b_lora"):
            assert np.array_equal(getattr(ours, part), getattr(ref, part))


def test_backward_refuses_a_cache_of_bare_weights():
    batch = Batch(inputs=np.ones((2, 3)), targets=np.zeros((2, 3)))
    _, cache = forward_with_weights([np.eye(3)], ["identity"], "mse", batch)
    with pytest.raises(ShapeError, match="backward_weight_grads"):
        backward(cache)


def test_backward_weight_grads_refuses_a_forward_cache():
    x = np.random.default_rng(0).normal(size=(2, 3))
    _, cache = forward(Network([zero_adapter_layer(np.eye(3))], ["identity"], "mse"),
                       Batch(inputs=x, targets=x))
    with pytest.raises(ShapeError, match="a forward cache holds no weights"):
        backward_weight_grads(cache)


@pytest.mark.parametrize(
    "activations, loss_kind, error, match",
    [
        (["softplus", "identity"], "mse", ValueError, "unknown activation 'softplus'"),
        (["relu", "identity"], "hinge", ValueError, "unknown loss kind 'hinge'"),
        (["relu", "identity", "tanh"], "mse", ShapeError, "2 weights but 3 activations"),
        (["relu"], "mse", ShapeError, "2 weights but 1 activations"),
    ],
    ids=["unknown-activation", "unknown-loss", "extra-activation", "missing-activation"],
)
def test_forward_with_weights_checks_its_kinds_as_network_does(activations, loss_kind, error,
                                                                match):
    batch = Batch(inputs=np.ones((2, 3)), targets=np.zeros((2, 3)))
    with pytest.raises(error, match=match):
        forward_with_weights([np.eye(3), np.eye(3)], activations, loss_kind, batch)


def test_dimension_chain_validated():
    l1 = zero_adapter_layer(np.zeros((3, 4)))
    l2 = zero_adapter_layer(np.zeros((5, 2)))
    with pytest.raises(ShapeError):
        Network([l1, l2], ["identity", "identity"], "mse")


def test_batch_size_mismatch_rejected():
    with pytest.raises(ShapeError):
        Batch(inputs=np.zeros((3, 2)), targets=np.zeros((4, 2)))


def _fused_loss_and_grad(pred, batch, kind):
    """The arithmetic of the one loss-and-gradient routine that forward and backward
    both called before it was split in two, kept as the reference for the pair."""
    batch_size = pred.shape[0]
    if kind == "mse":
        diff = pred - batch.targets
        loss = float(np.sum(diff**2)) / batch_size
        return loss, (2.0 / batch_size) * diff
    onehot = model._one_hot(batch.targets, pred.shape[1])
    shifted = pred - pred.max(axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1))
    loss = float(np.sum(log_z - np.sum(shifted * onehot, axis=1))) / batch_size
    grad = (model._softmax(pred) - onehot) / batch_size
    return loss, grad


@pytest.mark.parametrize("loss_kind", model.LOSS_KINDS)
@pytest.mark.parametrize("activation", model.ACTIVATIONS)
def test_split_loss_and_gradient_match_the_fused_routine_bit_for_bit(loss_kind, activation):
    rng = np.random.default_rng(61)
    for depth in (1, 2, 3):
        dims = [int(d) for d in rng.integers(2, 7, size=depth + 1)]
        layers = [
            LoraLayer(w0=rng.normal(size=(m, n)), b=rng.normal(size=(m, 1)),
                      a=rng.normal(size=(1, n)), scaling=1.5)
            for m, n in zip(dims, dims[1:])
        ]
        net = Network(layers, [activation] * depth, loss_kind)
        if loss_kind == "mse":
            targets = rng.normal(size=(5, dims[-1]))
        else:
            targets = rng.integers(0, dims[-1], size=5).astype(np.int64)
        batch = Batch(inputs=rng.normal(size=(5, dims[0])), targets=targets)

        loss, cache = forward(net, batch)
        ref_loss, delta = _fused_loss_and_grad(cache.post_activations[-1], batch, loss_kind)
        assert loss == ref_loss
        # backward's factored chain, fed the fused routine's gradient, with
        # each derivative taken from the pre-activation, formed as forward does
        derivative = {"identity": np.ones_like,
                      "relu": lambda z: (z > 0.0).astype(np.float64),
                      "tanh": lambda z: 1.0 - np.tanh(z) ** 2}[activation]
        ref_grads = [None] * depth
        for i in reversed(range(depth)):
            layer, x = layers[i], cache.post_activations[i]
            z = x @ layer.w0
            z += (layer.scaling * (x @ layer.b)) @ layer.a
            delta = delta * derivative(z)
            scaled_a = (delta @ layer.a.T) * layer.scaling
            g_a = ((x @ layer.b).T @ delta) * layer.scaling
            ref_grads[i] = (g_a, x.T @ scaled_a, x.T @ delta)
            delta = delta @ layer.w0.T + scaled_a @ layer.b.T
        for bundle, (g_a, g_b, g) in zip(backward(cache), ref_grads, strict=True):
            assert np.array_equal(bundle.g_a_lora, g_a)
            assert np.array_equal(bundle.g_b_lora, g_b)
            assert np.array_equal(bundle.full_gradient(), g)


@st.composite
def _networks(draw):
    """An adapter network and a batch: every activation and loss kind, layers up
    to 40 x 40 at any rank up to min(m, n) (often up to 3), a batch of 1 to 12
    rows (so smaller and larger than the layer sizes), both scaling modes.
    Layers on both sides of backward's choice between a factored and a
    dense g come up.

    Weights are drawn at unit variance per output, so pre-activations stay of
    order one and tanh does not saturate.
    """
    depth = draw(st.integers(1, 3))
    dims = [draw(st.integers(1, 40)) for _ in range(depth + 1)]
    rows = draw(st.integers(1, 12))
    loss_kind = draw(st.sampled_from(model.LOSS_KINDS))
    activations = [draw(st.sampled_from(model.ACTIVATIONS)) for _ in range(depth)]
    mode = draw(st.sampled_from(SCALING_MODES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layers = []
    for m, n in zip(dims, dims[1:]):
        r = draw(st.integers(1, min(m, n)) | st.integers(1, min(3, m, n)))
        layers.append(LoraLayer(
            w0=rng.normal(size=(m, n)) / math.sqrt(m), b=rng.normal(size=(m, r)) / math.sqrt(m),
            a=rng.normal(size=(r, n)) / math.sqrt(r),
            scaling=scaling_factor(draw(st.sampled_from((0.5, 1.0, 4.0))), r, mode)))
    if loss_kind == "mse":
        targets = rng.normal(size=(rows, dims[-1]))
    else:
        targets = rng.integers(0, dims[-1], size=rows)
    batch = Batch(inputs=rng.normal(size=(rows, dims[0])), targets=targets)
    return Network(layers, activations, loss_kind), batch


def _rel(ours: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(ours - ref)) / max(float(np.linalg.norm(ref)), 1e-300)


@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_networks())
def test_factored_pass_matches_the_dense_reference(case):
    # forward/backward never form a layer's effective weight or its m x n
    # gradient; the dense reference does: forward_with_weights over the
    # effective weights, backward_weight_grads, lora_raw_grads of its g, and
    # ||g_tilde - g|| formed entrywise. The loss and the factor gradients
    # agree to 1e-12 relative. The discrepancies of lora (the raw pair) and
    # of LoRA-Pro (the X = 0 adjusted pair, which both lora_pro methods
    # measure) agree to 1e-12 relative to ||g_tilde|| + ||g||, the size of the
    # terms whose difference they are: where g_tilde ~ g (r = min(m, n) makes
    # LoRA-Pro's g_tilde equal g up to its damping) no route knows the
    # difference better than that
    net, batch = case
    loss, cache = forward(net, batch)
    weights = [effective_weight(layer) for layer in net.layers]
    ref_loss, dense = forward_with_weights(weights, net.activations, net.loss_kind, batch)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    policy = DampingPolicy()
    for layer, bundle, g in zip(net.layers, backward(cache), backward_weight_grads(dense),
                                strict=True):
        ref = lora_raw_grads(layer, g)
        assert _rel(bundle.g_a_lora, ref.g_a_lora) <= 1e-12
        assert _rel(bundle.g_b_lora, ref.g_b_lora) <= 1e-12
        pro, pro_ref = (adjust(layer, b, "zero", policy) for b in (bundle, ref))
        for ours, theirs in (((bundle.g_a_lora, bundle.g_b_lora), (ref.g_a_lora, ref.g_b_lora)),
                             ((pro.g_a, pro.g_b), (pro_ref.g_a, pro_ref.g_b))):
            g_tilde = equivalent_gradient(layer, *theirs)
            expected = float(np.linalg.norm(g_tilde - g))
            scale = float(np.linalg.norm(g_tilde) + np.linalg.norm(g))
            assert abs(discrepancy(bundle, *ours) - expected) <= 1e-12 * scale
