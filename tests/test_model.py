import numpy as np
import pytest

import lorapro.model as model
from lorapro.errors import ShapeError, StaleCacheError
from lorapro.lora import InitScheme, LoraLayer, init_layer
from lorapro.model import Batch, Network, backward, forward
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
    bundle = backward(net, cache)[0]
    assert np.allclose(bundle.g_full, 0.0, atol=1e-14)


def test_linear_mse_gradient_matches_analytic_form():
    rng = np.random.default_rng(4)
    w0 = rng.normal(size=(3, 2))
    net = Network([zero_adapter_layer(w0)], ["identity"], "mse")
    x = rng.normal(size=(5, 3))
    y = rng.normal(size=(5, 2))
    _, cache = forward(net, Batch(inputs=x, targets=y))
    bundle = backward(net, cache)[0]
    expected = x.T @ ((x @ w0 - y) * 2.0 / 5.0)
    assert np.allclose(bundle.g_full, expected, atol=1e-12)


def test_backward_matches_finite_differences_on_deep_net():
    rng = np.random.default_rng(5)
    dims = [4, 6, 3]
    layers, acts = [], ["tanh", "identity"]
    for m, n in zip(dims, dims[1:]):
        r = 2
        layers.append(
            LoraLayer(w0=0.5 * rng.normal(size=(m, n)), b=rng.normal(size=(m, r)),
                      a=rng.normal(size=(r, n)), alpha=float(r), rank=r,
                      scaling_mode="lora")
        )
    net = Network(layers, acts, "mse")
    batch = Batch(inputs=rng.normal(size=(4, 4)), targets=rng.normal(size=(4, 3)))
    _, cache = forward(net, batch)
    bundles = backward(net, cache)
    for i, bundle in enumerate(bundles):
        def loss_at(w0, i=i):
            probe_layers = list(net.layers)
            old = probe_layers[i]
            probe_layers[i] = LoraLayer(w0=w0, b=old.b, a=old.a, alpha=old.alpha,
                                        rank=old.rank, scaling_mode=old.scaling_mode)
            return forward(Network(probe_layers, acts, "mse"), batch)[0]

        fd = finite_diff_grad(loss_at, net.layers[i].w0, h=1e-5)
        denom = np.linalg.norm(bundle.g_full) + 1e-3
        assert np.linalg.norm(fd - bundle.g_full) / denom < 1e-5


def test_factor_gradients_match_finite_differences():
    # the raw adapter gradients really are d(loss)/d(factor)
    rng = np.random.default_rng(6)
    layer = LoraLayer(w0=rng.normal(size=(4, 3)), b=rng.normal(size=(4, 2)),
                      a=rng.normal(size=(2, 3)), alpha=2.0, rank=2, scaling_mode="lora")
    net = Network([layer], ["identity"], "mse")
    batch = Batch(inputs=rng.normal(size=(5, 4)), targets=rng.normal(size=(5, 3)))
    _, cache = forward(net, batch)
    bundle = backward(net, cache)[0]

    def loss_at_a(a):
        probe = LoraLayer(w0=layer.w0, b=layer.b, a=a, alpha=layer.alpha,
                          rank=layer.rank, scaling_mode=layer.scaling_mode)
        return forward(Network([probe], ["identity"], "mse"), batch)[0]

    def loss_at_b(b):
        probe = LoraLayer(w0=layer.w0, b=b, a=layer.a, alpha=layer.alpha,
                          rank=layer.rank, scaling_mode=layer.scaling_mode)
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
    g = backward(net, cache)[0].g_full
    direction = rng.normal(size=(3, 3))
    delta = 1e-6
    probe = Network([zero_adapter_layer(w0 + delta * direction)], ["tanh"], "mse")
    loss1, _ = forward(probe, batch)
    predicted = float(np.sum(g * direction)) * delta
    assert abs((loss1 - loss0) - predicted) < 10.0 * delta**2 * np.sum(direction**2)


def test_stale_cache_detected():
    rng = np.random.default_rng(8)
    layer = init_layer(3, 3, 1, w0=rng.normal(size=(3, 3)),
                       scheme=InitScheme("gaussian_both", seed=9))
    net = Network([layer], ["identity"], "mse")
    batch = Batch(inputs=rng.normal(size=(2, 3)), targets=rng.normal(size=(2, 3)))
    _, cache = forward(net, batch)
    moved = init_layer(3, 3, 1, w0=rng.normal(size=(3, 3)),
                       scheme=InitScheme("gaussian_both", seed=10))
    net.layers[0] = moved
    with pytest.raises(StaleCacheError):
        backward(net, cache)


def test_stale_cache_detected_after_in_place_factor_write():
    rng = np.random.default_rng(8)
    layer = init_layer(3, 3, 1, w0=rng.normal(size=(3, 3)),
                       scheme=InitScheme("gaussian_both", seed=9))
    net = Network([layer], ["identity"], "mse")
    batch = Batch(inputs=rng.normal(size=(2, 3)), targets=rng.normal(size=(2, 3)))
    _, cache = forward(net, batch)
    backward(net, cache)
    layer.b -= 0.1  # same layer object, same array object, new values
    with pytest.raises(StaleCacheError):
        backward(net, cache)


@pytest.mark.parametrize("written", ["b", "a"])
def test_forward_records_read_only_factors_by_identity(written, monkeypatch):
    # a read-only factor cannot change in place, so forward keeps it as
    # itself and backward checks it by identity; a writable one is copied,
    # compared by value, and a write to it between the two is still caught
    rng = np.random.default_rng(8)
    layer = init_layer(3, 3, 1, w0=rng.normal(size=(3, 3)),
                       scheme=InitScheme("gaussian_both", seed=9))
    frozen = "a" if written == "b" else "b"
    getattr(layer, frozen).setflags(write=False)
    net = Network([layer], ["identity"], "mse")
    batch = Batch(inputs=rng.normal(size=(2, 3)), targets=rng.normal(size=(2, 3)))
    _, cache = forward(net, batch)
    (_, b, a, _), = cache.layers_seen
    seen = {"b": b, "a": a}
    assert seen[frozen] is getattr(layer, frozen)
    assert seen[written] is not getattr(layer, written)

    compared = []
    real = np.array_equal
    monkeypatch.setattr(model.np, "array_equal",
                        lambda x, y: compared.append(x) or real(x, y))
    backward(net, cache)
    assert len(compared) == 1 and compared[0] is getattr(layer, written)
    monkeypatch.undo()

    getattr(layer, written)[0, 0] += 1.0
    with pytest.raises(StaleCacheError):
        backward(net, cache)


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
                      a=rng.normal(size=(1, n)), alpha=1.0, rank=1, scaling_mode="lora")
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
        # backward_weight_grads's chain, fed the fused routine's gradient
        ref_grads = [None] * depth
        for i in reversed(range(depth)):
            delta = delta * model._activate_grad(cache.pre_activations[i], activation)
            ref_grads[i] = cache.post_activations[i].T @ delta
            delta = delta @ cache.weights[i].T
        for bundle, ref in zip(backward(net, cache), ref_grads):
            assert np.array_equal(bundle.g_full, ref)
