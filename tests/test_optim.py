import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXACT, adamw_step, assert_layer_is_value
from lorapro import optim
from lorapro.errors import NonFiniteError, ShapeError, StateError
from lorapro.gradadjust import (
    X_STRATEGIES,
    DampingPolicy,
    TangentGeometry,
    adjust,
    equivalent_gradient,
    lora_raw_grads,
)
from lorapro.lora import LoraLayer, apply_decayed_merge_step, effective_weight
from lorapro.model import Batch, Network, backward, forward
from lorapro.optim import (
    AdamWState,
    HyperParams,
    adamw_transform,
    full_ft_adamw_step,
    init_adamw_state,
    lora_adamw_step,
    lorapro_adamw_step,
    lorapro_sgd_step,
    lr_at,
)


def test_lr_schedule_constant():
    hp = HyperParams(lr=3e-4, schedule="constant")
    assert lr_at(hp, 0, 100) == 3e-4
    assert lr_at(hp, 250, 100) == 3e-4


def test_lr_schedule_warmup_and_cosine():
    hp = HyperParams(lr=2e-5, schedule="cosine_with_warmup", warmup_ratio=0.1)
    total = 100
    assert lr_at(hp, 0, total) == 0.0
    assert lr_at(hp, 10, total) == pytest.approx(2e-5)  # end of warmup hits the peak
    mid = 10 + (total - 10) // 2
    assert lr_at(hp, mid, total) == pytest.approx(1e-5)
    assert lr_at(hp, total, total) == pytest.approx(0.0, abs=1e-20)
    assert lr_at(hp, total + 50, total) == lr_at(hp, total, total)  # clamp


def test_lr_schedule_validation():
    hp = HyperParams(lr=1e-3)
    with pytest.raises(ValueError):
        lr_at(hp, 0, 0)


def _sgd_step(layer, bundle, hp, policy=DampingPolicy(), strategy="sylvester"):
    return lorapro_sgd_step(adjust(layer, bundle, "zero", policy).projection, hp, strategy)


def test_sgd_step_zero_lr_is_identity(unit_instance):
    layer, g = unit_instance
    bundle = lora_raw_grads(layer, g)
    out = _sgd_step(layer, bundle, HyperParams(lr=0.0), policy=EXACT)
    assert np.array_equal(out.a, layer.a) and np.array_equal(out.b, layer.b)


def test_sgd_step_hand_values(unit_instance):
    layer, g = unit_instance
    bundle = lora_raw_grads(layer, g)
    out = _sgd_step(layer, bundle, HyperParams(lr=0.1), strategy="sylvester", policy=EXACT)
    assert np.allclose(out.a, [[0.95, -0.2]], atol=1e-12)
    assert np.allclose(out.b, [[0.95], [-0.3]], atol=1e-12)


def test_sgd_step_zero_gradient(unit_instance):
    layer, _ = unit_instance
    bundle = lora_raw_grads(layer, np.zeros((2, 2)))
    out = _sgd_step(layer, bundle, HyperParams(lr=0.1), policy=EXACT)
    assert np.array_equal(out.a, layer.a) and np.array_equal(out.b, layer.b)


def test_sgd_step_rejects_weight_decay(unit_instance):
    layer, g = unit_instance
    with pytest.raises(ValueError):
        _sgd_step(layer, lora_raw_grads(layer, g), HyperParams(lr=0.1, weight_decay=0.01))


def test_sgd_descends_on_quadratic_losses():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        m, n, r = 4, 5, 2
        layer = LoraLayer(w0=0.1 * rng.normal(size=(m, n)),
                          b=np.eye(m)[:, :r] + 0.3 * rng.normal(size=(m, r)),
                          a=rng.normal(size=(r, n)), scaling=1.0)
        batch = Batch(inputs=rng.normal(size=(12, m)), targets=rng.normal(size=(12, n)))
        hp = HyperParams(lr=1e-2)
        for _ in range(3):
            net = Network([layer], ["identity"], "mse")
            loss0, cache = forward(net, batch)
            bundle = backward(cache)[0]
            layer = _sgd_step(layer, bundle, hp, policy=EXACT)
            loss1, _ = forward(Network([layer], ["identity"], "mse"), batch)
            assert loss1 < loss0


def test_adamw_first_step_is_sign_like(unit_instance):
    layer, g = unit_instance
    bundle = lora_raw_grads(layer, g)
    hp = HyperParams(lr=0.1, epsilon=1e-12)
    _, new_state = adamw_step(layer, init_adamw_state((2, 2)), bundle, hp, policy=EXACT)
    # with near-zero epsilon, bias corrections cancel magnitudes entrywise
    g_tilde = np.array([[1.0, 2.0], [3.0, 0.0]])
    direction, _ = adamw_transform(init_adamw_state((2, 2)), g_tilde, hp)
    assert np.allclose(direction, np.sign(g_tilde), atol=1e-9)
    assert new_state.t == 1


def test_adamw_weight_decay_zero_preserves_base(unit_instance):
    layer, g = unit_instance
    state = init_adamw_state((2, 2))
    current = layer
    for _ in range(5):
        bundle = lora_raw_grads(current, g)
        current, state = adamw_step(current, state, bundle, HyperParams(lr=0.05), policy=EXACT)
    assert np.array_equal(current.w0, layer.w0)


def test_adamw_decomposed_weight_decay_decays_base(unit_instance):
    layer, g = unit_instance
    state = init_adamw_state((2, 2))
    hp = HyperParams(lr=0.1, weight_decay=0.5)
    stepped, _ = adamw_step(layer, state, lora_raw_grads(layer, g), hp, policy=EXACT)
    assert np.allclose(stepped.w0, 0.95 * layer.w0)


def test_adamw_moment_recurrences_replay(unit_instance):
    layer, g = unit_instance
    state = init_adamw_state((2, 2))
    grads = []
    current = layer
    # the step updates the state in place, so each step's moments are copied
    states = [(state.m.copy(), state.v.copy(), state.t)]
    for _ in range(4):
        bundle = lora_raw_grads(current, g)
        # the moments track the equivalent gradient of the projected pair
        adj = adjust(current, bundle, strategy="zero", policy=EXACT)
        grads.append(equivalent_gradient(current, adj.g_a, adj.g_b))
        current, state = adamw_step(current, state, bundle, HyperParams(lr=0.01), policy=EXACT)
        states.append((state.m.copy(), state.v.copy(), state.t))
    m = np.zeros((2, 2))
    v = np.zeros((2, 2))
    for k, g_t in enumerate(grads, start=1):
        m = 0.9 * m + 0.1 * g_t
        v = 0.999 * v + 0.001 * g_t**2
        assert np.allclose(states[k][0], m, atol=1e-15)
        assert np.allclose(states[k][1], v, atol=1e-15)
        assert states[k][2] == k


@pytest.mark.parametrize("make", [lambda rng: (rng.normal(size=(5, 2)), rng.normal(size=(2, 6))),
                                  lambda rng: (rng.normal(size=(1, 5)), rng.normal(size=(6, 1))),
                                  lambda rng: (rng.normal(size=(2, 5)).astype(np.float32),
                                               rng.normal(size=(6, 2))),
                                  lambda rng: (rng.normal(size=(2, 5)),
                                               rng.normal(size=(6, 2)).tolist())],
                         ids=["transposed", "narrow", "float32", "list"])
def test_adamw_step_rejects_g_tilde_of_another_shape(make):
    # the step forms g_tilde's rows from the X = 0 pair in float64 block
    # buffers, so it takes only a float64 pair of the factors' shapes: a pair
    # whose g_tilde would come out of another shape, or not float64, is refused
    rng = np.random.default_rng(45)
    layer = LoraLayer(w0=rng.normal(size=(6, 5)), b=rng.normal(size=(6, 2)),
                      a=rng.normal(size=(2, 5)), scaling=2.0)
    with pytest.raises(ShapeError, match=r"g_(a|b) must be (a float64 array|2x5|6x2), got"):
        lorapro_adamw_step(TangentGeometry(layer), init_adamw_state((6, 5)), *make(rng),
                           HyperParams(lr=0.01))


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (17, 9), (128, 64)])
def test_adamw_transform_matches_textbook_bit_for_bit(shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    for t, beta1, beta2, epsilon in ((0, 0.9, 0.999, 1e-8), (1, 0.9, 0.999, 1e-8),
                                     (6, 0.8, 0.99, 1e-6), (999, 0.0, 0.5, 1e-3),
                                     (41, 0.95, 0.9999, 1e-12)):
        m0 = rng.normal(size=shape)
        v0 = rng.normal(size=shape) ** 2
        grad = rng.normal(scale=10.0 ** rng.integers(-6, 6), size=shape)
        state = AdamWState(m=m0.copy(), v=v0.copy(), t=t)
        hp = HyperParams(lr=1e-3, beta1=beta1, beta2=beta2, epsilon=epsilon)
        direction, new = adamw_transform(state, grad, hp)

        m = beta1 * m0 + (1.0 - beta1) * grad
        v = beta2 * v0 + (1.0 - beta2) * grad**2
        m_hat = m / (1.0 - beta1 ** (t + 1))
        v_hat = v / (1.0 - beta2 ** (t + 1))
        assert np.array_equal(direction, m_hat / (np.sqrt(v_hat) + epsilon))
        assert np.array_equal(new.m, m) and np.array_equal(new.v, v)
        assert new.t == t + 1
        # the input state is left as it was
        assert np.array_equal(state.m, m0) and np.array_equal(state.v, v0) and state.t == t
        assert new.m is not state.m and new.v is not state.v


@pytest.mark.parametrize("shape", [(1, 1), (17, 9)])
def test_adamw_transform_out_writes_the_same_direction(shape):
    rng = np.random.default_rng(shape[0] * 7 + shape[1])
    for t, beta1, beta2, epsilon in ((0, 0.9, 0.999, 1e-8), (1, 0.9, 0.999, 1e-8),
                                     (6, 0.8, 0.99, 1e-6), (999, 0.0, 0.5, 1e-3)):
        m0 = rng.normal(size=shape)
        v0 = rng.normal(size=shape) ** 2
        grad = rng.normal(scale=10.0 ** rng.integers(-6, 6), size=shape)
        state = AdamWState(m=m0.copy(), v=v0.copy(), t=t)
        hp = HyperParams(lr=1e-3, beta1=beta1, beta2=beta2, epsilon=epsilon)
        expected, expected_state = adamw_transform(state, grad, hp)

        buffer = grad.copy()
        direction, new = adamw_transform(state, buffer, hp, out=buffer)
        assert direction is buffer
        assert np.array_equal(direction, expected)
        assert np.array_equal(new.m, expected_state.m)
        assert np.array_equal(new.v, expected_state.v) and new.t == t + 1
        assert np.array_equal(state.m, m0) and np.array_equal(state.v, v0) and state.t == t


def test_adamw_transform_out_must_match_the_state():
    state = init_adamw_state((3, 2))
    grad = np.ones((3, 2))
    for out in (np.empty((2, 3)), np.empty((3, 2), dtype=np.float32), np.empty((3, 2)).tolist()):
        with pytest.raises(ShapeError, match="out must be"):
            adamw_transform(state, grad, HyperParams(lr=1e-3), out=out)


def test_adamw_step_without_g_tilde_mutates_no_input():
    # the step forms g_tilde block by block in buffers of its own, so it
    # consumes no input: none of them, the X = 0 pair included, is written
    rng = np.random.default_rng(46)
    layer = LoraLayer(w0=rng.normal(size=(6, 5)), b=rng.normal(size=(6, 2)),
                      a=rng.normal(size=(2, 5)), scaling=2.0)
    state = AdamWState(m=rng.normal(size=(6, 5)), v=rng.normal(size=(6, 5)) ** 2, t=3)
    bundle = lora_raw_grads(layer, rng.normal(size=(6, 5)))
    geometry = TangentGeometry(layer)
    zero = adjust(layer, bundle, "zero", geometry=geometry)
    inputs = (layer.w0, layer.b, layer.a, state.m, state.v,
              bundle.g_a_lora, bundle.g_b_lora, bundle.g_full, zero.g_a, zero.g_b)
    before = [x.tobytes() for x in inputs]
    lorapro_adamw_step(geometry, state, zero.g_a, zero.g_b, HyperParams(lr=0.01, weight_decay=0.1))
    assert [x.tobytes() for x in inputs] == before
    assert state.t == 3


def _decided_inputs(seed):
    """A 6x5 rank-2 layer's geometry and X = 0 pair, with a writable state."""
    rng = np.random.default_rng(seed)
    layer = LoraLayer(w0=rng.normal(size=(6, 5)), b=rng.normal(size=(6, 2)),
                      a=rng.normal(size=(2, 5)), scaling=2.0)
    geometry = TangentGeometry(layer)
    zero = adjust(layer, lora_raw_grads(layer, rng.normal(size=(6, 5))), "zero",
                  geometry=geometry)
    state = AdamWState(m=rng.normal(size=(6, 5)), v=rng.normal(size=(6, 5)) ** 2, t=3)
    return geometry, zero.g_a, zero.g_b, state


def test_overflowing_adamw_step_raises_with_no_warning():
    # g_tilde ~ 1e160 squares past the largest double: the step names the
    # second moment it checks block by block, with no numpy warning first, and
    # returns no write
    geometry, g_a, g_b, state = _decided_inputs(48)
    before = state.m.tobytes(), state.v.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rows in (6, 1):  # one block, and the first of three
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(optim, "BLOCK_BYTES", rows * 8 * 5)
                with pytest.raises(NonFiniteError, match="new v contains non-finite entries"):
                    lorapro_adamw_step(geometry, state, np.full_like(g_a, 1e160), g_b,
                                       HyperParams(lr=0.01))
    assert (state.m.tobytes(), state.v.tobytes()) == before and state.t == 3


def _read_only(array):
    array.flags.writeable = False
    return array


# states whose moments cannot be written in place, each with the fault named
UNWRITABLE_STATES = {
    "m-read-only": (lambda m, v: (_read_only(m), v), "m is read-only"),
    "v-read-only": (lambda m, v: (m, _read_only(v)), "v is read-only"),
    "m-is-v": (lambda m, v: (v, v), "m and v may share memory"),
    "m-overlaps-v": (lambda m, v: (lambda flat: (flat[:30].reshape(6, 5),
                                                  flat[15:45].reshape(6, 5)))(np.zeros(45)),
                     "m and v may share memory"),
}


@pytest.mark.parametrize("make, fault", list(UNWRITABLE_STATES.values()),
                         ids=list(UNWRITABLE_STATES))
def test_adamw_step_refuses_moments_it_cannot_write_in_place(make, fault):
    # the commit writes m and v in place; a read-only moment would fail it
    # partway, and overlapping ones would write each other's rows, so the
    # step refuses the state before it forms anything
    geometry, g_a, g_b, state = _decided_inputs(49)
    state.m, state.v = make(state.m, state.v)
    before = state.m.tobytes(), state.v.tobytes()
    with pytest.raises(StateError, match=f"moments are written in place, but {fault}"):
        lorapro_adamw_step(geometry, state, g_a, g_b, HyperParams(lr=0.01))
    assert (state.m.tobytes(), state.v.tobytes()) == before and state.t == 3


def test_a_moment_write_commits_once():
    # a commit reads the moments as the step found them, so a second commit,
    # or one of another write decided from the same state, would apply the
    # update twice: it is refused and writes nothing
    geometry, g_a, g_b, state = _decided_inputs(50)
    hp = HyperParams(lr=0.01)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optim, "BLOCK_BYTES", 8 * 5)  # several blocks, so a commit recomputes
        _, write = lorapro_adamw_step(geometry, state, g_a, g_b, hp)
        _, sibling = lorapro_adamw_step(geometry, state, g_a, g_b, hp)
    assert write.commit() is state and state.t == 4
    after = state.m.tobytes(), state.v.tobytes()
    for stale in (write, sibling):
        with pytest.raises(StateError, match="decided at step count 3, and the state is at 4"):
            stale.commit()
        assert (state.m.tobytes(), state.v.tobytes()) == after and state.t == 4


# (m, rows per block): one block of one row, several full blocks, and several
# blocks whose last one is short
BLOCKINGS = {"one-row": (1, 1), "several-blocks": (12, 3), "ragged-last-block": (11, 4)}


@pytest.mark.parametrize("x_strategy", X_STRATEGIES)
@pytest.mark.parametrize("m, rows", list(BLOCKINGS.values()), ids=list(BLOCKINGS))
@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_blocked_adamw_step_matches_the_whole_array_reference(m, rows, x_strategy, data):
    # the step's row blocks against the whole-array chain it replaces:
    # equivalent_gradient, adamw_transform, lora_raw_grads and adjust. Each
    # row's moments take the same operations in the same order, so they
    # match bit for bit; s*B^T*D sums over the blocks, so the factors match
    # to rounding, and bit for bit where the layer is one block
    n = data.draw(st.integers(1, 7), label="n")
    r = data.draw(st.integers(1, min(m, n)), label="r")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    b = rng.normal(size=(m, r))
    if data.draw(st.booleans(), label="b is zero"):  # the standard initialization
        b = np.zeros((m, r))
    layer = LoraLayer(w0=rng.normal(size=(m, n)), b=b, a=rng.normal(size=(r, n)), scaling=1.7)
    t = data.draw(st.sampled_from([0, 1, 9]), label="t")
    state = AdamWState(m=rng.normal(size=(m, n)), v=rng.normal(size=(m, n)) ** 2, t=t)
    hp = HyperParams(lr=0.01, weight_decay=data.draw(st.sampled_from([0.0, 0.3]), label="wd"))
    bundle = lora_raw_grads(layer, rng.normal(size=(m, n)))
    geometry = TangentGeometry(layer)
    zero = adjust(layer, bundle, "zero", geometry=geometry)

    g_tilde = equivalent_gradient(layer, zero.g_a, zero.g_b)
    direction, expected = adamw_transform(state, g_tilde, hp)
    second = adjust(layer, lora_raw_grads(layer, direction), x_strategy, geometry=geometry)
    decayed = apply_decayed_merge_step(layer, hp.lr, hp.weight_decay)
    want = {"b": decayed.b - hp.lr * second.g_b, "a": decayed.a - hp.lr * second.g_a}

    inputs = (layer.w0, layer.b, layer.a, state.m, state.v, zero.g_a, zero.g_b)
    before = [x.tobytes() for x in inputs]
    moments = state.m, state.v
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optim, "BLOCK_BYTES", rows * 8 * n)
        out, write = lorapro_adamw_step(geometry, state, zero.g_a, zero.g_b, hp, x_strategy)
    # the deciding call writes no input; the commit writes the moments, and
    # nothing else, into the state's own arrays
    assert [x.tobytes() for x in inputs] == before
    assert state.t == t
    got = write.commit()
    assert got is state and got.m is moments[0] and got.v is moments[1]
    assert [x.tobytes() for x in inputs[:3] + inputs[5:]] == before[:3] + before[5:]
    assert got.m.tobytes() == expected.m.tobytes() and got.v.tobytes() == expected.v.tobytes()
    assert got.t == t + 1
    assert out.w0.tobytes() == decayed.w0.tobytes()
    for name, value in want.items():
        if rows >= m:
            assert getattr(out, name).tobytes() == value.tobytes(), name
        else:
            gap = np.linalg.norm(getattr(out, name) - value)
            assert gap <= 1e-14 * np.linalg.norm(value), name


def test_adamw_shape_mismatch(unit_instance):
    layer, g = unit_instance
    with pytest.raises(ShapeError):
        adamw_step(layer, init_adamw_state((3, 3)), lora_raw_grads(layer, g),
                   HyperParams(lr=0.1))


def test_baseline_full_ft_zero_lr():
    rng = np.random.default_rng(30)
    w = rng.normal(size=(3, 3))
    state = init_adamw_state((3, 3))
    out, _ = full_ft_adamw_step(w, state, rng.normal(size=(3, 3)), HyperParams(lr=0.0))
    assert np.array_equal(out, w)


def test_baseline_full_ft_first_step_sign_like():
    rng = np.random.default_rng(31)
    w = rng.normal(size=(3, 4))
    g = rng.normal(size=(3, 4))
    state = init_adamw_state((3, 4))
    out, _ = full_ft_adamw_step(w, state, g, HyperParams(lr=0.01, epsilon=1e-12))
    assert np.allclose(out, w - 0.01 * np.sign(g), atol=1e-9)


def test_baseline_lora_adamw_moves_both_factors(unit_instance):
    layer, g = unit_instance
    bundle = lora_raw_grads(layer, g)
    out, sa, sb = lora_adamw_step(layer, init_adamw_state((1, 2)),
                                  init_adamw_state((2, 1)), bundle,
                                  HyperParams(lr=0.1))
    assert not np.array_equal(out.a, layer.a)
    assert not np.array_equal(out.b, layer.b)
    assert sa.t == 1 and sb.t == 1


@pytest.mark.parametrize("step", ["lorapro_sgd", "lorapro_adamw", "lora_adamw"])
def test_each_step_returns_a_layer_value(step):
    # the new layer's fresh factors are read-only and alias neither the old
    # factors nor any gradient or buffer the step was given; with no weight
    # decay its w0 is the old layer's, shared
    rng = np.random.default_rng(47)
    layer = LoraLayer(w0=rng.normal(size=(6, 5)), b=rng.normal(size=(6, 2)),
                      a=rng.normal(size=(2, 5)), scaling=2.0)
    bundle = lora_raw_grads(layer, rng.normal(size=(6, 5)))
    hp = HyperParams(lr=0.01)
    given = [layer.b, layer.a, bundle.g_a_lora, bundle.g_b_lora, bundle.g_full]
    if step == "lorapro_sgd":
        out = _sgd_step(layer, bundle, hp)
    elif step == "lorapro_adamw":
        geometry = TangentGeometry(layer)
        zero = adjust(layer, bundle, "zero", geometry=geometry)
        out, write = lorapro_adamw_step(geometry, init_adamw_state((6, 5)), zero.g_a, zero.g_b,
                                        hp)
        state = write.commit()
        given += [zero.g_a, zero.g_b, state.m, state.v]
    else:
        out, sa, sb = lora_adamw_step(layer, init_adamw_state((2, 5)), init_adamw_state((6, 2)),
                                      bundle, hp)
        given += [sa.m, sa.v, sb.m, sb.v]
    assert_layer_is_value(out, copied=given, shared={"w0": layer.w0})


def test_adamw_state_validation():
    # a state holds only the moments and the step count; the settings are HyperParams'
    assert [f.name for f in dataclasses.fields(AdamWState)] == ["m", "v", "t"]
    with pytest.raises(ValueError):
        AdamWState(m=np.zeros((2, 2)), v=-np.ones((2, 2)))


@pytest.mark.parametrize("key, value", [("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.0),
                                        ("beta2", -1e-9), ("epsilon", 0.0),
                                        ("epsilon", -1e-8)])
def test_hyperparams_moment_settings_validation(key, value):
    with pytest.raises(ValueError, match=key):
        HyperParams(lr=1e-3, **{key: value})
    HyperParams(lr=1e-3, beta1=0.0, beta2=0.0, epsilon=1e-300)  # the edges that are allowed


NON_FINITE_SETTINGS = [
    (HyperParams, {"lr": math.nan}),
    (HyperParams, {"lr": math.inf}),
    (HyperParams, {"lr": 1e-3, "weight_decay": math.nan}),
    (HyperParams, {"lr": 0.0, "weight_decay": math.inf}),
    (HyperParams, {"lr": 1e-3, "epsilon": math.nan}),
    (HyperParams, {"lr": 1e-3, "epsilon": math.inf}),
    (DampingPolicy, {"rel_epsilon": math.nan}),
    (DampingPolicy, {"rel_epsilon": math.inf}),
]


@pytest.mark.parametrize("cls, kwargs", NON_FINITE_SETTINGS,
                         ids=[f"{c.__name__}-{list(k.items())[-1]}" for c, k in NON_FINITE_SETTINGS])
def test_non_finite_setting_is_rejected_by_name(cls, kwargs):
    # a NaN lr would step to NaN factors, a NaN damping end in a misleading
    # FactorizationError; either is refused where the settings are built
    name, value = list(kwargs.items())[-1]
    with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
        cls(**kwargs)


def test_full_rank_limit_tracks_full_fine_tuning():
    # square layer with r = m = n: the equivalent gradient equals the full
    # gradient, so the adjusted AdamW trajectory shadows direct AdamW on W
    rng = np.random.default_rng(7)
    m = n = r = 3
    layer = LoraLayer(w0=0.3 * rng.normal(size=(m, n)),
                      b=np.eye(m) + 0.05 * rng.normal(size=(m, r)),
                      a=rng.normal(size=(r, n)) / np.sqrt(r),
                      scaling=1.0)
    batch = Batch(inputs=rng.normal(size=(16, m)), targets=rng.normal(size=(16, n)))
    hp = HyperParams(lr=1e-4)
    state = init_adamw_state((m, n))
    ft_state = init_adamw_state((m, n))
    w = effective_weight(layer).copy()
    current = layer
    from lorapro.model import backward_weight_grads, forward_with_weights
    for _ in range(20):
        net = Network([current], ["identity"], "mse")
        _, cache = forward(net, batch)
        bundle = backward(cache)[0]
        current, state = adamw_step(current, state, bundle, hp)
        _, ft_cache = forward_with_weights([w], ["identity"], "mse", batch)
        g = backward_weight_grads(ft_cache)[0]
        w, ft_state = full_ft_adamw_step(w, ft_state, g, hp)
    assert np.linalg.norm(effective_weight(current) - w) < 1e-6
