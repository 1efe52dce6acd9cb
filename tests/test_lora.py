import dataclasses
import math

import numpy as np
import pytest

from conftest import assert_layer_is_value
from lorapro.errors import ShapeError
from lorapro.gradadjust import adjust, lora_raw_grads
from lorapro.harness import discrepancy
from lorapro.linalg import frob_norm, numerical_rank
from lorapro.lora import (
    InitScheme,
    LoraLayer,
    apply_decayed_merge_step,
    effective_weight,
    freeze,
    init_layer,
    scaling_factor,
)
from lorapro.model import Batch, Network, forward


def test_standard_init_zero_b_full_rank_a():
    layer = init_layer(4, 4, 2, scheme=InitScheme("standard", seed=0))
    assert np.array_equal(layer.b, np.zeros((4, 2)))
    assert numerical_rank(layer.b) == 0
    assert numerical_rank(layer.a) == 2
    bound = 1.0 / np.sqrt(4)
    assert np.all(np.abs(layer.a) <= bound)


def test_gaussian_both_full_rank():
    layer = init_layer(6, 5, 3, scheme=InitScheme("gaussian_both", seed=1))
    assert numerical_rank(layer.b) == 3
    assert numerical_rank(layer.a) == 3


def test_scaling_factor_modes():
    rs = init_layer(16, 16, 8, alpha=16.0, mode="rslora")
    assert rs.scaling == pytest.approx(16.0 / np.sqrt(8.0))
    plain = init_layer(16, 16, 8, alpha=16.0, mode="lora")
    assert plain.scaling == pytest.approx(2.0)


def test_init_rejects_oversized_rank():
    with pytest.raises(ShapeError):
        init_layer(4, 3, 5)


def test_an_unknown_scaling_mode_is_refused_by_scaling_factor_and_init_layer():
    with pytest.raises(ValueError, match="unknown scaling mode 'dora'"):
        scaling_factor(16.0, 2, "dora")
    with pytest.raises(ValueError, match="unknown scaling mode 'dora'"):
        init_layer(4, 3, 2, mode="dora")


def test_layer_reads_its_rank_from_b():
    rng = np.random.default_rng(14)
    layer = LoraLayer(w0=np.zeros((5, 4)), b=rng.normal(size=(5, 3)), a=rng.normal(size=(3, 4)),
                      scaling=0.5)
    assert layer.rank == 3 and layer.scaling == 0.5
    assert [f.name for f in dataclasses.fields(LoraLayer)] == ["w0", "b", "a", "scaling"]
    with pytest.raises(ShapeError, match="a must be 3x4"):
        LoraLayer(w0=np.zeros((5, 4)), b=layer.b, a=np.ones((2, 4)), scaling=0.5)
    with pytest.raises(ShapeError, match=r"rank 5 must be in \[1, min\(m,n\)=4\]"):
        LoraLayer(w0=np.zeros((5, 4)), b=np.ones((5, 5)), a=np.ones((5, 4)), scaling=0.5)
    with pytest.raises(ShapeError, match="rank 0"):
        init_layer(5, 4, 0)


def test_init_is_seed_deterministic():
    a = init_layer(5, 7, 2, scheme=InitScheme("gaussian_both", seed=42))
    b = init_layer(5, 7, 2, scheme=InitScheme("gaussian_both", seed=42))
    assert np.array_equal(a.a, b.a) and np.array_equal(a.b, b.b)


def test_effective_weight_zero_adapter_is_base():
    w0 = np.arange(12.0).reshape(3, 4)
    layer = init_layer(3, 4, 2, w0=w0, scheme=InitScheme("standard", seed=3))
    assert np.array_equal(effective_weight(layer), w0)


def test_init_layer_keeps_a_read_only_w0_and_copies_a_writable_one():
    shared = np.arange(12.0).reshape(3, 4)
    shared.setflags(write=False)
    assert init_layer(3, 4, 2, w0=shared).w0 is shared
    assert_layer_is_value(init_layer(3, 4, 2, w0=shared), shared={"w0": shared})
    writable = np.arange(12.0).reshape(3, 4)
    layer = init_layer(3, 4, 2, w0=writable)
    writable[0, 0] = 99.0
    assert layer.w0 is not writable and layer.w0[0, 0] == 0.0
    assert_layer_is_value(layer, copied=[writable])


@pytest.mark.parametrize("read_only", [False, True], ids=["writable", "read_only"])
def test_layer_copies_a_writable_input_and_shares_a_read_only_one(read_only):
    rng = np.random.default_rng(12)
    inputs = {"w0": rng.normal(size=(4, 3)), "b": rng.normal(size=(4, 2)),
              "a": rng.normal(size=(2, 3))}
    if read_only:
        freeze(*inputs.values())
    layer = LoraLayer(**inputs, scaling=2.0)
    if read_only:
        assert_layer_is_value(layer, shared=inputs)
    else:
        assert_layer_is_value(layer, copied=inputs.values())
        before = effective_weight(layer)
        for array in inputs.values():
            array *= 2.0
        assert np.array_equal(effective_weight(layer), before)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, 0.0],
                         ids=["nan", "inf", "-inf", "zero"])
def test_layer_rejects_an_alpha_that_is_not_finite_and_nonzero(alpha):
    # each ended later in a misleading error (NaN: "a contains non-finite
    # entries" from adjust) or in a bare numpy RuntimeWarning (inf, 0); the
    # layer refuses the scaling such an alpha gives in either mode
    with pytest.raises(ValueError, match="scaling must be finite and nonzero"):
        LoraLayer(w0=np.zeros((3, 2)), b=np.ones((3, 1)), a=np.ones((1, 2)), scaling=alpha)
    for mode in ("lora", "rslora"):
        with pytest.raises(ValueError, match="scaling must be finite and nonzero"):
            init_layer(3, 2, 1, alpha=alpha, mode=mode)


def test_layer_takes_a_negative_alpha():
    rng = np.random.default_rng(13)
    assert init_layer(4, 3, 2, alpha=-2.0, mode="lora").scaling == -1.0
    layer = LoraLayer(w0=np.zeros((4, 3)), b=rng.normal(size=(4, 2)), a=rng.normal(size=(2, 3)),
                      scaling=-1.0)
    bundle = lora_raw_grads(layer, rng.normal(size=(4, 3)))
    adjusted = adjust(layer, bundle)
    assert math.isfinite(discrepancy(bundle, adjusted.g_a, adjusted.g_b))


def test_effective_weight_rank_one_outer_product():
    layer = LoraLayer(
        w0=np.zeros((2, 2)),
        b=np.array([[1.0], [0.0]]),
        a=np.array([[1.0, 0.0]]),
        scaling=1.0,
    )
    assert np.allclose(effective_weight(layer), [[1.0, 0.0], [0.0, 0.0]])


def test_effective_weight_linear_in_alpha():
    rng = np.random.default_rng(8)
    b = rng.normal(size=(4, 2))
    a = rng.normal(size=(2, 3))
    one = LoraLayer(w0=np.zeros((4, 3)), b=b, a=a, scaling=4.0)
    two = LoraLayer(w0=np.zeros((4, 3)), b=b, a=a, scaling=8.0)
    for mode in ("lora", "rslora"):
        assert scaling_factor(16.0, 2, mode) == 2.0 * scaling_factor(8.0, 2, mode)
    assert np.allclose(effective_weight(two), 2.0 * effective_weight(one))


def test_decay_noop_without_weight_decay():
    layer = init_layer(3, 3, 1, scheme=InitScheme("gaussian_both", seed=4))
    assert apply_decayed_merge_step(layer, lr=0.1, weight_decay=0.0) is layer


def test_decay_factor_split_is_exact():
    layer = init_layer(3, 3, 1, w0=np.eye(3), scheme=InitScheme("gaussian_both", seed=5))
    decayed = apply_decayed_merge_step(layer, lr=1.0, weight_decay=0.19)
    assert np.allclose(decayed.w0, 0.81 * layer.w0, atol=1e-12)
    assert np.allclose(decayed.b, 0.9 * layer.b, atol=1e-12)
    assert abs(0.9 * 0.9 - 0.81) < 1e-12


def test_decayed_layer_is_a_value():
    layer = init_layer(3, 3, 1, w0=np.eye(3), scheme=InitScheme("gaussian_both", seed=7))
    decayed = apply_decayed_merge_step(layer, lr=0.5, weight_decay=0.4)
    assert_layer_is_value(decayed, copied=[layer.w0, layer.b, layer.a])


def test_decay_on_zero_adapter():
    layer = init_layer(3, 3, 1, w0=np.eye(3), scheme=InitScheme("standard", seed=6))
    decayed = apply_decayed_merge_step(layer, lr=0.5, weight_decay=0.4)
    assert np.allclose(decayed.w0, 0.8 * np.eye(3))
    assert np.array_equal(decayed.b, np.zeros((3, 1)))


def test_decay_rejects_overshoot():
    layer = init_layer(2, 2, 1)
    with pytest.raises(ValueError):
        apply_decayed_merge_step(layer, lr=2.0, weight_decay=0.6)


@pytest.mark.parametrize("gamma_lambda", [0.0, 0.01, 0.5])
def test_decay_consistency_property(gamma_lambda):
    rng = np.random.default_rng(9)
    for _ in range(200):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        r = int(rng.integers(1, min(m, n) + 1))
        layer = LoraLayer(
            w0=rng.normal(size=(m, n)),
            b=rng.normal(size=(m, r)),
            a=rng.normal(size=(r, n)),
            scaling=scaling_factor(float(rng.uniform(1, 32)), r,
                                   ("lora", "rslora")[int(rng.integers(2))]),
        )
        before = effective_weight(layer)
        after = effective_weight(apply_decayed_merge_step(layer, 1.0, gamma_lambda))
        assert frob_norm(after - (1.0 - gamma_lambda) * before) <= 1e-10 * max(
            1.0, frob_norm(before)
        )


def test_standard_init_forward_matches_frozen_base():
    rng = np.random.default_rng(10)
    w0 = rng.normal(size=(5, 3))
    layer = init_layer(5, 3, 2, w0=w0, scheme=InitScheme("standard", seed=11))
    x = rng.normal(size=(4, 5))
    targets = rng.normal(size=(4, 3))
    batch = Batch(inputs=x, targets=targets)
    with_adapter, _ = forward(Network([layer], ["identity"], "mse"), batch)
    base_only = float(np.sum((x @ w0 - targets) ** 2)) / 4
    assert abs(with_adapter - base_only) <= 1e-12 * max(1.0, abs(base_only))
