import dataclasses

import numpy as np
import pytest

from lorapro import DampingPolicy, LoraLayer, TangentGeometry, adjust, equivalent_gradient
from lorapro.optim import lorapro_adamw_step

# exact Gram inversion for hand-value tests; damped behavior has its own tests
EXACT = DampingPolicy(rel_epsilon=0.0)


@pytest.fixture
def unit_instance():
    """2x2 rank-1 layer with unit scaling and a fixed full gradient.

    Small enough that every downstream quantity is hand-checkable:
    raw grads [[1,2]] / [[1],[3]], projected pair [[1,2]] / [[0],[3]],
    equivalent gradient [[1,2],[3,0]], optimal X -0.5, certificate -14.
    """
    layer = LoraLayer(
        w0=np.zeros((2, 2)),
        b=np.array([[1.0], [0.0]]),
        a=np.array([[1.0, 0.0]]),
        alpha=1.0,
        rank=1,
        scaling_mode="lora",
    )
    g = np.array([[1.0, 2.0], [3.0, 4.0]])
    return layer, g


def adamw_step(layer, state, bundle, hp, policy=DampingPolicy(), x_strategy="sylvester"):
    """``lorapro_adamw_step`` as the trainer calls it: in the layer's geometry,
    on the equivalent gradient of the X = 0 adjustment of ``bundle``."""
    geometry = TangentGeometry(layer, policy)
    zero = adjust(layer, bundle, "zero", policy, geometry=geometry)
    g_tilde = equivalent_gradient(layer, zero.g_a, zero.g_b)
    return lorapro_adamw_step(geometry, state, g_tilde, hp, x_strategy)


def assert_layer_is_value(layer, copied=(), shared=None):
    """The value rule on ``layer``: its arrays are read-only, none of its fields
    can be rebound, it aliases none of the arrays in ``copied`` (the caller's
    writable inputs, or the arrays it was derived from), and it holds each
    array of ``shared`` (field name to the caller's read-only input) as it is."""
    for name in ("w0", "b", "a"):
        array = getattr(layer, name)
        assert not array.flags.writeable, name
        assert not any(np.shares_memory(array, outside) for outside in copied), name
    for field in dataclasses.fields(layer):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(layer, field.name, getattr(layer, field.name))
    for name, array in (shared or {}).items():
        assert getattr(layer, name) is array, name
