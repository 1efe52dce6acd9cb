import dataclasses

import numpy as np
import pytest

from lorapro import DampingPolicy, LoraLayer, TangentGeometry, adjust
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
        scaling=1.0,
    )
    g = np.array([[1.0, 2.0], [3.0, 4.0]])
    return layer, g


def adamw_step(layer, state, bundle, hp, policy=DampingPolicy(), x_strategy="sylvester"):
    """``lorapro_adamw_step`` as the trainer calls it: in the layer's geometry,
    on the X = 0 adjustment of ``bundle``, with its moment write committed.
    The new layer is returned with ``state``, updated in place."""
    geometry = TangentGeometry(layer, policy)
    zero = adjust(layer, bundle, "zero", policy, geometry=geometry)
    new_layer, write = lorapro_adamw_step(geometry, state, zero.g_a, zero.g_b, hp, x_strategy)
    return new_layer, write.commit()


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


def assert_bundle_is_value(bundle, layer):
    """The value rule on a gradient ``bundle``: it holds ``layer``, the layer
    object it was built for, and none of its fields can be rebound."""
    assert bundle.layer is layer
    for field in dataclasses.fields(bundle):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(bundle, field.name, getattr(bundle, field.name))
