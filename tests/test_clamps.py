"""The scalar clamps equal ``float(np.clip(x, lo, hi))`` bit for bit.

Checked through the public entry points that clamp: ``Action.from_vector``,
``SceneObject.advanced`` and ``StreamRandom.truncated_normal``.  Edge
inputs are signed zeros, NaN, values exactly at a bound and numpy scalars;
every clamped field must come back as an exact Python ``float``.
"""

import math

import numpy as np
import pytest

from repro.apps.base import Action
from repro.graphics.frame import ObjectClass, SceneObject
from repro.sim.randomness import StreamRandom

NAN = float("nan")
EDGES = [-0.0, 0.0, NAN, -1.0, 1.0, 0.5, -0.25, 1.5, -3.0, math.inf, -math.inf,
         np.float64(-0.0), np.float64(0.75), np.float64(-2.0), np.float64(NAN)]


def _same(value, expected):
    """Exact Python float, bit-equal to ``expected`` (signed zero and NaN included)."""
    assert type(value) is float
    assert value.hex() == float(expected).hex()


@pytest.mark.parametrize("steer", EDGES)
@pytest.mark.parametrize("pitch", [-0.0, NAN, 1.0, np.float64(0.2)])
def test_action_from_vector_clamps_like_np_clip(steer, pitch):
    for vector in (np.array([steer, pitch, 1.0]), [steer, pitch, 0.0]):
        action = Action.from_vector(vector)
        _same(action.steer, float(np.clip(vector[0], -1.0, 1.0)))
        _same(action.pitch, float(np.clip(vector[1], -1.0, 1.0)))


@pytest.mark.parametrize("x, velocity", [
    (0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0), (1.0, 0.0), (0.5, 0.5),
    (0.5, -0.5), (0.9, 1.0), (0.1, -1.0), (0.25, 1e-300), (1.0, -math.inf),
    (0.5, NAN), (np.float64(0.5), np.float64(0.25)), (np.float64(-0.0), -0.0),
    (np.float64(1.0), np.float64(3.0)),
])
@pytest.mark.parametrize("dt", [1.0, np.float64(0.5)])
def test_scene_object_advanced_clamps_like_np_clip(x, velocity, dt):
    obj = SceneObject(ObjectClass.TRACK, x=x, y=x, velocity_x=velocity, velocity_y=velocity)
    expected = float(np.clip(x + velocity * dt, 0.0, 1.0))
    if not 0.0 <= expected <= 1.0:  # NaN: rejected by the constructor either way
        with pytest.raises(ValueError):
            obj.advanced(dt)
        return
    moved = obj.advanced(dt)
    _same(moved.x, expected)
    _same(moved.y, expected)


@pytest.mark.parametrize("mean", [-0.0, 0.0, NAN, 1.0, 2.0, -5.0, np.float64(0.5)])
@pytest.mark.parametrize("std", [0.0, 1.0])
@pytest.mark.parametrize("low, high", [
    (0.0, math.inf), (-0.0, 1.0), (0.0, 1.0), (-1.0, -0.0), (1.0, 1.0),
    (np.float64(0.0), np.float64(1.0)), (np.float64(-0.0), np.float64(2.0)),
])
def test_truncated_normal_clamps_like_np_clip(mean, std, low, high):
    draw = np.random.default_rng(11).normal(mean, std)
    value = StreamRandom(11).truncated_normal(mean, std, low=low, high=high)
    _same(value, float(np.clip(draw, low, high)))
