"""Tests for frames, scene objects, rasterization and tag embedding."""

import pickle

import numpy as np
import pytest

from repro.apps.registry import create_benchmark
from repro.graphics.frame import Frame, ObjectClass, SceneObject, TAG_PIXEL_COUNT
from repro.sim.randomness import StreamRandom


def make_frame(**kwargs):
    objects = [SceneObject(ObjectClass.ENEMY, x=0.5, y=0.5, size=0.1),
               SceneObject(ObjectClass.PICKUP, x=0.2, y=0.8, size=0.08)]
    return Frame(objects=objects, **kwargs)


def test_raw_bytes_match_resolution():
    frame = Frame(width=1920, height=1080)
    assert frame.raw_bytes == 1920 * 1080 * 4


def test_pixels_have_raster_shape_and_range():
    frame = make_frame()
    pixels = frame.pixels
    assert pixels.shape == (frame.raster_height, frame.raster_width, 3)
    assert pixels.min() >= 0.0 and pixels.max() <= 1.0


def test_objects_change_pixels():
    empty = Frame()
    populated = make_frame()
    assert populated.pixel_difference(empty.pixels) > 0.0


def test_pixel_difference_is_zero_for_identical_objects():
    objects = [SceneObject(ObjectClass.UNIT, x=0.4, y=0.4)]
    a = Frame(objects=list(objects))
    b = Frame(objects=list(objects))
    assert a.pixel_difference(b.pixels) == pytest.approx(0.0)


def test_pixel_difference_requires_matching_raster():
    a = Frame(raster_width=64, raster_height=36)
    b = Frame(raster_width=32, raster_height=18)
    with pytest.raises(ValueError):
        a.pixel_difference(b.pixels)


def test_tag_embed_extract_roundtrip():
    frame = make_frame()
    original = frame.pixels[0, :TAG_PIXEL_COUNT, :].copy()
    frame.embed_tag(123456)
    assert frame.extract_tag() == 123456
    frame.restore_tag_pixels()
    assert np.allclose(frame.pixels[0, :TAG_PIXEL_COUNT, :], original)
    assert frame.extract_tag() is None


def test_pickled_frame_drops_the_pixel_cache_unless_tagged():
    frame = make_frame()
    pixels = frame.pixels.copy()
    plain = pickle.loads(pickle.dumps(frame))
    assert plain._pixels is None
    assert plain.pixels.tobytes() == pixels.tobytes()
    assert frame.rasterize().tobytes() == pixels.tobytes()
    # A tagged buffer is not what rasterize() draws, so it rides along.
    frame.embed_tag(0x1234)
    tagged = pickle.loads(pickle.dumps(frame))
    assert tagged.pixels.tobytes() == frame.pixels.tobytes()
    assert tagged.extract_tag() == 0x1234
    tagged.restore_tag_pixels()
    assert tagged.pixels.tobytes() == pixels.tobytes()


def test_embed_tag_rejects_negative():
    frame = make_frame()
    with pytest.raises(ValueError):
        frame.embed_tag(-1)


def test_objects_of_class_filters():
    frame = make_frame()
    enemies = frame.objects_of_class(ObjectClass.ENEMY)
    assert len(enemies) == 1
    assert enemies[0].object_class is ObjectClass.ENEMY
    assert frame.objects_of_class(ObjectClass.ORGAN) == []


def test_scene_object_validation():
    with pytest.raises(ValueError):
        SceneObject(ObjectClass.ENEMY, x=1.5, y=0.5)
    with pytest.raises(ValueError):
        SceneObject(ObjectClass.ENEMY, x=0.5, y=0.5, size=0.0)


def test_scene_object_advanced_clamps_to_screen():
    obj = SceneObject(ObjectClass.ENEMY, x=0.95, y=0.5, velocity_x=1.0)
    moved = obj.advanced(1.0)
    assert moved.x == 1.0
    assert moved.object_class is ObjectClass.ENEMY


def test_frame_validation():
    with pytest.raises(ValueError):
        Frame(width=0)
    with pytest.raises(ValueError):
        Frame(complexity=0.0)
    with pytest.raises(ValueError):
        Frame(scene_change=1.5)


def test_frame_ids_number_each_applications_frames():
    """Frame ids count one application's frames from 1, so a run's ids
    do not depend on what ran before it in the same process."""
    first = create_benchmark("RE", rng=StreamRandom(0))
    ids = [first.advance(1.0 / 30.0).frame_id for _ in range(5)]
    assert ids == [1, 2, 3, 4, 5]
    second = create_benchmark("STK", rng=StreamRandom(1))
    assert second.advance(1.0 / 30.0).frame_id == 1
