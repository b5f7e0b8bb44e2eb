"""Tests for the benchmark suite: profiles, scenes, activity coupling."""

import pytest

from repro.apps.base import Action, Application3D, ApplicationProfile, InputKind, SceneDynamics
from repro.apps.registry import (
    BENCHMARK_NAMES,
    BENCHMARK_SHORT_NAMES,
    all_benchmarks,
    create_benchmark,
    get_profile,
    register_benchmark,
)
from repro.graphics.frame import ObjectClass
from repro.sim.randomness import StreamRandom


def test_suite_contains_the_six_paper_benchmarks():
    assert BENCHMARK_SHORT_NAMES == ("STK", "0AD", "RE", "D2", "IM", "ITP")
    assert BENCHMARK_NAMES["STK"] == "SuperTuxKart"
    assert BENCHMARK_NAMES["D2"] == "DoTA 2"
    assert set(BENCHMARK_SHORT_NAMES) <= set(all_benchmarks())


def test_create_benchmark_and_unknown_name():
    app = create_benchmark("RE", rng=StreamRandom(0))
    assert app.profile.short_name == "RE"
    with pytest.raises(KeyError):
        create_benchmark("NOPE")
    with pytest.raises(KeyError):
        get_profile("NOPE")


def test_two_benchmarks_are_closed_source():
    closed = [b for b in BENCHMARK_SHORT_NAMES if not get_profile(b).open_source]
    assert sorted(closed) == ["D2", "IM"]


def test_vr_benchmarks_use_hmd_input():
    for short in ("IM", "ITP"):
        profile = get_profile(short)
        assert profile.is_vr
        assert profile.input_kind is InputKind.HMD


def test_paper_calibration_orderings():
    """The per-app profiles preserve the paper's qualitative orderings."""
    profiles = {b: get_profile(b) for b in BENCHMARK_SHORT_NAMES}
    # Dota2 is the heaviest CPU user, Red Eclipse the lightest (Figure 8).
    assert max(profiles, key=lambda b: profiles[b].cpu_demand) == "D2"
    assert min(profiles, key=lambda b: profiles[b].cpu_demand) == "RE"
    # InMind has the largest CPU memory, Dota2 the smallest (Section 5.1.1).
    assert max(profiles, key=lambda b: profiles[b].cpu_memory_mb) == "IM"
    assert min(profiles, key=lambda b: profiles[b].cpu_memory_mb) == "D2"
    # SuperTuxKart streams far more data to the GPU than the rest (Figure 9).
    assert max(profiles, key=lambda b: profiles[b].upload_bytes_per_frame) == "STK"
    # 0 A.D. uses OpenGL 1.3 and its GPU PMUs cannot be read (Figure 16).
    assert profiles["0AD"].opengl_version == "1.3"
    assert not profiles["0AD"].gpu_profile.pmu_readable
    # All benchmarks are off-chip memory bound when run alone (Figure 15).
    assert all(p.base_l3_miss_rate > 0.7 for p in profiles.values())


def test_advance_produces_frames_with_objects():
    app = create_benchmark("STK", rng=StreamRandom(1))
    frame = app.advance(1.0 / 30.0)
    assert frame.objects
    assert 0.0 < frame.scene_change <= 1.0
    assert frame.complexity > 0
    assert app.frame_index == 1


def test_advance_requires_positive_dt():
    app = create_benchmark("RE", rng=StreamRandom(1))
    with pytest.raises(ValueError):
        app.advance(0.0)


def test_scene_randomness_differs_between_runs():
    a = create_benchmark("RE", rng=StreamRandom(1))
    b = create_benchmark("RE", rng=StreamRandom(2))
    frames_a = [a.advance(1 / 30) for _ in range(10)]
    frames_b = [b.advance(1 / 30) for _ in range(10)]
    differences = [fa.pixel_difference(fb.pixels) for fa, fb in zip(frames_a, frames_b)]
    assert max(differences) > 0.0


def test_same_seed_reproduces_scene():
    a = create_benchmark("D2", rng=StreamRandom(7))
    b = create_benchmark("D2", rng=StreamRandom(7))
    for _ in range(5):
        fa = a.advance(1 / 30)
        fb = b.advance(1 / 30)
        assert fa.pixel_difference(fb.pixels) == pytest.approx(0.0)


def test_activity_level_tracks_input_rate():
    driven = create_benchmark("RE", rng=StreamRandom(3))
    idle = create_benchmark("RE", rng=StreamRandom(3))
    per_frame = driven.profile.actions_per_second / 30.0
    for _ in range(200):
        # Feed the driven instance roughly the expected number of actions.
        driven.apply_actions([Action(steer=0.5)] * max(1, round(per_frame)))
        driven.advance(1 / 30)
        idle.advance(1 / 30)
    assert driven.activity_level > idle.activity_level
    assert idle.activity_level < 0.2


def test_activity_raises_al_time_and_scene_change():
    driven = create_benchmark("STK", rng=StreamRandom(3))
    idle = create_benchmark("STK", rng=StreamRandom(3))
    for _ in range(100):
        driven.apply_actions([Action(steer=0.8)])
        driven.advance(1 / 30)
        idle.advance(1 / 30)
    driven_al = sum(driven.sample_al_time() for _ in range(50))
    idle_al = sum(idle.sample_al_time() for _ in range(50))
    assert driven_al > idle_al


def test_correct_action_steers_toward_targets():
    app = create_benchmark("RE", rng=StreamRandom(4))
    # Place all steer-class objects on the right half of the screen.
    from repro.graphics.frame import Frame, SceneObject
    frame = Frame(objects=[SceneObject(ObjectClass.ENEMY, x=0.9, y=0.5)])
    action = app.correct_action(frame)
    assert action.steer > 0.5
    assert action.primary is False or abs(0.9 - 0.5) < app.dynamics.primary_trigger_distance


def test_correct_action_neutral_without_targets():
    app = create_benchmark("RE", rng=StreamRandom(4))
    from repro.graphics.frame import Frame
    action = app.correct_action(Frame(objects=[]))
    assert action.steer == 0.0 and action.pitch == 0.0


def test_primary_action_triggered_when_target_centred():
    app = create_benchmark("RE", rng=StreamRandom(4))
    from repro.graphics.frame import Frame, SceneObject
    frame = Frame(objects=[SceneObject(ObjectClass.ENEMY, x=0.5, y=0.5)])
    assert app.correct_action(frame).primary


def test_action_vector_roundtrip():
    action = Action(steer=0.4, pitch=-0.2, primary=True)
    rebuilt = Action.from_vector(action.as_vector())
    assert rebuilt.steer == pytest.approx(0.4)
    assert rebuilt.pitch == pytest.approx(-0.2)
    assert rebuilt.primary
    assert action.distance(rebuilt) == pytest.approx(0.0)


def test_profile_validation():
    with pytest.raises(ValueError):
        ApplicationProfile(name="x", short_name="X", genre="g", al_ms=0.0)
    with pytest.raises(ValueError):
        ApplicationProfile(name="x", short_name="X", genre="g", scene_change_mean=2.0)


def test_scene_dynamics_validation():
    with pytest.raises(ValueError):
        SceneDynamics(object_classes=(ObjectClass.UNIT,), object_counts=(1, 2))
    with pytest.raises(ValueError):
        SceneDynamics(spawn_rate=-1.0)


def test_register_custom_benchmark_for_extensibility():
    class CustomApp(Application3D):
        profile = ApplicationProfile(name="Custom", short_name="CUST", genre="test")
        dynamics = SceneDynamics()

    from repro.apps import registry as registry_module
    register_benchmark(CustomApp)
    try:
        assert "CUST" in all_benchmarks()
        assert isinstance(create_benchmark("CUST"), CustomApp)
    finally:
        # The registry is process-global and feeds defaults elsewhere
        # (mixed.all_pairs, scenario validation); don't leak the fixture.
        registry_module._REGISTRY.pop("CUST", None)
