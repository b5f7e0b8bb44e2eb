"""Tests for the hook registry, input tags and the input tracker."""

import pytest

from repro.core.hooks import HOOK_APIS, HookPoint, HookRegistry
from repro.core.tags import InputRecord, TagGenerator
from repro.core.tracker import InputTracker
from repro.graphics.pipeline import Stage


# --- hooks ------------------------------------------------------------------------

def test_all_ten_hook_points_exist_with_apis():
    assert len(HookPoint) == 10
    for hook in HookPoint:
        assert HOOK_APIS[hook], f"{hook} has no intercepted APIs"
    assert "glXSwapBuffers" in HOOK_APIS[HookPoint.HOOK5]
    assert "glReadPixels" in HOOK_APIS[HookPoint.HOOK6]
    assert "XShmPutImage" in HOOK_APIS[HookPoint.HOOK7]
    assert "XNextEvent" in HOOK_APIS[HookPoint.HOOK4]


def test_fire_counts_per_hook_and_in_total():
    registry = HookRegistry()
    registry.fire(HookPoint.HOOK5)
    registry.fire(HookPoint.HOOK5)
    registry.fire(HookPoint.HOOK1)
    assert registry.fire_counts[HookPoint.HOOK5] == 2
    assert registry.fire_counts[HookPoint.HOOK1] == 1
    assert registry.fire_counts[HookPoint.HOOK10] == 0
    assert registry.total_fires() == 3


def test_disabled_registry_is_inert_and_free():
    registry = HookRegistry(enabled=False)
    registry.fire(HookPoint.HOOK1)
    assert registry.total_fires() == 0
    assert set(registry.fire_counts.values()) == {0}
    assert registry.fire_overhead(100) == 0.0


def test_enabled_registry_charges_overhead():
    registry = HookRegistry(overhead_per_fire=50e-6)
    assert registry.fire_overhead(4) == pytest.approx(200e-6)


def test_fires_keep_no_per_fire_state():
    """A long run must not grow the registry: a fire is a counter bump."""
    registry = HookRegistry()

    def sizes():
        return {name: len(value) for name, value in vars(registry).items()
                if hasattr(value, "__len__")}

    before = sizes()
    for i in range(10_000):
        registry.fire(HookPoint.HOOK1 if i % 2 else HookPoint.HOOK9)
    assert sizes() == before
    assert len(registry.fire_counts) == len(HookPoint)
    assert registry.fire_counts[HookPoint.HOOK1] == 5_000
    assert registry.total_fires() == 10_000


def test_negative_overhead_rejected():
    with pytest.raises(ValueError):
        HookRegistry(overhead_per_fire=-1.0)


# --- tags --------------------------------------------------------------------------

def test_tag_generator_is_monotonic_and_unique():
    generator = TagGenerator()
    tags = [generator.next_tag() for _ in range(100)]
    assert tags == sorted(tags)
    assert len(set(tags)) == 100
    assert generator.issued == 100


def test_tag_namespaces_do_not_collide():
    a = TagGenerator(namespace=0)
    b = TagGenerator(namespace=1)
    tags_a = {a.next_tag() for _ in range(50)}
    tags_b = {b.next_tag() for _ in range(50)}
    assert not tags_a & tags_b


def test_tag_generator_overflow():
    generator = TagGenerator(capacity=2)
    generator.next_tag()
    generator.next_tag()
    with pytest.raises(OverflowError):
        generator.next_tag()


def test_input_record_rtt_and_breakdowns():
    record = InputRecord(tag=1, kind="key_event", created_at=10.0)
    record.record_stage(Stage.CS, 0.005)
    record.record_stage(Stage.AL, 0.020)
    record.record_stage(Stage.FC, 0.015)
    record.record_stage(Stage.SS, 0.012)
    assert record.rtt is None and not record.is_complete
    record.complete(10.1, frame_id=77)
    assert record.is_complete
    assert record.rtt == pytest.approx(0.1)
    assert record.network_time == pytest.approx(0.017)
    assert record.response_frame_id == 77


def test_input_record_rejects_negative_stage():
    record = InputRecord(tag=1, kind="key_event", created_at=0.0)
    with pytest.raises(ValueError):
        record.record_stage(Stage.AL, -1.0)


# --- tracker ---------------------------------------------------------------------------

def make_completed_tracker(n: int = 5) -> InputTracker:
    tracker = InputTracker()
    for i in range(n):
        record = tracker.create_record("key_event", timestamp=float(i))
        tracker.record_stage(record.tag, Stage.CS, 0.005)
        tracker.record_stage(record.tag, Stage.AL, 0.020)
        tracker.record_stage(record.tag, Stage.FC, 0.030)
        tracker.record_stage(record.tag, Stage.CP, 0.010)
        tracker.record_stage(record.tag, Stage.SS, 0.012)
        tracker.record_gpu_time(record.tag, 0.008)
        tracker.complete(record.tag, timestamp=float(i) + 0.1, frame_id=i)
    return tracker


def test_tracker_lifecycle_and_rtts():
    tracker = make_completed_tracker(5)
    assert tracker.tracked_inputs == 5
    assert tracker.completed_inputs == 5
    assert not tracker.outstanding
    assert tracker.mean_rtt() == pytest.approx(0.1)
    stats = tracker.rtt_stats()
    assert stats.count == 5 and stats.mean == pytest.approx(0.1)


def test_tracker_breakdowns_follow_paper_groupings():
    tracker = make_completed_tracker(3)
    rtt_breakdown = tracker.rtt_breakdown()
    assert rtt_breakdown["input_network"] == pytest.approx(0.005)
    assert rtt_breakdown["frame_network"] == pytest.approx(0.012)
    assert rtt_breakdown["server"] == pytest.approx(0.020 + 0.030 + 0.010)
    server = tracker.server_time_breakdown()
    assert server["application"] == pytest.approx(0.050)
    assert server["compression"] == pytest.approx(0.010)
    app = tracker.application_time_breakdown()
    assert app["application_logic"] == pytest.approx(0.020)
    assert app["frame_copy"] == pytest.approx(0.030)
    assert app["gpu_render"] == pytest.approx(0.008)


def test_tracker_charges_stage_to_many_tags():
    tracker = InputTracker()
    records = [tracker.create_record("key_event", timestamp=0.0) for _ in range(3)]
    tracker.record_stage_for_tags([r.tag for r in records], Stage.AL, 0.02)
    for record in records:
        assert record.stage_durations[Stage.AL] == pytest.approx(0.02)


def test_tracker_unknown_tag_raises():
    tracker = InputTracker()
    with pytest.raises(KeyError):
        tracker.get(12345)
