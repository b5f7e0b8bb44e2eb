"""Tests for the frame codecs and the pipeline vocabulary."""

import pytest

from repro.graphics.compression import RawCodec, TightCodec
from repro.graphics.frame import Frame
from repro.graphics.pipeline import PipelineConfig, STAGES, Stage, StageTimings
from repro.hardware.cpu import Cpu, CpuSpec
from repro.sim.randomness import StreamRandom


def compress_once(env, codec, frame):
    cpu = Cpu(env, CpuSpec())
    thread = cpu.thread("vnc.compress", owner="vnc")
    result = {}

    def proc(env):
        result["compressed"] = yield from codec.compress(frame, thread)

    env.process(proc(env))
    env.run()
    return result["compressed"]


def test_tight_codec_compresses_substantially(env):
    codec = TightCodec(rng=StreamRandom(0))
    frame = Frame(scene_change=0.3)
    compressed = compress_once(env, codec, frame)
    assert compressed.compressed_bytes < frame.raw_bytes * 0.5
    assert compressed.compression_time > 0
    assert compressed.codec_name == "tight-jpeg"


def test_tight_codec_size_scales_with_scene_change(env):
    codec = TightCodec(rng=StreamRandom(0))
    static = compress_once(env, codec, Frame(scene_change=0.05))
    dynamic = compress_once(env, codec, Frame(scene_change=0.9))
    assert dynamic.compressed_bytes > static.compressed_bytes


def test_tight_codec_time_scales_with_scene_change(env):
    codec = TightCodec(rng=StreamRandom(0))
    assert codec.compression_time(Frame(scene_change=0.9)) > \
        codec.compression_time(Frame(scene_change=0.05))


def test_raw_codec_keeps_size(env):
    codec = RawCodec(rng=StreamRandom(0))
    frame = Frame()
    compressed = compress_once(env, codec, frame)
    assert compressed.compressed_bytes == frame.raw_bytes


def test_codec_counters_accumulate(env):
    codec = TightCodec(rng=StreamRandom(0))
    compress_once(env, codec, Frame())
    compress_once(env, codec, Frame())
    assert codec.frames_compressed == 2
    assert codec.bytes_out > 0


def test_tight_codec_validation():
    with pytest.raises(ValueError):
        TightCodec(quality_ratio=0.0)


# --- pipeline vocabulary -----------------------------------------------------------

def test_stage_sets_are_consistent():
    assert set(Stage.SERVER_STAGES) <= set(STAGES)
    assert set(Stage.APPLICATION_STAGES) <= set(Stage.SERVER_STAGES)
    assert Stage.CS in Stage.NETWORK_STAGES and Stage.SS in Stage.NETWORK_STAGES


def test_stage_timings_record_and_mean():
    timings = StageTimings()
    timings.record(Stage.AL, 0.010)
    timings.record(Stage.AL, 0.020)
    timings.record(Stage.FC, 0.015)
    assert timings.count(Stage.AL) == 2
    assert timings.mean(Stage.AL) == pytest.approx(0.015)
    assert timings.mean(Stage.FC) == pytest.approx(0.015)
    assert timings.count(Stage.CP) == 0 and timings.mean(Stage.CP) == 0.0


def test_stage_timings_percentile_and_merge():
    a = StageTimings()
    b = StageTimings()
    for value in (0.01, 0.02, 0.03):
        a.record(Stage.CP, value)
    b.record(Stage.CP, 0.04)
    a.merge(b)
    assert a.count(Stage.CP) == 4
    assert a.percentile(Stage.CP, 100) == pytest.approx(0.04)


def test_stage_timings_validation():
    timings = StageTimings()
    with pytest.raises(ValueError):
        timings.record("XX", 0.01)
    with pytest.raises(ValueError):
        timings.record(Stage.AL, -0.01)


def test_pipeline_config_with_optimizations():
    """The ``optimized`` session variant's pipeline turns on both
    Section-6 optimizations and nothing else."""
    from repro.scenarios.variants import session_variant

    base = PipelineConfig()
    optimized = session_variant("optimized").pipeline_config()
    assert not base.memoize_window_attributes
    assert optimized.memoize_window_attributes and optimized.two_step_frame_copy
    assert optimized.measurement_enabled == base.measurement_enabled
