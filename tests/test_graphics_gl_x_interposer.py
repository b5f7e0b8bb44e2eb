"""Tests for the GL context, X layer, framebuffer and graphics interposer."""

import pytest

from repro.graphics.frame import Frame
from repro.graphics.framebuffer import Framebuffer
from repro.graphics.interposer import GraphicsInterposer, InterposerConfig
from repro.graphics.opengl import GlContext
from repro.graphics.xserver import XConfig, XDisplay, XEvent
from repro.hardware.cpu import Cpu, CpuSpec
from repro.hardware.gpu import Gpu, GpuWorkloadProfile
from repro.hardware.pcie import PcieBus
from repro.sim.randomness import StreamRandom
from repro.sim.resources import Store


@pytest.fixture
def stack(env):
    """A minimal per-session graphics stack on a fresh machine."""
    cpu = Cpu(env, CpuSpec())
    gpu = Gpu(env)
    pcie = PcieBus(env)
    context = gpu.create_context("app", GpuWorkloadProfile())
    gl = GlContext(env, context, pcie, base_render_time_s=0.008)
    xdisplay = XDisplay(env, XConfig(), rng=StreamRandom(0))
    window = xdisplay.create_window()
    interposer = GraphicsInterposer(env, gl, xdisplay, window)
    thread = cpu.thread("app.main", owner="app")
    return cpu, gl, xdisplay, window, interposer, thread


def run(env, generator):
    result = {}

    def proc(env):
        result["value"] = yield from generator
        result["finished_at"] = env.now

    env.process(proc(env))
    env.run()
    return result


# --- framebuffer ---------------------------------------------------------------

def test_framebuffer_swap_promotes_back_to_front():
    fb = Framebuffer()
    frame = Frame()
    fb.attach_back(frame)
    assert fb.front is None
    assert fb.swap() is frame
    assert fb.front is frame and fb.back is None
    assert fb.swap_count == 1


def test_framebuffer_rejects_mismatched_resolution():
    fb = Framebuffer(width=1280, height=720)
    with pytest.raises(ValueError):
        fb.attach_back(Frame(width=1920, height=1080))


def test_framebuffer_resize_clears_buffers():
    fb = Framebuffer()
    fb.attach_back(Frame())
    fb.resize(1280, 720)
    assert fb.back is None and fb.width == 1280


# --- GL context -----------------------------------------------------------------

def test_swap_buffers_is_asynchronous(env, stack):
    _cpu, gl, _x, _w, _interp, _t = stack
    frame = Frame()
    gl.swap_buffers(frame)
    assert gl.framebuffer.back is frame
    # The call returns immediately; the render completes later.
    assert env.now == 0.0
    env.run()
    assert gl.completed_job(frame) is not None
    assert gl.completed_job(frame).gpu_time > 0


def test_read_pixels_waits_for_render_and_uses_pcie(env, stack):
    _cpu, gl, _x, _w, _interp, _t = stack
    frame = Frame()
    gl.swap_buffers(frame)
    result = run(env, gl.read_pixels(frame))
    assert result["finished_at"] >= 0.008
    assert gl.frames_read_back == 1
    assert gl.pcie.bytes_by_direction["from_gpu"] == pytest.approx(frame.raw_bytes)


def test_time_query_records_gpu_time(env, stack):
    _cpu, gl, _x, _w, _interp, _t = stack
    frame = Frame()
    query = gl.swap_buffers(frame, with_query=True)
    env.run()
    assert query.is_ready
    assert query.gpu_time == pytest.approx(gl.completed_job(frame).gpu_time)


def test_upload_moves_bytes_to_gpu(env, stack):
    _cpu, gl, _x, _w, _interp, _t = stack
    run(env, gl.upload(2e6))
    assert gl.pcie.bytes_by_direction["to_gpu"] == pytest.approx(2e6)


# --- X layer ----------------------------------------------------------------------

def test_input_event_delivery(env, stack):
    cpu, _gl, xdisplay, window, _interp, _t = stack
    vnc_thread = cpu.thread("vnc.input", owner="vnc")
    event = XEvent(kind="key", payload="w", tag=5)
    run(env, xdisplay.send_input_event(window, event, vnc_thread))
    assert xdisplay.pending_events(window) == 1
    drained = xdisplay.drain_events(window)
    assert len(drained) == 1 and drained[0].tag == 5
    assert xdisplay.pending_events(window) == 0


def test_get_window_attributes_is_slow(env, stack):
    _cpu, _gl, xdisplay, window, _interp, thread = stack
    result = run(env, xdisplay.get_window_attributes(window, thread))
    assert result["value"]["width"] == 1920
    low = xdisplay.config.get_window_attributes_ms_low * 1e-3
    assert result["finished_at"] >= low * 0.8
    assert xdisplay.get_window_attributes_calls == 1


def test_shm_put_image_delivers_frame(env, stack):
    _cpu, _gl, xdisplay, _window, _interp, thread = stack
    destination = Store(env)
    frame = Frame()
    run(env, xdisplay.shm_put_image(frame, destination, thread))
    assert len(destination) == 1
    assert xdisplay.images_put == 1


# --- interposer -----------------------------------------------------------------------

def test_baseline_copy_includes_attribute_query(env, stack):
    _cpu, gl, xdisplay, _window, interposer, thread = stack
    frame = Frame()
    gl.swap_buffers(frame)
    run(env, interposer.copy_frame(frame, thread))
    assert xdisplay.get_window_attributes_calls == 1
    assert interposer.frames_copied == 1


def test_memoization_avoids_repeated_attribute_queries(env, stack):
    _cpu, gl, xdisplay, window, _interp, thread = stack
    interposer = GraphicsInterposer(
        env, gl, xdisplay, window,
        config=InterposerConfig(memoize_window_attributes=True))
    for _ in range(3):
        frame = Frame()
        gl.swap_buffers(frame)
        run(env, interposer.copy_frame(frame, thread))
    assert xdisplay.get_window_attributes_calls == 1
    assert interposer.attribute_queries_avoided == 2


def test_memoization_invalidated_by_resize(env, stack):
    _cpu, gl, xdisplay, window, _interp, thread = stack
    interposer = GraphicsInterposer(
        env, gl, xdisplay, window,
        config=InterposerConfig(memoize_window_attributes=True))
    frame = Frame()
    gl.swap_buffers(frame)
    run(env, interposer.copy_frame(frame, thread))
    window.resize(1920, 1080)
    frame2 = Frame()
    gl.swap_buffers(frame2)
    run(env, interposer.copy_frame(frame2, thread))
    assert xdisplay.get_window_attributes_calls == 2


def test_two_step_copy_overlaps_with_other_work(env, stack):
    _cpu, gl, _xdisplay, _window, interposer, thread = stack
    frame = Frame()
    gl.swap_buffers(frame)

    def proc(env):
        copy_process = interposer.start_frame_copy(frame, thread)
        issue_time = env.now
        yield env.timeout(0.05)   # application logic of the next frame
        yield from interposer.finish_frame_copy(copy_process)
        return issue_time, env.now

    process = env.process(proc(env))
    issue_time, finish_time = env.run(until=process)
    # The copy overlapped with the 50 ms of "application logic".
    assert finish_time == pytest.approx(issue_time + 0.05, rel=0.05)
    assert interposer.frames_copied == 1


def test_deliver_frame_reaches_proxy_inbox(env, stack):
    _cpu, gl, _xdisplay, _window, interposer, thread = stack
    inbox = Store(env)
    frame = Frame()
    gl.swap_buffers(frame)
    run(env, interposer.copy_frame(frame, thread))
    run(env, interposer.deliver_frame(frame, inbox, thread))
    assert len(inbox) == 1
