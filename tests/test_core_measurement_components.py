"""Tests for GPU timers, PMU readers, monitors, statistics and reporting."""

import pytest

from repro.core.gpu_timer import GpuTimeQueryManager
from repro.core.measurements import LatencyStats, percentage_error, summarize
from repro.core.monitors import FpsCounter, ResourceMonitor
from repro.core.pmu import CpuPmuReader, GpuPmuReader
from repro.core.reporting import format_breakdown, format_ms, format_percentage, format_table
from repro.graphics.frame import Frame
from repro.graphics.opengl import GlContext
from repro.hardware.cpu import StageCpuProfile
from repro.hardware.gpu import GpuWorkloadProfile
from repro.hardware.machine import ServerMachine
from repro.hardware.memory import LlcModel


# --- GPU time queries ---------------------------------------------------------------

@pytest.fixture
def gl_stack(env):
    machine = ServerMachine(env)
    context = machine.gpu.create_context("app", GpuWorkloadProfile())
    gl = GlContext(env, context, machine.pcie, base_render_time_s=0.010)
    return machine, gl


def _run_frames(env, gl, timer, frames=4, work_between=0.02):
    collected = []

    def proc(env):
        for _ in range(frames):
            frame = Frame()
            timer.begin_frame(frame)
            yield env.timeout(work_between)
            gpu_time = yield from timer.collect()
            collected.append(gpu_time)

    env.process(proc(env))
    env.run()
    return collected


def test_double_buffered_queries_do_not_stall(env, gl_stack):
    _machine, gl = gl_stack
    timer = GpuTimeQueryManager(env, gl, double_buffered=True)
    _run_frames(env, gl, timer)
    # With 20 ms between frames the previous query is always ready.
    assert timer.stall_time_total == pytest.approx(0.0, abs=1e-9)
    assert timer.collected >= 2
    assert timer.mean_gpu_time() == pytest.approx(0.010, rel=0.05)


def test_single_buffered_queries_stall_the_caller(env, gl_stack):
    _machine, gl = gl_stack
    timer = GpuTimeQueryManager(env, gl, double_buffered=False)
    _run_frames(env, gl, timer, work_between=0.001)
    # Reading the in-flight frame's query waits for its rendering.
    assert timer.stall_time_total > 0.0


# --- PMU readers ----------------------------------------------------------------------

def test_cpu_pmu_reader_reports_topdown_and_l3(env):
    machine = ServerMachine(env)
    machine.memory.register_workload(8.0)
    thread = machine.cpu.thread("bench.app", owner="bench.app")

    def proc(env):
        yield from thread.run(0.05, StageCpuProfile(demand=1.0))

    env.process(proc(env))
    env.run()
    reader = CpuPmuReader(machine.cpu, machine.memory, owner="bench.app",
                          llc=LlcModel(base_miss_rate=0.75, working_set_mb=8.0))
    sample = reader.read()
    shares = (sample.retiring + sample.frontend_bound + sample.backend_bound
              + sample.bad_speculation)
    assert shares == pytest.approx(1.0)
    assert sample.l3_miss_rate == pytest.approx(0.75)
    assert sample.total_cycles > 0


def test_gpu_pmu_reader_handles_unreadable_context(env):
    machine = ServerMachine(env)
    readable = machine.gpu.create_context("a", GpuWorkloadProfile())
    unreadable = machine.gpu.create_context(
        "b", GpuWorkloadProfile(pmu_readable=False))
    assert GpuPmuReader(readable).read().l2_miss_rate is not None or True
    sample = GpuPmuReader(unreadable).read()
    assert sample.l2_miss_rate is None and not sample.available


# --- monitors -------------------------------------------------------------------------------

def test_fps_counter_average_and_window(env):
    counter = FpsCounter(env)

    def proc(env):
        counter.start()
        for _ in range(30):
            yield env.timeout(1.0 / 30.0)
            counter.record_frame()

    env.process(proc(env))
    env.run()
    assert counter.frame_count == 30
    assert counter.fps(1.0) == pytest.approx(30.0)
    assert counter.fps() == pytest.approx(30.0)


def test_fps_counter_empty_is_zero(env):
    counter = FpsCounter(env)
    assert counter.fps() == 0.0


def test_event_rate_monitor_counts_dispatches_via_the_bus(env):
    from repro.core.monitors import EventRateMonitor
    from repro.sim.trace import TraceRecorder

    monitor = EventRateMonitor(env)
    recorder = TraceRecorder(env)  # chains alongside, does not conflict

    def proc(env):
        yield env.timeout(1.0)
        yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    # Initialize + two timeouts + process termination, same as the trace.
    assert monitor.total == len(recorder) == 4
    assert monitor.counts == {"Initialize": 1, "Timeout": 2, "Process": 1}

    monitor.close()
    monitor.close()  # idempotent
    env.timeout(1.0)
    env.run()
    assert monitor.total == 4      # detached: saw nothing new
    assert len(recorder) == 5      # recorder still attached


def test_resource_monitor_samples_periodically(env):
    machine = ServerMachine(env)
    monitor = ResourceMonitor(env, machine, interval=1.0)
    monitor.start()
    env.run(until=5.5)
    assert len(monitor.samples) >= 5
    assert all(sample.cpu_utilization_cores >= 0.0 for sample in monitor.samples)
    assert monitor.samples[-1].timestamp <= env.now


def test_resource_monitor_validation(env):
    machine = ServerMachine(env)
    with pytest.raises(ValueError):
        ResourceMonitor(env, machine, interval=0.0)


# --- statistics -----------------------------------------------------------------------------

def test_latency_stats_percentiles():
    samples = [float(i) for i in range(1, 101)]
    stats = LatencyStats.from_samples(samples)
    assert stats.count == 100
    assert stats.mean == pytest.approx(50.5)
    assert stats.p1 < stats.p25 < stats.median < stats.p75 < stats.p99
    scaled = stats.scaled(1e3)
    assert scaled.mean == pytest.approx(50500.0)
    assert set(summarize(samples)) == set(stats.as_dict())


def test_latency_stats_empty():
    stats = LatencyStats.from_samples([])
    assert stats.count == 0 and stats.mean == 0.0


def test_percentage_error_matches_table3_definition():
    assert percentage_error(101.6, 100.0) == pytest.approx(1.6)
    assert percentage_error(70.0, 100.0) == pytest.approx(30.0)
    with pytest.raises(ValueError):
        percentage_error(1.0, 0.0)


# --- reporting -------------------------------------------------------------------------------

def test_format_helpers():
    assert format_ms(0.0123) == "12.3ms"
    assert format_percentage(0.577) == "57.7%"
    assert format_breakdown({"AL": 0.010, "FC": 0.020}) == "AL=10.0ms FC=20.0ms"


def test_format_table_alignment_and_validation():
    table = format_table(["name", "value"], [["a", 1], ["bench", 2]], title="T")
    lines = table.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[2] and "value" in lines[2]
    with pytest.raises(ValueError):
        format_table(["one"], [["a", "b"]])
