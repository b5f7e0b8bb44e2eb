"""Tests for the CPU model: contention, utilization, Top-Down accounting."""

import numpy as np
import pytest

from repro.hardware.cpu import Cpu, CpuSpec, CycleBreakdown, StageCpuProfile
from repro.hardware.memory import MemorySpec, MemorySystem


def run_work(env, thread, nominal, profile):
    """Helper: run one chunk of CPU work to completion and return elapsed."""
    result = {}

    def proc(env):
        started = env.now
        yield from thread.run(nominal, profile)
        result["elapsed"] = env.now - started

    env.process(proc(env))
    env.run()
    return result["elapsed"]


def test_uncontended_work_takes_nominal_time(env):
    cpu = Cpu(env, CpuSpec(cores=8))
    thread = cpu.thread("t0")
    elapsed = run_work(env, thread, 0.010, StageCpuProfile(demand=1.0))
    assert elapsed == pytest.approx(0.010)


def test_oversubscription_slows_work_down(env):
    cpu = Cpu(env, CpuSpec(cores=2))
    threads = [cpu.thread(f"t{i}") for i in range(4)]
    finish_times = []

    def worker(env, thread):
        yield from thread.run(0.010, StageCpuProfile(demand=1.0))
        finish_times.append(env.now)

    for thread in threads:
        env.process(worker(env, thread))
    env.run()
    # Four single-core demands on two cores: everything runs ~2x slower.
    assert max(finish_times) == pytest.approx(0.020, rel=0.01)


def test_oversubscribed_burst_runs_at_demand_over_cores(env):
    """Demand 8 on 4 cores runs at half speed: actual == 2 x nominal."""
    cpu = Cpu(env, CpuSpec(cores=4))
    thread = cpu.thread("t0")
    result = {}

    def proc(env):
        result["actual"] = yield from thread.run(0.010, StageCpuProfile(demand=8.0))

    env.process(proc(env))
    env.run()
    assert result["actual"] == 2 * 0.010
    assert env.now == 2 * 0.010
    assert cpu.active_demand == 0.0


def test_overlapping_bursts_account_exactly(env):
    """Busy-core integral, peak and in-flight demand, by hand.

    Two cores.  A (demand 1) runs 0 -> 1.0 uncontended.  B (demand 2)
    starts at 0.5 with 3 cores' worth of demand in flight, so it runs
    1.5x slower: 0.5 -> 2.0.  C (demand 1, nominal 0.5) starts at 0.75
    with 4 in flight and runs 2x slower: 0.75 -> 1.75.  Busy cores,
    capped at 2 from 0.5 on: 1 x 0.5 + 2 x 1.5 = 3.5.
    """
    memory = MemorySystem(env)
    cpu = Cpu(env, CpuSpec(cores=2), memory=memory)
    a, b, c = cpu.thread("a"), cpu.thread("b"), cpu.thread("c")
    insensitive = dict(memory_intensity=0.0)
    seen = {}

    def burst(env, thread, start, nominal, demand):
        yield env.timeout(start)
        yield from thread.run(nominal, StageCpuProfile(demand=demand, **insensitive))

    def probe(env):
        yield env.timeout(0.875)
        seen["active"] = cpu.active_demand
        seen["pressure"] = memory._active_pressure
        seen["integral"] = cpu.demand_core_seconds()

    env.process(burst(env, a, 0.0, 1.0, 1.0))
    env.process(burst(env, b, 0.5, 1.0, 2.0))
    env.process(burst(env, c, 0.75, 0.5, 1.0))
    env.process(probe(env))
    env.run()
    assert seen == {"active": 4.0, "pressure": 4.0, "integral": 0.5 + 2 * 0.375}
    assert env.now == 2.0
    assert cpu.demand_core_seconds() == 3.5
    assert cpu.active_demand == 0.0
    assert memory._active_pressure == 0.0
    assert (a.busy_time, a.core_seconds) == (1.0, 1.0)
    assert (b.busy_time, b.core_seconds) == (1.5, 3.0)
    assert (c.busy_time, c.core_seconds) == (1.0, 1.0)


def test_stall_factor_follows_workloads_registered_mid_run(env):
    """The memory system's cached pressure term tracks (un)registration."""
    memory = MemorySystem(env, MemorySpec(l3_mb=10.0))
    cpu = Cpu(env, CpuSpec(cores=8), memory=memory)
    thread = cpu.thread("t0")
    bound = StageCpuProfile(demand=1.0, memory_intensity=1.0)
    actuals = []
    factors = []

    def proc(env):
        memory.register_workload(12.0)
        for change in (memory.register_workload, memory.unregister_workload,
                       memory.register_workload):
            factors.append(memory.cpu_stall_factor(1.0))
            actuals.append((yield from thread.run(0.010, bound)))
            change(12.0)
        factors.append(memory.cpu_stall_factor(1.0))
        actuals.append((yield from thread.run(0.010, bound)))

    env.process(proc(env))
    env.run()
    # One workload: no pressure.  Two at 12 MB on a 10 MB L3: pressure
    # 1.2 saturates the 0.7 share, so 1 + 0.5 * 0.7 = 1.35.
    assert factors == [1.0, 1.35, 1.0, 1.35]
    assert actuals == [0.010 * factor for factor in factors]
    assert memory._active_pressure == 0.0


def test_memory_contention_inflates_memory_bound_stage(env):
    memory = MemorySystem(env, MemorySpec(l3_mb=10.0))
    cpu = Cpu(env, CpuSpec(cores=8), memory=memory)
    # Register two workloads so cache pressure is non-zero.
    memory.register_workload(12.0)
    memory.register_workload(12.0)
    thread = cpu.thread("t0")
    bound = StageCpuProfile(demand=1.0, memory_intensity=1.0)
    elapsed = run_work(env, thread, 0.010, bound)
    assert elapsed > 0.010


def test_memory_insensitive_stage_unaffected_by_pressure(env):
    memory = MemorySystem(env, MemorySpec(l3_mb=10.0))
    cpu = Cpu(env, CpuSpec(cores=8), memory=memory)
    memory.register_workload(20.0)
    memory.register_workload(20.0)
    thread = cpu.thread("t0")
    insensitive = StageCpuProfile(demand=1.0, memory_intensity=0.0)
    elapsed = run_work(env, thread, 0.010, insensitive)
    assert elapsed == pytest.approx(0.010)


def test_utilization_reflects_busy_fraction(env):
    cpu = Cpu(env, CpuSpec(cores=8))
    thread = cpu.thread("t0")

    def worker(env):
        yield from thread.run(0.5, StageCpuProfile(demand=2.0))
        yield env.timeout(0.5)

    env.process(worker(env))
    env.run()
    # 2 cores busy for half of 1 second == 1.0 core-seconds per second.
    assert cpu.utilization(1.0) == pytest.approx(1.0, rel=0.01)


def test_utilization_by_owner_separates_processes(env):
    cpu = Cpu(env, CpuSpec(cores=8))
    app = cpu.thread("app.main", owner="app")
    vnc = cpu.thread("vnc.compress", owner="vnc")

    def worker(env, thread, nominal):
        yield from thread.run(nominal, StageCpuProfile(demand=1.0))

    env.process(worker(env, app, 0.6))
    env.process(worker(env, vnc, 0.2))
    env.run()
    by_owner = cpu.utilization_by_owner(1.0)
    assert by_owner["app"] == pytest.approx(0.6, rel=0.01)
    assert by_owner["vnc"] == pytest.approx(0.2, rel=0.01)


def test_topdown_fractions_sum_to_one(env):
    cpu = Cpu(env, CpuSpec(cores=8))
    thread = cpu.thread("t0")
    run_work(env, thread, 0.010, StageCpuProfile(demand=1.0))
    fractions = cpu.cycle_breakdown().fractions()
    assert sum(fractions.values()) == pytest.approx(1.0)


def test_contention_shifts_cycles_to_backend(env):
    # Contended run on a small CPU.
    env_contended = type(env)()
    cpu_contended = Cpu(env_contended, CpuSpec(cores=1))
    threads = [cpu_contended.thread(f"t{i}", owner="app") for i in range(4)]

    def worker(env, thread):
        yield from thread.run(0.010, StageCpuProfile(demand=1.0))

    for thread in threads:
        env_contended.process(worker(env_contended, thread))
    env_contended.run()
    contended_backend = cpu_contended.cycle_breakdown("app").fractions()["backend_bound"]

    cpu_idle = Cpu(env, CpuSpec(cores=8))
    idle_thread = cpu_idle.thread("t0", owner="app")
    run_work(env, idle_thread, 0.010, StageCpuProfile(demand=1.0))
    idle_backend = cpu_idle.cycle_breakdown("app").fractions()["backend_bound"]

    assert contended_backend > idle_backend


def test_zero_work_is_free(env):
    cpu = Cpu(env, CpuSpec())
    thread = cpu.thread("t0")
    elapsed = run_work(env, thread, 0.0, StageCpuProfile(demand=1.0))
    assert elapsed == 0.0
    assert thread.busy_time == 0.0


def test_cycle_breakdown_add_accumulates():
    total = CycleBreakdown()
    total.add(CycleBreakdown(retiring=1.0, backend_bound=2.0))
    total.add(CycleBreakdown(frontend_bound=3.0, bad_speculation=4.0))
    assert total.total == pytest.approx(10.0)


def _reference_breakdown(thread, nominal, actual, profile):
    """One call's Top-Down cycles as a separate ``CycleBreakdown`` (the reference)."""
    demand = min(profile.demand, thread.cpu.spec.cores)
    cycles = actual * thread.cpu.spec.cycles_per_second * demand
    base_backend = 1.0 - (profile.base_retiring + profile.base_frontend
                          + profile.base_bad_speculation)
    stretch = max(actual / nominal, 1.0) if nominal > 0 else 1.0
    extra_backend = 1.0 - 1.0 / stretch
    scale = 1.0 - extra_backend
    return CycleBreakdown(
        retiring=cycles * profile.base_retiring * scale,
        frontend_bound=cycles * profile.base_frontend * scale,
        bad_speculation=cycles * profile.base_bad_speculation * scale,
        backend_bound=cycles * (base_backend * scale + extra_backend),
    )


def test_account_in_place_matches_summing_per_call_breakdowns(env):
    cpu = Cpu(env, CpuSpec(cores=4))
    thread = cpu.thread("t0")
    profiles = [StageCpuProfile(), StageCpuProfile(demand=6.0, base_retiring=0.41,
                                                   base_frontend=0.07,
                                                   base_bad_speculation=0.013),
                StageCpuProfile(demand=0.3, memory_intensity=0.9)]
    rng = np.random.default_rng(5)
    expected = CycleBreakdown()
    for step in range(500):
        profile = profiles[step % len(profiles)]
        nominal = float(rng.uniform(0.0, 0.02)) if step % 7 else 0.0
        actual = nominal * float(rng.uniform(0.8, 3.0)) + 1e-7 * step
        thread._account(nominal, actual, profile)
        expected.add(_reference_breakdown(thread, nominal, actual, profile))
    for name in ("retiring", "frontend_bound", "backend_bound", "bad_speculation"):
        assert getattr(thread.cycles, name).hex() == getattr(expected, name).hex(), name


def test_stage_profile_validation():
    with pytest.raises(ValueError):
        StageCpuProfile(base_retiring=0.6, base_frontend=0.3, base_bad_speculation=0.2)
    with pytest.raises(ValueError):
        StageCpuProfile(demand=0.0)
    with pytest.raises(ValueError):
        StageCpuProfile(memory_intensity=1.5)


def test_spec_derived_quantities():
    spec = CpuSpec(cores=8, frequency_ghz=3.6, smt=2)
    assert spec.cycles_per_second == pytest.approx(3.6e9)
