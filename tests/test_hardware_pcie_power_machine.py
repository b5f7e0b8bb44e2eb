"""Tests for the PCIe bus, power model/meter and machine composition."""

import pytest

from repro.hardware.machine import ClientMachine, MachineSpec, ServerMachine
from repro.hardware.pcie import PcieBus, PcieSpec
from repro.hardware.power import PowerModel, PowerSpec
from repro.sim.engine import SimulationError


def transfer_once(env, bus, size, direction):
    result = {}

    def proc(env):
        started = env.now
        yield from bus.transfer(size, direction)
        result["elapsed"] = env.now - started

    env.process(proc(env))
    env.run()
    return result["elapsed"]


# --- PCIe ---------------------------------------------------------------------

def test_transfer_time_matches_bandwidth(env):
    bus = PcieBus(env, PcieSpec(bandwidth_gbps=10.0, latency_us=0.0))
    elapsed = transfer_once(env, bus, 10e9, "from_gpu")
    assert elapsed == pytest.approx(1.0, rel=0.01)


def test_concurrent_transfers_share_bandwidth(env):
    bus = PcieBus(env, PcieSpec(bandwidth_gbps=10.0, latency_us=0.0))
    finish = []

    def worker(env):
        yield from bus.transfer(5e9, "from_gpu")
        finish.append(env.now)

    env.process(worker(env))
    env.process(worker(env))
    env.run()
    # Two 0.5-second transfers sharing the link take ~1 second each.
    assert max(finish) == pytest.approx(1.0, rel=0.05)


def test_directional_byte_counters(env):
    bus = PcieBus(env)
    transfer_once(env, bus, 1e6, "to_gpu")
    assert bus.bytes_by_direction["to_gpu"] == pytest.approx(1e6)
    assert bus.bytes_by_direction["from_gpu"] == 0.0


def test_bandwidth_usage_average(env):
    bus = PcieBus(env, PcieSpec(bandwidth_gbps=31.5))

    def proc(env):
        yield from bus.transfer(2e9, "from_gpu")
        yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    usage = bus.bandwidth_usage("from_gpu", elapsed=env.now)
    assert usage == pytest.approx(2e9 / env.now, rel=0.01)


def test_invalid_direction_rejected(env):
    bus = PcieBus(env)
    with pytest.raises(SimulationError):
        next(bus.transfer(1.0, "sideways"))
    with pytest.raises(SimulationError):
        bus.bandwidth_usage("sideways")


# --- Power ---------------------------------------------------------------------

def test_power_model_scales_with_utilization():
    model = PowerModel(PowerSpec(idle_watts=100.0, cpu_watts_per_core=10.0,
                                 gpu_max_dynamic_watts=200.0, per_instance_watts=5.0))
    idle = model.average_power(0.0, 0.0, 0)
    busy = model.average_power(4.0, 0.5, 1)
    assert idle == pytest.approx(100.0)
    assert busy == pytest.approx(100.0 + 40.0 + 100.0 + 5.0)


def test_per_instance_power_amortizes():
    model = PowerModel()
    one = model.per_instance_power(2.0, 0.3, 1)
    four = model.per_instance_power(6.0, 0.8, 4)
    assert four < one


def test_per_instance_power_requires_instances():
    model = PowerModel()
    with pytest.raises(ValueError):
        model.per_instance_power(1.0, 0.1, 0)


def test_power_meter_samples_and_integrates(env):
    machine = ServerMachine(env)
    meter = machine.power_meter
    meter.set_instance_count(2)
    env.process(meter.sampling_process(interval=1.0))
    env.run(until=5.0)
    assert len(meter.samples) >= 4
    assert meter.average_power() > 0
    assert meter.energy_joules(5.0) == pytest.approx(meter.average_power() * 5.0)
    assert meter.per_instance_power() == pytest.approx(meter.average_power() / 2)


def test_power_spec_validation():
    with pytest.raises(ValueError):
        PowerSpec(idle_watts=-1.0)


# --- Machines -------------------------------------------------------------------

def test_server_machine_composition(env):
    machine = ServerMachine(env, MachineSpec.paper_server())
    assert machine.cpu.spec.cores == 8
    assert machine.gpu.spec.memory_gb == pytest.approx(11.0)
    summary = machine.summary(1.0)
    assert set(summary) >= {"cpu_utilization_cores", "gpu_utilization",
                            "pcie_from_gpu_bytes_per_s", "l3_miss_rate"}


def test_client_machine_is_smaller_than_server(env):
    client = ClientMachine(env, MachineSpec.paper_client())
    server = ServerMachine(env, MachineSpec.paper_server())
    assert client.cpu.spec.cores < server.cpu.spec.cores
