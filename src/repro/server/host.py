"""Multi-tenant cloud host: the paper's testbed in one object.

A :class:`CloudHost` owns one server machine and any number of benchmark
instances (each with its own client machine, NIC and driving agent), runs
them together for a simulated measurement interval, and produces one
:class:`~repro.core.pictor.PerformanceReport` per instance plus
machine-level aggregates (power, PCIe, memory-system counters).  Every
experiment in :mod:`repro.experiments` is expressed in terms of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.apps.base import Application3D
from repro.apps.registry import create_benchmark
from repro.agents.human import HumanPlayer
from repro.core.monitors import ResourceMonitor
from repro.core.pictor import PerformanceReport, Pictor, PictorConfig
from repro.hardware.machine import MachineSpec, ServerMachine
from repro.server.container import Container, ContainerRuntime
from repro.server.session import RenderingSession, SessionConfig
from repro.sim.engine import Environment
from repro.sim.randomness import RandomStreams

__all__ = ["CloudHost", "HostConfig", "HostResult"]


@dataclass(frozen=True)
class HostConfig:
    """Configuration of one testbed run."""

    seed: int = 0
    machine_spec: MachineSpec = field(default_factory=MachineSpec.paper_server)
    pictor: PictorConfig = field(default_factory=PictorConfig)
    containerized: bool = False
    power_sampling_interval: float = 1.0
    monitor_interval: float = 1.0


@dataclass
class HostResult:
    """Everything a testbed run produced.

    Instances must stay picklable: the experiment execution subsystem
    (:mod:`repro.experiments.executor`) ships them back from worker
    processes and stores them in the on-disk result cache.  Anything
    attached to a report's ``extra`` channel therefore has to be plain
    data as well.
    """

    duration: float
    reports: list[PerformanceReport]
    average_power_watts: float
    per_instance_power_watts: float
    energy_joules: float
    machine_summary: dict[str, float]

    def report_for(self, benchmark: str, occurrence: int = 0) -> PerformanceReport:
        matches = [r for r in self.reports if r.benchmark == benchmark]
        if not matches:
            raise KeyError(f"no report for benchmark {benchmark!r}")
        return matches[occurrence]

    @property
    def mean_client_fps(self) -> float:
        if not self.reports:
            return 0.0
        return sum(r.client_fps for r in self.reports) / len(self.reports)

    def as_dict(self) -> dict:
        """A plain-data summary of the run.

        Used to compare results produced by different execution backends
        (serial, worker process, cache replay) and to serialize runs for
        external tooling; deliberately excludes the ``extra`` channel,
        whose contents are backend-internal.
        """
        return {
            "duration": self.duration,
            "average_power_watts": self.average_power_watts,
            "per_instance_power_watts": self.per_instance_power_watts,
            "energy_joules": self.energy_joules,
            "machine_summary": dict(self.machine_summary),
            "reports": [report.as_dict() for report in self.reports],
        }


class CloudHost:
    """One server machine hosting one or more benchmark instances."""

    def __init__(self, config: Optional[HostConfig] = None):
        self.config = config or HostConfig()
        self.env = Environment()
        self.streams = RandomStreams(self.config.seed)
        self.machine = ServerMachine(self.env, self.config.machine_spec)
        self.pictor = Pictor(self.config.pictor)
        self.container_runtime = ContainerRuntime(
            rng=self.streams.stream("containers"))
        self.monitor = ResourceMonitor(self.env, self.machine,
                                       interval=self.config.monitor_interval)
        self.sessions: list[RenderingSession] = []
        self.agents: list = []
        self._ran = False

    # -- instance management ----------------------------------------------------------
    def add_instance(self, benchmark: str,
                     agent_factory: Optional[Callable[[Application3D], object]] = None,
                     session_config: Optional[SessionConfig] = None,
                     containerized: Optional[bool] = None,
                     name: Optional[str] = None) -> RenderingSession:
        """Add one benchmark instance (and its client) to the host.

        ``agent_factory`` builds the driving agent from the instantiated
        application; the default is the synthetic human player.
        """
        index = len(self.sessions)
        name = name or f"{benchmark}-{index}"
        app = create_benchmark(benchmark, rng=self.streams.stream(f"{name}.app"))

        containerized = (self.config.containerized if containerized is None
                         else containerized)
        container: Optional[Container] = None
        if containerized:
            container = self.container_runtime.create(name)

        session = RenderingSession(
            env=self.env, machine=self.machine, app=app, streams=self.streams,
            name=name, config=session_config, pictor=self.pictor,
            container=container, client_index=index)

        if agent_factory is None:
            agent = HumanPlayer(app, rng=self.streams.stream(f"{name}.human"))
        else:
            agent = agent_factory(app)
        self.sessions.append(session)
        self.agents.append(agent)
        return session

    # -- tracing ------------------------------------------------------------------------
    def attach_tracer(self):
        """Attach and return a :class:`~repro.sim.trace.TraceRecorder`.

        Must be called before :meth:`run`; the recorder then captures the
        host's full processed-event sequence (the golden-trace subsystem
        uses this to prove kernel equivalence on real testbed runs).

        The recorder subscribes to ``self.env.bus``, so it composes with
        any other observer — attach several recorders, or mix one with an
        :class:`~repro.core.monitors.EventRateMonitor`; each sees every
        dispatched event in subscription order.  Detach an individual
        recorder with its ``close()``; the others stay attached.
        """
        from repro.sim.trace import TraceRecorder
        return TraceRecorder(self.env)

    # -- running ------------------------------------------------------------------------
    def run(self, duration: float, warmup: float = 2.0,
            fast_forward=None) -> HostResult:
        """Run every instance for ``warmup + duration`` simulated seconds.

        Measurements (FPS counters, power sampling) cover only the
        measurement interval after the warm-up, mirroring the paper's note
        that results stabilize after the first minutes of a session.

        With an enabled ``fast_forward``
        (:class:`repro.sim.fastforward.FastForwardConfig`) the
        measurement interval runs under temporal upscaling: the exact
        kernel covers short micro windows and steady stretches are
        advanced in coarse macro jumps that credit the same counters.
        The warm-up is always micro-simulated in full.
        """
        if self._ran:
            raise RuntimeError("a CloudHost can only be run once; create a new one")
        if duration <= 0:
            raise ValueError("duration must be positive")
        if warmup < 0:
            raise ValueError("warmup cannot be negative")
        self._ran = True

        for session, agent in zip(self.sessions, self.agents):
            session.start(agent)
        self.machine.power_meter.set_instance_count(len(self.sessions))

        if warmup > 0:
            self.env.run(until=self.env.now + warmup)

        # Reset per-interval counters after warm-up.
        measure_start = self.env.now
        for session in self.sessions:
            session.server_fps.start()
            session.server_fps.timestamps.clear()
            session.client_fps.start()
            session.client_fps.timestamps.clear()
        self.monitor.start()
        self.env.process(self.machine.power_meter.sampling_process(
            self.config.power_sampling_interval))

        if fast_forward is not None and fast_forward.enabled:
            from repro.sim.fastforward import run_fast_forward
            run_fast_forward(self, measure_start, duration, fast_forward)
            # The macro jumps credited the interval's counters, so the
            # nominal (virtual) duration is the measurement horizon.
            elapsed = duration
        else:
            self.env.run(until=measure_start + duration)
            elapsed = self.env.now - measure_start

        reports = [self.pictor.build_report(session, elapsed)
                   for session in self.sessions]
        instances = max(len(self.sessions), 1)
        average_power = self.machine.power_meter.average_power()
        result = HostResult(
            duration=elapsed,
            reports=reports,
            average_power_watts=average_power,
            per_instance_power_watts=average_power / instances,
            energy_joules=average_power * elapsed,
            machine_summary=self.machine.summary(elapsed),
        )
        return result
