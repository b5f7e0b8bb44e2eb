"""The benchmark's three workloads.

Every workload is a closed loop in one process: one caller issues one
operation, waits for it, then issues the next.  Inputs come only from
the workload seed (:func:`random.Random` seeded with the workload name
and the seed); the program under test receives only the generated
scenarios and jobs.  See ``perfbench/README.md`` for why each exists.

A workload has a set-up (timed, repeated) and a *cycle*: one pass over
all of its generated inputs.  The runner repeats cycles until the run's
time is up, or runs one untraced and one traced cycle for the per-layer
report.  Every cycle checks its outputs: a result digest must equal the
first cycle's, the recorded digest for the default and held-out seeds,
and (``socket_drain``) the in-process ``execute_job`` result.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import shutil
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from repro.agents.artifacts import ArtifactSpec, artifact_store, resolve_artifact
from repro.core.monitors import EventRateMonitor
from repro.experiments.executor import ExperimentSuite
from repro.experiments.jobs import ExperimentJob, execute_job
from repro.experiments.server import QueueServer
from repro.experiments.socket_queue import SocketQueue
from repro.experiments.worker import run_worker
from repro.scenarios import Placement, Scenario, SeedPolicy
from repro.scenarios.config import ExperimentConfig

#: The seed a run uses when ``--seed`` is not given.
DEFAULT_SEED = 1
#: The held-out seed: never used while tuning a change, so a perf claim
#: made on other seeds must also hold here.
HELD_OUT_SEED = 20261016

DIGESTS_FILE = Path(__file__).with_name("digests.json")

#: Keeps each seed's scenario offsets clear of the repo's fixed ones.
_OFFSET_RANGE = range(1000, 1_000_000)


def digest(result) -> str:
    """SHA-256 of ``HostResult.as_dict()`` in canonical JSON."""
    canonical = json.dumps(result.as_dict(), sort_keys=True,
                           separators=(",", ":"), default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def combined_digest(digests: dict) -> str:
    """One digest over many, independent of their order."""
    canonical = json.dumps(sorted(digests.items()), separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def recorded_digests(workload: str, seed: int):
    """The committed digests for ``seed``, or None when none are recorded."""
    recorded = json.loads(DIGESTS_FILE.read_text())
    return recorded.get(workload, {}).get(str(seed))


def model_counts(results) -> dict[str, int]:
    """Exact model counts summed over ``HostResult`` reports."""
    counts = defaultdict(int)
    for result in results:
        for report in result.reports:
            counts["core.hook_fires"] += report.extra["hook_fires"]
            counts["graphics.frames_rendered"] += round(report.server_fps * report.duration)
            counts["client.frames_displayed"] += round(report.client_fps * report.duration)
            counts["core.inputs_tracked"] += report.inputs_tracked
    return dict(counts)


@dataclass
class Cycle:
    """What one pass over a workload's inputs measured."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Simulated instance-seconds: (warm-up + interval) x instances.
    sim_s: float = 0.0
    job_ms: list[float] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    results: list = field(default_factory=list)
    #: Timed public calls, by per-layer metric name.
    timers: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    setup_s: list[float] = field(default_factory=list)
    #: The runs ``sim.*`` metrics describe: their CPU, simulated
    #: instance-seconds, and (traced cycles) dispatched kernel events.
    model_cpu_s: float = 0.0
    model_sim_s: float = 0.0
    events: int = 0
    replay_jobs_per_s: float = 0.0
    #: ``(cpu_s, wall_s)`` of the yardstick measured right before the cycle.
    yardstick: tuple[float, float] = (0.0, 0.0)


def _sim_seconds(scenario: Scenario) -> float:
    config = scenario.config
    return (config.warmup_s + config.duration_s) * len(scenario.benchmarks)


class Workload:
    """Inputs from the seed, set-up, cycles and the output checks."""

    name = ""
    #: Set-ups timed before the first cycle.
    setups = 0
    #: End-to-end metrics stated in the yardstick's reference seconds:
    #: those whose time is interpreted simulator code in one thread,
    #: bound by the CPU as the yardstick is.
    scaled = frozenset({"setup_s", "cpu_s_per_sim_s", "jobs_per_s"})

    def __init__(self, seed: int, tally, tmp_root: Path):
        self.seed = seed
        self.tally = tally
        self.tmp_root = tmp_root
        self.rng = random.Random(f"{self.name}:{seed}")
        self.setup_s: list[float] = []
        self.timers: dict[str, list[float]] = defaultdict(list)
        self._reference: dict[str, str] = {}

    @staticmethod
    def settle() -> None:
        """Before a timed operation: collect the previous one's garbage, so
        every operation starts from the same heap and pays only for its own."""
        gc.collect()

    def prepare(self) -> None:
        for index in range(self.setups):
            self.settle()
            started = time.perf_counter()
            self.set_up(index)
            self.setup_s.append(time.perf_counter() - started)

    def set_up(self, index: int) -> None:
        raise NotImplementedError

    def cycle(self, traced: bool = False) -> Cycle:
        raise NotImplementedError

    def count_events(self, cycle: Cycle) -> None:
        """Fill ``cycle.events`` after a traced cycle, if the cycle could not."""

    def check_digest(self, label: str, value: str) -> bool:
        """Equal to the first cycle's digest for ``label``."""
        reference = self._reference.setdefault(label, value)
        return self.tally.check(value == reference,
                                f"{label}: digest {value[:12]} != first cycle's {reference[:12]}")

    def recorded_form(self, cycle: Cycle) -> dict:
        return dict(cycle.digests)

    def check_recorded(self, cycle: Cycle) -> None:
        """Compare with the committed digests when this seed has them."""
        recorded = recorded_digests(self.name, self.seed)
        if recorded is not None:
            self.tally.check(self.recorded_form(cycle) == recorded,
                             f"digests differ from {DIGESTS_FILE.name} for seed {self.seed}")


class HostWorkload(Workload):
    """Scenarios built with ``Scenario.build_host`` and run with ``CloudHost.run``."""

    #: Whether building every host is the whole set-up, so each cycle's
    #: builds are one more set-up sample, spread over the run.
    builds_are_setup = False

    def __init__(self, seed: int, tally, tmp_root: Path):
        super().__init__(seed, tally, tmp_root)
        self.scenarios = self.generate()

    def generate(self) -> list[tuple[str, Scenario]]:
        raise NotImplementedError

    def set_up(self, index: int) -> None:
        for _, scenario in self.scenarios:
            self._build(scenario, self.timers)

    @staticmethod
    def _build(scenario: Scenario, timers):
        started = time.perf_counter()
        host = scenario.build_host()
        timers["scenarios.build_host_s"].append(time.perf_counter() - started)
        return host

    def cycle(self, traced: bool = False) -> Cycle:
        cycle = Cycle()
        for label, scenario in self.scenarios:
            config = scenario.config
            self.settle()
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                host = self._build(scenario, cycle.timers)
                monitor = EventRateMonitor(host.env) if traced else None
                result = host.run(duration=config.duration_s, warmup=config.warmup_s)
            except Exception as error:  # counted, reported, and the run goes on
                self.tally.fail(f"{label}: {error!r}")
                continue
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            if monitor is not None:
                monitor.close()
                cycle.events += monitor.total
            cycle.wall_s += wall
            cycle.cpu_s += cpu
            cycle.sim_s += _sim_seconds(scenario)
            cycle.job_ms.append(wall * 1e3)
            cycle.results.append(result)
            cycle.digests[label] = digest(result)
            self.check_digest(label, cycle.digests[label])
        builds = cycle.timers["scenarios.build_host_s"]
        if self.builds_are_setup and len(builds) == len(self.scenarios):
            cycle.setup_s.append(sum(builds))
        cycle.model_cpu_s, cycle.model_sim_s = cycle.cpu_s, cycle.sim_s
        return cycle


class Mix3(HostWorkload):
    """Both ``examples/scenarios/mix3.json`` entries, human agents, 30+3 s."""

    name = "mix3"
    setups = 20
    builds_are_setup = True
    SPEC = Path(__file__).resolve().parents[1] / "examples" / "scenarios" / "mix3.json"

    def generate(self):
        entries = json.loads(self.SPEC.read_text())
        offsets = self.rng.sample(_OFFSET_RANGE, len(entries))
        scenarios = []
        for index, (entry, offset) in enumerate(zip(entries, offsets)):
            entry = dict(entry, seed={"offset": offset})
            scenarios.append((f"mix3-{index}", Scenario.from_dict(entry, ExperimentConfig())))
        return scenarios


class Intelligent(HostWorkload):
    """STK + RE on one host, both driven by trained intelligent clients.

    Each of the three scenarios uses its own training-seed offset, so
    each set-up trains two agents from a cold artifact memo.
    """

    name = "intelligent"
    #: Its set-up is agent training, vectorised numpy the yardstick does
    #: not model: scaled, its set medians moved 1.34x, raw 1.15x.
    scaled = frozenset({"cpu_s_per_sim_s", "jobs_per_s"})
    SCENARIOS = 3
    setups = SCENARIOS
    BENCHMARKS = ("STK", "RE")

    def generate(self):
        if artifact_store() is not None:
            raise RuntimeError("intelligent must start with no artifact store bound")
        config = ExperimentConfig()
        train_offsets = self.rng.sample(_OFFSET_RANGE, self.SCENARIOS)
        seed_offsets = self.rng.sample(_OFFSET_RANGE, self.SCENARIOS)
        scenarios = []
        for index, (train, offset) in enumerate(zip(train_offsets, seed_offsets)):
            placements = tuple(Placement(name, agent=f"intelligent@{train}")
                               for name in self.BENCHMARKS)
            scenario = Scenario(placements=placements, config=config,
                                seed=SeedPolicy(offset=offset))
            scenarios.append((f"intelligent-{index}", scenario))
        self._train_offsets = train_offsets
        return scenarios

    def set_up(self, index: int) -> None:
        _, scenario = self.scenarios[index]
        for benchmark in self.BENCHMARKS:
            # The spec bind_scenario_agent resolves for "intelligent@K".
            spec = ArtifactSpec.for_config(benchmark, scenario.config,
                                           seed_offset=self._train_offsets[index])
            started = time.perf_counter()
            resolve_artifact(spec)
            self.timers["agents.train_s"].append(time.perf_counter() - started)
        self._build(scenario, self.timers)


class _TimedSocketQueue(SocketQueue):
    """A :class:`SocketQueue` that times each call into the transport.

    A job's time runs from the start of its claim to the return of its
    ``complete``; its execute time is the ``runtime_s`` ``run_worker``
    measured around ``execute_job`` and hands to ``complete``.
    """

    def __init__(self, addr: str, cycle: Cycle):
        super().__init__(addr)
        self.cycle = cycle
        self.claimed: list[str] = []
        self._claim_started = 0.0

    def _time(self, metric: str, started: float) -> float:
        now = time.perf_counter()
        self.cycle.timers[metric].append((now - started) * 1e3)
        return now

    def submit_many(self, jobs):
        started = time.perf_counter()
        keys = super().submit_many(jobs)
        self._time("experiments.socket_queue.submit_ms", started)
        return keys

    def claim(self, worker_id=None):
        started = time.perf_counter()
        claimed = super().claim(worker_id)
        if claimed is not None:
            self._time("experiments.socket_queue.claim_ms", started)
            self._claim_started = started
            self.claimed.append(claimed.key)
        return claimed

    def complete(self, claimed, result, runtime_s=None):
        self.cycle.timers["experiments.jobs.execute_ms"].append(runtime_s * 1e3)
        started = time.perf_counter()
        super().complete(claimed, result, runtime_s=runtime_s)
        done = self._time("experiments.socket_queue.complete_ms", started)
        self.cycle.job_ms.append((done - self._claim_started) * 1e3)

    def result_entry(self, key):
        started = time.perf_counter()
        entry = super().result_entry(key)
        self._time("experiments.socket_queue.result_ms", started)
        return entry


class SocketDrain(Workload):
    """Tiny single-app jobs through an in-process ``QueueServer``.

    Cold: one batch SUBMIT, one in-process ``run_worker`` drains it over
    one ``SocketQueue`` connection, then every result is fetched.  Warm:
    the same jobs replayed through ``ExperimentSuite(queue_addr=...)``,
    every one a stored result.  Each cycle starts a fresh server over a
    fresh queue directory; that start-up is the cycle's set-up.
    """

    name = "socket_drain"
    setups = 4
    #: Its time is spread over client, worker and server threads and the
    #: disk; scaled by the yardstick, its spread over runs tripled.
    scaled = frozenset()
    SETUP_BATCH = 5
    JOBS = 300
    SAMPLE = 4
    #: 0.1 simulated seconds a job keeps execution near a third of the drain.
    CONFIG = ExperimentConfig(duration_s=0.08, warmup_s=0.02)

    def __init__(self, seed: int, tally, tmp_root: Path):
        super().__init__(seed, tally, tmp_root)
        names = self.CONFIG.benchmarks
        offsets = self.rng.sample(_OFFSET_RANGE, self.JOBS)
        self.jobs = [ExperimentJob(Scenario.single(self.rng.choice(names), self.CONFIG,
                                                   seed_offset=offset))
                     for offset in offsets]
        self.keys = [job.key() for job in self.jobs]
        if len(set(self.keys)) != len(self.keys):
            raise RuntimeError("generated jobs are not distinct")
        self.sample = self.rng.sample(range(self.JOBS), self.SAMPLE)
        self._cold: dict[str, str] = {}

    def recorded_form(self, cycle: Cycle) -> dict:
        return {"all-jobs": combined_digest(cycle.digests)}

    def _open(self, cycle: Cycle):
        """The set-up: a fresh queue directory, a started server, one connection."""
        root = Path(tempfile.mkdtemp(prefix="queue-", dir=self.tmp_root))
        server = QueueServer(root).start()
        queue = _TimedSocketQueue(server.address, cycle)
        try:
            queue.counts()  # connects
        except BaseException:
            self._close(root, server, queue)
            raise
        return root, server, queue

    @staticmethod
    def _close(root: Path, server: QueueServer, queue: SocketQueue) -> None:
        queue.close()
        server.stop()
        shutil.rmtree(root, ignore_errors=True)

    @classmethod
    def _close_all(cls, opened) -> None:
        """Tear several servers down together: each stop waits out one
        accept-loop poll (0.5 s), so stopping them one by one would not."""
        threads = [threading.Thread(target=cls._close, args=entry) for entry in opened]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def prepare(self) -> None:
        """Set-ups beyond the one each cycle times, so the median has
        enough samples.  Each round opens ``SETUP_BATCH`` servers one after
        another, closing each client connection before the next opens,
        then tears them all down untimed."""
        for _ in range(self.setups):
            opened = []
            try:
                for _ in range(self.SETUP_BATCH):
                    self.settle()
                    started = time.perf_counter()
                    opened.append(self._open(Cycle()))
                    self.setup_s.append(time.perf_counter() - started)
                    opened[-1][2].close()
            finally:
                self._close_all(opened)

    def cycle(self, traced: bool = False) -> Cycle:
        """One drain; an exception in any phase is counted as a failed
        operation and the cycle returns what it measured."""
        cycle = Cycle()
        self.settle()
        started = time.perf_counter()
        try:
            root, server, queue = self._open(cycle)
        except Exception as error:  # counted, reported, and the run goes on
            self.tally.fail(f"server start-up: {error!r}")
            return cycle
        cycle.setup_s.append(time.perf_counter() - started)
        try:
            self._cold_phase(cycle, queue)
            queue.close()
            self.settle()
            self._warm_phase(cycle, server.address)
        except Exception as error:
            self.tally.fail(f"drain: {error!r}")
        finally:
            self._close(root, server, queue)
        try:
            self._sample_check(cycle)
        except Exception as error:
            self.tally.fail(f"sample check: {error!r}")
        return cycle

    def _cold_phase(self, cycle: Cycle, queue: _TimedSocketQueue) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        keys = queue.submit_many(self.jobs)
        executed = run_worker(queue, worker_id="perfbench", poll_s=0.01,
                              max_jobs=len(self.jobs), idle_timeout_s=2.0)
        entries = [queue.result_entry(key) for key in keys]
        cycle.wall_s = time.perf_counter() - wall0
        cycle.cpu_s = time.process_time() - cpu0
        cycle.sim_s = sum(_sim_seconds(job.scenario) for job in self.jobs)

        tally = self.tally
        tally.check(keys == self.keys, "submitted keys differ from the jobs' keys")
        tally.check(executed == len(self.jobs),
                    f"worker completed {executed} of {len(self.jobs)} jobs")
        tally.check(len(queue.claimed) == len(set(queue.claimed)),
                    "a job was claimed twice")
        tally.check(set(queue.claimed) == set(keys), "claimed keys differ from submitted")
        for key, entry in zip(keys, entries):
            if not tally.check(entry is not None, f"job {key[:12]}: no result"):
                continue
            result = entry["result"]
            cycle.results.append(result)
            cycle.digests[key] = digest(result)
            self.check_digest(key, cycle.digests[key])
        self._cold = cycle.digests

    def _warm_phase(self, cycle: Cycle, addr: str) -> None:
        started = time.perf_counter()
        with ExperimentSuite(queue_addr=addr, spawn_workers=False, timeout_s=60.0) as suite:
            replayed = suite.run(self.jobs)
        cycle.replay_jobs_per_s = len(self.jobs) / (time.perf_counter() - started)
        for key, result in zip(self.keys, replayed):
            self.tally.check(digest(result) == self._cold.get(key),
                             f"job {key[:12]}: warm replay differs from cold result")

    def _sample_check(self, cycle: Cycle) -> None:
        """A seeded sample re-executed in-process must equal the drained result."""
        for index in self.sample:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            result = execute_job(self.jobs[index])
            cycle.model_cpu_s += time.process_time() - cpu0
            cycle.model_sim_s += _sim_seconds(self.jobs[index].scenario)
            key = self.keys[index]
            self.tally.check(digest(result) == self._cold.get(key),
                             f"job {key[:12]}: in-process execute_job differs")

    def count_events(self, cycle: Cycle) -> None:
        """Kernel events of the seeded sample (the drained jobs build their
        hosts inside the worker), with the bus monitor attached."""
        for index in self.sample:
            job = self.jobs[index]
            host = job.scenario.build_host()
            monitor = EventRateMonitor(host.env)
            config = job.scenario.config
            result = host.run(duration=config.duration_s, warmup=config.warmup_s)
            monitor.close()
            cycle.events += monitor.total
            self.tally.check(digest(result) == self._cold.get(self.keys[index]),
                             f"job {self.keys[index][:12]}: monitored run differs")


WORKLOADS = {cls.name: cls for cls in (Mix3, Intelligent, SocketDrain)}
