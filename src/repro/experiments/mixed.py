"""Figures 18–19 and the Section 5.3 energy argument: mixed benchmark pairs.

Fifteen unordered pairs can be formed from the six benchmarks.  Figure 18
reports the client FPS of both members of each pair; Figure 19 zooms in
on Dota 2, reporting its performance loss and CPU/GPU cache-miss-rate
increases as a function of which benchmark shares the server — the
paper's illustration that application contentiousness varies widely and
correlates across the CPU and GPU cache hierarchies.  Section 5.3 also
notes that sharing one server saves at least ~37% energy compared with
running the two applications on two servers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from repro.apps.registry import all_benchmarks
from repro.experiments.jobs import ExperimentJob
from repro.scenarios.config import ExperimentConfig
from repro.scenarios.scenario import Scenario

__all__ = ["ContentiousnessRow", "PairResult", "all_pairs",
           "pair_fps_jobs", "pair_fps_from_results",
           "contentiousness_jobs", "contentiousness_from_results",
           "pair_energy_jobs", "pair_energy_from_results",
           "n_way_jobs", "n_way_fps_from_results"]


#: The paper's QoS floor: every instance must hold at least this client FPS.
QOS_CLIENT_FPS = 25.0


def all_pairs(benchmarks=None) -> list[tuple[str, str]]:
    """Every unordered benchmark pair, in a stable order.

    Defaults to the full apps registry, so newly registered workloads
    join the pair sweep automatically; the paper's standard six-benchmark
    suite yields its fifteen pairs.
    """
    benchmarks = list(benchmarks if benchmarks is not None
                      else all_benchmarks())
    return list(combinations(benchmarks, 2))


@dataclass
class PairResult:
    """Client FPS (and supporting data) for one mixed pair."""

    pair: tuple[str, str]
    client_fps: dict[str, float] = field(default_factory=dict)
    server_fps: dict[str, float] = field(default_factory=dict)
    total_power_watts: float = 0.0

    @property
    def both_meet_qos(self) -> bool:
        """Whether both members stay above the QoS floor."""
        return all(fps >= QOS_CLIENT_FPS for fps in self.client_fps.values())


@dataclass
class ContentiousnessRow:
    """Figure 19: Dota 2's sensitivity to one co-runner."""

    target: str
    co_runner: str
    performance_loss_percent: float
    cpu_cache_miss_increase: float
    gpu_cache_miss_increase: Optional[float]


# -- Figure 18 ------------------------------------------------------------------------
def pair_fps_jobs(pairs, config: ExperimentConfig) -> list[ExperimentJob]:
    """One mixed-pair scenario per pair, as declarative jobs."""
    return [ExperimentJob(Scenario.mixed(pair, config,
                                         seed_offset=300 + index))
            for index, pair in enumerate(pairs)]


def pair_fps_from_results(pairs, results) -> list[PairResult]:
    rows = []
    for (left, right), run in zip(pairs, results):
        left_report, right_report = run.reports
        rows.append(PairResult(
            pair=(left, right),
            client_fps={left: left_report.client_fps,
                        right: right_report.client_fps},
            server_fps={left: left_report.server_fps,
                        right: right_report.server_fps},
            total_power_watts=run.average_power_watts,
        ))
    return rows


# -- Figure 19 ------------------------------------------------------------------------
def contentiousness_jobs(target: str, co_runners,
                         config: ExperimentConfig) -> list[ExperimentJob]:
    """The solo run (first) followed by one pair run per co-runner."""
    jobs = [ExperimentJob(Scenario.single(target, config, seed_offset=400))]
    jobs.extend(ExperimentJob(Scenario.mixed((target, co_runner), config,
                                             seed_offset=410 + index))
                for index, co_runner in enumerate(co_runners))
    return jobs


def contentiousness_from_results(target: str, co_runners,
                                 results) -> list[ContentiousnessRow]:
    solo_report = results[0].reports[0]
    solo_fps = solo_report.client_fps
    solo_l3 = solo_report.cpu_pmu.get("l3_miss_rate", 0.0)
    solo_gpu = solo_report.gpu_pmu.get("l2_miss_rate")

    rows = []
    for co_runner, run in zip(co_runners, results[1:]):
        target_report = run.reports[0]
        loss = 0.0
        if solo_fps > 0:
            loss = max(0.0, (solo_fps - target_report.client_fps) / solo_fps * 100.0)
        l3_increase = target_report.cpu_pmu.get("l3_miss_rate", 0.0) - solo_l3
        gpu_l2 = target_report.gpu_pmu.get("l2_miss_rate")
        gpu_increase = None
        if gpu_l2 is not None and solo_gpu is not None:
            gpu_increase = gpu_l2 - solo_gpu
        rows.append(ContentiousnessRow(
            target=target, co_runner=co_runner,
            performance_loss_percent=loss,
            cpu_cache_miss_increase=l3_increase,
            gpu_cache_miss_increase=gpu_increase,
        ))
    return rows


# -- Section 5.3 energy argument ------------------------------------------------------
def pair_energy_jobs(pair: tuple[str, str],
                     config: ExperimentConfig) -> list[ExperimentJob]:
    """The shared run and the two solo runs of the energy comparison."""
    left, right = pair
    return [
        ExperimentJob(Scenario.mixed((left, right), config, seed_offset=500)),
        ExperimentJob(Scenario.single(left, config, seed_offset=501)),
        ExperimentJob(Scenario.single(right, config, seed_offset=502)),
    ]


def pair_energy_from_results(results) -> dict[str, float]:
    """Power of the pair on one server vs. each app on its own server."""
    shared, solo_left, solo_right = results
    separate_power = solo_left.average_power_watts + solo_right.average_power_watts
    shared_power = shared.average_power_watts
    saving = 0.0
    if separate_power > 0:
        saving = (1.0 - shared_power / separate_power) * 100.0
    return {
        "shared_power_watts": shared_power,
        "separate_power_watts": separate_power,
        "energy_saving_percent": saving,
    }


# -- Deeper mixes: 3–4 mixed instances per server -------------------------------------
def n_way_jobs(scenarios) -> list[ExperimentJob]:
    """One job per N-way mix scenario (see :func:`repro.scenarios.n_way_mixes`)."""
    return [ExperimentJob(scenario) for scenario in scenarios]


def n_way_fps_from_results(scenarios, results) -> list[dict[str, object]]:
    """One row per mix: per-member client FPS floor/mean and the QoS verdict."""
    rows = []
    for scenario, run in zip(scenarios, results):
        fps = [report.client_fps for report in run.reports]
        rows.append({
            "mix": "+".join(scenario.benchmarks),
            "instances": len(run.reports),
            "min_client_fps": min(fps),
            "mean_client_fps": sum(fps) / len(fps),
            "all_meet_qos": all(f >= QOS_CLIENT_FPS for f in fps),
            "total_power_watts": run.average_power_watts,
        })
    return rows
