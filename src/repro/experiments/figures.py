"""The figure registry: every paper artefact as (jobs, aggregate) pair.

Each :class:`FigureSpec` declares the experiment jobs a figure needs and
an aggregate that folds the job results into printable rows.  The
``python -m repro.experiments`` CLI and the benchmark harnesses both go
through :func:`run_figure`, so a figure executes identically whether it
runs serially, fans out over worker processes, or replays from cache —
and figures that slice the same testbed runs (10–13 share one sweep,
8–9 share the characterization runs) deduplicate automatically.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Optional

from repro.experiments import (
    ablations,
    accuracy,
    architecture,
    characterization,
    containers,
    feature_matrix,
    mixed,
    optimizations,
    overhead,
    power,
    scaling,
)
from repro.experiments.executor import ExperimentSuite, run_jobs
from repro.experiments.jobs import ExperimentJob
from repro.scenarios.config import ExperimentConfig
from repro.scenarios.mixes import n_way_mixes

__all__ = ["FIGURES", "FigureSpec", "figure_names", "run_figure"]

@dataclass(frozen=True)
class FigureSpec:
    """One paper artefact: its jobs and its result aggregation."""

    name: str
    title: str
    build_jobs: Callable[[ExperimentConfig], list[ExperimentJob]]
    aggregate: Callable[[ExperimentConfig, list], list[dict[str, object]]]


def _rows(dataclass_rows) -> list[dict[str, object]]:
    return [asdict(row) for row in dataclass_rows]


# -- per-figure jobs / aggregates -----------------------------------------------------
def _sweep_figure(jobs_fn, points_fn, project):
    """A figure that runs one colocation sweep per configured benchmark."""
    def build_jobs(config: ExperimentConfig) -> list[ExperimentJob]:
        jobs = []
        for benchmark in config.benchmarks:
            jobs.extend(jobs_fn(benchmark, config))
        return jobs

    def aggregate(config: ExperimentConfig, results) -> list[dict[str, object]]:
        rows = []
        per_bench = config.max_instances
        for index, benchmark in enumerate(config.benchmarks):
            chunk = results[index * per_bench:(index + 1) * per_bench]
            for point in points_fn(benchmark, chunk):
                rows.append({"benchmark": benchmark, **project(point)})
        return rows

    return build_jobs, aggregate


def _fig06_jobs(config):
    return accuracy.accuracy_jobs(config.benchmarks, config)


def _fig06_cells(row) -> dict[str, object]:
    cells: dict[str, object] = {"benchmark": row.benchmark}
    cells.update({f"{m}_rtt_ms": row.mean_rtt_ms[m]
                  for m in accuracy.METHODOLOGIES})
    cells.update({f"{m}_error_pct": row.error_percent[m]
                  for m in ("IC", "DB", "CH", "SM")})
    return cells


def _fig06_aggregate(config, results):
    return [_fig06_cells(row) for row in results]


def _fig06_split_jobs(config):
    return accuracy.split_accuracy_jobs(config.benchmarks, config)


def _fig06_split_aggregate(config, results):
    # Six results per benchmark: the train-job summary (dropped — it
    # exists to drain before the measurement wave) then one
    # MethodologyResult per methodology, reassembled into the exact row
    # the fused fig06 path prints.
    rows = []
    per_bench = 1 + len(accuracy.METHODOLOGIES)
    for index, benchmark in enumerate(config.benchmarks):
        chunk = results[index * per_bench:(index + 1) * per_bench]
        row = accuracy.assemble_accuracy_row(benchmark, chunk[1:])
        rows.append(_fig06_cells(row))
    return rows


def _fig07_jobs(config):
    return accuracy.inference_jobs(config.benchmarks, config)


def _fig07_aggregate(config, results):
    return [{"benchmark": benchmark, **row}
            for benchmark, row in zip(config.benchmarks, results)]


def _sec4_jobs(config):
    return overhead.overhead_jobs(config.benchmarks, config)


def _sec4_aggregate(config, results):
    summary = overhead.framework_overhead_from_results(config.benchmarks, results)
    return [{"benchmark": row.benchmark, "native_fps": row.native_fps,
             "instrumented_fps": row.instrumented_fps,
             "overhead_pct": row.overhead_percent}
            for row in summary.rows]


def _characterization_jobs(config):
    return characterization.characterization_jobs(config.benchmarks, config)


def _fig08_aggregate(config, results):
    return _rows(characterization.utilization_from_results(
        config.benchmarks, results))


def _fig09_aggregate(config, results):
    return _rows(characterization.bandwidth_from_results(
        config.benchmarks, results))


def _fig17_jobs(config):
    jobs = []
    for benchmark in config.benchmarks:
        jobs.extend(power.power_jobs(benchmark, config))
    return jobs


def _fig17_aggregate(config, results):
    rows = []
    per_bench = config.max_instances
    for index, benchmark in enumerate(config.benchmarks):
        chunk = results[index * per_bench:(index + 1) * per_bench]
        points = power.power_points_from_results(benchmark, chunk)
        for point in points:
            rows.append({**asdict(point),
                         "reduction_pct": point.reduction_vs(points[0])})
    return rows


def _fig18_jobs(config):
    return mixed.pair_fps_jobs(mixed.all_pairs(config.benchmarks), config)


def _fig18_aggregate(config, results):
    pairs = mixed.all_pairs(config.benchmarks)
    rows = []
    for result in mixed.pair_fps_from_results(pairs, results):
        left, right = result.pair
        rows.append({"pair": f"{left}+{right}",
                     "fps_a": result.client_fps[left],
                     "fps_b": result.client_fps[right],
                     "both_meet_qos": result.both_meet_qos,
                     "total_power_watts": result.total_power_watts})
    return rows


def _fig19_jobs(config):
    co_runners = [b for b in config.benchmarks if b != "D2"]
    return mixed.contentiousness_jobs("D2", co_runners, config)


def _fig19_aggregate(config, results):
    co_runners = [b for b in config.benchmarks if b != "D2"]
    return _rows(mixed.contentiousness_from_results("D2", co_runners, results))


def _nway_jobs(config):
    return mixed.n_way_jobs(n_way_mixes(config))


def _nway_aggregate(config, results):
    return mixed.n_way_fps_from_results(n_way_mixes(config), results)


def _fig20_jobs(config):
    return containers.container_jobs(config.benchmarks, config)


def _fig20_aggregate(config, results):
    summary = containers.container_overhead_from_results(config.benchmarks, results)
    return [{"benchmark": row.benchmark,
             "bare_fps": row.bare_fps, "container_fps": row.container_fps,
             "fps_overhead_pct": row.fps_overhead_percent,
             "rtt_overhead_pct": row.rtt_overhead_percent,
             "gpu_render_overhead_pct": row.gpu_render_overhead_percent}
            for row in summary.rows]


def _fig22_jobs(config):
    return optimizations.optimization_jobs(config.benchmarks, config)


def _fig22_aggregate(config, results):
    summary = optimizations.optimization_rows_from_results(
        config.benchmarks, results)
    return [{"benchmark": row.benchmark,
             "baseline_server_fps": row.baseline_server_fps,
             "optimized_server_fps": row.optimized_server_fps,
             "server_fps_gain_pct": row.server_fps_improvement_percent,
             "client_fps_gain_pct": row.client_fps_improvement_percent,
             "rtt_reduction_pct": row.rtt_reduction_percent}
            for row in summary.rows]


def _ablation_jobs(config):
    return ablations.contention_jobs("D2", config.max_instances, config)


def _ablation_aggregate(config, results):
    return [ablations.contention_from_results(results)]


def _table4_jobs(config):
    return []


def _table4_aggregate(config, results):
    return feature_matrix.feature_matrix()


_SCALING_PROJECTIONS = {
    "fig10": lambda p: {"instances": p.instances, "server_fps": p.server_fps,
                        "client_fps": p.client_fps},
    "fig11": lambda p: {"instances": p.instances, "rtt_ms": p.rtt_ms,
                        **{f"{k}_ms": v for k, v in p.rtt_breakdown_ms.items()}},
    "fig12": lambda p: {"instances": p.instances,
                        **{f"{k}_ms": v for k, v in p.server_breakdown_ms.items()}},
    "fig13": lambda p: {"instances": p.instances,
                        **{f"{k}_ms": v
                           for k, v in p.application_breakdown_ms.items()}},
}

_ARCHITECTURE_PROJECTIONS = {
    "fig14": lambda p: {"instances": p.instances, **p.topdown},
    "fig15": lambda p: {"instances": p.instances, "l3_miss_rate": p.l3_miss_rate},
    "fig16": lambda p: {"instances": p.instances,
                        "gpu_l2_miss_rate": p.gpu_l2_miss_rate,
                        "gpu_texture_miss_rate": p.gpu_texture_miss_rate},
}

_SCALING_TITLES = {
    "fig10": "Figure 10: server / client FPS vs. colocated instances",
    "fig11": "Figure 11: RTT breakdown vs. colocated instances",
    "fig12": "Figure 12: server-time breakdown vs. colocated instances",
    "fig13": "Figure 13: application-time breakdown vs. colocated instances",
    "fig14": "Figure 14: Top-Down cycle breakdown vs. colocated instances",
    "fig15": "Figure 15: L3 miss rate vs. colocated instances",
    "fig16": "Figure 16: GPU cache miss rates vs. colocated instances",
}


def _build_registry() -> dict[str, FigureSpec]:
    registry: dict[str, FigureSpec] = {}

    def add(name, title, build_jobs, aggregate):
        registry[name] = FigureSpec(name=name, title=title,
                                    build_jobs=build_jobs, aggregate=aggregate)

    add("fig06", "Figure 6 / Table 3: methodology accuracy",
        _fig06_jobs, _fig06_aggregate)
    add("fig06-split", "Figure 6 / Table 3: methodology accuracy",
        _fig06_split_jobs, _fig06_split_aggregate)
    add("fig07", "Figure 7: intelligent-client inference times",
        _fig07_jobs, _fig07_aggregate)
    add("sec4", "Section 4: measurement framework overhead",
        _sec4_jobs, _sec4_aggregate)
    add("fig08", "Figure 8: CPU / GPU utilization per benchmark",
        _characterization_jobs, _fig08_aggregate)
    add("fig09", "Figure 9: network / PCIe bandwidth per benchmark",
        _characterization_jobs, _fig09_aggregate)
    for name, project in _SCALING_PROJECTIONS.items():
        build_jobs, aggregate = _sweep_figure(
            scaling.scaling_jobs, scaling.scaling_points_from_results, project)
        add(name, _SCALING_TITLES[name], build_jobs, aggregate)
    for name, project in _ARCHITECTURE_PROJECTIONS.items():
        build_jobs, aggregate = _sweep_figure(
            architecture.architecture_jobs,
            architecture.architecture_points_from_results, project)
        add(name, _SCALING_TITLES[name], build_jobs, aggregate)
    add("fig17", "Figure 17: per-instance power under colocation",
        _fig17_jobs, _fig17_aggregate)
    add("fig18", "Figure 18: mixed-pair client FPS",
        _fig18_jobs, _fig18_aggregate)
    add("fig19", "Figure 19: Dota 2 contentiousness",
        _fig19_jobs, _fig19_aggregate)
    add("nway", "Beyond the paper: 3/4-way mixed-instance client FPS",
        _nway_jobs, _nway_aggregate)
    add("fig20", "Figure 20: container overhead",
        _fig20_jobs, _fig20_aggregate)
    add("fig22", "Figure 22: frame-copy optimization gains",
        _fig22_jobs, _fig22_aggregate)
    add("ablation", "Ablation: contention model on/off",
        _ablation_jobs, _ablation_aggregate)
    add("table4", "Table 4: tool capability matrix",
        _table4_jobs, _table4_aggregate)
    return registry


#: Every reproducible artefact, keyed by CLI name.
FIGURES: dict[str, FigureSpec] = _build_registry()


def figure_names() -> list[str]:
    return list(FIGURES)


def run_figure(name: str, config: Optional[ExperimentConfig] = None,
               suite: Optional[ExperimentSuite] = None) -> list[dict[str, object]]:
    """Run one figure end to end and return its printable rows."""
    try:
        spec = FIGURES[name]
    except KeyError:
        raise KeyError(f"unknown figure {name!r}; "
                       f"known: {', '.join(figure_names())}") from None
    config = config or ExperimentConfig()
    results = run_jobs(spec.build_jobs(config), suite)
    return spec.aggregate(config, results)
