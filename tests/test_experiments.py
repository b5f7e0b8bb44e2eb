"""Tests for the experiment generators (quick configurations).

These are slower integration tests: each exercises one figure/table
generator end to end on a reduced configuration and checks the paper's
qualitative findings rather than absolute numbers.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps.registry import BENCHMARK_SHORT_NAMES
from repro.experiments import ExperimentConfig, Scenario, run_jobs, session_variant
from repro.experiments import (
    architecture,
    characterization,
    containers,
    feature_matrix,
    mixed,
    overhead,
    power,
    scaling,
)
from repro.experiments.figures import run_figure


@pytest.fixture(scope="module")
def config() -> ExperimentConfig:
    return ExperimentConfig(seed=11, duration_s=4.0, warmup_s=0.5,
                            recording_seconds=4.0, cnn_epochs=2, lstm_epochs=5)


def test_experiment_config_presets_and_validation():
    quick = ExperimentConfig.quick()
    paper = ExperimentConfig.paper()
    assert quick.duration_s < paper.duration_s
    assert ExperimentConfig().benchmarks == BENCHMARK_SHORT_NAMES
    with pytest.raises(ValueError):
        ExperimentConfig(duration_s=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(benchmarks=("NOPE",))
    narrowed = ExperimentConfig().with_benchmarks(["RE"])
    assert narrowed.benchmarks == ("RE",)


def test_runner_helpers(config):
    """The scenario constructors every generator builds its runs from."""
    single = Scenario.single("RE", config).run()
    assert len(single.reports) == 1
    pair = Scenario.mixed(("RE", "ITP"), config).run()
    assert {r.benchmark for r in pair.reports} == {"RE", "ITP"}
    colocated = Scenario.colocated("RE", 2, config).run()
    assert len(colocated.reports) == 2
    with pytest.raises(ValueError):
        Scenario.colocated("RE", 0, config)
    session_config = session_variant("optimized").session_config()
    assert session_config.pipeline.two_step_frame_copy
    assert session_variant("slow_motion").session_config().slow_motion


def _characterization_results(benchmarks, config):
    return run_jobs(characterization.characterization_jobs(benchmarks, config))


def test_fig08_utilization_shapes(config):
    rows = characterization.utilization_from_results(
        ["RE", "D2"], _characterization_results(["RE", "D2"], config))
    by_name = {row.benchmark: row for row in rows}
    # Dota2 is far more CPU-hungry than Red Eclipse (Figure 8).
    assert by_name["D2"].app_cpu_percent > by_name["RE"].app_cpu_percent
    for row in rows:
        assert 0 < row.gpu_percent < 100
        assert row.vnc_cpu_percent > 50


def test_fig09_bandwidth_shapes(config):
    rows = characterization.bandwidth_from_results(
        ["STK", "0AD"], _characterization_results(["STK", "0AD"], config))
    by_name = {row.benchmark: row for row in rows}
    # SuperTuxKart streams much more data to the GPU (Figure 9).
    assert by_name["STK"].pcie_to_gpu_gbps > 2 * by_name["0AD"].pcie_to_gpu_gbps
    for row in rows:
        assert row.network_send_mbps < 600.0
        assert row.pcie_from_gpu_gbps < 5.0
        assert row.network_receive_mbps < 10.0


def test_fig10_to_13_scaling(config):
    points = scaling.scaling_points_from_results(
        "RE", run_jobs(scaling.scaling_jobs("RE", config, max_instances=3)))
    assert [p.instances for p in points] == [1, 2, 3]
    # FPS decreases and RTT increases with colocation (Figures 10-11).
    assert points[0].client_fps > points[-1].client_fps
    assert points[0].rtt_ms < points[-1].rtt_ms
    # Two instances still meet the 25-FPS QoS bar (Section 5.2.2).
    assert points[1].client_fps >= 25.0
    # Server time is dominated by the application stages (Figure 12).
    breakdown = points[0].server_breakdown_ms
    assert breakdown["application"] > breakdown["proxy_send_input"]
    # The registry's per-figure projections slice the same data.
    single = replace(config.with_benchmarks(["RE"]), max_instances=1)
    fps_rows = run_figure("fig10", single)
    assert fps_rows[0]["instances"] == 1 and fps_rows[0]["server_fps"] > 0
    rtt_rows = run_figure("fig11", single)
    assert "server_ms" in rtt_rows[0]
    server_rows = run_figure("fig12", single)
    assert "compression_ms" in server_rows[0]
    app_rows = run_figure("fig13", single)
    assert "frame_copy_ms" in app_rows[0]


def test_fig14_to_16_architecture(config):
    points = architecture.architecture_points_from_results(
        "IM", run_jobs(architecture.architecture_jobs("IM", config,
                                                      max_instances=3)))
    # Back-end stalls and L3 miss rates grow with colocation (Figures 14-15).
    assert points[-1].topdown["backend_bound"] >= points[0].topdown["backend_bound"]
    assert points[-1].l3_miss_rate > points[0].l3_miss_rate
    assert points[0].l3_miss_rate > 0.7
    # GPU L2 misses grow; texture misses stay put (Figure 16).
    assert points[-1].gpu_l2_miss_rate > points[0].gpu_l2_miss_rate
    assert points[-1].gpu_texture_miss_rate == pytest.approx(
        points[0].gpu_texture_miss_rate, abs=0.05)
    single_0ad = replace(config.with_benchmarks(["0AD"]), max_instances=1)
    rows = run_figure("fig16", single_0ad)
    assert rows[0]["gpu_l2_miss_rate"] is None      # unreadable PMU for 0 A.D.
    single_im = replace(config.with_benchmarks(["IM"]), max_instances=1)
    topdown_rows = run_figure("fig14", single_im)
    assert sum(v for k, v in topdown_rows[0].items()
               if k not in ("benchmark", "instances")) == pytest.approx(1.0)
    l3_rows = run_figure("fig15", single_im)
    assert l3_rows[0]["l3_miss_rate"] > 0.5


def test_fig17_power_amortization(config):
    points = power.power_points_from_results(
        "ITP", run_jobs(power.power_jobs("ITP", config, max_instances=4)))
    single = points[0]
    reductions = [p.reduction_vs(single) for p in points[1:]]
    # Per-instance power falls monotonically, by a large fraction at 4x.
    assert reductions[0] > 20.0
    assert reductions == sorted(reductions)
    assert reductions[-1] > 45.0
    # Total power only grows modestly per added instance (< ~25% each).
    for earlier, later in zip(points, points[1:]):
        assert later.total_power_watts < earlier.total_power_watts * 1.25


def test_fig18_19_mixed_pairs(config):
    # The default pair sweep derives from the apps registry: n*(n-1)/2
    # unordered pairs (15 for the paper's standard six benchmarks).
    from repro.apps.registry import all_benchmarks
    n = len(all_benchmarks())
    pairs = mixed.all_pairs()
    assert len(pairs) == n * (n - 1) // 2
    assert len(mixed.all_pairs(("STK", "0AD", "RE", "D2", "IM", "ITP"))) == 15
    pairs = [("RE", "ITP"), ("STK", "D2")]
    results = mixed.pair_fps_from_results(
        pairs, run_jobs(mixed.pair_fps_jobs(pairs, config)))
    assert len(results) == 2
    assert results[0].both_meet_qos        # light pair keeps QoS
    co_runners = ["STK", "0AD"]
    rows = mixed.contentiousness_from_results(
        "D2", co_runners,
        run_jobs(mixed.contentiousness_jobs("D2", co_runners, config)))
    by_runner = {row.co_runner: row for row in rows}
    # SuperTuxKart pressures the shared caches more than 0 A.D. (Figure 19);
    # the FPS loss ordering follows, up to run-to-run noise on short runs.
    assert by_runner["STK"].cpu_cache_miss_increase > \
        by_runner["0AD"].cpu_cache_miss_increase
    assert by_runner["STK"].performance_loss_percent >= \
        by_runner["0AD"].performance_loss_percent - 3.0
    assert by_runner["STK"].cpu_cache_miss_increase >= 0.0
    saving = mixed.pair_energy_from_results(
        run_jobs(mixed.pair_energy_jobs(("RE", "ITP"), config)))
    assert saving["energy_saving_percent"] > 25.0


def test_fig20_container_overhead(config):
    benchmarks = ["RE", "ITP", "D2"]
    rows = containers.container_overhead_from_results(
        benchmarks, run_jobs(containers.container_jobs(benchmarks, config)))
    assert len(rows) == 3
    # Average overheads are small (paper: ~1.3% RTT / 1.5% FPS).
    assert np.mean([row.rtt_overhead_percent for row in rows]) < 12.0
    assert abs(np.mean([row.fps_overhead_percent for row in rows])) < 12.0
    assert np.mean([row.gpu_render_overhead_percent for row in rows]) >= 0.0


def test_sec4_framework_overhead_and_query_ablation(config):
    summary = overhead.framework_overhead_from_results(
        ["RE"], run_jobs(overhead.overhead_jobs(["RE"], config)))
    assert 0.0 <= summary.mean_overhead_percent < 8.0
    ablation = overhead.query_buffer_from_results(
        run_jobs(overhead.query_buffer_jobs("RE", config)))
    assert ablation["single_buffered"] >= ablation["double_buffered"]
    assert ablation["native_fps"] > 10


def test_table4_feature_matrix():
    rows = feature_matrix.feature_matrix()
    assert len(rows) == len(feature_matrix.FEATURES)
    pictor_column = [row["Pictor"] for row in rows]
    assert all(pictor_column)
    # No prior tool measures GPU or PCIe frame-copy performance.
    only = feature_matrix.pictor_only_features()
    assert "gpu_perf_measurement" in only
    assert "pcie_frame_copy_measurement" in only
    # Every prior tool misses at least one capability.
    for tool in feature_matrix.TOOLS:
        if tool.name == "Pictor":
            continue
        assert not all(tool.supports(f) for f in feature_matrix.FEATURES)
