"""The split Figure-6 pipeline: train jobs + per-methodology jobs.

The redesign's acceptance bar: a row assembled from independently
executed methodology jobs (warm artefact replays included) must be
*byte-identical* to the fused single-job path — same floats, same dict
insertion order, same pickle.
"""

import pickle

import pytest

from repro.agents.artifacts import ArtifactSpec, set_artifact_store
from repro.experiments.accuracy import (
    METHODOLOGIES,
    METHODOLOGY_OFFSETS,
    assemble_accuracy_row,
    methodology_accuracy,
    methodology_result,
    split_accuracy_jobs,
    train_for_job,
)
from repro.experiments.executor import ExperimentSuite
from repro.experiments.figures import run_figure
from repro.experiments.jobs import ExperimentJob, execute_job
from repro.scenarios.config import ExperimentConfig
from repro.scenarios.scenario import Scenario


@pytest.fixture(scope="module")
def config() -> ExperimentConfig:
    return ExperimentConfig(seed=0, duration_s=2.0, warmup_s=0.5,
                            recording_seconds=3.0, cnn_epochs=2,
                            lstm_epochs=4)


@pytest.fixture
def no_ambient_store():
    previous = set_artifact_store(None)
    yield
    set_artifact_store(previous)


def test_split_jobs_shape(config):
    jobs = split_accuracy_jobs(["RE", "D2"], config)
    assert len(jobs) == 2 * (1 + len(METHODOLOGIES))
    for index, benchmark in enumerate(("RE", "D2")):
        chunk = jobs[index * 6:(index + 1) * 6]
        train = chunk[0]
        assert train.kind == "train"
        assert train.scenario.benchmarks == (benchmark,)
        assert train.scenario.seed.offset == index
        for job, method in zip(chunk[1:], METHODOLOGIES):
            assert job.kind == "methodology"
            assert job.scenario.benchmarks == (benchmark,)
            assert job.scenario.seed.offset == METHODOLOGY_OFFSETS[method]
            agent = job.scenario.placements[0].agent
            if method in ("IC", "SM"):
                assert agent == f"intelligent@{index}"
            elif method == "DB":
                assert agent == f"deskbench@{index}"
            else:
                assert agent == "human"


def test_methodology_jobs_validate_their_offset(config):
    scenario = Scenario.single("RE", config, seed_offset=5)
    with pytest.raises(ValueError, match="methodology"):
        ExperimentJob(scenario, kind="methodology")


def test_split_parts_reassemble_the_fused_row(config, no_ambient_store):
    fused = methodology_accuracy("RE", config)
    parts = [methodology_result("RE", config, method)
             for method in METHODOLOGIES]
    row = assemble_accuracy_row("RE", parts)
    assert list(row.mean_rtt_ms) == ["H", "IC", "DB", "CH", "SM"]
    assert list(row.error_percent) == ["IC", "DB", "CH", "SM"]
    assert pickle.dumps(row) == pickle.dumps(fused)


def test_assemble_validates_its_parts(config):
    parts = [methodology_result("RE", config, method)
             for method in METHODOLOGIES]
    with pytest.raises(ValueError, match="missing"):
        assemble_accuracy_row("RE", parts[:-1])
    with pytest.raises(ValueError, match="duplicate"):
        assemble_accuracy_row("RE", parts + [parts[0]])
    with pytest.raises(ValueError, match="cannot join"):
        assemble_accuracy_row("D2", parts)


def test_executed_jobs_match_the_direct_calls(config, no_ambient_store):
    jobs = split_accuracy_jobs(["RE"], config)
    train_summary = execute_job(jobs[0])
    assert train_summary["benchmark"] == "RE"
    assert train_summary["artifact"] == ArtifactSpec.for_config(
        "RE", config).content_hash()
    assert train_summary["recording_steps"] > 0
    parts = [execute_job(job) for job in jobs[1:]]
    fused = methodology_accuracy("RE", config)
    assert pickle.dumps(assemble_accuracy_row("RE", parts)) \
        == pickle.dumps(fused)


def test_train_for_job_reports_the_artifact(config):
    summary = train_for_job("RE", config)
    assert summary["train_seed"] == ArtifactSpec.for_config(
        "RE", config).train_seed
    assert summary["size_bytes"] > 0
    assert summary["imitation_error"] >= 0


def test_suite_drains_train_jobs_first(config, monkeypatch, tmp_path):
    executed_kinds = []
    import repro.experiments.executor as executor_module
    original = executor_module._timed_execute

    def recording_execute(job):
        executed_kinds.append(job.kind)
        return original(job)

    monkeypatch.setattr(executor_module, "_timed_execute", recording_execute)
    jobs = split_accuracy_jobs(["RE"], config)
    with ExperimentSuite(workers=1, cache_dir=tmp_path) as suite:
        suite.run(list(reversed(jobs)))
    assert executed_kinds[0] == "train"
    assert executed_kinds.count("methodology") == 5


def test_fig06_split_rows_equal_fig06(config, tmp_path):
    narrow = config.with_benchmarks(["RE"])
    with ExperimentSuite(workers=1) as suite:
        fused_rows = run_figure("fig06", narrow, suite)
    with ExperimentSuite(workers=1, cache_dir=tmp_path) as suite:
        split_rows = run_figure("fig06-split", narrow, suite)
    assert pickle.dumps(split_rows) == pickle.dumps(fused_rows)
    # A warm replay against the same store re-executes nothing.
    with ExperimentSuite(workers=1, cache_dir=tmp_path) as suite:
        replay_rows = run_figure("fig06-split", narrow, suite)
        assert suite.stats.executed == 0
        assert suite.stats.cache_hits == 6
    assert pickle.dumps(replay_rows) == pickle.dumps(split_rows)
