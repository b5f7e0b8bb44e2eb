"""The experiment execution subsystem: jobs, executors, caching, figures.

The hard requirement under test: a given job's result is bit-identical
whether it runs serially, across worker processes, or out of the result
store — and the declarative job path reproduces exactly what a hand-built
host (:func:`~repro.experiments.accuracy.run_custom`) does.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments import (
    ExperimentConfig,
    ExperimentJob,
    ExperimentSuite,
    ResultStore,
    Scenario,
    execute_job,
    run_custom,
)
from repro.experiments.executor import run_jobs
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.scaling import scaling_jobs
from repro.scenarios import SessionVariant, session_variant


@pytest.fixture(scope="module")
def config() -> ExperimentConfig:
    return ExperimentConfig.smoke(seed=5)


@pytest.fixture(scope="module")
def jobs(config) -> list[ExperimentJob]:
    return [
        ExperimentJob(Scenario.single("RE", config, seed_offset=1)),
        ExperimentJob(Scenario.mixed(("RE", "ITP"), config, seed_offset=2)),
        ExperimentJob(Scenario.single("ITP", config, seed_offset=3,
                                      containerized=True)),
    ]


def _stats_dicts(results):
    return [[r.rtt.as_dict() for r in result.reports] for result in results]


def test_job_validation(config):
    with pytest.raises(ValueError):
        ExperimentJob(Scenario(placements=(), config=config))
    with pytest.raises(ValueError):
        ExperimentJob(Scenario.single("RE", config), kind="nope")
    with pytest.raises(ValueError):
        ExperimentJob(Scenario.mixed(("RE", "ITP"), config), kind="accuracy")
    with pytest.raises(ValueError):
        ExperimentSuite(workers=0)


def test_job_keys_are_stable_and_content_sensitive(config):
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    assert job.key() == ExperimentJob(
        Scenario.single("RE", config, seed_offset=1)).key()
    # Any knob change — benchmark, seed, variant knob, config knob, the
    # duration override — produces a different key, which is what
    # invalidates the cache.
    assert job.key() != ExperimentJob(
        Scenario.single("ITP", config, seed_offset=1)).key()
    assert job.key() != ExperimentJob(
        Scenario.single("RE", config, seed_offset=2)).key()
    assert job.key() != ExperimentJob(
        Scenario.single("RE", config, seed_offset=1,
                        containerized=True)).key()
    assert job.key() != ExperimentJob(
        Scenario.single("RE", dataclasses.replace(config, duration_s=2.5),
                        seed_offset=1)).key()
    assert job.key() != ExperimentJob(
        Scenario.single("RE", dataclasses.replace(config, seed=6),
                        seed_offset=1)).key()
    assert job.key() != dataclasses.replace(job, duration=1.5).key()
    assert "RE" in job.describe()


def test_serial_parallel_and_cache_agree(tmp_path, config, jobs):
    serial = ExperimentSuite(workers=1).run(jobs)

    with ExperimentSuite(workers=2) as suite:
        parallel = suite.run(jobs)

    warm = ExperimentSuite(workers=1, cache_dir=tmp_path)
    warm.run(jobs)
    cold = ExperimentSuite(workers=1, cache_dir=tmp_path)
    cached = cold.run(jobs)
    assert cold.stats.cache_hits == len(jobs)
    assert cold.stats.executed == 0

    # Identical LatencyStats (and full report dicts) across all backends.
    assert _stats_dicts(serial) == _stats_dicts(parallel) == _stats_dicts(cached)
    assert [r.as_dict() for r in serial] == [r.as_dict() for r in parallel]
    assert [r.as_dict() for r in serial] == [r.as_dict() for r in cached]


def test_cache_invalidates_when_any_config_field_changes(tmp_path, config):
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    suite = ExperimentSuite(workers=1, cache_dir=tmp_path)
    suite.run([job])
    assert suite.stats.executed == 1

    changed = ExperimentJob(Scenario.single(
        "RE", dataclasses.replace(config, duration_s=config.duration_s + 0.5),
        seed_offset=1))
    again = ExperimentSuite(workers=1, cache_dir=tmp_path)
    again.run([job, changed])
    assert again.stats.cache_hits == 1      # original job replays
    assert again.stats.executed == 1        # changed config re-runs
    assert len(ResultStore(tmp_path)) == 2


def test_suite_memoizes_results_across_run_calls(config):
    """Figures sharing runs execute them once per suite, even cache-less."""
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    suite = ExperimentSuite(workers=1)
    [first] = suite.run([job])
    [second] = suite.run([dataclasses.replace(job)])
    assert suite.stats.executed == 1
    assert suite.stats.cache_hits == 1
    assert first.as_dict() == second.as_dict()


def test_duplicate_jobs_execute_once(config):
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    suite = ExperimentSuite(workers=1)
    first, second = suite.run([job, dataclasses.replace(job)])
    assert suite.stats.executed == 1
    assert suite.stats.deduplicated == 1
    assert first.as_dict() == second.as_dict()


def test_job_path_matches_legacy_host_construction(config):
    """The declarative path reproduces the hand-built host bit for bit —
    the equivalence Figure 6's IC and SM runs (``run_custom`` with a
    trained agent and a bespoke session config) rely on."""
    job_result = execute_job(ExperimentJob(
        Scenario.single("RE", config, seed_offset=4)))
    hand_built = run_custom("RE", config, seed_offset=4,
                            session_config=SessionVariant().session_config())
    assert job_result.as_dict() == hand_built.as_dict()
    # The default session config is the declarative default too.
    assert run_custom("RE", config, seed_offset=4).as_dict() == \
        job_result.as_dict()

    optimized = session_variant("optimized")
    optimized_job = execute_job(ExperimentJob(
        Scenario.single("RE", config, seed_offset=4, variant=optimized)))
    optimized_hand_built = run_custom(
        "RE", config, seed_offset=4,
        session_config=optimized.session_config())
    assert optimized_job.as_dict() == optimized_hand_built.as_dict()
    assert optimized_job.as_dict() != job_result.as_dict()


def test_cache_entries_are_provenance_stamped(tmp_path, config):
    from repro.experiments.jobs import CACHE_SCHEMA_VERSION

    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    suite = ExperimentSuite(workers=1, cache_dir=tmp_path)
    suite.run([job])

    cache = ResultStore(tmp_path)
    entry = cache.get_entry(job.key())
    assert entry["schema"] == CACHE_SCHEMA_VERSION
    assert entry["scenario_hash"] == job.scenario.content_hash()
    assert entry["scenario"] == job.scenario.to_dict()
    assert entry["kind"] == "host"
    assert "git_rev" in entry
    # The cost model's calibration data: how long the run actually took
    # and its a-priori cost.
    assert entry["runtime_s"] > 0
    assert entry["cost_units"] == job.cost_units()


def test_stale_schema_cache_entry_is_rejected_with_a_log(tmp_path, config,
                                                         caplog):
    import logging

    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    suite = ExperimentSuite(workers=1, cache_dir=tmp_path)
    [fresh] = suite.run([job])

    # Rewrite the store row as if an older schema produced it.
    cache = ResultStore(tmp_path)
    entry = cache.get_entry(job.key())
    entry["schema"] -= 1
    cache.put_entry(entry)

    with caplog.at_level(logging.WARNING, logger="repro.experiments.store"):
        again = ExperimentSuite(workers=1, cache_dir=tmp_path)
        [recomputed] = again.run([job])
    assert again.stats.cache_hits == 0
    assert again.stats.executed == 1
    assert any("stale cache entry" in record.message
               for record in caplog.records)
    assert recomputed.as_dict() == fresh.as_dict()


def test_tampered_scenario_hash_cache_entry_is_rejected_with_a_log(
        tmp_path, config, caplog):
    """A row whose stamped scenario hash disagrees with the requesting
    job's scenario is never replayed — the schema check alone would pass
    it, so this is the second documented rejection path."""
    import logging

    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    suite = ExperimentSuite(workers=1, cache_dir=tmp_path)
    [fresh] = suite.run([job])

    cache = ResultStore(tmp_path)
    entry = cache.get_entry(job.key())
    entry["scenario_hash"] = "0" * 64
    cache.put_entry(entry)

    with caplog.at_level(logging.WARNING, logger="repro.experiments.store"):
        again = ExperimentSuite(workers=1, cache_dir=tmp_path)
        [recomputed] = again.run([job])
    assert again.stats.cache_hits == 0
    assert again.stats.executed == 1
    assert any("tampered cache entry" in record.message
               for record in caplog.records)
    assert recomputed.as_dict() == fresh.as_dict()


def test_pre_provenance_cache_entry_is_rejected_with_a_log(tmp_path, config,
                                                           caplog):
    """A store row whose payload lacks the provenance stamp is rejected
    (with the documented log line), never replayed."""
    import logging
    import pickle

    from repro.experiments.jobs import CACHE_SCHEMA_VERSION

    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    # A bare pickled payload under the job's key, with no stamp inside.
    ResultStore(tmp_path).connection().execute(
        "INSERT INTO results (key, git_rev, schema, scenario_json, "
        "scenario_hash, created_at, entry) VALUES (?, ?, ?, ?, ?, ?, ?)",
        (job.key(), "unknown", CACHE_SCHEMA_VERSION, "{}", "", 0.0,
         pickle.dumps({"not": "stamped"})))

    with caplog.at_level(logging.WARNING, logger="repro.experiments.store"):
        suite = ExperimentSuite(workers=1, cache_dir=tmp_path)
        suite.run([job])
    assert suite.stats.cache_hits == 0
    assert suite.stats.executed == 1
    assert any("provenance" in record.message for record in caplog.records)


def test_run_jobs_uses_default_suite(config, monkeypatch, tmp_path):
    monkeypatch.setenv("PICTOR_CACHE_DIR", str(tmp_path))
    jobs = scaling_jobs("RE", config, max_instances=1)
    first = run_jobs(jobs)
    second = run_jobs(jobs)
    assert _stats_dicts(first) == _stats_dicts(second)
    assert len(ResultStore(tmp_path)) == 1


def test_cost_based_packing_reorders_submission(config, monkeypatch):
    """Jobs reach the backend largest-estimated-cost first, while results
    stay aligned with the caller's submission order and are unchanged."""
    from repro.experiments import executor
    from repro.experiments.cost import CostModel, order_by_cost

    # Synthetic set submitted smallest-first: 1, 2 and 4 instances with
    # growing duration overrides.
    jobs = [
        ExperimentJob(Scenario.single("RE", config), duration=1.0),
        ExperimentJob(Scenario.mixed(("RE", "ITP"), config), duration=2.0),
        ExperimentJob(Scenario.mixed(("STK", "RE", "ITP", "D2"), config),
                      duration=3.0),
    ]
    costs = [job.cost_units() for job in jobs]
    assert costs == sorted(costs)               # submission order is smallest-first
    assert order_by_cost(jobs) == list(reversed(jobs))

    executed_order = []
    real_timed_execute = executor._timed_execute

    def recording_execute(job):
        executed_order.append(job)
        return real_timed_execute(job)

    monkeypatch.setattr(executor, "_timed_execute", recording_execute)
    suite = ExperimentSuite(workers=1)
    results = suite.run(jobs)

    assert executed_order == list(reversed(jobs))
    assert suite.submission_order(jobs) == list(reversed(jobs))
    # Reordering is invisible in the results: aligned and bit-identical.
    reference = [execute_job(job) for job in jobs]
    assert _stats_dicts(results) == _stats_dicts(reference)

    # Ties break deterministically on the job key, so every process
    # derives the same order.
    tied = [ExperimentJob(Scenario.single("RE", config, seed_offset=i))
            for i in range(4)]
    assert order_by_cost(tied) == order_by_cost(list(reversed(tied)))
    assert order_by_cost(tied) == sorted(tied, key=lambda job: job.key())
    assert CostModel().estimate(tied[0]) == tied[0].cost_units()


def test_cost_model_calibrates_from_cached_runtimes(tmp_path, config):
    """Rates fit total runtime over total units per kind, and feed the
    suite's submission order."""
    from repro.experiments.cost import CostModel

    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    result = execute_job(job)
    cache = ResultStore(tmp_path)
    cache.put(job, result, runtime_s=3.0)
    other = ExperimentJob(Scenario.single("ITP", config, seed_offset=2))
    cache.put(other, execute_job(other), runtime_s=1.0)

    model = CostModel.calibrated(cache)
    total_units = job.cost_units() + other.cost_units()
    assert model.rates["host"] == pytest.approx(4.0 / total_units)
    assert model.estimate(job) == pytest.approx(
        job.cost_units() * model.rates["host"])
    # Entries without runtime stamps (or unknown kinds) are ignored and
    # fall back to raw units.
    assert CostModel.calibrated(ResultStore(tmp_path / "empty")).rates == {}


def test_figure_registry_covers_the_benchmarks(config):
    expected = {"fig06", "fig06-split", "fig07", "sec4", "fig08", "fig09",
                "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
                "fig17", "fig18", "fig19", "fig20", "fig22", "ablation",
                "table4", "nway"}
    assert expected == set(FIGURES)
    with pytest.raises(KeyError):
        run_figure("fig99", config)


def test_run_figure_end_to_end(config):
    narrow = dataclasses.replace(config.with_benchmarks(["RE"]),
                                 max_instances=2)
    rows = run_figure("fig10", narrow)
    assert [row["instances"] for row in rows] == [1, 2]
    assert all(row["benchmark"] == "RE" for row in rows)
    assert rows[0]["client_fps"] > rows[-1]["client_fps"] * 0.8
    # table4 runs no jobs and still renders.
    table = run_figure("table4", narrow)
    assert any(row["feature"] == "gpu_perf_measurement" for row in table)
