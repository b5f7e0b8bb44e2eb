"""The fleet subsystem: sampling determinism, SQL cohort analytics, gc.

The three contracts under test: (1) ``sample(spec, n, seed)`` yields a
byte-identical ``content_hash`` sequence in any process — proven in a
spawned interpreter — and every spec field participates in the spec
hash; (2) a sampled population drains through the existing suite
backends unchanged and ``fleet_report`` then answers per-cohort
p50/p95/p99 *without ever unpickling a payload* — proven by
monkeypatching ``pickle.loads`` to raise during reporting; (3) the
store's metrics index is written at ``put`` time and bounded by
``results gc``, and every lookup searches an index, proven by its
query plan.
"""

from __future__ import annotations

import itertools
import json
import pickle
import sqlite3
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.experiments import ExperimentSuite, ResultStore
from repro.experiments.__main__ import main
from repro.experiments.jobs import CACHE_SCHEMA_VERSION, ExperimentJob
from repro.experiments.store import (build_entry, current_git_rev,
                                     numeric_metrics)
from repro.fleet import (
    DEFAULT_METRICS,
    MetricSelector,
    PopulationSpec,
    cohort_value,
    compare_reports,
    fleet_report,
    like_pattern,
    population_digest,
    population_jobs,
    quantile,
    sample,
    sample_one,
    scenarios_by_key,
)

SPEC = PopulationSpec(
    name="test-pop",
    benchmarks=("RE", "D2", "STK"),
    mix_sizes={1: 2, 2: 1},
    instance_counts={1: 1},
    networks={"lan_1gbps": 3, "cellular_5g": 1},
    variants={"default": 2, "optimized": 1},
    config={"duration_s": 0.3, "warmup_s": 0.05},
)


# -- spec value-object behaviour ----------------------------------------------------------


def test_spec_roundtrips_through_dict_and_json():
    rebuilt = PopulationSpec.from_dict(
        json.loads(json.dumps(SPEC.to_dict())))
    assert rebuilt == SPEC
    assert rebuilt.content_hash() == SPEC.content_hash()


def test_spec_accepts_lists_as_equal_weights():
    spec = PopulationSpec.from_dict(
        {"benchmarks": ["RE", "D2"], "mix_sizes": [1, 2],
         "networks": ["lan_1gbps", "cellular_5g"]})
    assert spec.mix_sizes == ((1, 1.0), (2, 1.0))
    assert spec.networks == (("cellular_5g", 1.0), ("lan_1gbps", 1.0))


def test_spec_hash_ignores_weight_table_key_order():
    flipped = PopulationSpec.from_dict(
        {**SPEC.to_dict(),
         "networks": {"cellular_5g": 1, "lan_1gbps": 3}})
    assert flipped.content_hash() == SPEC.content_hash()


def test_spec_rejects_unknown_fields():
    with pytest.raises(KeyError, match="bogus"):
        PopulationSpec.from_dict({"bogus": 1})
    with pytest.raises(KeyError, match="step"):
        PopulationSpec.from_dict({"seed": {"step": 2}})


@pytest.mark.parametrize("kwargs, match", [
    ({"benchmarks": ("RE", "XX")}, "unknown benchmarks"),
    ({"mix_sizes": {9: 1}}, "outside the pool"),
    ({"mix_sizes": {0: 1}}, "outside the pool"),
    ({"instance_counts": {0: 1}}, "at least 1"),
    ({"networks": {"dialup": 1}}, "unknown network"),
    ({"machines": {"mainframe": 1}}, "unknown machine"),
    ({"variants": {"turbo": 1}}, "unknown session variant"),
    ({"networks": {"lan_1gbps": 0}}, "positive"),
    ({"networks": {"lan_1gbps": float("nan")}}, "positive"),
    ({"containerized": 1.5}, "probability"),
    ({"config": {"fps": 60}}, "unknown config fields"),
    ({"seed_stride": -1}, "non-negative"),
    ({"name": ""}, "non-empty"),
])
def test_spec_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        PopulationSpec(**kwargs)


def test_spec_hash_is_sensitive_to_every_field():
    variations = {
        "name": {"name": "other"},
        "benchmarks": {"benchmarks": ("RE", "D2")},
        "mix_sizes": {"mix_sizes": {1: 1}},
        "instance_counts": {"instance_counts": {1: 1, 2: 1}},
        "networks": {"networks": {"lan_1gbps": 1}},
        "machines": {"machines": {"no_contention": 1}},
        "variants": {"variants": {"default": 1}},
        "containerized": {"containerized": 0.5},
        "config": {"config": {"duration_s": 0.4, "warmup_s": 0.05}},
        "seed_base": {"seed_base": 7},
        "seed_offset_base": {"seed_offset_base": 100},
        "seed_stride": {"seed_stride": 2},
        "agents": {"agents": {"human": 1, "intelligent": 1}},
    }
    # Every spec field is covered (schema is deliberately hash-exempt).
    assert set(variations) == set(PopulationSpec.__dataclass_fields__)
    hashes = {"base": SPEC.content_hash()}
    for name, kwargs in variations.items():
        hashes[name] = replace(SPEC, **kwargs).content_hash()
    assert len(set(hashes.values())) == len(hashes)


# -- sampling determinism -----------------------------------------------------------------


def test_sample_is_deterministic_and_streamable():
    full = [s.content_hash() for s in sample(SPEC, 20, seed=5)]
    again = [s.content_hash() for s in sample(SPEC, 20, seed=5)]
    sliced = [s.content_hash()
              for s in itertools.islice(sample(SPEC, 10**6, seed=5), 20)]
    assert full == again == sliced
    # Index independence: any single index can be regenerated alone.
    assert sample_one(SPEC, 13, seed=5).content_hash() == full[13]
    # A different sampling seed is a different population.
    assert [s.content_hash() for s in sample(SPEC, 20, seed=6)] != full


def test_sample_draws_within_the_spec():
    scenarios = list(sample(SPEC, 40, seed=1))
    for index, scenario in enumerate(scenarios):
        assert {p.benchmark for p in scenario.placements} <= set(SPEC.pool())
        assert len(scenario.placements) in (1, 2)
        assert scenario.network in ("lan_1gbps", "cellular_5g")
        assert scenario.machine == "paper"
        assert scenario.seed.offset == index     # stride 1, offset base 0
        assert scenario.config.duration_s == 0.3
    # Both mix sizes, both networks and both variants actually occur.
    assert {len(s.placements) for s in scenarios} == {1, 2}
    assert {s.network for s in scenarios} == {"lan_1gbps", "cellular_5g"}
    assert len({cohort_value(s, "variant") for s in scenarios}) == 2


def test_seed_policy_separates_equal_draws():
    hashes = [s.content_hash() for s in sample(SPEC, 30, seed=2)]
    assert len(set(hashes)) == 30
    collapsed = replace(SPEC, seed_stride=0)
    hashes = [s.content_hash() for s in sample(collapsed, 30, seed=2)]
    assert len(set(hashes)) < 30     # equal draws now share a cache key


def test_sample_is_cross_process_deterministic():
    """Same spec + seed ⇒ byte-identical hash sequence in a spawned
    interpreter — the property that lets fleet report rebuild the
    population a fleet run on another machine drained."""
    script = (
        "import json, sys\n"
        "from repro.fleet import PopulationSpec, sample\n"
        "spec = PopulationSpec.from_dict(json.loads(sys.argv[1]))\n"
        "for s in sample(spec, 12, seed=9):\n"
        "    print(s.content_hash())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(SPEC.to_dict())],
        capture_output=True, text=True, check=True)
    local = [s.content_hash() for s in sample(SPEC, 12, seed=9)]
    assert proc.stdout.split() == local
    assert population_digest(sample(SPEC, 12, seed=9)) \
        == population_digest(sample(SPEC, 12, seed=9))


# -- analytics primitives -----------------------------------------------------------------


def test_quantile_interpolates():
    assert quantile([1.0], 0.99) == 1.0
    assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert quantile([1.0, 2.0, 3.0, 4.0], 0.0) == 1.0
    assert quantile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0
    assert quantile([0.0, 10.0], 0.25) == 2.5
    with pytest.raises(ValueError):
        quantile([], 0.5)
    with pytest.raises(ValueError):
        quantile([1.0], 1.5)


def test_like_pattern_escapes_sql_specials():
    assert like_pattern("reports[*].rtt.mean") == "reports[%].rtt.mean"
    assert like_pattern("runtime_s") == "runtime\\_s"
    assert like_pattern("50%*") == "50\\%%"


def test_metric_selector_parse():
    assert MetricSelector.parse("rtt=reports[*].rtt.mean") \
        == MetricSelector("rtt", "reports[*].rtt.mean")
    assert MetricSelector.parse("average_power_watts") \
        == MetricSelector("average_power_watts", "average_power_watts")


def test_numeric_metrics_drops_non_finite_leaves():
    entry = {"result": {"ok": 1.5, "bad": float("nan"),
                        "worse": float("inf"), "label": "x",
                        "flag": True}}
    assert numeric_metrics(entry) == {"ok": 1.5, "flag": 1.0}


# -- the store's metrics index ------------------------------------------------------------


@pytest.fixture(scope="module")
def drained(tmp_path_factory):
    """A 12-scenario population drained once, shared by the read-only
    store/report tests below."""
    cache_dir = tmp_path_factory.mktemp("fleet-store")
    jobs = population_jobs(SPEC, 12, seed=4)
    with ExperimentSuite(cache_dir=cache_dir, backend="serial") as suite:
        suite.run(jobs)
    return cache_dir, scenarios_by_key(jobs)


def test_put_indexes_metrics_in_sql(drained):
    cache_dir, index = drained
    store = ResultStore(cache_dir)
    conn = store.connection()
    for key in index:
        entry = store.get_entry(key)
        stored = dict(conn.execute(
            "SELECT name, value FROM metrics WHERE key = ?", (key,)))
        assert stored == numeric_metrics(entry)
        assert stored     # host results always have numeric leaves


def test_select_newest_and_metric_values(drained):
    cache_dir, index = drained
    store = ResultStore(cache_dir)
    selection = store.select_newest(list(index))
    assert set(selection) == set(index)
    # A key the population asks about but the store never saw is absent.
    assert store.select_newest(["no-such-key"]) == {}
    values = store.metric_values(selection,
                                 like_pattern("reports[*].rtt.mean"))
    assert set(values) == set(index)
    assert all(len(v) == len(index[k].benchmarks)
               for k, v in values.items())
    runtimes = store.provenance_values(selection, "runtime_s")
    assert all(v[0] > 0 for v in runtimes.values())
    with pytest.raises(ValueError, match="unknown provenance metric"):
        store.provenance_values(selection, "entry")


#: ``metric_values`` as it was written before the population drove the
#: join, kept as the reference for its rows and their order.
_SCANNING_METRIC_VALUES_SQL = (
    "SELECT m.key, m.value FROM metrics m "
    "JOIN _population_rows p "
    "ON p.key = m.key AND p.git_rev = m.git_rev "
    "WHERE m.name LIKE ? ESCAPE '\\' "
    "ORDER BY m.key, m.name")


def _last_select_plan(conn, call) -> list[str]:
    """The query plan of the last SELECT that ``call()`` runs on ``conn``."""
    statements: list[str] = []
    conn.set_trace_callback(statements.append)
    try:
        call()
    finally:
        conn.set_trace_callback(None)
    query = [s for s in statements if s.startswith("SELECT")][-1]
    return [row[-1] for row in conn.execute("EXPLAIN QUERY PLAN " + query)]


def test_fleet_lookups_search_per_population_row(drained):
    """metric_values and provenance_values loop over the population and
    search each row by primary key instead of scanning the store."""
    cache_dir, index = drained
    store = ResultStore(cache_dir)
    conn = store.connection()
    selection = store.select_newest(list(index))
    patterns = [like_pattern(metric.pattern) for metric in DEFAULT_METRICS
                if not metric.pattern.startswith("@")] + ["%"]
    for pattern in patterns:
        plan = _last_select_plan(
            conn, lambda: store.metric_values(selection, pattern))
        assert "SEARCH m USING PRIMARY KEY (key=? AND git_rev=?)" in plan
        assert not any(step.startswith("SCAN m") for step in plan)
        values = store.metric_values(selection, pattern)
        reference: dict[str, list[float]] = {}
        for key, value in conn.execute(_SCANNING_METRIC_VALUES_SQL,
                                       (pattern,)):
            reference.setdefault(key, []).append(value)
        assert list(values.items()) == list(reference.items())
        assert values
    plan = _last_select_plan(
        conn, lambda: store.provenance_values(selection, "runtime_s"))
    assert not any(step.startswith("SCAN r") for step in plan)


@pytest.fixture
def two_revisions(drained, tmp_path):
    """A copy of the drained store where half the keys also carry a row
    from a second revision, written later."""
    cache_dir, index = drained
    copy = sqlite3.connect(tmp_path / "results.sqlite")
    ResultStore(cache_dir).connection().backup(copy)
    copy.close()
    store = ResultStore(tmp_path)
    for key in sorted(index)[::2]:
        store.put_entry(dict(store.get_entry(key), git_rev="b" * 40))
    return store, index


#: ``select_newest``'s query as it was written before the population
#: drove the join, kept as the reference for its rows and their order.
_SCANNING_SELECT_NEWEST_SQL = (
    "SELECT r.key, r.git_rev, r.created_at, r.rowid "
    "FROM results r JOIN _population_keys p ON p.key = r.key "
    "WHERE r.schema = ? AND r.git_rev LIKE ?")


def _scanning_select_newest(store, rev_prefix):
    newest = {}
    for key, rev, created_at, rowid in store.connection().execute(
            _SCANNING_SELECT_NEWEST_SQL, (CACHE_SCHEMA_VERSION, rev_prefix + "%")):
        if key not in newest or (created_at, rowid) > newest[key][1]:
            newest[key] = (rev, (created_at, rowid))
    return [(key, rev) for key, (rev, _) in newest.items()]


def test_select_newest_searches_per_population_key(two_revisions):
    """select_newest loops over the population and searches the
    ``(key, git_rev)`` primary key; its rows and their order match the
    scanning query it replaced."""
    store, index = two_revisions
    conn = store.connection()
    for rev in (None, "B" * 7, current_git_rev()[:7]):
        plan = _last_select_plan(
            conn, lambda: store.select_newest(list(index), git_rev=rev))
        assert any(step.startswith("SEARCH r USING INDEX sqlite_autoindex_results_1 (key=?")
                   for step in plan), plan
        assert not any(step.startswith("SCAN r") for step in plan)
        selection = store.select_newest(list(index), git_rev=rev)
        assert list(selection.items()) \
            == _scanning_select_newest(store, (rev or "").lower())
        assert selection
    assert set(store.select_newest(list(index)).values()) \
        == {"b" * 40, current_git_rev()}


def test_prefix_filters_search_their_indexes(two_revisions):
    """Prefix filters are ranges on the lower-cased prefix, so each one
    searches its index; LIKE's and glob's specials match only
    themselves."""
    store, index = two_revisions
    conn = store.connection()
    some_hash = store.rows()[0]["scenario_hash"]
    cases = [
        (lambda: store.rows(scenario_hash=some_hash[:6].upper()),
         "idx_results_scenario_hash (scenario_hash>? AND scenario_hash<?)"),
        (lambda: store.rows(git_rev="BBB"),
         "idx_results_git_rev (git_rev>? AND git_rev<?)"),
        (lambda: store.result_set(git_rev="bbb"),
         "idx_results_git_rev (git_rev>? AND git_rev<?)"),
    ]
    for call, index_search in cases:
        plan = _last_select_plan(conn, call)
        assert any(step.startswith("SEARCH results USING INDEX " + index_search)
                   for step in plan), plan
    assert {row["scenario_hash"] for row in
            store.rows(scenario_hash=some_hash[:6].upper())} == {some_hash}
    assert {row["git_rev"] for row in store.rows(git_rev="BBB")} == {"b" * 40}
    assert len(store.result_set(git_rev="bbb")) == len(sorted(index)[::2])
    for special in ("%", "_", "*", "b%", "b_"):
        assert store.rows(git_rev=special) == []
        assert store.rows(scenario_hash=special) == []
        assert store.result_set(git_rev=special) == {}
        assert store.select_newest(list(index), git_rev=special) == {}


def test_store_with_the_old_metric_name_index_drops_it_on_open(drained,
                                                               tmp_path):
    """A store written before the name index was dropped loses it on
    open; its entries, metric rows and fleet report do not change."""
    cache_dir, index = drained
    source = ResultStore(cache_dir)
    old_path = tmp_path / "old.sqlite"
    old = sqlite3.connect(old_path)
    source.connection().backup(old)
    old.execute("CREATE INDEX idx_metrics_name ON metrics (name)")

    def snapshot():
        return (sorted(old.execute("SELECT key, git_rev, entry FROM results")),
                sorted(old.execute("SELECT * FROM metrics")))

    def indexes():
        return {name for (name,) in old.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index'")}

    before = snapshot()
    assert "idx_metrics_name" in indexes()
    store = ResultStore(old_path)
    report = fleet_report(store, index)
    assert "idx_metrics_name" not in indexes()
    assert snapshot() == before
    assert old.execute("PRAGMA integrity_check").fetchone() == ("ok",)
    assert report == fleet_report(source, index)
    assert [store.get_entry(key)["scenario_hash"] for key in index] \
        == [source.get_entry(key)["scenario_hash"] for key in index]
    old.close()


def test_gc_keeps_newest_revisions(tmp_path, caplog):
    store = ResultStore(tmp_path)
    from repro.experiments import execute_job
    job = ExperimentJob(sample_one(SPEC, 0, seed=11))
    entry = build_entry(job, execute_job(job), runtime_s=0.1)
    old = dict(entry, git_rev="a" * 40)
    new = dict(entry, git_rev="b" * 40)
    store.put_entry(old)
    store.put_entry(new)
    assert store.select_newest([job.key()]) == {job.key(): "b" * 40}
    assert store.select_newest([job.key()], git_rev="aaaa") \
        == {job.key(): "a" * 40}

    with caplog.at_level("INFO", logger="repro.experiments.store"):
        preview = store.gc(dry_run=True)
    assert (preview.dropped_rows, preview.kept_rows) == (1, 1)
    assert preview.dropped_metrics > 0 and not preview.vacuumed
    assert any("would drop" in record.message for record in caplog.records)
    assert store.select_newest([job.key()], git_rev="aaaa")  # untouched

    assert store.gc(keep_revs=2).dropped_rows == 0            # both fit
    report = store.gc(keep_revs=1)
    assert report.dropped_rows == 1 and report.vacuumed
    assert report.dropped_metrics == preview.dropped_metrics
    assert store.select_newest([job.key()], git_rev="aaaa") == {}
    assert store.select_newest([job.key()]) == {job.key(): "b" * 40}
    conn = store.connection()
    assert conn.execute("SELECT COUNT(*) FROM metrics "
                        "WHERE git_rev = ?", ("a" * 40,)).fetchone()[0] == 0
    assert conn.execute("SELECT COUNT(*) FROM metrics "
                        "WHERE git_rev = ?", ("b" * 40,)).fetchone()[0] > 0
    with pytest.raises(ValueError):
        store.gc(keep_revs=0)


# -- fleet report: cohorts by pure SQL ----------------------------------------------------


def test_fleet_report_covers_cohorts_without_unpickling(drained,
                                                        monkeypatch):
    cache_dir, index = drained

    def refuse(*args, **kwargs):
        raise AssertionError("fleet report must not unpickle payloads")

    monkeypatch.setattr(pickle, "loads", refuse)
    report = fleet_report(ResultStore(cache_dir), index)
    assert (report.sampled, report.covered) == (len(index), len(index))
    by_metric = {s.metric for s in report.stats}
    assert by_metric == {"rtt_s", "client_fps", "power_w", "runtime_s"}
    networks = {s.cohort for s in report.stats if s.dimension == "network"}
    assert networks == {s.network for s in index.values()}
    for stat in report.stats:
        assert stat.count > 0
        assert stat.min <= stat.p50 <= stat.p95 <= stat.p99 <= stat.max


def test_fleet_report_rejects_unknown_dimension(drained):
    cache_dir, index = drained
    with pytest.raises(ValueError, match="unknown cohort dimension"):
        fleet_report(ResultStore(cache_dir), index, dimensions=("color",))


def test_compare_reports_is_a_perf_ledger(drained):
    cache_dir, index = drained
    store = ResultStore(cache_dir)
    report = fleet_report(store, index)
    deltas = compare_reports(report, report)
    assert deltas
    for delta in deltas:
        assert delta["p50"] == delta["p50_baseline"]
        assert delta["p50_delta_pct"] in (0.0, None)


# -- acceptance: a 500-scenario population on the socket backend --------------------------


def test_fleet_run_500_scenarios_socket_then_sql_only_report(
        tmp_path, monkeypatch):
    spec = replace(SPEC, config={"duration_s": 0.2, "warmup_s": 0.05},
                   mix_sizes={1: 3, 2: 1})
    jobs = population_jobs(spec, 500, seed=3)
    index = scenarios_by_key(jobs)
    assert len(index) == 500
    with ExperimentSuite(cache_dir=tmp_path, backend="socket",
                         workers=4) as suite:
        results = suite.run(jobs)
        assert len(results) == 500
        store = suite.store
        assert suite.stats.executed == 500

        def refuse(*args, **kwargs):
            raise AssertionError("fleet report must not unpickle payloads")

        monkeypatch.setattr(pickle, "loads", refuse)
        report = fleet_report(store, index)
    assert report.covered == report.sampled == 500
    for dimension in ("network", "machine", "variant", "arity"):
        stats = [s for s in report.stats
                 if s.dimension == dimension and s.metric == "rtt_s"]
        assert stats, f"no {dimension} cohorts"
        assert all(s.p50 <= s.p99 for s in stats)


# -- CLI ----------------------------------------------------------------------------------


def run_cli(*argv):
    return main(list(argv))


def spec_file(tmp_path):
    path = tmp_path / "pop.json"
    path.write_text(json.dumps(SPEC.to_dict()))
    return str(path)


def test_fleet_sample_cli_is_deterministic(tmp_path, capsys):
    path = spec_file(tmp_path)
    assert run_cli("fleet", "sample", path, "--n", "6") == 0
    first = capsys.readouterr().out
    assert run_cli("fleet", "sample", path, "--n", "6") == 0
    assert capsys.readouterr().out == first
    assert "population digest: " in first
    assert run_cli("fleet", "sample", path, "--n", "6", "--show", "2") == 0
    assert "(showing 2)" in capsys.readouterr().out


def test_fleet_run_and_report_cli(tmp_path, capsys):
    path = spec_file(tmp_path)
    cache = str(tmp_path / "cache")
    assert run_cli("fleet", "run", path, "--n", "8",
                   "--cache-dir", cache) == 0
    out_run = capsys.readouterr().out
    assert "8 unique job(s)" in out_run
    # Replay from the warm store prints identical stdout.
    assert run_cli("fleet", "run", path, "--n", "8",
                   "--cache-dir", cache) == 0
    assert capsys.readouterr().out == out_run

    report_file = tmp_path / "report.json"
    assert run_cli("fleet", "report", path, "--n", "8", "--store", cache,
                   "--report", str(report_file)) == 0
    out = capsys.readouterr().out
    assert "8/8 job(s) covered" in out
    assert "rtt_s" in out and "p99" in out
    document = json.loads(report_file.read_text())
    assert document["covered"] == 8
    assert document["population"]["name"] == SPEC.name
    assert document["stats"]

    # The JSON report is byte-identical across replays of the same store.
    first = report_file.read_bytes()
    assert run_cli("fleet", "report", path, "--n", "8", "--store", cache,
                   "--report", str(report_file)) == 0
    capsys.readouterr()
    assert report_file.read_bytes() == first

    # Zero coverage (a disjoint seed-offset range) exits 1.
    disjoint = tmp_path / "disjoint.json"
    disjoint.write_text(json.dumps(
        {**SPEC.to_dict(), "seed": {"offset_base": 1000}}))
    assert run_cli("fleet", "report", str(disjoint), "--n", "8",
                   "--store", cache) == 1
    assert "0/8 job(s) covered" in capsys.readouterr().out

    # --baseline against the only revision on file: zero deltas.
    baseline_rev = ResultStore(cache).git_revs()[0][:12]
    assert run_cli("fleet", "report", path, "--n", "8", "--store", cache,
                   "--baseline", baseline_rev) == 0
    assert "vs baseline" in capsys.readouterr().out


def test_fleet_cli_rejects_bad_input(tmp_path, capsys):
    assert run_cli("fleet", "sample", "no-such-file.json") == 2
    assert "cannot interpret population spec" in capsys.readouterr().err
    path = spec_file(tmp_path)
    assert run_cli("fleet", "run", path, "--n", "4") == 2
    assert "needs --cache-dir" in capsys.readouterr().err
    assert run_cli("fleet", "sample",
                   '{"networks": {"dialup": 1}}') == 2
    assert "unknown network" in capsys.readouterr().err


def test_results_list_offset_cli(tmp_path, capsys):
    path = spec_file(tmp_path)
    cache = str(tmp_path / "cache")
    assert run_cli("fleet", "run", path, "--n", "5",
                   "--cache-dir", cache) == 0
    capsys.readouterr()
    assert run_cli("results", "list", "--store", cache) == 0
    assert "5 result row(s)" in capsys.readouterr().out
    assert run_cli("results", "list", "--store", cache,
                   "--limit", "2", "--offset", "4") == 0
    out = capsys.readouterr().out
    assert "(showing 1 from offset 4)" in out
    assert run_cli("results", "list", "--store", cache,
                   "--offset", "-1") == 2
    assert "--offset must be non-negative" in capsys.readouterr().err


def test_results_gc_cli(tmp_path, capsys):
    path = spec_file(tmp_path)
    cache = str(tmp_path / "cache")
    assert run_cli("fleet", "run", path, "--n", "4",
                   "--cache-dir", cache) == 0
    capsys.readouterr()
    store = ResultStore(cache)
    for entry in list(store.entries()):
        store.put_entry(dict(entry, git_rev="0" * 40))
    assert run_cli("results", "gc", "--store", cache, "--dry-run") == 0
    out = capsys.readouterr().out
    assert "would drop 4 superseded result row(s)" in out
    assert run_cli("results", "gc", "--store", cache) == 0
    out = capsys.readouterr().out
    assert "dropped 4 superseded result row(s)" in out
    assert "vacuumed" in out
    assert len(store.rows()) == 4
    assert run_cli("results", "gc", "--store", cache, "--keep", "0") == 2
    assert "--keep must be at least 1" in capsys.readouterr().err
