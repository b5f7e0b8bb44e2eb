"""The SQLite result store: provenance, concurrency, diffing.

The hard requirements under test: every backend reads and writes its
results through :class:`ResultStore` and replays bit-identically to an
in-process execution; concurrent writers (a suite plus its pool
workers) never corrupt the database; and ``results diff`` reports
exactly zero deltas for two runs of the same deterministic scenarios.
"""

from __future__ import annotations

import enum
import json
import logging
import os
import pickle
import sqlite3
import subprocess
import sys
import textwrap
import threading
from dataclasses import dataclass, is_dataclass, replace
from pathlib import Path

import pytest

from repro.experiments import (
    ExperimentConfig,
    ExperimentJob,
    ExperimentSuite,
    ResultStore,
    Scenario,
    diff_result_sets,
    execute_job,
)
from repro.experiments.__main__ import main
from repro.experiments.jobs import CACHE_SCHEMA_VERSION
from repro.experiments.server import QueueServer
from repro.experiments.store import (build_entry, current_git_rev,
                                     entry_metrics, flatten_metrics)
from repro.sim.fastforward import FastForwardConfig


@pytest.fixture(scope="module")
def config() -> ExperimentConfig:
    return ExperimentConfig.smoke(seed=5)


@pytest.fixture(scope="module")
def job(config) -> ExperimentJob:
    return ExperimentJob(Scenario.single("RE", config, seed_offset=1))


@pytest.fixture(scope="module")
def result(job):
    return execute_job(job)


def _synthetic_entry(index: int, value: float, git_rev: str = "rev-a",
                     schema: int = CACHE_SCHEMA_VERSION) -> dict:
    """A fully stamped entry with a plain-dict result payload."""
    key = f"{index:04d}" + "ab" * 30
    return {
        "schema": schema,
        "key": key,
        "kind": "host",
        "duration": None,
        "scenario": {"placements": [{"benchmark": "RE", "agent": "human",
                                     "count": 1}]},
        "scenario_hash": f"{index:04d}" + "cd" * 30,
        "git_rev": git_rev,
        "runtime_s": 0.5,
        "cost_units": 2.0,
        "result": {"fps": value, "nested": {"rtt_ms": value * 2,
                                            "series": [value, value + 1]}},
    }


# ---------------------------------------------------------------------------
# Store semantics
# ---------------------------------------------------------------------------

def test_store_roundtrips_provenance_stamped_entries(tmp_path, job, result):
    store = ResultStore(tmp_path / "store")
    store.put(job, result, runtime_s=1.5)

    entry = store.get_entry(job.key())
    assert entry["schema"] == CACHE_SCHEMA_VERSION
    assert entry["key"] == job.key()
    assert entry["kind"] == "host"
    assert entry["scenario"] == job.scenario.to_dict()
    assert entry["scenario_hash"] == job.scenario.content_hash()
    assert entry["runtime_s"] == 1.5
    assert entry["cost_units"] == job.cost_units()
    assert "git_rev" in entry
    assert entry["result"].as_dict() == result.as_dict()
    assert store.get(job).as_dict() == result.as_dict()
    assert len(store) == 1
    assert list(store.entries())[0]["key"] == job.key()

    # The provenance columns agree with the pickled entry.
    [row] = store.rows()
    assert row["key"] == job.key()
    assert row["scenario_hash"] == job.scenario.content_hash()
    assert row["runtime_s"] == 1.5
    assert row["created_at"] > 0

    store.invalidate(job.key())
    assert store.get_entry(job.key()) is None
    assert len(store) == 0


def test_store_keeps_one_row_per_revision_and_replays_the_newest(tmp_path):
    store = ResultStore(tmp_path / "store")
    store.put_entry(_synthetic_entry(1, 10.0, git_rev="rev-old"))
    store.put_entry(_synthetic_entry(1, 11.0, git_rev="rev-new"))

    key = _synthetic_entry(1, 0.0)["key"]
    assert len(store) == 1                      # one key ...
    assert len(store.rows()) == 2               # ... two revisions on file
    assert store.get_entry(key)["result"]["fps"] == 11.0
    assert set(store.git_revs()) == {"rev-old", "rev-new"}
    assert store.result_set("rev-old")[key]["result"]["fps"] == 10.0
    assert store.result_set("rev-new")[key]["result"]["fps"] == 11.0


def test_store_rejects_stale_schema_rows_with_a_log(tmp_path, caplog):
    store = ResultStore(tmp_path / "store")
    entry = _synthetic_entry(1, 10.0, schema=CACHE_SCHEMA_VERSION - 1)
    store.put_entry(entry)
    with caplog.at_level(logging.WARNING, logger="repro.experiments.store"):
        assert store.get_entry(entry["key"]) is None
    assert any("stale cache entry" in record.message
               for record in caplog.records)


def test_rows_written_before_the_metrics_table_are_stale_and_re_executed(
        tmp_path, job, result, caplog):
    """Schema 3 is the first to promise metric rows: a schema-2 row —
    written before the ``metrics`` table existed, so without any — is
    rejected with the stale-entry log line and re-executed, and the
    re-execution writes its metric rows."""
    assert CACHE_SCHEMA_VERSION == 3
    cache_dir = tmp_path / "store"
    store = ResultStore(cache_dir)
    store.put_entry(dict(build_entry(job, result), schema=2))
    conn = store.connection()
    conn.execute("DELETE FROM metrics")
    with caplog.at_level(logging.WARNING, logger="repro.experiments.store"):
        suite = ExperimentSuite(cache_dir=cache_dir)
        [replayed] = suite.run([job])
    assert (suite.stats.executed, suite.stats.cache_hits) == (1, 0)
    assert any("rejecting stale cache entry" in record.message
               and "schema version 2 != current 3" in record.message
               for record in caplog.records)
    assert replayed.as_dict() == result.as_dict()
    assert store.get_entry(job.key())["schema"] == 3
    assert conn.execute("SELECT COUNT(*) FROM metrics").fetchone()[0] > 0


def test_store_rejects_tampered_scenario_hash_with_a_log(tmp_path, job,
                                                         result, caplog):
    store = ResultStore(tmp_path / "store")
    store.put(job, result)
    entry = store.get_entry(job.key())
    entry["scenario_hash"] = "0" * 64
    store.put_entry(entry)
    with caplog.at_level(logging.WARNING, logger="repro.experiments.store"):
        assert store.get(job) is None
    assert any("tampered cache entry" in record.message
               for record in caplog.records)


def test_store_rejects_unreadable_blobs_with_a_log(tmp_path, caplog):
    store = ResultStore(tmp_path / "store")
    entry = _synthetic_entry(1, 10.0)
    store.put_entry(entry)
    store.connection().execute(
        "UPDATE results SET entry = ? WHERE key = ?",
        (b"not a pickle", entry["key"]))
    with caplog.at_level(logging.WARNING, logger="repro.experiments.store"):
        assert store.get_entry(entry["key"]) is None
    assert any("unreadable" in record.message for record in caplog.records)


def _journal_settings(store: ResultStore) -> tuple:
    conn = store.connection()
    return (conn.execute("PRAGMA journal_mode").fetchone()[0],
            conn.execute("PRAGMA synchronous").fetchone()[0])


def test_every_store_connection_runs_wal_with_a_full_sync(tmp_path):
    """One journal mode everywhere: WAL, synchronous = FULL (2) — for a
    suite store, the queue server's store and a second thread's
    connection alike."""
    store = ResultStore(tmp_path / "store")
    assert _journal_settings(store) == ("wal", 2)
    seen = []
    thread = threading.Thread(target=lambda: seen.append(
        _journal_settings(store)))
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert seen == [("wal", 2)]
    with QueueServer(tmp_path / "q") as server:
        assert _journal_settings(server.queue.results) == ("wal", 2)


def test_result_store_takes_no_journal_mode_option(tmp_path):
    with pytest.raises(TypeError):
        ResultStore(tmp_path / "store", **{"wal": False})


def _traced_statements(store: ResultStore) -> list[str]:
    statements: list[str] = []
    store.connection().set_trace_callback(statements.append)
    return statements


def test_invalidate_deletes_in_one_transaction(tmp_path):
    store = ResultStore(tmp_path / "store")
    entry = _synthetic_entry(0, 1.0)
    store.put_entry(entry)
    statements = _traced_statements(store)
    store.invalidate(entry["key"])
    assert [s.split()[0] for s in statements] == [
        "BEGIN", "DELETE", "DELETE", "COMMIT"]
    assert store.get_entry(entry["key"]) is None
    assert store.connection().execute(
        "SELECT COUNT(*) FROM metrics").fetchone()[0] == 0


@pytest.mark.parametrize("stamped_job", [
    ExperimentJob(Scenario.single("RE", replace(
        ExperimentConfig.smoke(seed=5),
        fast_forward=FastForwardConfig(enabled=True)))),
    ExperimentJob(Scenario.mixed(["RE", "ITP", "D2"],
                                 ExperimentConfig.smoke(seed=7),
                                 seed_offset=2, variant="optimized"),
                  duration=0.75),
], ids=["fast-forward", "optimized-mix-duration-override"])
def test_build_entry_pickles_like_separately_hashed_fields(stamped_job):
    """build_entry derives the key and the scenario hash from one
    to_dict(); the stored bytes must equal those of an entry assembled
    from the separate key() / to_dict() / content_hash() calls."""
    result = {"fps": 30.0, "series": [1.0, 2.0]}
    reference = {
        "schema": CACHE_SCHEMA_VERSION,
        "key": stamped_job.key(),
        "kind": stamped_job.kind,
        "duration": stamped_job.duration,
        "scenario": stamped_job.scenario.to_dict(),
        "scenario_hash": stamped_job.scenario.content_hash(),
        "fast_forward": stamped_job.scenario.config.fast_forward.enabled,
        "git_rev": current_git_rev(),
        "runtime_s": 0.25,
        "cost_units": stamped_job.cost_units(),
        "result": result,
    }
    entry = build_entry(stamped_job, result, runtime_s=0.25)
    assert (pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
            == pickle.dumps(reference, protocol=pickle.HIGHEST_PROTOCOL))


# ---------------------------------------------------------------------------
# Backend equivalence through the store (the acceptance bar)
# ---------------------------------------------------------------------------

def test_all_backends_write_the_store_and_match_a_pickle_replay(tmp_path,
                                                                job, result):
    """Serial, parallel and socket all read/write through ResultStore,
    and every path replays bit-identically to the in-process execution
    of the same job."""
    from repro.experiments.server import QueueServer

    expected = result.as_dict()
    with QueueServer(tmp_path / "q") as server:
        for backend in ("serial", "parallel", "socket"):
            cache_dir = tmp_path / f"store-{backend}"
            with ExperimentSuite(workers=2, backend=backend,
                                 cache_dir=cache_dir,
                                 queue_addr=(server.address if backend ==
                                             "socket" else None),
                                 timeout_s=300) as suite:
                [executed] = suite.run([job])
            stored = ResultStore(cache_dir).get(job)
            assert stored.as_dict() == executed.as_dict()
            assert stored.as_dict() == expected
        # The queue server's own result database holds the same row.
        assert server.queue.results.get(job).as_dict() == expected


def test_concurrent_writers_from_separate_processes(tmp_path):
    """Two processes hammering one database (several suites sharing a
    --cache-dir) both land every row intact."""
    script = textwrap.dedent("""
        import sys
        from repro.experiments.jobs import CACHE_SCHEMA_VERSION
        from repro.experiments.store import ResultStore
        store = ResultStore(sys.argv[1])
        tag = sys.argv[2]
        for index in range(40):
            key = f"{tag}-{index:04d}" + "00" * 28
            store.put_entry({
                "schema": CACHE_SCHEMA_VERSION, "key": key, "kind": "host",
                "duration": None, "scenario": {"placements": []},
                "scenario_hash": "11" * 32, "git_rev": "rev-" + tag,
                "runtime_s": 0.1, "cost_units": 1.0,
                "result": {"value": float(index)},
            })
    """)
    import repro
    env = dict(os.environ)
    src_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    procs = [subprocess.Popen([sys.executable, "-c", script,
                               str(tmp_path / "store"), tag], env=env)
             for tag in ("a", "b")]
    for proc in procs:
        assert proc.wait(timeout=120) == 0

    store = ResultStore(tmp_path / "store")
    assert len(store) == 80
    entries = list(store.entries())
    assert len(entries) == 80
    assert {entry["git_rev"] for entry in entries} == {"rev-a", "rev-b"}
    assert all(entry["result"]["value"] == float(int(entry["key"][2:6]))
               for entry in entries)


def test_store_opens_while_another_connection_writes(tmp_path):
    """A store opening a fresh database must wait out another writer's
    transaction, not fail at its switch to WAL mode."""
    holder = sqlite3.connect(tmp_path / "results.sqlite", isolation_level=None,
                             check_same_thread=False)
    holder.execute("CREATE TABLE held (x)")
    holder.execute("BEGIN IMMEDIATE")
    holder.execute("INSERT INTO held VALUES (1)")
    release = threading.Timer(0.3, lambda: holder.execute("COMMIT"))
    release.start()
    try:
        store = ResultStore(tmp_path)
        assert store.connection().execute(
            "PRAGMA journal_mode").fetchone()[0] == "wal"
        assert len(store) == 0
    finally:
        release.join(timeout=10)
        holder.close()


# ---------------------------------------------------------------------------
# Diffing
# ---------------------------------------------------------------------------

def test_flatten_metrics_walks_nested_structures():
    metrics = flatten_metrics({"a": 1, "b": {"c": 2.5},
                               "d": [3, {"e": 4}], "s": "text"})
    assert metrics == {"a": 1.0, "b.c": 2.5, "d[0]": 3.0, "d[1].e": 4.0,
                       "s": "text"}
    assert entry_metrics({"result": {"fps": 30.0}}) == {"fps": 30.0}


def _recursive_flatten(value, prefix: str = "") -> dict:
    """flatten_metrics as it was written before it filled one shared dict:
    each level builds its own dict and merges it upwards."""
    metrics: dict = {}
    if is_dataclass(value) and not isinstance(value, type):
        value = {name: getattr(value, name)
                 for name in value.__dataclass_fields__}
    if isinstance(value, dict):
        for key in sorted(value, key=str):
            child = f"{prefix}.{key}" if prefix else str(key)
            metrics.update(_recursive_flatten(value[key], child))
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            metrics.update(_recursive_flatten(item, f"{prefix}[{index}]"))
    elif isinstance(value, bool):
        metrics[prefix] = float(value)
    elif isinstance(value, (int, float)):
        metrics[prefix] = float(value)
    else:
        metrics[prefix] = str(value)
    return metrics


def _typed_items(metrics: dict) -> list:
    return [(name, type(value), value) for name, value in metrics.items()]


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


@dataclass
class _Leaf:
    flag: bool
    level: _Level
    label: str
    pair: tuple


@dataclass
class _Node:
    leaves: list
    extra: dict


def test_flatten_metrics_matches_the_recursive_reference(result):
    nested = _Node(
        leaves=[_Leaf(True, _Level.HIGH, "a", (1, 2.5)),
                _Leaf(False, _Level.LOW, "b", ())],
        extra={"z": None, 3: [True, "x", (_Level.LOW, 0.125)],
               "a.b": float("nan"), "a": {"b": 4}})
    # "extra.a.b" is written twice: the later value wins, in the place
    # the earlier one took.
    assert list(flatten_metrics(nested)).count("extra.a.b") == 1
    for value in (nested, result, result.as_dict(),
                  {"result": result.as_dict(), "n": [nested, nested]}):
        assert (_typed_items(flatten_metrics(value))
                == _typed_items(_recursive_flatten(value)))
    assert (_typed_items(flatten_metrics(nested, "root"))
            == _typed_items(_recursive_flatten(nested, "root")))


def test_diff_catches_non_numeric_changes_regardless_of_tolerance(tmp_path):
    a = ResultStore(tmp_path / "a")
    b = ResultStore(tmp_path / "b")
    entry = _synthetic_entry(1, 10.0)
    entry["result"]["status"] = "ok"
    a.put_entry(entry)
    changed = _synthetic_entry(1, 10.0)
    changed["result"]["status"] = "degraded"
    b.put_entry(changed)

    report = diff_result_sets(a.result_set(), b.result_set(), tolerance=0.5)
    assert not report.empty()
    [delta] = report.deltas
    assert (delta.metric, delta.a, delta.b) == ("status", "ok", "degraded")
    assert delta.delta is None


def test_diff_of_identical_result_sets_is_empty(tmp_path):
    a = ResultStore(tmp_path / "a")
    b = ResultStore(tmp_path / "b")
    for index in range(3):
        a.put_entry(_synthetic_entry(index, 10.0 + index))
        b.put_entry(_synthetic_entry(index, 10.0 + index))
    report = diff_result_sets(a.result_set(), b.result_set())
    assert report.empty()
    assert report.matched == 3
    assert report.identical == 3


def test_diff_reports_metric_deltas_and_respects_tolerance(tmp_path):
    a = ResultStore(tmp_path / "a")
    b = ResultStore(tmp_path / "b")
    a.put_entry(_synthetic_entry(1, 10.0))
    b.put_entry(_synthetic_entry(1, 10.5))

    report = diff_result_sets(a.result_set(), b.result_set())
    assert not report.empty()
    moved = {delta.metric: (delta.a, delta.b) for delta in report.deltas}
    # fps and every metric derived from it moved; nothing else did.
    assert moved["fps"] == (10.0, 10.5)
    assert moved["nested.rtt_ms"] == (20.0, 21.0)
    assert report.deltas[0].delta == pytest.approx(0.5)

    # A 10% relative tolerance swallows the 5% drift.
    assert diff_result_sets(a.result_set(), b.result_set(),
                            tolerance=0.1).empty()


def test_diff_reports_keys_missing_on_either_side(tmp_path):
    a = ResultStore(tmp_path / "a")
    b = ResultStore(tmp_path / "b")
    a.put_entry(_synthetic_entry(1, 10.0))
    a.put_entry(_synthetic_entry(2, 20.0))
    b.put_entry(_synthetic_entry(2, 20.0))
    b.put_entry(_synthetic_entry(3, 30.0))

    report = diff_result_sets(a.result_set(), b.result_set())
    assert not report.empty()
    assert report.only_in_a == [_synthetic_entry(1, 0.0)["key"]]
    assert report.only_in_b == [_synthetic_entry(3, 0.0)["key"]]
    assert report.matched == 1 and report.identical == 1


def test_diff_between_two_git_revs_in_one_store(tmp_path):
    store = ResultStore(tmp_path / "store")
    store.put_entry(_synthetic_entry(1, 10.0, git_rev="rev-a"))
    store.put_entry(_synthetic_entry(1, 10.0, git_rev="rev-b"))
    assert diff_result_sets(store.result_set("rev-a"),
                            store.result_set("rev-b")).empty()

    store.put_entry(_synthetic_entry(1, 12.0, git_rev="rev-c"))
    drifted = diff_result_sets(store.result_set("rev-a"),
                               store.result_set("rev-c"))
    assert not drifted.empty()
    assert {delta.metric for delta in drifted.deltas} >= {"fps"}


# ---------------------------------------------------------------------------
# The results CLI
# ---------------------------------------------------------------------------

def _seeded_store(tmp_path) -> Path:
    root = tmp_path / "cli-store"
    store = ResultStore(root)
    store.put_entry(_synthetic_entry(1, 10.0))
    store.put_entry(_synthetic_entry(2, 20.0, git_rev="rev-b"))
    return root


def test_results_list_filters_and_prints_rows(tmp_path, capsys):
    root = _seeded_store(tmp_path)
    assert main(["results", "list", "--store", str(root)]) == 0
    out = capsys.readouterr().out
    assert "2 result row(s)" in out and "RE" in out

    assert main(["results", "list", "--store", str(root),
                 "--git-rev", "rev-b"]) == 0
    assert "1 result row(s)" in capsys.readouterr().out

    assert main(["results", "list", "--store", str(root),
                 "--kind", "accuracy"]) == 0
    assert "0 result row(s)" in capsys.readouterr().out


def test_results_cli_refuses_to_create_a_store_from_a_typo(tmp_path, capsys):
    """Read-only commands error out on a missing database instead of
    silently creating an empty one (a diff against a typo'd path would
    otherwise pass vacuously)."""
    missing = tmp_path / "no-such-store"
    assert main(["results", "list", "--store", str(missing)]) == 2
    assert "no result database" in capsys.readouterr().err
    assert not missing.exists()

    (tmp_path / "empty-dir").mkdir()
    assert main(["results", "diff", "--store", str(tmp_path / "empty-dir"),
                 "rev-a", "rev-b"]) == 2
    assert "no result database" in capsys.readouterr().err
    assert not (tmp_path / "empty-dir" / "results.sqlite").exists()


def test_results_show_resolves_key_prefixes(tmp_path, capsys):
    root = _seeded_store(tmp_path)
    key = _synthetic_entry(1, 0.0)["key"]
    assert main(["results", "show", key[:6], "--store", str(root)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["key"] == key
    assert payload["result"]["fps"] == 10.0

    assert main(["results", "show", "zzz", "--store", str(root)]) == 2
    assert "no stored result key" in capsys.readouterr().err


def test_results_diff_cli_exit_codes(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    ResultStore(a).put_entry(_synthetic_entry(1, 10.0))
    ResultStore(b).put_entry(_synthetic_entry(1, 10.0))
    report_path = tmp_path / "report.json"
    assert main(["results", "diff", str(a), str(b),
                 "--report", str(report_path)]) == 0
    assert "no differences" in capsys.readouterr().out
    assert json.loads(report_path.read_text())["empty"] is True

    ResultStore(b).put_entry(_synthetic_entry(1, 11.0))
    assert main(["results", "diff", str(a), str(b),
                 "--report", str(report_path)]) == 1
    out = capsys.readouterr().out
    assert "metric delta(s)" in out and "fps" in out
    assert json.loads(report_path.read_text())["empty"] is False


def test_results_diff_counts_keys_rejected_as_stale(tmp_path, capsys):
    """A row the reader rejects (here: rewritten at the previous schema)
    is not silently dropped from the diff: the header and the report
    count it on its side."""
    a = tmp_path / "a"
    b = tmp_path / "b"
    for index in (1, 2):
        ResultStore(a).put_entry(_synthetic_entry(index, 10.0))
        ResultStore(b).put_entry(_synthetic_entry(index, 10.0))
    ResultStore(b).put_entry(
        _synthetic_entry(2, 10.0, schema=CACHE_SCHEMA_VERSION - 1))
    report_path = tmp_path / "report.json"
    assert main(["results", "diff", str(a), str(b),
                 "--report", str(report_path)]) == 1
    out = capsys.readouterr().out
    assert ("B: 1 key(s) on file rejected as stale/unreadable (see log)"
            in out)
    assert "A: 1 key(s)" not in out and "A: 0 key(s)" not in out
    report = json.loads(report_path.read_text())
    assert (report["rejected_a"], report["rejected_b"]) == (0, 1)
    assert len(report["only_in_a"]) == 1


def test_results_export_json_and_csv(tmp_path, capsys):
    root = _seeded_store(tmp_path)
    assert main(["results", "export", "--store", str(root)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2
    assert rows[0]["metrics"]["fps"] == 10.0

    out_path = tmp_path / "rows.csv"
    assert main(["results", "export", "--store", str(root), "--format",
                 "csv", "-o", str(out_path)]) == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].startswith("key,kind,scenario,")
    assert len(lines) == 1 + 2 * 4              # header + 4 metrics per row
