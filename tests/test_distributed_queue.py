"""The queue backend: the queue's storage, workers, recovery, equivalence.

The headline contract: running the same job set serially, on the
process-pool backend, and through a multi-worker socket queue produces
bit-identical results — and the queue survives a worker dying mid-job
(SIGKILL) without losing or corrupting anything.  The storage tests
drive :class:`JobQueue` directly, the way its one client, the
queue server, does: with job bytes in, job bytes out, and result rows a
worker built.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.experiments import (
    ExperimentConfig,
    ExperimentJob,
    ExperimentSuite,
    Scenario,
    execute_job,
)
from repro.experiments.protocol import MessageType, blob_to_text
from repro.experiments.queue import JobQueue
from repro.experiments.server import QueueServer
from repro.experiments.socket_queue import ClaimedJob, SocketQueue
from repro.experiments.store import build_entry, result_row
from repro.experiments.worker import run_worker, spawn_worker


@pytest.fixture(scope="module")
def config() -> ExperimentConfig:
    return ExperimentConfig.smoke(seed=5)


@pytest.fixture(scope="module")
def jobs(config) -> list[ExperimentJob]:
    return [
        ExperimentJob(Scenario.mixed(("RE", "ITP", "D2"), config,
                                     seed_offset=900)),
        ExperimentJob(Scenario.single("RE", config, seed_offset=1)),
        ExperimentJob(Scenario.mixed(("STK", "RE", "ITP", "D2"), config,
                                     seed_offset=901, variant="optimized")),
    ]


def _report_dicts(results):
    return [[report.as_dict() for report in result.reports]
            for result in results]


def _wait_for(predicate, timeout_s=30.0, poll_s=0.01, what="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(poll_s)
    raise AssertionError(f"timed out after {timeout_s}s waiting for {what}")


def _submit(queue, job) -> str:
    """Enqueue one job's bytes, as the server's SUBMIT does."""
    [key] = queue.submit_many([job.to_bytes()])
    return key


def _claim(queue, worker):
    """Claim and decode the next job, as a worker's CLAIM does."""
    claimed = queue.claim(worker)
    if claimed is None:
        return None
    key, job = claimed
    return ClaimedJob(key=key, job=ExperimentJob.from_bytes(job),
                      worker_id=worker)


def _row(claimed, result, runtime_s=None):
    """The result row a worker builds for a claimed job."""
    return result_row(build_entry(claimed.job, result, runtime_s=runtime_s))


def _complete(queue, claimed, result, runtime_s=None):
    """Store the result and end the job, as the server's COMPLETE does."""
    queue.complete(claimed.key, _row(claimed, result, runtime_s=runtime_s))


def _advance_clock(queue, seconds):
    """Move the queue's lease clock forward without sleeping."""
    base = queue._mono
    queue._mono = lambda: base() + seconds


# ---------------------------------------------------------------------------
# JobQueue storage
# ---------------------------------------------------------------------------

def test_job_bytes_decode_to_the_job_and_hash_to_its_key(config):
    """A job crosses the wire as its canonical JSON: every figure job
    (fast-forward off and on) and a sampled fleet population decode
    back to an equal job, and the SHA-256 of the bytes — all the server
    computes — is the job's key."""
    import hashlib
    from dataclasses import replace

    from repro.experiments.figures import FIGURES
    from repro.fleet import PopulationSpec, population_jobs
    from repro.sim.fastforward import FastForwardConfig

    jobs = population_jobs(PopulationSpec(), 100, seed=3)
    for variant in (config, replace(config, fast_forward=FastForwardConfig(enabled=True))):
        for figure in FIGURES.values():
            jobs += figure.build_jobs(variant)
    assert {job.kind for job in jobs} >= {"host", "accuracy", "train"}
    for job in jobs:
        data = job.to_bytes()
        assert ExperimentJob.from_bytes(data) == job
        assert hashlib.sha256(data).hexdigest() == job.key()


def test_submit_claim_complete_roundtrip(tmp_path, config):
    queue = JobQueue(tmp_path / "q")
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    key = _submit(queue, job)
    assert key == job.key()
    assert queue.counts().pending == 1

    claimed = _claim(queue, "w1")
    assert claimed is not None
    assert claimed.key == key
    assert claimed.job == job
    assert claimed.worker_id == "w1"
    assert queue.counts().pending == 0
    assert queue.counts().claimed == 1
    assert _claim(queue, "w2") is None              # nothing left to claim

    result = execute_job(job)
    _complete(queue, claimed, result, runtime_s=0.5)
    counts = queue.counts()
    assert (counts.pending, counts.claimed, counts.completed) == (0, 0, 1)

    entry = queue.results.get_entry(key)
    assert entry["scenario_hash"] == job.scenario.content_hash()
    assert entry["runtime_s"] == 0.5
    assert entry["result"].as_dict() == result.as_dict()


def test_submit_is_idempotent_per_content_hash(tmp_path, config):
    queue = JobQueue(tmp_path / "q")
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    assert _submit(queue, job) == _submit(queue, job)
    assert queue.counts().pending == 1
    # Claimed (in flight) jobs are not resubmitted either...
    claimed = _claim(queue, "w1")
    _submit(queue, job)
    assert queue.counts().pending == 0
    # ...nor are completed ones.
    _complete(queue, claimed, execute_job(job))
    _submit(queue, job)
    assert queue.counts().pending == 0


def test_claims_drain_in_submission_priority_order(tmp_path, config):
    """Workers see jobs in the order they were submitted, and a requeued
    job keeps its place ahead of jobs submitted after it."""
    queue = JobQueue(tmp_path / "q")
    submitted = [ExperimentJob(Scenario.single("RE", config, seed_offset=i))
                 for i in range(5)]
    for job in submitted:
        _submit(queue, job)
    drained = [_claim(queue, "w1").job for _ in submitted]
    assert drained == submitted

    later = ExperimentJob(Scenario.single("ITP", config, seed_offset=9))
    _submit(queue, later)
    assert queue.requeue_worker("w1") == [job.key() for job in submitted]
    drained = [_claim(queue, "w2").job for _ in range(len(submitted) + 1)]
    assert drained == submitted + [later]


def test_sequence_survives_queue_reopening(tmp_path, config):
    """A second submitter (or a restarted one) continues the priority
    sequence instead of jumping its jobs ahead of the existing backlog."""
    first = JobQueue(tmp_path / "q")
    job_a = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    _submit(first, job_a)
    second = JobQueue(tmp_path / "q")
    job_b = ExperimentJob(Scenario.single("ITP", config, seed_offset=2))
    _submit(second, job_b)
    assert _claim(second, "w").job == job_a
    assert _claim(second, "w").job == job_b


def test_requeue_stale_recovers_an_expired_claim(tmp_path, config):
    queue = JobQueue(tmp_path / "q")
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    _submit(queue, job)
    claimed = _claim(queue, "w1")

    # A fresh claim is inside its lease: nothing to requeue.
    assert queue.requeue_stale(60.0) == []
    # Age the claim past the lease and it returns to pending.
    _advance_clock(queue, 120.0)
    assert queue.requeue_stale(60.0) == [claimed.key]
    assert queue.counts().pending == 1
    assert queue.counts().claimed == 0

    # The requeued job is claimable again, and a late completion of the
    # original claim handle is harmless (at-least-once delivery).
    reclaimed = _claim(queue, "w2")
    assert reclaimed.job == job
    result = execute_job(job)
    _complete(queue, claimed, result)             # stale handle, claim gone
    _complete(queue, reclaimed, result)
    assert queue.results.get_entry(job.key()) is not None
    counts = queue.counts()
    assert (counts.pending, counts.claimed, counts.completed) == (0, 0, 1)


def test_claiming_an_aged_pending_job_starts_a_fresh_lease(tmp_path, config):
    """A job that waited pending longer than the lease must not look
    stale the instant it is claimed: the lease starts at the claim, not
    at the submission."""
    queue = JobQueue(tmp_path / "q")
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    _submit(queue, job)
    # Let the job wait far past any lease before anyone claims it.
    _advance_clock(queue, 3600.0)

    claimed = _claim(queue, "w1")
    assert claimed is not None
    assert queue.requeue_stale(60.0) == []
    _complete(queue, claimed, execute_job(job))
    assert queue.results.get_entry(job.key()) is not None


def test_reopened_queue_offers_claimed_jobs_again_at_once(tmp_path, config):
    """A claim lives in the memory of the queue that handed it out: a
    reopened queue (a restarted server) holds no leases and offers every
    unfinished job again at once, in submission order, with no claim
    written to disk."""
    first = JobQueue(tmp_path / "q")
    jobs = [ExperimentJob(Scenario.single("RE", config, seed_offset=i))
            for i in range(3)]
    for job in jobs:
        _submit(first, job)
    claimed = [_claim(first, "w1") for _ in range(2)]
    counts = first.counts()
    assert (counts.pending, counts.claimed) == (1, 2)

    second = JobQueue(tmp_path / "q")
    counts = second.counts()
    assert (counts.pending, counts.claimed) == (3, 0)
    assert second.requeue_stale(0.0) == []
    assert [_claim(second, "w2").key for _ in jobs] == [job.key() for job in jobs]

    # The first queue's holder still completes its job, into the same row.
    _complete(second, claimed[0], {"fps": 30.0})
    counts = second.counts()
    assert (counts.pending, counts.claimed, counts.completed) == (0, 2, 1)


#: The queue tables as written before claims moved to memory: a claim
#: was the row's ``worker`` column, behind a partial pending index.
_CLAIM_COLUMN_SCHEMA = """
CREATE TABLE queue_jobs (
    seq    INTEGER PRIMARY KEY,
    key    TEXT    NOT NULL UNIQUE,
    job    BLOB    NOT NULL,
    worker TEXT
);
CREATE INDEX idx_queue_jobs_pending ON queue_jobs (seq) WHERE worker IS NULL;
CREATE TABLE queue_failures (
    key    TEXT NOT NULL PRIMARY KEY,
    marker TEXT NOT NULL
);
"""


def test_queue_with_claim_column_opens_with_every_job_pending(tmp_path,
                                                              config):
    """A queue database whose claims were rows (a ``worker`` column and
    a partial pending index) opens with the index dropped and its
    claimed rows pending, then drains."""
    import sqlite3

    from repro.experiments.store import ResultStore

    root = tmp_path / "q"
    jobs = [ExperimentJob(Scenario.single(name, config, seed_offset=i))
            for i, name in enumerate(["RE", "ITP", "D2"])]
    db_path = ResultStore(root / "results").db_path
    conn = sqlite3.connect(db_path)
    conn.executescript(_CLAIM_COLUMN_SCHEMA)
    conn.executemany(
        "INSERT INTO queue_jobs (key, job, worker) VALUES (?, ?, ?)",
        [(job.key(), job.to_bytes(), worker)
         for job, worker in zip(jobs, ["w1", None, "w2"])])
    conn.commit()
    conn.close()

    queue = JobQueue(root)
    index = queue._conn().execute(
        "SELECT COUNT(*) FROM sqlite_master WHERE name = ?",
        ("idx_queue_jobs_pending",))
    assert index.fetchone() == (0,)
    counts = queue.counts()
    assert (counts.pending, counts.claimed) == (3, 0)

    later = ExperimentJob(Scenario.single("STK", config, seed_offset=9))
    _submit(queue, later)
    for job in jobs + [later]:
        claimed = _claim(queue, "w3")
        assert claimed.job == job
        _complete(queue, claimed, execute_job(job))
    assert _claim(queue, "w3") is None
    counts = queue.counts()
    assert (counts.pending, counts.claimed, counts.completed,
            counts.failed) == (0, 0, 4, 0)


def test_unreadable_job_row_becomes_a_failure_and_the_next_is_claimed(
        server, client, config):
    """A job row whose bytes do not decode is recorded as a failure
    marker by the worker that claimed it, and the claim moves on to the
    next pending job.  The server never reads the bytes."""
    broken = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    good = ExperimentJob(Scenario.single("ITP", config, seed_offset=2))
    client.submit_many([broken, good])
    server.queue.results.connection().execute(
        "UPDATE queue_jobs SET job = ? WHERE key = ?",
        (b"not a job", broken.key()))

    claimed = client.claim("w1")
    assert claimed.job == good
    marker = client.failure(broken.key())
    assert marker["key"] == broken.key()
    assert marker["worker"] == "w1"
    assert "JSONDecodeError" in marker["error"]
    counts = client.counts()
    assert (counts.pending, counts.claimed, counts.failed) == (0, 1, 1)


def test_requeue_worker_recovers_a_known_dead_workers_claims(tmp_path, config):
    queue = JobQueue(tmp_path / "q")
    job_a = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    job_b = ExperimentJob(Scenario.single("ITP", config, seed_offset=2))
    _submit(queue, job_a)
    _submit(queue, job_b)
    _claim(queue, "dead-worker")
    survivor = _claim(queue, "live-worker")
    assert queue.requeue_worker("dead-worker") == [job_a.key()]
    # The live worker's claim is untouched.
    assert queue.counts().claimed == 1
    assert queue.counts().pending == 1
    _complete(queue, survivor, execute_job(job_b))


def test_requeue_worker_with_no_claims_is_a_noop(tmp_path, config):
    """Requeueing an unknown or already-drained worker id returns [] —
    the coordinator calls this for every dead process, claims or not."""
    queue = JobQueue(tmp_path / "q")
    assert queue.requeue_worker("never-seen") == []
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    _submit(queue, job)
    claimed = _claim(queue, "w1")
    _complete(queue, claimed, execute_job(job))
    assert queue.requeue_worker("w1") == []       # claim already released
    assert queue.counts().pending == 0
    assert queue.counts().completed == 1


def _claimed_synthetic_job(queue, config, offset=1):
    """Submit and claim one job; its result is a small plain dict."""
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=offset))
    _submit(queue, job)
    claimed = _claim(queue, "w1")
    return claimed, {"fps": 30.0, "nested": {"rtt_s": [0.05, 0.07]}}


def _traced(queue, dispatch):
    """The SQL statements ``dispatch()`` runs on this thread's connection
    (the server's handler for a request made in this thread)."""
    statements: list[str] = []
    queue._conn().set_trace_callback(statements.append)
    try:
        dispatch()
    finally:
        queue._conn().set_trace_callback(None)
    return statements


def test_claim_commits_nothing(server, config):
    """A CLAIM is a read: it leases the job in memory and issues no
    BEGIN, COMMIT or write — no sync per claim."""
    queue = server.queue
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    _submit(queue, job)
    conn = queue._conn()
    changes = conn.total_changes
    replies = []
    statements = _traced(queue, lambda: replies.append(
        server._dispatch(MessageType.CLAIM, {"worker": "w1"})))
    assert replies[0]["claimed"]["key"] == job.key()
    verbs = {statement.split()[0].upper() for statement in statements}
    assert verbs == {"SELECT"}, statements
    assert conn.total_changes == changes
    assert not conn.in_transaction
    counts = queue.counts()
    assert (counts.pending, counts.claimed) == (0, 1)


def test_complete_commits_result_and_claim_delete_once(server, config):
    """A COMPLETE is one transaction: the result row, its metric rows and
    the job-row delete share one COMMIT, so one sync, and the lease
    ends."""
    queue = server.queue
    claimed, result = _claimed_synthetic_job(queue, config)
    row = _row(claimed, result, runtime_s=0.5)
    row["entry"] = blob_to_text(row["entry"])
    statements = _traced(queue, lambda: server._dispatch(
        MessageType.COMPLETE, {"key": claimed.key, "row": row}))
    verbs = [statement.split()[0] for statement in statements]
    assert verbs.count("COMMIT") == 1
    assert verbs[0] == "BEGIN" and verbs[-1] == "COMMIT"
    assert any(s.startswith("DELETE FROM queue_jobs") for s in statements)
    counts = queue.counts()
    assert (counts.pending, counts.claimed, counts.completed) == (0, 0, 1)
    assert queue.results.get_entry(claimed.key)["result"] == result
    assert claimed.key not in queue._claims


def test_failure_between_result_insert_and_claim_delete_commits_neither(
        tmp_path, config, monkeypatch):
    """A crash after the result rows are written and before the job row
    is deleted rolls both back, and the lease still runs."""
    import repro.experiments.queue as queue_module
    queue = JobQueue(tmp_path / "q")
    claimed, result = _claimed_synthetic_job(queue, config)
    row = _row(claimed, result, runtime_s=0.5)
    insert_row = queue_module._insert_row

    def crash(conn, row):
        insert_row(conn, row)
        assert conn.execute("SELECT COUNT(*) FROM results").fetchone() == (1,)
        raise RuntimeError("injected crash before the job-row delete")

    monkeypatch.setattr(queue_module, "_insert_row", crash)
    with pytest.raises(RuntimeError, match="injected crash"):
        queue.complete(claimed.key, row)
    conn = queue._conn()
    assert queue.results.get_entry(claimed.key) is None
    assert conn.execute("SELECT COUNT(*) FROM metrics").fetchone()[0] == 0
    assert conn.execute("SELECT key FROM queue_jobs").fetchall() \
        == [(claimed.key,)]
    assert queue._claims[claimed.key][0] == "w1"  # the lease still runs
    monkeypatch.undo()
    queue.complete(claimed.key, row)
    counts = queue.counts()
    assert (counts.pending, counts.claimed, counts.completed) == (0, 0, 1)


def test_complete_stores_a_result_whose_claim_was_requeued(tmp_path, config):
    """A worker that stalled past its lease still completes the job: its
    result ends the job and the lease the requeue handed to a second
    worker, whose own completion later rewrites an equal row."""
    queue = JobQueue(tmp_path / "q")
    claimed, result = _claimed_synthetic_job(queue, config)
    assert queue.requeue_worker("w1") == [claimed.key]
    second = _claim(queue, "w2")
    assert second.key == claimed.key
    queue.complete(claimed.key, _row(claimed, result))
    assert queue.results.get_entry(claimed.key)["result"] == result
    counts = queue.counts()
    assert (counts.pending, counts.claimed, counts.completed) == (0, 0, 1)
    assert queue.heartbeat("w2", [second.key]) == []

    queue.complete(second.key, _row(second, result))
    rows = queue._conn().execute(
        "SELECT COUNT(*) FROM results WHERE key = ?", (claimed.key,))
    assert rows.fetchone() == (1,)


def test_complete_refuses_a_row_filed_under_another_key(tmp_path, config):
    """The server checks a worker's row is filed under the claimed key:
    a mismatch stores nothing and keeps the claim."""
    queue = JobQueue(tmp_path / "q")
    claimed, result = _claimed_synthetic_job(queue, config)
    row = dict(_row(claimed, result), key="0" * 64)
    with pytest.raises(ValueError, match="cannot complete"):
        queue.complete(claimed.key, row)
    assert queue.counts().completed == 0
    assert queue.counts().claimed == 1


# ---------------------------------------------------------------------------
# Workers and the suite over the queue server
# ---------------------------------------------------------------------------

@pytest.fixture
def server(tmp_path):
    # Leases expire only when a test calls ``server.sweep()``.
    with QueueServer(tmp_path / "q", heartbeat_timeout_s=600.0,
                     sweep_interval_s=600.0) as srv:
        yield srv


@pytest.fixture
def client(server):
    queue = SocketQueue(server.address, retries=3, backoff_s=0.02)
    yield queue
    queue.close()


def _raise_injected(job):
    raise RuntimeError("injected failure")


def test_worker_records_failures_as_markers(server, client, config,
                                            monkeypatch):
    """A job that raises becomes a failure marker the submitter can see;
    the worker moves on instead of dying."""
    from repro.experiments import worker as worker_module

    bad = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    good = ExperimentJob(Scenario.single("ITP", config, seed_offset=2))
    client.submit_many([bad, good])

    real_execute = worker_module.execute_job

    def flaky_execute(job):
        if job == bad:
            raise RuntimeError("injected failure")
        return real_execute(job)

    monkeypatch.setattr(worker_module, "execute_job", flaky_execute)
    executed = run_worker(client, worker_id="w1", poll_s=0.01,
                          idle_timeout_s=0.05)
    assert executed == 1                        # only the good job completed
    failure = client.failure(bad.key())
    assert "injected failure" in failure["error"]
    assert failure["worker"] == "w1"
    assert "RuntimeError" in failure["traceback"]
    assert client.result_entry(good.key()) is not None
    assert client.failure(good.key()) is None


def test_socket_suite_surfaces_worker_failures(server, config, monkeypatch):
    """A job the worker fails raises in the submitting suite, with the
    worker's error and traceback."""
    from repro.experiments import worker as worker_module

    monkeypatch.setattr(worker_module, "execute_job", _raise_injected)
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    with SocketQueue(server.address) as worker_queue:
        # An in-process worker (so the patch applies) that outlives the
        # suite's submission by its idle timeout.
        worker = threading.Thread(
            target=run_worker, args=(worker_queue,),
            kwargs={"worker_id": "w1", "poll_s": 0.01,
                    "idle_timeout_s": 2.0})
        worker.start()
        try:
            with ExperimentSuite(queue_addr=server.address,
                                 spawn_workers=False, timeout_s=30) as suite:
                with pytest.raises(RuntimeError,
                                   match="queued job .*injected failure"):
                    suite.run([job])
        finally:
            worker.join()


def test_resubmitting_a_failed_job_clears_its_stale_failure_marker(
        server, client, config):
    """A failure marker left by an earlier attempt must not fail a fresh
    submission of the same job: enqueueing the key again drops it."""
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    server.queue.fail(job.key(), "old-worker", "RuntimeError('transient')")
    assert client.counts().failed == 1

    with ExperimentSuite(queue_addr=server.address, workers=1,
                         timeout_s=300) as suite:
        [result] = suite.run([job])
    assert result.as_dict() == execute_job(job).as_dict()
    assert client.failure(job.key()) is None
    counts = client.counts()
    assert (counts.failed, counts.completed) == (0, 1)


def test_socket_suite_rejects_tampered_queue_results(server, client, config,
                                                     caplog):
    """A pre-existing tampered result in a shared queue is logged,
    invalidated and re-executed — same contract as ResultStore.get."""
    import logging

    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    key = client.submit(job)
    executed = run_worker(client, worker_id="w1", poll_s=0.01, max_jobs=1)
    assert executed == 1

    entry = dict(client.result_entry(key))
    entry["scenario_hash"] = "0" * 64
    server.queue.results.put_entry(entry)

    reference = execute_job(job)
    with caplog.at_level(logging.WARNING, logger="repro.experiments.store"):
        with ExperimentSuite(workers=1, queue_addr=server.address,
                             timeout_s=300) as suite:
            [result] = suite.run([job])
    assert any("tampered cache entry" in record.message
               for record in caplog.records)
    assert result.as_dict() == reference.as_dict()
    # The queue's store now holds an honestly stamped entry again.
    assert client.result_entry(key)["scenario_hash"] \
        == job.scenario.content_hash()


def test_socket_suite_re_executes_an_unreadable_queue_result(
        server, client, config, caplog):
    """A stored row whose entry blob will not unpickle is logged,
    invalidated and re-executed.  The server only checks the row's
    schema column at submit time, so it is the suite's client that
    loads the blob, rejects it and resubmits the job."""
    import logging

    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    key = client.submit(job)
    assert run_worker(client, worker_id="w1", poll_s=0.01, max_jobs=1) == 1
    server.queue.results.connection().execute(
        "UPDATE results SET entry = ? WHERE key = ?", (b"not a pickle", key))

    reference = execute_job(job)
    with caplog.at_level(logging.WARNING, logger="repro.experiments.store"):
        with ExperimentSuite(workers=1, queue_addr=server.address,
                             timeout_s=300) as suite:
            [result] = suite.run([job])
    assert any(f"{server.address}#{key} is unreadable" in record.message
               for record in caplog.records)
    assert result.as_dict() == reference.as_dict()
    assert client.result_entry(key)["result"].as_dict() \
        == reference.as_dict()


# ---------------------------------------------------------------------------
# Backend equivalence: the headline deliverable
# ---------------------------------------------------------------------------

def test_serial_parallel_and_socket_agree(server, jobs):
    """The three backends agree; the socket leg runs against an external
    server with suite-spawned workers."""
    serial = ExperimentSuite(backend="serial").run(jobs)

    with ExperimentSuite(workers=2, backend="parallel") as suite:
        parallel = suite.run(jobs)

    with ExperimentSuite(workers=2, queue_addr=server.address,
                         timeout_s=300) as suite:
        socketed = suite.run(jobs)
        assert suite.stats.executed == len(jobs)

    assert _report_dicts(serial) == _report_dicts(parallel)
    assert _report_dicts(serial) == _report_dicts(socketed)
    assert [r.as_dict() for r in serial] == [r.as_dict() for r in socketed]


def test_socket_results_replay_from_suite_cache(tmp_path, jobs):
    """A socket run fills the ordinary result cache: a later serial
    suite replays it without executing anything."""
    cache_dir = tmp_path / "cache"
    with ExperimentSuite(workers=2, backend="socket", cache_dir=cache_dir,
                         timeout_s=300) as suite:
        socketed = suite.run(jobs)

    replay = ExperimentSuite(backend="serial", cache_dir=cache_dir)
    replayed = replay.run(jobs)
    assert replay.stats.executed == 0
    assert replay.stats.cache_hits == len(jobs)
    assert _report_dicts(socketed) == _report_dicts(replayed)


def test_cache_entries_identical_across_backends(tmp_path, jobs):
    """Each backend fills the result cache with identical entries: every
    provenance field byte-for-byte (pickled), and the result payload
    under the repo's determinism contract (``as_dict`` equality — raw
    pickle bytes of results legitimately vary across process boundaries
    because per-process hash seeds reorder set/dict internals without
    changing any value).  Only the wall-clock ``runtime_s`` stamp, which
    measures the run rather than the result, may differ."""
    import pickle

    from repro.experiments import ResultStore

    entries_by_backend = {}
    for backend in ("serial", "parallel", "socket"):
        cache_dir = tmp_path / f"cache-{backend}"
        with ExperimentSuite(workers=2, backend=backend,
                             cache_dir=cache_dir, timeout_s=300) as suite:
            suite.run(jobs)
        entries = {}
        for job in jobs:
            entry = dict(ResultStore(cache_dir).get_entry(job.key()))
            assert entry.pop("runtime_s") > 0
            result = entry.pop("result")
            entries[job.key()] = (
                pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL),
                result.as_dict(),
                [report.as_dict() for report in result.reports],
            )
        entries_by_backend[backend] = entries

    assert entries_by_backend["serial"] == entries_by_backend["parallel"]
    assert entries_by_backend["serial"] == entries_by_backend["socket"]


# ---------------------------------------------------------------------------
# Crash recovery: SIGKILL a worker mid-job
# ---------------------------------------------------------------------------

def test_sigkilled_worker_job_is_requeued_and_results_unaffected(
        server, client, config, tmp_path):
    """Kill -9 a worker while it holds a claim; the sweep requeues the
    job once its lease has gone unstamped for the heartbeat timeout, and
    a second worker produces the exact same results a serial run does."""
    # ~3s of wall time on the victim (duration=120 simulated seconds),
    # so the SIGKILL lands mid-execution; the second job stays pending.
    slow = ExperimentJob(Scenario.single("RE", config, seed_offset=1),
                         duration=120.0)
    fast = ExperimentJob(Scenario.single("ITP", config, seed_offset=2))
    client.submit_many([slow, fast])

    victim = spawn_worker(server.address, worker_id="victim", poll_s=0.02,
                          log_dir=tmp_path / "logs")
    try:
        _wait_for(lambda: client.counts().claimed == 1,
                  what="the victim to claim the slow job")
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait(timeout=10)
    finally:
        if victim.poll() is None:
            victim.kill()
            victim.wait()

    # The claim leaked: still marked claimed, no result, nothing pending
    # beyond the fast job.
    counts = client.counts()
    assert counts.claimed == 1
    assert counts.completed == 0
    assert client.result_entry(slow.key()) is None

    # The sweep recovers it once the lease is older than the timeout.
    assert server.sweep() == []
    _advance_clock(server.queue, server.heartbeat_timeout_s)
    assert server.sweep() == [slow.key()]
    assert client.counts().pending == 2
    assert client.counts().claimed == 0

    # A healthy worker drains the queue; results match serial execution
    # exactly, so the crash left no trace in the data.
    executed = run_worker(client, worker_id="rescuer", poll_s=0.01,
                          max_jobs=2)
    assert executed == 2
    assert client.counts().failed == 0
    for job in (slow, fast):
        entry = client.result_entry(job.key())
        reference = execute_job(job)
        assert entry["result"].as_dict() == reference.as_dict()
        assert [r.as_dict() for r in entry["result"].reports] \
            == [r.as_dict() for r in reference.reports]


def test_suite_requeues_claims_of_dead_spawned_workers(server, client,
                                                       config):
    """The socket suite's coordinator notices a spawned worker died (it
    owns the process handle), requeues its claims, and raises once
    ``workers`` of them crashed with no job completed.  The log the
    error names outlives the suite."""
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=3))
    client.submit(job)

    suite = ExperimentSuite(workers=1, queue_addr=server.address,
                            timeout_s=300)
    try:
        suite._ensure_queue()
        fleet = suite._fleet
        # Simulate: the suite's first spawned worker holds a claim and
        # dies.  The next scaling step must requeue it and raise.
        assert client.claim(f"{fleet.name}-0") is not None
        assert fleet.scale_once() == 1
        [dead] = fleet._workers.values()
        os.kill(dead.pid, signal.SIGKILL)
        dead.wait(timeout=10)
        with pytest.raises(RuntimeError, match="crashed") as raised:
            fleet.scale_once()
        assert client.counts().pending == 1     # the claim was requeued
        assert client.counts().claimed == 0
    finally:
        suite.close()
    log = str(raised.value).rsplit("log: ", 1)[1]
    assert log.endswith(f"{fleet.name}-0.log")
    assert os.path.exists(log)
    os.unlink(log)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_suite_backend_validation():
    # "distributed" was the retired shared-filesystem backend.
    for unknown in ("quantum", "distributed"):
        with pytest.raises(ValueError, match="unknown backend"):
            ExperimentSuite(backend=unknown)
    assert ExperimentSuite().backend == "serial"
    assert ExperimentSuite(workers=4).backend == "parallel"
    assert ExperimentSuite(queue_addr="127.0.0.1:1").backend == "socket"
