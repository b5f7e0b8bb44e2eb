"""The distributed execution backend: queue protocol, workers, recovery.

The headline contract: running the same job set serially, on the
process-pool backend, and through a multi-worker distributed queue
produces bit-identical results — and the queue survives a worker dying
mid-job (SIGKILL) without losing or corrupting anything.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.experiments import (
    ExperimentConfig,
    ExperimentJob,
    ExperimentSuite,
    Scenario,
    execute_job,
)
from repro.experiments.queue import DirectoryQueue
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


# ---------------------------------------------------------------------------
# DirectoryQueue protocol
# ---------------------------------------------------------------------------

def test_submit_claim_complete_roundtrip(tmp_path, config):
    queue = DirectoryQueue(tmp_path / "q")
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    key = queue.submit(job)
    assert key == job.key()
    assert queue.counts().pending == 1

    claimed = queue.claim("w1")
    assert claimed is not None
    assert claimed.key == key
    assert claimed.job == job
    assert claimed.worker_id == "w1"
    assert queue.counts().pending == 0
    assert queue.counts().claimed == 1
    assert queue.claim("w2") is None            # nothing left to claim

    result = execute_job(job)
    queue.complete(claimed, result, runtime_s=0.5)
    counts = queue.counts()
    assert (counts.pending, counts.claimed, counts.completed) == (0, 0, 1)

    entry = queue.result_entry(key)
    assert entry["scenario_hash"] == job.scenario.content_hash()
    assert entry["runtime_s"] == 0.5
    assert entry["result"].as_dict() == result.as_dict()


def test_submit_is_idempotent_per_content_hash(tmp_path, config):
    queue = DirectoryQueue(tmp_path / "q")
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    assert queue.submit(job) == queue.submit(job)
    assert queue.counts().pending == 1
    # Claimed (in flight) jobs are not resubmitted either...
    claimed = queue.claim("w1")
    queue.submit(job)
    assert queue.counts().pending == 0
    # ...nor are completed ones.
    queue.complete(claimed, execute_job(job))
    queue.submit(job)
    assert queue.counts().pending == 0


def test_claims_drain_in_submission_priority_order(tmp_path, config):
    """The lexicographic order of pending/ is the submission order, so
    whatever the submitter's packing decided is what workers see."""
    queue = DirectoryQueue(tmp_path / "q")
    submitted = [ExperimentJob(Scenario.single("RE", config, seed_offset=i))
                 for i in range(5)]
    for job in submitted:
        queue.submit(job)
    drained = [queue.claim("w1").job for _ in submitted]
    assert drained == submitted


def test_sequence_survives_queue_reopening(tmp_path, config):
    """A second submitter (or a restarted one) continues the priority
    sequence instead of jumping its jobs ahead of the existing backlog."""
    first = DirectoryQueue(tmp_path / "q")
    job_a = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    first.submit(job_a)
    second = DirectoryQueue(tmp_path / "q")
    job_b = ExperimentJob(Scenario.single("ITP", config, seed_offset=2))
    second.submit(job_b)
    assert second.claim("w").job == job_a
    assert second.claim("w").job == job_b


def test_requeue_stale_recovers_an_expired_claim(tmp_path, config):
    queue = DirectoryQueue(tmp_path / "q")
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    queue.submit(job)
    claimed = queue.claim("w1")

    # A fresh claim is inside its lease: nothing to requeue.
    assert queue.requeue_stale(lease_s=60.0) == []
    # Age the claim past the lease and it returns to pending.
    old = time.time() - 120.0
    os.utime(claimed.path, (old, old))
    assert queue.requeue_stale(lease_s=60.0) == [claimed.key]
    assert queue.counts().pending == 1
    assert queue.counts().claimed == 0

    # The requeued job is claimable again, and a late completion of the
    # original claim handle is harmless (at-least-once delivery).
    reclaimed = queue.claim("w2")
    assert reclaimed.job == job
    result = execute_job(job)
    queue.complete(claimed, result)             # stale handle, path gone
    queue.complete(reclaimed, result)
    assert queue.result_entry(job.key()) is not None


def test_claiming_an_aged_pending_job_starts_a_fresh_lease(tmp_path, config):
    """A job that waited in pending/ longer than the lease must not look
    stale the instant it is claimed (the lease clock is the claim file's
    mtime, refreshed at claim time — not the submission time)."""
    queue = DirectoryQueue(tmp_path / "q")
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    queue.submit(job)
    # Age the pending file far past any lease.
    [pending] = list(queue.pending_dir.iterdir())
    old = time.time() - 3600.0
    os.utime(pending, (old, old))

    claimed = queue.claim("w1")
    assert claimed is not None
    assert queue.requeue_stale(lease_s=60.0) == []
    queue.complete(claimed, execute_job(job))
    assert queue.result_entry(job.key()) is not None


def test_wall_clock_jump_forward_does_not_expire_a_watched_claim(tmp_path,
                                                                 config):
    """Lease aging is monotonic: an NTP step / DST jump of the wall clock
    must not mass-requeue claims whose workers are alive and on time."""
    queue = DirectoryQueue(tmp_path / "q")
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    queue.submit(job)
    claimed = queue.claim("w1")
    # First sweep establishes the monotonic mark for the claim.
    assert queue.requeue_stale(lease_s=60.0) == []

    # The wall clock leaps an hour forward; monotonic time barely moves.
    queue._wall = lambda: time.time() + 3600.0
    assert queue.requeue_stale(lease_s=60.0) == []
    # A heartbeat during the jump keeps the claim fresh too.
    assert queue.heartbeat("w1") == [claimed.key]
    assert queue.requeue_stale(lease_s=60.0) == []
    assert queue.counts().claimed == 1


def test_future_stamped_claim_still_expires_on_monotonic_time(tmp_path,
                                                              config):
    """A claim whose mtime is in the future (the wall clock stepped back
    after it was written) must not be immortal: it ages from first
    sighting on the monotonic clock and is recovered once the worker
    really stops heartbeating."""
    queue = DirectoryQueue(tmp_path / "q")
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    queue.submit(job)
    claimed = queue.claim("w1")
    future = time.time() + 3600.0
    os.utime(claimed.path, (future, future))

    # First sighting clamps the future stamp to zero age instead of
    # computing a negative one.
    assert queue.requeue_stale(lease_s=60.0) == []
    # Advance only the monotonic clock past the lease: recovered.
    mono_base = time.monotonic
    queue._mono = lambda: mono_base() + 120.0
    assert queue.requeue_stale(lease_s=60.0) == [claimed.key]
    assert queue.counts().pending == 1
    assert queue.counts().claimed == 0


def test_distributed_suite_rejects_tampered_queue_results(tmp_path, config,
                                                          caplog):
    """A pre-existing tampered result in a shared queue is logged,
    invalidated and re-executed — same contract as ResultStore.get."""
    import logging

    queue = DirectoryQueue(tmp_path / "q")
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    key = queue.submit(job)
    executed = run_worker(queue, worker_id="w1", poll_s=0.01, max_jobs=1)
    assert executed == 1

    entry = dict(queue.result_entry(key))
    entry["scenario_hash"] = "0" * 64
    queue.results.put_entry(entry)

    reference = execute_job(job)
    with caplog.at_level(logging.WARNING, logger="repro.experiments.executor"):
        with ExperimentSuite(workers=1, backend="distributed",
                             queue_dir=tmp_path / "q",
                             timeout_s=300) as suite:
            [result] = suite.run([job])
    assert any("tampered cache entry" in record.message
               for record in caplog.records)
    assert result.as_dict() == reference.as_dict()
    # The queue's store now holds an honestly stamped entry again.
    assert queue.result_entry(key)["scenario_hash"] \
        == job.scenario.content_hash()


def test_requeue_worker_recovers_a_known_dead_workers_claims(tmp_path, config):
    queue = DirectoryQueue(tmp_path / "q")
    job_a = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    job_b = ExperimentJob(Scenario.single("ITP", config, seed_offset=2))
    queue.submit(job_a)
    queue.submit(job_b)
    queue.claim("dead-worker")
    survivor = queue.claim("live-worker")
    assert queue.requeue_worker("dead-worker") == [job_a.key()]
    # The live worker's claim is untouched.
    assert queue.counts().claimed == 1
    assert queue.counts().pending == 1
    queue.complete(survivor, execute_job(job_b))


def test_requeue_worker_with_no_claims_is_a_noop(tmp_path, config):
    """Requeueing an unknown or already-drained worker id returns [] —
    the coordinator calls this for every dead process, claims or not."""
    queue = DirectoryQueue(tmp_path / "q")
    assert queue.requeue_worker("never-seen") == []
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    queue.submit(job)
    claimed = queue.claim("w1")
    queue.complete(claimed, execute_job(job))
    assert queue.requeue_worker("w1") == []       # claim already released
    assert queue.counts().pending == 0
    assert queue.counts().completed == 1


def test_requeue_worker_racing_a_complete_loses_gracefully(tmp_path, config,
                                                           monkeypatch):
    """The narrow race: a worker finishes its job between requeue's
    directory scan and its rename.  The rename hits FileNotFoundError,
    the requeue reports nothing, and the completed result stands —
    the job neither duplicates nor requeues."""
    from pathlib import Path

    queue = DirectoryQueue(tmp_path / "q")
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    queue.submit(job)
    claimed = queue.claim("slow-worker")
    result = execute_job(job)

    real_rename = os.rename
    raced = {"done": False}

    def racing_rename(src, dst, *args, **kwargs):
        if Path(src).parent == queue.claimed_dir and not raced["done"]:
            raced["done"] = True
            queue.complete(claimed, result)       # worker wins the race
        return real_rename(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "rename", racing_rename)
    assert queue.requeue_worker("slow-worker") == []
    assert raced["done"]
    counts = queue.counts()
    assert (counts.pending, counts.claimed, counts.completed) == (0, 0, 1)
    assert queue.result_entry(job.key())["result"].as_dict() \
        == result.as_dict()


def test_worker_records_failures_as_markers(tmp_path, config, monkeypatch):
    """A job that raises becomes a failure marker the submitter can see;
    the worker moves on instead of dying."""
    from repro.experiments import worker as worker_module

    queue = DirectoryQueue(tmp_path / "q")
    bad = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    good = ExperimentJob(Scenario.single("ITP", config, seed_offset=2))
    queue.submit(bad)
    queue.submit(good)

    real_execute = worker_module.execute_job

    def flaky_execute(job):
        if job == bad:
            raise RuntimeError("injected failure")
        return real_execute(job)

    monkeypatch.setattr(worker_module, "execute_job", flaky_execute)
    executed = run_worker(queue, worker_id="w1", poll_s=0.01,
                          idle_timeout_s=0.05)
    assert executed == 1                        # only the good job completed
    failure = queue.failure(bad.key())
    assert "injected failure" in failure["error"]
    assert failure["worker"] == "w1"
    assert "RuntimeError" in failure["traceback"]
    assert queue.result_entry(good.key()) is not None
    assert queue.failure(good.key()) is None


def test_distributed_suite_surfaces_worker_failures(tmp_path, config,
                                                    monkeypatch):
    from repro.experiments import worker as worker_module

    monkeypatch.setattr(worker_module, "execute_job",
                        lambda job: (_ for _ in ()).throw(
                            RuntimeError("injected failure")))
    queue = DirectoryQueue(tmp_path / "q")
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    queue.submit(job)
    run_worker(queue, worker_id="w1", poll_s=0.01, idle_timeout_s=0.05)

    with ExperimentSuite(backend="distributed", queue_dir=tmp_path / "q",
                         spawn_workers=False, timeout_s=30) as suite:
        with pytest.raises(RuntimeError, match="injected failure"):
            suite.run([job])


# ---------------------------------------------------------------------------
# Backend equivalence: the headline deliverable
# ---------------------------------------------------------------------------

def test_serial_parallel_and_distributed_agree(tmp_path, jobs):
    serial = ExperimentSuite(backend="serial").run(jobs)

    with ExperimentSuite(workers=2, backend="parallel") as suite:
        parallel = suite.run(jobs)

    with ExperimentSuite(workers=2, backend="distributed",
                         queue_dir=tmp_path / "q", timeout_s=300) as suite:
        distributed = suite.run(jobs)
        assert suite.stats.executed == len(jobs)

    assert _report_dicts(serial) == _report_dicts(parallel)
    assert _report_dicts(serial) == _report_dicts(distributed)
    assert [r.as_dict() for r in serial] == [r.as_dict() for r in distributed]


def test_distributed_results_replay_from_suite_cache(tmp_path, jobs):
    """A distributed run fills the ordinary result cache: a later serial
    suite replays it without executing anything."""
    cache_dir = tmp_path / "cache"
    with ExperimentSuite(workers=2, backend="distributed",
                         queue_dir=tmp_path / "q", cache_dir=cache_dir,
                         timeout_s=300) as suite:
        distributed = suite.run(jobs)

    replay = ExperimentSuite(backend="serial", cache_dir=cache_dir)
    replayed = replay.run(jobs)
    assert replay.stats.executed == 0
    assert replay.stats.cache_hits == len(jobs)
    assert _report_dicts(distributed) == _report_dicts(replayed)


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
    for backend in ("serial", "parallel", "distributed"):
        cache_dir = tmp_path / f"cache-{backend}"
        with ExperimentSuite(workers=2, backend=backend,
                             queue_dir=(tmp_path / "q" if backend ==
                                        "distributed" else None),
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
    assert entries_by_backend["serial"] == entries_by_backend["distributed"]


def test_external_workers_drain_a_suite_submission(tmp_path, jobs):
    """spawn_workers=False: the suite only submits and waits; standalone
    workers (the `python -m repro.experiments worker` entrypoint) do the
    executing — the multi-machine deployment shape."""
    queue_root = tmp_path / "q"
    queue = DirectoryQueue(queue_root)
    workers = [spawn_worker(queue_root, worker_id=f"external-{i}",
                            poll_s=0.02, idle_timeout_s=60.0)
               for i in range(2)]
    try:
        with ExperimentSuite(backend="distributed", queue_dir=queue_root,
                             spawn_workers=False, timeout_s=300) as suite:
            distributed = suite.run(jobs)
    finally:
        for proc in workers:
            proc.terminate()
        for proc in workers:
            proc.wait(timeout=10)

    serial = ExperimentSuite(backend="serial").run(jobs)
    assert _report_dicts(distributed) == _report_dicts(serial)
    assert queue.counts().completed == len(jobs)


# ---------------------------------------------------------------------------
# Crash recovery: SIGKILL a worker mid-job
# ---------------------------------------------------------------------------

def test_sigkilled_worker_job_is_requeued_and_results_unaffected(tmp_path,
                                                                 config):
    """Kill -9 a worker while it holds a claim; the lease requeues the
    job and a second worker produces the exact same results a serial
    run does."""
    queue_root = tmp_path / "q"
    queue = DirectoryQueue(queue_root)
    # ~3s of wall time on the victim (duration=120 simulated seconds),
    # so the SIGKILL lands mid-execution; the second job stays pending.
    slow = ExperimentJob(Scenario.single("RE", config, seed_offset=1),
                         duration=120.0)
    fast = ExperimentJob(Scenario.single("ITP", config, seed_offset=2))
    queue.submit(slow)
    queue.submit(fast)

    victim = spawn_worker(queue_root, worker_id="victim", poll_s=0.02)
    try:
        _wait_for(lambda: queue.counts().claimed == 1,
                  what="the victim to claim the slow job")
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait(timeout=10)
    finally:
        if victim.poll() is None:
            victim.kill()
            victim.wait()

    # The claim leaked: still marked claimed, no result, nothing pending
    # beyond the fast job.
    counts = queue.counts()
    assert counts.claimed == 1
    assert counts.completed == 0
    assert queue.result_entry(slow.key()) is None

    # The lease mechanism recovers it (lease 0: the worker is known dead).
    assert queue.requeue_stale(lease_s=0.0) == [slow.key()]
    assert queue.counts().pending == 2
    assert queue.counts().claimed == 0

    # A healthy worker drains the queue; results match serial execution
    # exactly, so the crash left no trace in the data.
    executed = run_worker(queue, worker_id="rescuer", poll_s=0.01,
                          max_jobs=2)
    assert executed == 2
    assert queue.counts().failed == 0
    for job in (slow, fast):
        entry = queue.result_entry(job.key())
        reference = execute_job(job)
        assert entry["result"].as_dict() == reference.as_dict()
        assert [r.as_dict() for r in entry["result"].reports] \
            == [r.as_dict() for r in reference.reports]


def test_suite_requeues_claims_of_dead_spawned_workers(tmp_path, config):
    """The distributed suite notices a spawned worker died (it owns the
    process handle), requeues its claims, and raises only when nobody is
    left to make progress."""
    queue = DirectoryQueue(tmp_path / "q")
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=3))
    queue.submit(job)
    claimed = queue.claim("suite-0-w0")
    assert claimed is not None

    suite = ExperimentSuite(workers=1, backend="distributed",
                            queue_dir=tmp_path / "q", timeout_s=300)
    try:
        # Simulate: the suite's spawned worker (already holding a claim)
        # dies instantly.  _reap_dead_workers must requeue and raise.
        dead = spawn_worker(tmp_path / "q", worker_id="suite-0-w0",
                            poll_s=0.02)
        os.kill(dead.pid, signal.SIGKILL)
        dead.wait(timeout=10)
        suite._worker_procs = [(dead, "suite-0-w0")]
        with pytest.raises(RuntimeError, match="workers exited"):
            suite._reap_dead_workers(queue)
        assert queue.counts().pending == 1      # the claim was requeued
        assert queue.counts().claimed == 0
    finally:
        suite._worker_procs = []
        suite.close()


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_suite_backend_validation(tmp_path):
    with pytest.raises(ValueError, match="unknown backend"):
        ExperimentSuite(backend="quantum")
    with pytest.raises(ValueError, match="queue_dir"):
        ExperimentSuite(backend="serial", queue_dir=tmp_path)
    assert ExperimentSuite().backend == "serial"
    assert ExperimentSuite(workers=4).backend == "parallel"
    assert ExperimentSuite(queue_dir=tmp_path / "q").backend == "distributed"
