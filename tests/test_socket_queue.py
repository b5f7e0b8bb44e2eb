"""The socket transport: server, client, heartbeats, recovery, equivalence.

The headline contracts:

* the socket transport inherits JobQueue semantics (idempotent
  submit, priority order, provenance stamps) — the server keeps its
  queue in one;
* heartbeats keep an in-flight claim's lease alive, and a claim no
  heartbeat names requeues within the heartbeat timeout;
* every client call retries over fresh connections, so a restarted
  server degrades to a delay (or at worst a requeue: its claims are
  pending again at once) — never a lost or duplicated result;
* serial and socket-fleet runs are equivalent — including across a
  worker SIGKILL plus a server restart mid-drain (the chaos test CI
  runs by name).
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
from repro.experiments.protocol import MessageType
from repro.experiments.queue import JobQueue
from repro.experiments.server import QueueServer
from repro.experiments.socket_queue import (
    QueueConnectionError,
    QueueRemoteError,
    SocketQueue,
    parse_addr,
)
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


@pytest.fixture
def server(tmp_path):
    # Leases expire only when a test calls ``server.sweep()``.
    with QueueServer(tmp_path / "q", heartbeat_timeout_s=60.0,
                     sweep_interval_s=600.0) as srv:
        yield srv


@pytest.fixture
def client(server):
    queue = SocketQueue(server.address, retries=3, backoff_s=0.02)
    yield queue
    queue.close()


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
# Protocol roundtrip over the wire: JobQueue semantics inherited
# ---------------------------------------------------------------------------

def test_parse_addr():
    assert parse_addr("127.0.0.1:7781") == ("127.0.0.1", 7781)
    assert parse_addr("host.example:80") == ("host.example", 80)
    with pytest.raises(ValueError, match="host:port"):
        parse_addr("no-port")
    with pytest.raises(ValueError, match="host:port"):
        parse_addr(":7781")


def test_submit_claim_complete_roundtrip_over_tcp(server, client, config):
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    key = client.submit(job)
    assert key == job.key()
    assert client.counts().pending == 1

    claimed = client.claim("w1")
    assert claimed is not None
    assert claimed.key == key
    assert claimed.job == job
    assert claimed.worker_id == "w1"
    assert client.counts().claimed == 1
    assert client.claim("w2") is None

    result = execute_job(job)
    client.complete(claimed, result, runtime_s=0.5)
    counts = client.counts()
    assert (counts.pending, counts.claimed, counts.completed) == (0, 0, 1)

    entry = client.result_entry(key)
    assert entry["scenario_hash"] == job.scenario.content_hash()
    assert entry["runtime_s"] == 0.5
    assert entry["result"].as_dict() == result.as_dict()
    assert client.failure(key) is None

    # The wire changes nothing on disk: the server's JobQueue holds the
    # stored result.
    assert server.queue.results.get_entry(key)["result"].as_dict() \
        == result.as_dict()


def test_submit_is_idempotent_over_tcp(server, client, config):
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    assert client.submit(job) == client.submit(job)
    assert client.counts().pending == 1
    claimed = client.claim("w1")
    client.submit(job)
    assert client.counts().pending == 0
    client.complete(claimed, execute_job(job))
    client.submit(job)
    assert client.counts().pending == 0
    assert client.counts().completed == 1


def test_submit_many_is_one_frame_and_keeps_order(server, client, config):
    jobs = [ExperimentJob(Scenario.single("RE", config, seed_offset=i))
            for i in range(5)]
    keys = client.submit_many(jobs)
    assert keys == [job.key() for job in jobs]
    assert client.counts().pending == 5


def test_server_hands_out_claims_in_arrival_order(server, client, config):
    """Claims follow arrival order across submitters, whatever a job's
    size: a larger job submitted after a smaller one is claimed after it."""
    other = SocketQueue(server.address, retries=3, backoff_s=0.02)
    try:
        small = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
        large = ExperimentJob(Scenario.mixed(("RE", "ITP", "D2"), config,
                                             seed_offset=2))
        medium = ExperimentJob(Scenario.mixed(("RE", "ITP"), config,
                                              seed_offset=3))
        single = ExperimentJob(Scenario.single("ITP", config, seed_offset=4))
        last = ExperimentJob(Scenario.mixed(("STK", "RE"), config,
                                            seed_offset=5))
        assert small.cost_units() < large.cost_units()
        client.submit_many([small, large])
        other.submit_many([medium, single])
        client.submit(last)
        drained = [other.claim("w").job for _ in range(5)]
        assert drained == [small, large, medium, single, last]
        assert client.claim("w") is None
    finally:
        other.close()


def test_concurrent_claims_never_share_a_job(server, config):
    """Eight client threads claim and complete against one server with
    a shortened switch interval: every job is leased to exactly one of
    them, and the queue drains with each result stored once."""
    import sys
    import threading

    jobs = [ExperimentJob(Scenario.single("RE", config, seed_offset=i))
            for i in range(80)]
    claimed: list[str] = []

    def drain(worker_id):
        with SocketQueue(server.address) as queue:
            while (job := queue.claim(worker_id)) is not None:
                claimed.append(job.key)
                queue.complete(job, {"worker": worker_id})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with SocketQueue(server.address) as client:
            client.submit_many(jobs)
            threads = [threading.Thread(target=drain, args=(f"w{i}",))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            counts = client.counts()
    finally:
        sys.setswitchinterval(interval)
    assert sorted(claimed) == sorted(job.key() for job in jobs)
    assert (counts.pending, counts.claimed, counts.completed,
            counts.failed) == (0, 0, len(jobs), 0)


def test_failures_cross_the_wire_as_markers(server, client, config):
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    client.submit(job)
    claimed = client.claim("w1")
    try:
        raise RuntimeError("injected failure")
    except RuntimeError as error:
        client.fail(claimed, error)
    counts = client.counts()
    assert (counts.claimed, counts.failed) == (0, 1)
    marker = client.failure(job.key())
    assert "injected failure" in marker["error"]
    assert marker["worker"] == "w1"
    assert "RuntimeError" in marker["traceback"]


def test_invalidate_drops_a_completed_result(server, client, config):
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    client.submit(job)
    claimed = client.claim("w1")
    client.complete(claimed, execute_job(job))
    assert client.result_entry(job.key()) is not None
    client.invalidate(job.key())
    assert client.result_entry(job.key()) is None


def test_server_reported_errors_raise_without_retry(server, client):
    before = time.monotonic()
    with pytest.raises(QueueRemoteError):
        # A COMPLETE with no body is a server-side KeyError: the server
        # answers with an ERROR frame, which must surface immediately
        # (retrying a request the server processed repeats the failure).
        client._request(MessageType.COMPLETE, {})
    assert time.monotonic() - before < 1.0       # no backoff sleeps


# ---------------------------------------------------------------------------
# Heartbeats and liveness
# ---------------------------------------------------------------------------

def _age_leases(server, seconds):
    """Backdate every lease's stamp, as if ``seconds`` had passed."""
    with server._lock:
        claims = server.queue._claims
        for key, (worker, stamp, seq) in claims.items():
            claims[key] = (worker, stamp - seconds, seq)


def test_heartbeat_refreshes_only_the_named_claims(server, client, config):
    job_a = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    job_b = ExperimentJob(Scenario.single("ITP", config, seed_offset=2))
    client.submit_many([job_a, job_b])
    claim_a = client.claim("w1")
    claim_b = client.claim("w1")

    # Age both leases past the heartbeat timeout, then heartbeat only
    # one; another worker cannot restamp it.
    _age_leases(server, 60.0)
    assert client.heartbeat("w2", keys=[claim_a.key]) == []
    assert client.heartbeat("w1", keys=[claim_b.key, claim_a.key, "f" * 64]) \
        == [claim_a.key, claim_b.key]
    _age_leases(server, 60.0)
    assert client.heartbeat("w1", keys=[claim_a.key]) == [claim_a.key]

    # The acknowledged claim survives the sweep; the orphan — exactly
    # what a lost CLAIM response leaves behind — is requeued.
    assert server.sweep() == [claim_b.key]
    counts = client.counts()
    assert (counts.pending, counts.claimed) == (1, 1)
    assert client.claim("w2").key == claim_b.key


def test_heartbeat_with_empty_keys_is_a_pure_liveness_ping(server, client,
                                                           config):
    """A heartbeat naming no claim restamps nothing: the worker's lease
    still ages out."""
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    client.submit(job)
    claimed = client.claim("w1")
    _age_leases(server, 60.0)
    assert client.heartbeat("w1", keys=[]) == []
    assert server.sweep() == [claimed.key]


def test_silent_workers_claims_requeue_within_heartbeat_timeout(tmp_path,
                                                                config):
    with QueueServer(tmp_path / "q", heartbeat_timeout_s=0.5,
                     sweep_interval_s=0.1) as server:
        client = SocketQueue(server.address)
        job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
        client.submit(job)
        claimed = client.claim("silent-worker")
        assert claimed is not None

        # Heartbeats hold the claim well past the timeout...
        for _ in range(4):
            time.sleep(0.3)
            client.heartbeat("silent-worker", keys=[claimed.key])
        assert client.counts().claimed == 1

        # ...then silence: the sweeper requeues within ~timeout+sweep.
        _wait_for(lambda: client.counts().pending == 1, timeout_s=10.0,
                  what="the silent worker's claim to requeue")
        rescued = client.claim("rescuer")
        assert rescued.key == claimed.key
        client.complete(rescued, execute_job(job))
        client.close()


def test_restarted_server_adopts_existing_claims(tmp_path, config):
    """A claim dies with the server that leased it: a new server adopts
    the queue as found and offers the claimed job again at once, with no
    sweep."""
    root = tmp_path / "q"
    job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
    with QueueServer(root, heartbeat_timeout_s=60.0) as first:
        client = SocketQueue(first.address)
        client.submit(job)
        assert client.claim("ghost-worker") is not None
        client.close()

    with QueueServer(root, heartbeat_timeout_s=60.0,
                     sweep_interval_s=600.0) as second:
        client = SocketQueue(second.address)
        counts = client.counts()
        assert (counts.pending, counts.claimed) == (1, 0)
        assert client.claim("rescuer").key == job.key()
        client.close()


def test_run_worker_heartbeats_while_executing(tmp_path, config):
    """An in-flight job far slower than the heartbeat timeout survives,
    because the worker's pump keeps acknowledging it."""
    with QueueServer(tmp_path / "q", heartbeat_timeout_s=1.0,
                     sweep_interval_s=0.2) as server:
        client = SocketQueue(server.address)
        # ~3s of wall time (duration=120 simulated seconds): several
        # heartbeat timeouts long.
        slow = ExperimentJob(Scenario.single("RE", config, seed_offset=1),
                             duration=120.0)
        client.submit(slow)
        executed = run_worker(client, worker_id="steady", poll_s=0.05,
                              max_jobs=1, heartbeat_s=0.2)
        assert executed == 1
        counts = client.counts()
        assert (counts.completed, counts.failed, counts.pending) == (1, 0, 0)
        client.close()


# ---------------------------------------------------------------------------
# Client retry/backoff: connection loss degrades to a delay, not data loss
# ---------------------------------------------------------------------------

def test_unreachable_server_raises_connection_error(tmp_path):
    with QueueServer(tmp_path / "q") as server:
        dead_addr = server.address                # port freed on stop
    client = SocketQueue(dead_addr, retries=2, backoff_s=0.01, timeout_s=1.0)
    with pytest.raises(QueueConnectionError, match="unreachable"):
        client.counts()


def test_requests_ride_out_a_server_restart(tmp_path, config):
    """A request that begins while the server is down succeeds once it
    comes back inside the retry window — the worker never notices."""
    import threading

    root = tmp_path / "q"
    with QueueServer(root) as first:
        addr = first.address
        client = SocketQueue(addr, retries=10, backoff_s=0.05)
        job = ExperimentJob(Scenario.single("RE", config, seed_offset=1))
        client.submit(job)

    # Server is down.  Restart it on the same port shortly after the
    # client has started retrying.
    host, port = parse_addr(addr)
    second = {}

    def restart():
        time.sleep(0.4)
        second["server"] = QueueServer(root, host=host,
                                       port=port).start()

    restarter = threading.Thread(target=restart)
    restarter.start()
    try:
        claimed = client.claim("patient-worker")  # spans the outage
        assert claimed is not None
        assert claimed.job == job
        client.complete(claimed, execute_job(job))
        assert client.counts().completed == 1
    finally:
        restarter.join()
        second["server"].stop()
        client.close()


# ---------------------------------------------------------------------------
# The server moves bytes: a full drain with unpickling disabled in it
# ---------------------------------------------------------------------------

#: ``serve`` with every unpickling entry point made to raise before the
#: repro packages load.
_PICKLE_FREE_SERVE = """
import pickle
import sys

def refuse(*args, **kwargs):
    raise AssertionError("the queue server unpickled")

class RefusingUnpickler:
    def __init__(self, *args, **kwargs):
        refuse()

pickle.loads = pickle.load = refuse
pickle.Unpickler = RefusingUnpickler

from repro.experiments.__main__ import main

sys.exit(main(sys.argv[1:]))
"""


def _start_pickle_free_server(root):
    """A ``serve --port 0`` subprocess that cannot unpickle; returns the
    process, its address and its log."""
    import subprocess
    import sys

    import repro

    src_root = str(os.path.dirname(os.path.dirname(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src_root + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    log = root / "server.log"
    with log.open("wb") as handle:
        process = subprocess.Popen(
            [sys.executable, "-c", _PICKLE_FREE_SERVE, "serve",
             "--queue", str(root / "q"), "--port", "0"],
            env=env, stdout=handle, stderr=handle)
    marker = "queue server listening on "

    def listening():
        assert process.poll() is None, log.read_text()
        return marker in log.read_text()

    _wait_for(listening, what="the server to listen")
    line = next(line for line in log.read_text().splitlines()
                if marker in line)
    return process, line.split(marker)[1].split()[0], log


def test_a_full_drain_never_unpickles_in_the_server(tmp_path):
    """300 small jobs cross SUBMIT, CLAIM, COMPLETE and RESULT, replay
    warm through a suite, and an artifact goes up and comes back — all
    against a server whose ``pickle.loads`` and ``pickle.Unpickler``
    raise.  Every result equals an in-process ``execute_job``."""
    config = ExperimentConfig(duration_s=0.08, warmup_s=0.02)
    names = config.benchmarks
    jobs = [ExperimentJob(Scenario.single(names[i % len(names)], config,
                                          seed_offset=i))
            for i in range(300)]
    process, addr, log = _start_pickle_free_server(tmp_path)
    try:
        with SocketQueue(addr) as client:
            assert client.submit_many(jobs) == [job.key() for job in jobs]
            assert run_worker(client, worker_id="w", poll_s=0.01,
                              max_jobs=len(jobs)) == len(jobs)
            drained = [client.result_entry(job.key())["result"]
                       for job in jobs]
            counts = client.counts()
            assert (counts.pending, counts.claimed, counts.completed,
                    counts.failed) == (0, 0, len(jobs), 0)

            artifacts = client.artifact_store()
            payload = bytes(range(256)) * 4
            assert artifacts.put_artifact_bytes(
                "a" * 64, payload, schema=1, benchmark="RE",
                spec={"benchmark": "RE"}, runtime_s=0.5)
            assert artifacts.get_artifact_bytes("a" * 64, schema=1) == payload
            [row] = artifacts.artifact_rows("RE")
            assert (row["hash"], row["size_bytes"]) == ("a" * 64, len(payload))
            assert not artifacts._disabled

        with ExperimentSuite(queue_addr=addr, spawn_workers=False,
                             timeout_s=60.0) as suite:
            replayed = suite.run(jobs)
    finally:
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=30)
    assert "unpickled" not in log.read_text()
    assert process.returncode == 0, log.read_text()
    for job, cold, warm in zip(jobs, drained, replayed):
        reference = execute_job(job).as_dict()
        assert cold.as_dict() == reference
        assert warm.as_dict() == reference


# ---------------------------------------------------------------------------
# Suite equivalence and the external fleet
# ---------------------------------------------------------------------------

def test_serial_and_socket_suites_agree(tmp_path, jobs):
    serial = ExperimentSuite(backend="serial").run(jobs)
    with ExperimentSuite(workers=2, backend="socket",
                         timeout_s=300) as suite:
        socketed = suite.run(jobs)
        assert suite.stats.executed == len(jobs)
    assert _report_dicts(serial) == _report_dicts(socketed)
    assert [r.as_dict() for r in serial] == [r.as_dict() for r in socketed]


def test_external_addr_workers_drain_a_suite_submission(tmp_path, jobs):
    """spawn_workers=False + an external --addr worker fleet: the
    multi-machine deployment shape."""
    with QueueServer(tmp_path / "q") as server:
        workers = [spawn_worker(server.address,
                                worker_id=f"external-{i}", poll_s=0.02,
                                idle_timeout_s=60.0, heartbeat_s=0.5,
                                log_dir=tmp_path / "logs")
                   for i in range(2)]
        try:
            with ExperimentSuite(backend="socket",
                                 queue_addr=server.address,
                                 spawn_workers=False,
                                 timeout_s=300) as suite:
                socketed = suite.run(jobs)
        finally:
            for proc in workers:
                proc.terminate()
            for proc in workers:
                proc.wait(timeout=10)
        assert server.queue.counts().completed == len(jobs)

    serial = ExperimentSuite(backend="serial").run(jobs)
    assert _report_dicts(socketed) == _report_dicts(serial)


def test_suite_backend_validation():
    with pytest.raises(ValueError, match="queue_addr"):
        ExperimentSuite(backend="serial", queue_addr="127.0.0.1:1")
    with pytest.raises(ValueError, match="queue_addr"):
        ExperimentSuite(backend="parallel", queue_addr="127.0.0.1:1")
    assert ExperimentSuite(queue_addr="127.0.0.1:1").backend == "socket"
    assert ExperimentSuite(backend="socket").backend == "socket"


# ---------------------------------------------------------------------------
# Chaos: SIGKILL a worker AND restart the server mid-drain
# ---------------------------------------------------------------------------

def test_chaos_worker_sigkill_and_server_restart_mid_drain(tmp_path, config):
    """Kill -9 a heartbeating worker mid-job, then kill the server too
    and restart it on the same port: the victim's job is pending the
    moment the new server opens the queue, a rescue worker drains
    everything, and every result is bit-identical to serial execution."""
    root = tmp_path / "q"
    # Medium jobs (~1.5s wall each) so the SIGKILL lands mid-execution.
    jobs = [ExperimentJob(Scenario.single(name, config, seed_offset=i),
                          duration=60.0)
            for i, name in enumerate(["RE", "ITP", "D2", "STK"])]

    first = QueueServer(root, heartbeat_timeout_s=1.0,
                        sweep_interval_s=0.2).start()
    addr = first.address
    client = SocketQueue(addr, retries=10, backoff_s=0.05)
    keys = client.submit_many(jobs)
    assert len(keys) == len(jobs)

    victim = spawn_worker(addr, worker_id="victim", poll_s=0.02,
                          heartbeat_s=0.2, log_dir=tmp_path / "logs")
    try:
        _wait_for(lambda: client.counts().claimed >= 1,
                  what="the victim to claim a job")
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait(timeout=10)
    finally:
        if victim.poll() is None:
            victim.kill()
            victim.wait()

    # Chaos, part two: the server dies with the victim's claim
    # outstanding...
    victim_keys = set(first.queue._claims)
    assert victim_keys
    first.stop()

    # ...and its replacement, which holds no leases, offers the
    # victim's job again before it serves a single request.
    host, port = parse_addr(addr)
    second = QueueServer(root, host=host, port=port,
                         heartbeat_timeout_s=1.0, sweep_interval_s=0.2)
    counts = second.queue.counts()
    assert counts.claimed == 0
    assert counts.pending + counts.completed == len(jobs)
    assert all(second.queue.results.get_entry(key) is None
               for key in victim_keys)
    with second:
        rescuer = spawn_worker(addr, worker_id="rescuer", poll_s=0.02,
                               heartbeat_s=0.2, log_dir=tmp_path / "logs")
        try:
            _wait_for(lambda: client.counts().completed == len(jobs),
                      timeout_s=120.0, what="the rescuer to drain the queue")
        finally:
            rescuer.terminate()
            rescuer.wait(timeout=10)

        counts = client.counts()
        assert (counts.pending, counts.claimed, counts.failed) == (0, 0, 0)
        assert counts.completed == len(jobs)
        for job in jobs:
            entry = client.result_entry(job.key())
            reference = execute_job(job)
            assert entry["result"].as_dict() == reference.as_dict()
            assert [r.as_dict() for r in entry["result"].reports] \
                == [r.as_dict() for r in reference.reports]
    client.close()


def test_server_restart_mid_job_offers_it_at_once_and_stores_each_result_once(
        tmp_path, config):
    """Stop the server while a worker is still executing its job and
    restart it on the same port: the job is pending at once, the queue
    drains — the first worker's late completion and a second worker's
    re-run of the same job write one equal row — and every result
    equals serial execution."""
    root = tmp_path / "q"
    # ~3s of wall time (duration=120 simulated seconds) for the first
    # job, so the restart lands mid-execution; the rest are quick.
    jobs = [ExperimentJob(Scenario.single("RE", config, seed_offset=1),
                          duration=120.0)]
    jobs += [ExperimentJob(Scenario.single(name, config, seed_offset=i))
             for i, name in enumerate(["ITP", "D2", "STK"], start=2)]
    workers = []
    first = QueueServer(root, heartbeat_timeout_s=60.0).start()
    addr = first.address
    client = SocketQueue(addr, retries=10, backoff_s=0.05)
    try:
        assert client.submit_many(jobs) == [job.key() for job in jobs]
        workers.append(spawn_worker(addr, worker_id="first", poll_s=0.02,
                                    idle_timeout_s=30.0, heartbeat_s=0.2,
                                    log_dir=tmp_path / "logs"))
        _wait_for(lambda: client.counts().claimed == 1,
                  what="the first worker to claim the slow job")
        first.stop()

        host, port = parse_addr(addr)
        second = QueueServer(root, host=host, port=port,
                             heartbeat_timeout_s=60.0)
        counts = second.queue.counts()
        assert (counts.pending, counts.claimed, counts.completed) \
            == (len(jobs), 0, 0)
        with second:
            workers.append(spawn_worker(addr, worker_id="second",
                                        poll_s=0.02, idle_timeout_s=30.0,
                                        heartbeat_s=0.2,
                                        log_dir=tmp_path / "logs"))
            _wait_for(lambda: client.counts().completed == len(jobs),
                      timeout_s=120.0, what="the queue to drain")
            counts = client.counts()
            assert (counts.pending, counts.claimed, counts.failed) \
                == (0, 0, 0)
            rows = second.queue._conn().execute(
                "SELECT key, COUNT(*) FROM results GROUP BY key").fetchall()
            assert sorted(rows) == sorted((job.key(), 1) for job in jobs)
            for job in jobs:
                entry = client.result_entry(job.key())
                reference = execute_job(job)
                assert entry["result"].as_dict() == reference.as_dict()
                assert [r.as_dict() for r in entry["result"].reports] \
                    == [r.as_dict() for r in reference.reports]
    finally:
        for worker in workers:
            worker.terminate()
            worker.wait(timeout=10)
        client.close()
