"""The coordinator's worker policy, without real processes.

A fake queue reports whatever depth and completed count a test sets, and
``spawn_worker`` is replaced by a recorder that creates the worker's log
file and returns a fake process the test can "crash" by setting an exit
code.  Logs go to a per-test temp directory.
"""

from __future__ import annotations

import dataclasses
import tempfile

import pytest

from repro.experiments import coordinator as coordinator_module
from repro.experiments.coordinator import Coordinator
from repro.experiments.queue import QueueCounts
from repro.experiments.worker import worker_log


class FakeProcess:
    def __init__(self):
        self.returncode = None

    def poll(self):
        return self.returncode

    def terminate(self):
        self.returncode = -15

    def wait(self, timeout=None):
        return self.returncode

    def kill(self):
        self.returncode = -9


class FakeQueue:
    def __init__(self, pending=0, claimed=0, completed=0):
        self.counts_now = QueueCounts(pending=pending, claimed=claimed, completed=completed)
        self.requeued: list[str] = []

    def counts(self):
        return self.counts_now

    def set(self, **fields):
        self.counts_now = dataclasses.replace(self.counts_now, **fields)

    def requeue_worker(self, worker_id):
        self.requeued.append(worker_id)
        return []

    def close(self):
        pass


@pytest.fixture
def spawned(monkeypatch, tmp_path):
    """worker_id -> (idle_timeout_s, FakeProcess) for every spawn."""
    record: dict[str, tuple] = {}
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

    def fake_spawn(addr, *, worker_id, idle_timeout_s=None, **_):
        log = worker_log(worker_id)
        log.parent.mkdir(parents=True, exist_ok=True)
        log.write_text("")
        process = FakeProcess()
        record[worker_id] = (idle_timeout_s, process)
        return process

    monkeypatch.setattr(coordinator_module, "spawn_worker", fake_spawn)
    return record


def _crash(spawned, worker_id, code=1):
    spawned[worker_id][1].returncode = code


def test_floor_workers_never_idle_out(spawned):
    queue = FakeQueue(pending=10)
    fleet = Coordinator("127.0.0.1:1", min_workers=2, max_workers=4, queue=queue, name="c")
    assert fleet.scale_once() == 4
    timeouts = {worker_id: timeout for worker_id, (timeout, _) in spawned.items()}
    assert timeouts == {
        "c-0": None,
        "c-1": None,
        "c-2": fleet.idle_timeout_s,
        "c-3": fleet.idle_timeout_s,
    }
    # The elastic workers idle out (exit 0); the floor stays as it is.
    queue.set(pending=0)
    _crash(spawned, "c-2", code=0)
    _crash(spawned, "c-3", code=0)
    assert fleet.scale_once() == 2
    assert len(spawned) == 4 and queue.requeued == []
    # A floor worker that crashes is replaced by another floor worker.
    _crash(spawned, "c-0")
    assert fleet.scale_once() == 2
    assert spawned["c-4"][0] is None
    fleet.stop(kill=True)
    assert all(process.returncode is not None for _, process in spawned.values())


def test_max_workers_crashes_without_progress_raise_after_requeue(spawned):
    queue = FakeQueue(pending=1)
    fleet = Coordinator("127.0.0.1:1", min_workers=2, max_workers=2, queue=queue, name="c")
    fleet.scale_once()
    _crash(spawned, "c-0")
    assert fleet.scale_once() == 2  # one crash: requeued and replaced
    assert queue.requeued == ["c-0"]
    _crash(spawned, "c-2", code=-9)
    with pytest.raises(RuntimeError, match=r"2 spawned queue worker\(s\) crashed") as raised:
        fleet.scale_once()
    assert queue.requeued == ["c-0", "c-2"]
    assert str(raised.value).endswith(f"worker c-2 exited with code -9; log: {worker_log('c-2')}")
    assert len(spawned) == 3  # nothing respawned once the rule fired


def test_a_completed_job_resets_the_crash_count(spawned):
    queue = FakeQueue(pending=1)
    fleet = Coordinator("127.0.0.1:1", min_workers=2, max_workers=2, queue=queue, name="c")
    fleet.scale_once()
    for round_ in range(5):
        _crash(spawned, f"c-{round_}")
        queue.set(completed=round_ + 1)
        assert fleet.scale_once() == 2
    assert len(queue.requeued) == 5
    # Each rise left one crash counted; a second one without a rise trips the rule.
    _crash(spawned, "c-5")
    with pytest.raises(RuntimeError, match="2 spawned"):
        fleet.scale_once()


def test_the_crash_rule_fires_once_then_the_fleet_respawns(spawned):
    queue = FakeQueue(pending=1)
    fleet = Coordinator("127.0.0.1:1", min_workers=1, max_workers=1, queue=queue, name="c")
    fleet.scale_once()
    _crash(spawned, "c-0")
    with pytest.raises(RuntimeError, match="1 spawned"):
        fleet.scale_once()
    # A caller that catches the error and runs again gets a new worker.
    assert fleet.scale_once() == 1
    assert spawned["c-1"][1].returncode is None


def test_only_crashed_workers_keep_their_logs(spawned):
    queue = FakeQueue(pending=3)
    fleet = Coordinator("127.0.0.1:1", min_workers=1, max_workers=3, queue=queue, name="c")
    fleet.scale_once()
    queue.set(pending=0)
    _crash(spawned, "c-1", code=0)  # idled out
    _crash(spawned, "c-2", code=1)  # crashed
    assert fleet.scale_once() == 1
    fleet.stop(kill=True)  # c-0, a floor worker, is killed
    assert [worker_id for worker_id in spawned if worker_log(worker_id).exists()] == ["c-2"]


def test_a_stopped_fleet_spawns_nothing(spawned):
    queue = FakeQueue(pending=5)
    fleet = Coordinator("127.0.0.1:1", min_workers=1, max_workers=2, queue=queue, name="c")
    fleet.stop(kill=True)
    assert fleet.scale_once() == 0
    assert spawned == {}
