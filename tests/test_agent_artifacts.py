"""The trained-agent artefact registry: specs, round-trips, stores.

Covers the content-addressed artefact value object (hash stability,
byte round-trip, validation), the ResultStore artifacts table
(idempotent puts, schema rejection, tamper rejection, gc), ambient
resolution (memo -> store -> on-demand training), and — the registry's
whole point — that an artefact materialized in a *different process*
reproduces the fused in-process training path bit for bit.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro.agents.artifacts as artifacts_module
from repro.agents.artifacts import (
    AGENT_TRAIN_SEED_SALT,
    ARTIFACT_SCHEMA_VERSION,
    AgentArtifact,
    ArtifactSpec,
    resolve_artifact,
    resolve_artifact_by_hash,
    set_artifact_store,
    train_artifact,
)
from repro.apps.registry import create_benchmark
from repro.experiments.store import ResultStore
from repro.scenarios.config import ExperimentConfig
from repro.sim.randomness import StreamRandom


@pytest.fixture(scope="module")
def config() -> ExperimentConfig:
    return ExperimentConfig(seed=0, duration_s=2.0, warmup_s=0.5,
                            recording_seconds=3.0, cnn_epochs=2,
                            lstm_epochs=4)


@pytest.fixture(scope="module")
def artifact(config) -> AgentArtifact:
    return train_artifact(ArtifactSpec.for_config("RE", config))


@pytest.fixture
def no_ambient_store():
    previous = set_artifact_store(None)
    yield
    set_artifact_store(previous)


# -- the spec: content hashing and the seed contract ------------------------
def test_for_config_pins_the_fused_seed_chain(config):
    # The split train path must derive exactly the seed the fused
    # accuracy pipeline used: config.seed + benchmark index + salt.
    for offset in range(4):
        spec = ArtifactSpec.for_config("RE", config, seed_offset=offset)
        assert spec.train_seed == config.seed + offset + AGENT_TRAIN_SEED_SALT
        assert spec.recording_seconds == config.recording_seconds
        assert spec.cnn_epochs == config.cnn_epochs
        assert spec.lstm_epochs == config.lstm_epochs


def test_spec_hash_is_stable_and_sensitive(config):
    spec = ArtifactSpec.for_config("RE", config)
    assert spec.content_hash() == ArtifactSpec.for_config(
        "RE", config).content_hash()
    assert spec.short_hash() == spec.content_hash()[:12]
    changed = [ArtifactSpec.for_config("D2", config),
               ArtifactSpec.for_config("RE", config, seed_offset=1)]
    for other in changed:
        assert other.content_hash() != spec.content_hash()
    # The schema stamp is serialized but deliberately hash-exempt.
    assert "schema" in spec.to_dict()
    rebuilt = ArtifactSpec.from_dict(spec.to_dict())
    assert rebuilt == spec


def test_spec_validation():
    with pytest.raises(ValueError):
        ArtifactSpec(benchmark="nope", train_seed=0, recording_seconds=3.0,
                     cnn_epochs=2, lstm_epochs=4)
    with pytest.raises(ValueError):
        ArtifactSpec(benchmark="RE", train_seed=0, recording_seconds=0.0,
                     cnn_epochs=2, lstm_epochs=4)
    with pytest.raises(ValueError):
        ArtifactSpec(benchmark="RE", train_seed=0, recording_seconds=3.0,
                     cnn_epochs=0, lstm_epochs=4)
    with pytest.raises(KeyError):
        ArtifactSpec.from_dict({"benchmark": "RE", "train_seed": 0,
                                "recording_seconds": 3.0, "cnn_epochs": 2,
                                "lstm_epochs": 4, "bogus": 1})


# -- the artefact: byte round-trip and client materialization ---------------
def test_artifact_round_trips_through_bytes(artifact):
    blob = artifact.to_bytes()
    rebuilt = AgentArtifact.from_bytes(blob)
    assert rebuilt.spec == artifact.spec
    assert rebuilt.content_hash() == artifact.content_hash()
    error = artifact.client().imitation_error(artifact.recording)
    assert rebuilt.client().imitation_error(rebuilt.recording) == error
    # Serialization is canonical (driving runs does not change it) and
    # training is deterministic: a retrain of the same spec imitates
    # identically.  (Payload bytes can differ across retrains in one
    # process — frame ids are a process-global counter — which is why
    # artefacts are addressed by spec hash, not payload hash.)
    assert artifact.to_bytes() == blob
    retrained = train_artifact(artifact.spec)
    assert retrained.client().imitation_error(retrained.recording) == error


def _recorded_frames(artifact):
    return [step.frame for step in artifact.recording.steps]


def test_train_artifact_leaves_no_pixel_cache(config):
    trained = train_artifact(ArtifactSpec.for_config("RE", config,
                                                     seed_offset=2))
    assert all(frame._pixels is None for frame in _recorded_frames(trained))


def test_artifact_bytes_are_canonical_and_pixel_free(config, artifact):
    from repro.agents.baselines.deskbench import DeskBenchClient
    from repro.experiments.accuracy import methodology_result
    blob = artifact.to_bytes()
    artifact.client().imitation_error(artifact.recording)
    assert artifact.to_bytes() == blob
    # A DeskBench replay compares live frames with rasters of the
    # recorded ones that the client owns: the recorded frames keep no
    # pixel cache.
    app = create_benchmark("RE", rng=StreamRandom(5))
    replay = DeskBenchClient(app, artifact.recording, rng=StreamRandom(6))
    for index in range(30):
        replay.decide(app.advance(1.0 / 30.0), now=index / 30.0)
    assert all(frame._pixels is None
               for frame in _recorded_frames(artifact))
    assert artifact.to_bytes() == blob
    for method in ("IC", "DB"):
        methodology_result("RE", config, method, client=artifact.client(),
                           recording=artifact.recording)
        assert artifact.to_bytes() == blob
    assert all(frame._pixels is None for frame in _recorded_frames(artifact))
    rebuilt = AgentArtifact.from_bytes(blob)
    assert all(frame._pixels is None for frame in _recorded_frames(rebuilt))


def test_payloads_that_carry_pixels_still_load(artifact, monkeypatch):
    from repro.graphics.frame import Frame
    error = artifact.client().imitation_error(artifact.recording)
    assert all(frame.pixels is not None
               for frame in _recorded_frames(artifact))
    # Pickle the way payloads were written before frames dropped the
    # cache: the whole instance dict, pixel buffers included.
    monkeypatch.setattr(Frame, "__getstate__",
                        lambda frame: frame.__dict__.copy())
    old_blob = artifact.to_bytes()
    monkeypatch.undo()
    assert len(old_blob) > len(artifact.to_bytes())
    rebuilt = AgentArtifact.from_bytes(old_blob)
    assert all(frame._pixels is not None
               for frame in _recorded_frames(rebuilt))
    assert rebuilt.client().imitation_error(rebuilt.recording) == error


def test_from_bytes_rejects_garbage_and_foreign_schemas(artifact):
    with pytest.raises(ValueError):
        AgentArtifact.from_bytes(b"not a pickle")
    payload = pickle.loads(artifact.to_bytes())
    payload["schema"] = ARTIFACT_SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="schema"):
        AgentArtifact.from_bytes(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


def test_client_replays_the_training_rng_stream(artifact):
    # The fused path hands measurement a client whose RNG advanced
    # through create_benchmark(rng) and nothing else; client() must
    # reproduce that exact stream from the spec alone.
    rng = StreamRandom(artifact.spec.train_seed)
    create_benchmark(artifact.spec.benchmark, rng=rng)
    client = artifact.client()
    assert [client.rng.random() for _ in range(8)] \
        == [rng.random() for _ in range(8)]


def test_bound_to_reattaches_a_trained_client(artifact):
    client = artifact.client()
    app = create_benchmark("RE", rng=StreamRandom(99))
    assert client.bound_to(app) is client
    assert client.app is app


# -- the store: put/get, schema and tamper rejection, gc --------------------
def test_store_put_get_is_idempotent(tmp_path, artifact):
    store = ResultStore(tmp_path)
    key = artifact.content_hash()
    blob = artifact.to_bytes()
    assert store.put_artifact_bytes(key, blob,
                                    schema=ARTIFACT_SCHEMA_VERSION,
                                    benchmark="RE",
                                    spec=artifact.spec.to_dict()) is True
    # A second writer of the same hash is a harmless no-op.
    assert store.put_artifact_bytes(key, blob,
                                    schema=ARTIFACT_SCHEMA_VERSION) is False
    assert store.get_artifact_bytes(key) == blob
    rows = store.artifact_rows()
    assert [row["hash"] for row in rows] == [key]
    assert rows[0]["benchmark"] == "RE"
    assert rows[0]["spec"] == artifact.spec.to_dict()
    assert rows[0]["size_bytes"] == len(blob)


def test_store_rejects_stale_schema(tmp_path, artifact, caplog):
    store = ResultStore(tmp_path)
    key = artifact.content_hash()
    store.put_artifact_bytes(key, artifact.to_bytes(),
                             schema=ARTIFACT_SCHEMA_VERSION + 1)
    with caplog.at_level("WARNING"):
        assert store.get_artifact_bytes(
            key, schema=ARTIFACT_SCHEMA_VERSION) is None
    assert "rejecting stale artifact" in caplog.text
    # Without a schema pin the payload is served as stored.
    assert store.get_artifact_bytes(key) == artifact.to_bytes()


def test_resolve_rejects_tampered_payloads(tmp_path, config, artifact,
                                           caplog, monkeypatch,
                                           no_ambient_store):
    monkeypatch.setattr(artifacts_module, "_MEMO", {})
    store = ResultStore(tmp_path)
    spec = artifact.spec
    other = train_artifact(ArtifactSpec.for_config("RE", config,
                                                   seed_offset=1))
    # A payload stored under the wrong hash must not be trusted.
    store.put_artifact_bytes(spec.content_hash(), other.to_bytes(),
                             schema=ARTIFACT_SCHEMA_VERSION)
    with caplog.at_level("WARNING"):
        resolved = resolve_artifact(spec, store=store)
    assert "tampered" in caplog.text
    assert resolved.spec == spec
    assert resolved.content_hash() == spec.content_hash()


def test_gc_artifacts_keeps_the_newest_per_group(tmp_path, artifact):
    store = ResultStore(tmp_path)
    for index in range(3):
        store.put_artifact_bytes(f"hash-{index}", b"x" * 10,
                                 schema=ARTIFACT_SCHEMA_VERSION,
                                 benchmark="RE")
    store.put_artifact_bytes("other", b"y", schema=ARTIFACT_SCHEMA_VERSION,
                             benchmark="D2")
    report = store.gc_artifacts(keep=1, dry_run=True)
    assert (report.groups, report.kept, report.dropped) == (2, 2, 2)
    assert len(store.artifact_rows()) == 4     # dry run deleted nothing
    report = store.gc_artifacts(keep=1)
    assert report.dropped == 2
    remaining = {row["hash"] for row in store.artifact_rows()}
    assert "other" in remaining and len(remaining) == 2


# -- ambient resolution: memo -> store -> train-on-demand -------------------
def test_resolve_artifact_trains_stores_and_replays(tmp_path, config,
                                                    monkeypatch,
                                                    no_ambient_store):
    monkeypatch.setattr(artifacts_module, "_MEMO", {})
    store = ResultStore(tmp_path)
    spec = ArtifactSpec.for_config("RE", config)
    trained = resolve_artifact(spec, store=store)
    assert [row["hash"] for row in store.artifact_rows()] \
        == [spec.content_hash()]
    # A cold memo resolves from the store without retraining.
    monkeypatch.setattr(artifacts_module, "_MEMO", {})
    replayed = resolve_artifact(spec, store=store)
    assert replayed.spec == trained.spec
    assert replayed.client().imitation_error(replayed.recording) \
        == trained.client().imitation_error(trained.recording)


def test_resolve_by_hash_matches_prefixes(tmp_path, config, monkeypatch,
                                          no_ambient_store):
    monkeypatch.setattr(artifacts_module, "_MEMO", {})
    store = ResultStore(tmp_path)
    spec = ArtifactSpec.for_config("RE", config)
    resolve_artifact(spec, store=store)
    found = resolve_artifact_by_hash(spec.content_hash()[:8], store=store)
    assert found.spec == spec
    with pytest.raises(KeyError, match="train one first"):
        resolve_artifact_by_hash("ffff", store=store)


# -- cross-process determinism: the registry's acceptance bar ---------------
def test_artifact_is_bit_identical_across_processes(tmp_path, config,
                                                    artifact,
                                                    no_ambient_store):
    """Train here, load in a subprocess: identical floats both sides."""
    from repro.experiments.accuracy import methodology_result
    store = ResultStore(tmp_path)
    key = artifact.content_hash()
    store.put_artifact_bytes(key, artifact.to_bytes(),
                             schema=ARTIFACT_SCHEMA_VERSION, benchmark="RE",
                             spec=artifact.spec.to_dict())
    local_error = artifact.client().imitation_error(artifact.recording)
    local_ic = methodology_result("RE", config, "IC", client=artifact.client(),
                                  recording=artifact.recording)
    script = f"""
import sys
from repro.agents.artifacts import resolve_artifact_by_hash
from repro.experiments.accuracy import methodology_result
from repro.experiments.store import ResultStore
from repro.scenarios.config import ExperimentConfig

config = ExperimentConfig(seed=0, duration_s=2.0, warmup_s=0.5,
                          recording_seconds=3.0, cnn_epochs=2, lstm_epochs=4)
artifact = resolve_artifact_by_hash({key!r}, store=ResultStore({str(tmp_path)!r}))
error = artifact.client().imitation_error(artifact.recording)
ic = methodology_result("RE", config, "IC", client=artifact.client(),
                        recording=artifact.recording)
print(error.hex())
print(ic.rtt_stats.mean.hex())
"""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    remote_error, remote_mean = proc.stdout.split()
    assert remote_error == local_error.hex()
    assert remote_mean == local_ic.rtt_stats.mean.hex()


# -- transports: queue-served artefact stores -------------------------------
def test_socket_queue_transfers_artifacts(tmp_path, artifact):
    from repro.experiments.server import QueueServer
    from repro.experiments.socket_queue import SocketQueue
    server = QueueServer(tmp_path / "q", port=0)
    server.start()
    try:
        with SocketQueue(f"127.0.0.1:{server.port}") as queue:
            store = queue.artifact_store()
            key = artifact.content_hash()
            blob = artifact.to_bytes()
            assert store.put_artifact_bytes(
                key, blob, schema=ARTIFACT_SCHEMA_VERSION,
                benchmark="RE", spec=artifact.spec.to_dict()) is True
            assert store.put_artifact_bytes(
                key, blob, schema=ARTIFACT_SCHEMA_VERSION) is False
            assert store.get_artifact_bytes(
                key, schema=ARTIFACT_SCHEMA_VERSION) == blob
            rows = store.artifact_rows(benchmark="RE")
            assert [row["hash"] for row in rows] == [key]
    finally:
        server.stop()


def test_socket_store_degrades_when_the_server_is_gone(tmp_path, caplog):
    from repro.experiments.socket_queue import SocketQueue
    queue = SocketQueue("127.0.0.1:1", retries=0, backoff_s=0.0)
    store = queue.artifact_store()
    with caplog.at_level("WARNING"):
        assert store.get_artifact_bytes("abc") is None
    assert "falling back to on-demand training" in caplog.text
    # Once degraded, every call short-circuits instead of reconnecting.
    assert store.put_artifact_bytes("abc", b"x", schema=1) is False
    assert store.artifact_rows() == []
