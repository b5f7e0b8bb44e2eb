"""Trained-agent artefacts: train once, measure everywhere.

Training an intelligent client is the expensive half of every Figure-6 /
Figure-7 job — and it is fully deterministic: the whole procedure draws
from streams derived from one training seed (the recording's human player
and its private application copy reseed themselves from ``rng.seed``, and
the CNN / LSTM seed their own numpy generators), so the same
:class:`ArtifactSpec` always produces bit-identical model weights and the
bit-identical recorded session.  That makes a trained agent a perfect
**content-addressed artefact**: compute it once, store it by the hash of
what *defines* it (benchmark, training seed, training knobs), and let any
number of measurement runs — on any machine, in any process — consume it
warmly.

Three layers live here:

* :class:`ArtifactSpec` — the frozen value object naming a training run.
  Its :meth:`~ArtifactSpec.content_hash` covers exactly the inputs that
  determine the trained weights, nothing else (measurement intervals, for
  instance, are irrelevant to training and deliberately excluded).
* :class:`AgentArtifact` — the trained detector + policy + recording,
  with a ``to_bytes`` / ``from_bytes`` round trip (pickled, schema-
  stamped; the recording rides along without pixel buffers, which
  every frame redraws from its objects) and
  :meth:`~AgentArtifact.client`, which materializes an
  :class:`~repro.agents.intelligent_client.IntelligentClient` whose RNG
  is advanced to **exactly** the state the fused train-then-measure path
  would have left it in — training consumes nothing from the training
  stream, so replaying the benchmark construction alone reproduces it —
  which is what makes warm replays byte-identical to cold ones.
* The **resolution path** — :func:`resolve_artifact` checks a process
  memo, then the ambient :class:`~repro.experiments.store.ResultStore`
  (bound per-process with :func:`set_artifact_store` by the suite, the
  pool initializer and the queue workers), and only then trains on
  demand, storing what it trained.  A missing store degrades to
  deterministic retraining, never to a wrong result.

:func:`bind_scenario_agent` is the scenario agent registry's hook: it
turns a declarative placement agent name — ``intelligent``,
``intelligent@3`` (training-seed offset), ``intelligent#<hash>`` (an
explicit stored artefact), ``deskbench@3`` — into a per-instance agent
factory, so artefact-driven scenarios stay content-hashable values like
every other scenario.
"""

from __future__ import annotations

import logging
import pickle
import time
from dataclasses import dataclass
from typing import Optional

from repro.agents.intelligent_client import (
    IntelligentClient,
    train_intelligent_client,
)
from repro.agents.recorder import RecordedSession
from repro.agents.rnn import Lstm
from repro.agents.vision import ObjectDetector
from repro.apps.registry import all_benchmarks, create_benchmark
from repro.scenarios.scenario import canonical_hash, hashed_content
from repro.sim.randomness import StreamRandom

__all__ = ["AGENT_TRAIN_SEED_SALT", "ARTIFACT_SCHEMA_VERSION",
           "AgentArtifact", "ArtifactSpec", "artifact_store",
           "bind_scenario_agent", "resolve_artifact",
           "resolve_artifact_by_hash", "set_artifact_store",
           "train_artifact"]

logger = logging.getLogger(__name__)

#: Bump when the serialized artefact layout changes; stamped into every
#: payload and store row so stale artefacts are rejected (with a log
#: line) and retrained, never silently deserialized.
ARTIFACT_SCHEMA_VERSION = 1

#: The training-stream salt the fused path has always used
#: (``StreamRandom(config.seed + seed_offset + 7919)``); part of the
#: artefact's identity, so it is named once here.
AGENT_TRAIN_SEED_SALT = 7919


@dataclass(frozen=True)
class ArtifactSpec:
    """What defines one trained agent: the training inputs, nothing else."""

    benchmark: str
    train_seed: int
    recording_seconds: float
    cnn_epochs: int
    lstm_epochs: int

    def __post_init__(self) -> None:
        known = all_benchmarks()
        if self.benchmark not in known:
            raise ValueError(f"unknown benchmark {self.benchmark!r}; "
                             f"known: {', '.join(sorted(known))}")
        if self.recording_seconds <= 0:
            raise ValueError("recording_seconds must be positive")
        if self.cnn_epochs < 1 or self.lstm_epochs < 1:
            raise ValueError("training epochs must be at least 1")

    @classmethod
    def for_config(cls, benchmark: str, config,
                   seed_offset: int = 0) -> "ArtifactSpec":
        """The spec the fused path implicitly trained under: the training
        stream is ``config.seed + seed_offset + 7919`` (the benchmark
        harness offsets ``seed_offset`` by the benchmark's index), and
        the knobs come straight from the experiment config."""
        return cls(benchmark=benchmark,
                   train_seed=config.seed + seed_offset + AGENT_TRAIN_SEED_SALT,
                   recording_seconds=config.recording_seconds,
                   cnn_epochs=config.cnn_epochs,
                   lstm_epochs=config.lstm_epochs)

    # -- serialization ----------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": ARTIFACT_SCHEMA_VERSION,
            "benchmark": self.benchmark,
            "train_seed": self.train_seed,
            "recording_seconds": self.recording_seconds,
            "cnn_epochs": self.cnn_epochs,
            "lstm_epochs": self.lstm_epochs,
        }

    @staticmethod
    def from_dict(data: dict) -> "ArtifactSpec":
        unknown = set(data) - {"schema", "benchmark", "train_seed",
                               "recording_seconds", "cnn_epochs",
                               "lstm_epochs"}
        if unknown:
            raise KeyError(f"unknown artifact spec fields {sorted(unknown)}")
        return ArtifactSpec(
            benchmark=data["benchmark"],
            train_seed=int(data["train_seed"]),
            recording_seconds=float(data["recording_seconds"]),
            cnn_epochs=int(data["cnn_epochs"]),
            lstm_epochs=int(data["lstm_epochs"]),
        )

    def content_hash(self) -> str:
        """A stable SHA-256 over the training inputs (schema excluded,
        like every other content hash in the codebase — staleness is a
        provenance question, answered by the stamp inside the payload)."""
        return canonical_hash(hashed_content(self.to_dict()))

    def short_hash(self) -> str:
        return self.content_hash()[:12]


@dataclass
class AgentArtifact:
    """One trained agent: spec + detector + policy + the recorded session.

    The recording rides along because two consumers need it beyond the
    client itself — the DeskBench baseline replays it, and
    ``imitation_error`` evaluates against it — and it is a training
    *output*, produced from the same seed chain as the weights.  It
    rides without pixel buffers: training rasterizes it without caching,
    and a pickled :class:`~repro.graphics.frame.Frame` drops whatever
    pixel cache a replay filled, so the payload stays canonical and is
    about a fifth of the size it had with pixels.
    """

    spec: ArtifactSpec
    detector: ObjectDetector
    policy: Lstm
    recording: RecordedSession

    def content_hash(self) -> str:
        """The artefact is addressed by what produced it: the spec hash."""
        return self.spec.content_hash()

    # -- serialization ----------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """A schema-stamped pickled payload; :meth:`from_bytes` inverts it.

        Canonical: the policy's transient hidden state is reset first,
        so an artefact serializes identically whether it was just
        trained or has already driven measurement runs (every
        :meth:`client` materialization resets it again anyway).
        """
        self.policy.reset_state()
        payload = {
            "schema": ARTIFACT_SCHEMA_VERSION,
            "spec": self.spec.to_dict(),
            "detector": self.detector,
            "policy": self.policy,
            "recording": self.recording,
        }
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def from_bytes(payload: bytes) -> "AgentArtifact":
        try:
            data = pickle.loads(payload)
        except Exception as error:
            raise ValueError(
                f"agent artifact payload does not unpickle ({error!r})")
        if not isinstance(data, dict) or "schema" not in data:
            raise ValueError("agent artifact payload is not schema-stamped")
        if data["schema"] != ARTIFACT_SCHEMA_VERSION:
            raise ValueError(
                f"agent artifact schema version {data['schema']} != current "
                f"{ARTIFACT_SCHEMA_VERSION}")
        return AgentArtifact(spec=ArtifactSpec.from_dict(data["spec"]),
                             detector=data["detector"],
                             policy=data["policy"],
                             recording=data["recording"])

    # -- materialization --------------------------------------------------------------
    def client(self, app=None) -> IntelligentClient:
        """An :class:`IntelligentClient` in the exact post-training state.

        The fused path hands measurement runs a client whose RNG is the
        training stream *after* benchmark construction — training itself
        never draws from it (the recorder's human player and application
        copy are reseeded from ``rng.seed``, and the models seed their
        own numpy generators).  Replaying the benchmark construction
        here therefore reproduces that stream state bit-for-bit, which
        is what makes a warm replay byte-identical to the fused run.

        ``app`` rebinds the client to a run's freshly built application
        (:meth:`IntelligentClient.bound_to` does the same later); without
        one the client keeps the replayed construction's application.
        """
        rng = StreamRandom(self.spec.train_seed)
        replay_app = create_benchmark(self.spec.benchmark, rng=rng)
        client = IntelligentClient(app if app is not None else replay_app,
                                   self.detector, self.policy, rng=rng)
        client.policy.reset_state()
        return client


def train_artifact(spec: ArtifactSpec) -> AgentArtifact:
    """Train the agent ``spec`` describes — the same seed chain and calls
    for every consumer (the fused Figure-6 job, split ``train`` jobs, the
    ``agents train`` CLI), so the weights, recording and RNG consumption
    are bit-identical whichever path trains first."""
    rng = StreamRandom(spec.train_seed)
    app = create_benchmark(spec.benchmark, rng=rng)
    client, recording = train_intelligent_client(
        app, rng=rng,
        recording_seconds=spec.recording_seconds,
        cnn_epochs=spec.cnn_epochs,
        lstm_epochs=spec.lstm_epochs)
    return AgentArtifact(spec=spec, detector=client.detector,
                         policy=client.policy, recording=recording)


# -- the ambient store and the resolution path ----------------------------------------
#: The process-ambient artifact store (a ResultStore, or a queue-backed
#: adapter with the same two methods).  Bound by whoever owns the
#: process's storage story: the suite binds its cache around run(), the
#: parallel pool binds one per worker in its initializer, and queue
#: workers bind their queue's store for the life of the work loop.
_ARTIFACT_STORE = None

#: Per-process artefact memo.  Experiments touch a handful of
#: (benchmark, seed) pairs, so this stays tiny; it is what makes the
#: fused path — which resolves the same spec several times per job —
#: train exactly once per process even without a store.
_MEMO: dict[str, AgentArtifact] = {}


def set_artifact_store(store) -> object:
    """Bind the ambient artifact store; returns the previous binding so
    callers can restore it (``finally: set_artifact_store(previous)``)."""
    global _ARTIFACT_STORE
    previous = _ARTIFACT_STORE
    _ARTIFACT_STORE = store
    return previous


def artifact_store():
    """The currently bound ambient artifact store (None when unbound)."""
    return _ARTIFACT_STORE


def _load_from_store(store, key: str) -> Optional[AgentArtifact]:
    payload = store.get_artifact_bytes(key, schema=ARTIFACT_SCHEMA_VERSION)
    if payload is None:
        return None
    try:
        artifact = AgentArtifact.from_bytes(payload)
    except Exception as error:
        logger.warning("stored agent artifact %s is unreadable (%r); "
                       "retraining", key[:12], error)
        return None
    if artifact.content_hash() != key:
        # The artefact analogue of the store's tampered-entry rejection:
        # a payload filed under the wrong hash is never consumed.
        logger.warning(
            "rejecting tampered agent artifact %s: payload spec hashes to "
            "%s; retraining", key[:12], artifact.content_hash()[:12])
        return None
    return artifact


def resolve_artifact(spec: ArtifactSpec, store=None) -> AgentArtifact:
    """The warm path: memo, then store, then train-on-demand (stored).

    Every consumer — the fused accuracy/inference executors, the split
    ``train`` / ``methodology`` executors, scenario agent factories —
    funnels through here, so an artefact is trained at most once per
    store (and once per process without one), and a replay against a
    warm store never trains at all.
    """
    key = spec.content_hash()
    artifact = _MEMO.get(key)
    if artifact is not None:
        return artifact
    store = store if store is not None else _ARTIFACT_STORE
    if store is not None:
        artifact = _load_from_store(store, key)
        if artifact is not None:
            _MEMO[key] = artifact
            return artifact
    started = time.perf_counter()
    artifact = train_artifact(spec)
    runtime_s = time.perf_counter() - started
    _MEMO[key] = artifact
    if store is not None:
        store.put_artifact_bytes(key, artifact.to_bytes(),
                                 schema=ARTIFACT_SCHEMA_VERSION,
                                 benchmark=spec.benchmark,
                                 spec=spec.to_dict(), runtime_s=runtime_s)
    return artifact


def resolve_artifact_by_hash(key: str, store=None) -> AgentArtifact:
    """Resolve an explicitly named stored artefact (``agent#<hash>``).

    Unlike :func:`resolve_artifact` there is no train-on-demand fallback:
    a bare hash does not carry the training knobs, so a miss is an error
    — train it first (``agents train`` or a ``train`` job).  ``key`` may
    be a unique prefix (the short hashes humans copy around).
    """
    store = store if store is not None else _ARTIFACT_STORE
    for memo_key in sorted(_MEMO):
        if memo_key.startswith(key):
            return _MEMO[memo_key]
    if store is not None:
        matches = [row["hash"] for row in store.artifact_rows()
                   if row["hash"].startswith(key)]
        if len(matches) > 1:
            raise ValueError(f"artifact hash prefix {key!r} is ambiguous: "
                             + ", ".join(match[:12] for match in matches))
        if matches:
            artifact = _load_from_store(store, matches[0])
            if artifact is not None:
                _MEMO[matches[0]] = artifact
                return artifact
    raise KeyError(
        f"no stored agent artifact matches {key!r}; train one first with "
        "`python -m repro.experiments agents train` or a 'train' job")


# -- the scenario agent registry hook -------------------------------------------------
def bind_scenario_agent(kind: str, scenario, benchmark: str, agent: str):
    """A per-instance agent factory for one placement of ``scenario``.

    ``agent`` is the placement's declarative name — ``intelligent``,
    ``intelligent@K`` (artefact trained at seed offset ``K``),
    ``intelligent#HASH`` (an explicit stored artefact), or the
    ``deskbench`` equivalents.  The artefact resolves lazily, inside the
    executing process, when the host builds its instances — exactly like
    every other scenario registry — and the seed chain mirrors the fused
    accuracy path (training stream ``base + K + 7919``; DeskBench's
    threshold probe and replay streams at ``base + 31`` / ``base + 37``),
    so a declarative scenario reproduces the imperative runs bit for bit.
    """
    from repro.scenarios.scenario import split_agent_name
    _, sep, param = split_agent_name(agent)
    config = scenario.config
    base_seed = config.seed if scenario.seed.base is None else scenario.seed.base

    def _resolve() -> AgentArtifact:
        if sep == "#":
            return resolve_artifact_by_hash(param)
        offset = int(param) if sep == "@" else 0
        spec = ArtifactSpec(
            benchmark=benchmark,
            train_seed=base_seed + offset + AGENT_TRAIN_SEED_SALT,
            recording_seconds=config.recording_seconds,
            cnn_epochs=config.cnn_epochs,
            lstm_epochs=config.lstm_epochs)
        return resolve_artifact(spec)

    if kind == "intelligent":
        return lambda app: _resolve().client(app)
    if kind == "deskbench":
        from repro.agents.baselines.deskbench import DeskBenchClient

        def factory(app):
            recording = _resolve().recording
            threshold = DeskBenchClient.sweep_thresholds(
                create_benchmark(benchmark,
                                 rng=StreamRandom(base_seed + 31)), recording)
            return DeskBenchClient(app, recording,
                                   similarity_threshold=threshold,
                                   rng=StreamRandom(base_seed + 37))

        return factory
    raise ValueError(f"unknown artifact agent kind {kind!r}")
