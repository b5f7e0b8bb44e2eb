"""Figure 6 / Table 3 / Figure 7: intelligent-client accuracy and speed.

The accuracy experiment compares the RTT distributions a benchmark
exhibits under five input-generation / measurement methodologies:

* **H**  — the synthetic human reference player (ground truth);
* **IC** — Pictor's intelligent client (CNN + LSTM trained on a recorded
  session of that human);
* **DB** — DeskBench-style record/replay gated on frame similarity;
* **CH** — Chen et al.'s stage-sum RTT reconstruction over a human run;
* **SM** — Slow-Motion benchmarking driven by the intelligent client.

Table 3 is the percentage error of each methodology's mean RTT against
the human run; Figure 7 is the per-benchmark CNN / LSTM inference time of
the intelligent client.

Two equivalent job shapes produce the same rows:

* the **fused** path (``accuracy_jobs`` → one ``accuracy`` job per
  benchmark) trains the client and runs all five methodologies inside a
  single job, exactly as it always has; and
* the **split** path (``split_accuracy_jobs`` → one ``train`` job plus
  five single-methodology ``methodology`` jobs per benchmark) trains the
  client once into a content-addressed
  :mod:`~repro.agents.artifacts` artefact and fans the measurements out
  across any backend; :func:`assemble_accuracy_row` folds the five
  :class:`MethodologyResult` parts back into the fused row.

Both paths resolve training through the artefact registry, pin the same
seed chain (training stream ``config.seed + benchmark_index + 7919``,
methodology run offsets fixed at 0–4 for H/IC/DB/CH/SM), and are
byte-identical — CI diffs the split socket-backend rows against the
fused serial rows with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.agents.artifacts import ArtifactSpec, resolve_artifact
from repro.agents.baselines.chen import ChenMethodology
from repro.agents.baselines.deskbench import DeskBenchClient
from repro.agents.baselines.slowmotion import SlowMotionMethodology
from repro.agents.intelligent_client import IntelligentClient
from repro.agents.recorder import RecordedSession
from repro.apps.registry import create_benchmark, get_profile
from repro.core.measurements import LatencyStats, percentage_error
from repro.experiments.executor import ExperimentSuite, run_jobs
from repro.experiments.jobs import ExperimentJob
from repro.scenarios.config import ExperimentConfig
from repro.scenarios.scenario import Scenario, split_agent_name
from repro.scenarios.variants import SessionVariant
from repro.server.host import CloudHost, HostConfig, HostResult
from repro.server.session import SessionConfig
from repro.sim.randomness import StreamRandom

__all__ = ["AccuracyRow", "MethodologyResult", "accuracy_jobs",
           "assemble_accuracy_row", "inference_jobs", "inference_time_row",
           "inference_times", "methodology_accuracy",
           "methodology_accuracy_rows", "methodology_result", "run_custom",
           "split_accuracy_jobs", "train_for_job"]

#: The methodology labels, in the paper's order.
METHODOLOGIES = ("H", "IC", "DB", "CH", "SM")

#: Each methodology's fixed measurement-run seed offset — the offsets the
#: fused path has always used, and what a split ``methodology`` job
#: carries in its scenario's seed policy to name its methodology.
METHODOLOGY_OFFSETS = {"H": 0, "IC": 1, "DB": 2, "CH": 3, "SM": 4}

_METHOD_BY_OFFSET = {offset: method
                     for method, offset in METHODOLOGY_OFFSETS.items()}


@dataclass
class AccuracyRow:
    """One benchmark's Figure-6 distributions and Table-3 errors."""

    benchmark: str
    rtt_stats: dict[str, LatencyStats] = field(default_factory=dict)
    mean_rtt_ms: dict[str, float] = field(default_factory=dict)
    error_percent: dict[str, float] = field(default_factory=dict)

    def as_table_row(self) -> list[str]:
        cells = [self.benchmark]
        for method in ("IC", "DB", "CH", "SM"):
            cells.append(f"{self.error_percent.get(method, float('nan')):.1f}%")
        return cells


@dataclass
class MethodologyResult:
    """One methodology's RTT distribution for one benchmark.

    The unit of the split Figure-6 path: five of these (one per
    methodology) fold into an :class:`AccuracyRow` via
    :func:`assemble_accuracy_row`.
    """

    benchmark: str
    method: str
    rtt_stats: LatencyStats


def run_custom(benchmark: str, config: ExperimentConfig,
               agent_factory: Optional[Callable] = None,
               session_config: Optional[SessionConfig] = None,
               seed_offset: int = 0) -> HostResult:
    """Run one instance with a bespoke agent and/or session config.

    The escape hatch for runs the declarative scenario model cannot
    express: trained agents and hand-built session configs are closures
    and objects that cannot cross a process boundary.  The host is
    configured exactly as :meth:`Scenario.build_host` configures a
    default single-instance scenario's (same seed, machine and pictor
    switches), so with the default agent and session config the result
    is bit-identical to ``Scenario.single(benchmark, config,
    seed_offset=seed_offset).run()``.
    """
    variant = SessionVariant()
    host = CloudHost(HostConfig(seed=config.seed + seed_offset,
                                pictor=variant.pictor_config()))
    host.add_instance(benchmark, agent_factory=agent_factory,
                      session_config=session_config or variant.session_config())
    return host.run(duration=config.duration_s, warmup=config.warmup_s)


# -- the five methodologies, one runner each ------------------------------------------
# Byte-identity contract: each runner is the verbatim body of the fused
# path's corresponding block, so fused and split runs execute the same
# calls in the same order with the same seeds.

def _run_h(benchmark: str, config: ExperimentConfig) -> LatencyStats:
    """H: the synthetic human reference player (ground truth)."""
    result = Scenario.single(benchmark, config, seed_offset=0).run()
    return result.reports[0].rtt


def _run_ic(benchmark: str, config: ExperimentConfig,
            client: IntelligentClient) -> LatencyStats:
    """IC: Pictor's intelligent client."""
    result = run_custom(benchmark, config, seed_offset=1,
                        agent_factory=lambda app: client.bound_to(app))
    return result.reports[0].rtt


def _run_db(benchmark: str, config: ExperimentConfig,
            recording: RecordedSession) -> LatencyStats:
    """DB: DeskBench record/replay gated on frame similarity."""
    threshold = DeskBenchClient.sweep_thresholds(
        create_benchmark(benchmark, rng=StreamRandom(config.seed + 31)), recording)
    result = run_custom(
        benchmark, config, seed_offset=2,
        agent_factory=lambda app: DeskBenchClient(
            app, recording, similarity_threshold=threshold,
            rng=StreamRandom(config.seed + 37)))
    return result.reports[0].rtt


def _run_ch(benchmark: str, config: ExperimentConfig) -> LatencyStats:
    """CH: Chen et al. stage-sum estimation over a human-driven run."""
    result = Scenario.single(benchmark, config, seed_offset=3).run()
    chen = ChenMethodology(get_profile(benchmark))
    chen_rtts = chen.estimate_rtts(_tracker_of(result))
    return LatencyStats.from_samples(chen_rtts)


def _run_sm(benchmark: str, config: ExperimentConfig,
            client: IntelligentClient) -> LatencyStats:
    """SM: Slow-Motion benchmarking driven by the intelligent client."""
    slow = SlowMotionMethodology()
    sm_config = slow.session_config(SessionVariant().session_config())
    result = run_custom(benchmark, config, seed_offset=4,
                        agent_factory=lambda app: client.bound_to(app),
                        session_config=sm_config)
    return result.reports[0].rtt


def methodology_result(benchmark: str, config: ExperimentConfig, method: str,
                       train_offset: int = 0,
                       client: Optional[IntelligentClient] = None,
                       recording: Optional[RecordedSession] = None,
                       ) -> MethodologyResult:
    """Run one methodology standalone, byte-identical to its fused block.

    Without a pre-built ``client`` / ``recording`` the trained agent
    resolves from the artefact registry (warm from the ambient store, or
    trained on demand) under the training stream
    ``config.seed + train_offset + 7919`` — the same stream the fused
    path uses when ``train_offset`` is the benchmark's index.
    """
    if method not in METHODOLOGY_OFFSETS:
        raise ValueError(f"unknown methodology {method!r}; "
                         f"known: {', '.join(METHODOLOGIES)}")
    if method in ("IC", "SM", "DB") and (client is None or recording is None):
        artifact = resolve_artifact(
            ArtifactSpec.for_config(benchmark, config, seed_offset=train_offset))
        if recording is None:
            recording = artifact.recording
        if client is None and method in ("IC", "SM"):
            client = artifact.client()
            if method == "SM":
                # The fused path drives SM with the client the IC run just
                # finished with, so the client's inference RNG enters SM
                # mid-stream.  A standalone SM job therefore replays the IC
                # run (result discarded) to advance the stream to exactly
                # that state — determinism makes the replay drift-free, and
                # byte-identity with the fused path is worth the extra run.
                _run_ic(benchmark, config, client)
    if method == "H":
        stats = _run_h(benchmark, config)
    elif method == "IC":
        stats = _run_ic(benchmark, config, client)
    elif method == "DB":
        stats = _run_db(benchmark, config, recording)
    elif method == "CH":
        stats = _run_ch(benchmark, config)
    else:
        stats = _run_sm(benchmark, config, client)
    return MethodologyResult(benchmark=benchmark, method=method,
                             rtt_stats=stats)


def methodology_result_for_job(job: ExperimentJob) -> MethodologyResult:
    """Executor routine of the ``methodology`` job kind.

    The job's scenario names everything: the benchmark (its single
    placement), the methodology (the seed policy's offset, 0–4 =
    H/IC/DB/CH/SM), and for artefact-driven methodologies the training
    offset (the placement agent's ``@K`` parameter, e.g.
    ``intelligent@2`` for the benchmark at index 2).
    """
    scenario = job.scenario
    placement = scenario.placements[0]
    method = _METHOD_BY_OFFSET[scenario.seed.offset]
    _, sep, param = split_agent_name(placement.agent)
    train_offset = int(param) if sep == "@" else 0
    return methodology_result(placement.benchmark, scenario.config, method,
                              train_offset=train_offset)


def assemble_accuracy_row(benchmark: str, parts) -> AccuracyRow:
    """Fold five :class:`MethodologyResult` parts into an AccuracyRow.

    The row is built in the fused path's exact insertion order (H, IC,
    DB, CH, SM; errors IC, DB, CH, SM) so a split row pickles and diffs
    byte-identically against a fused one.
    """
    by_method: dict[str, MethodologyResult] = {}
    for part in parts:
        if part.benchmark != benchmark:
            raise ValueError(f"methodology part for {part.benchmark!r} "
                             f"cannot join a {benchmark!r} row")
        if part.method in by_method:
            raise ValueError(f"duplicate methodology part {part.method!r}")
        by_method[part.method] = part
    missing = [method for method in METHODOLOGIES if method not in by_method]
    if missing:
        raise ValueError(f"missing methodology parts: {', '.join(missing)}")

    row = AccuracyRow(benchmark=benchmark)
    for method in METHODOLOGIES:
        stats = by_method[method].rtt_stats
        row.rtt_stats[method] = stats
        row.mean_rtt_ms[method] = stats.mean * 1e3
    reference = row.mean_rtt_ms["H"]
    for method in ("IC", "DB", "CH", "SM"):
        row.error_percent[method] = percentage_error(row.mean_rtt_ms[method],
                                                     reference)
    return row


def methodology_accuracy(benchmark: str, config: Optional[ExperimentConfig] = None,
                         client: Optional[IntelligentClient] = None,
                         recording: Optional[RecordedSession] = None,
                         ) -> AccuracyRow:
    """Run all five methodologies for one benchmark and compute Table-3 errors.

    The fused path: one trained client (resolved through the artefact
    registry) drives IC and then SM with a continuous RNG stream, with
    H, DB and CH interleaved exactly as the original inline blocks were.
    """
    config = config or ExperimentConfig()
    if client is None or recording is None:
        artifact = resolve_artifact(ArtifactSpec.for_config(benchmark, config))
        client, recording = artifact.client(), artifact.recording
    parts = [
        MethodologyResult(benchmark, "H", _run_h(benchmark, config)),
        MethodologyResult(benchmark, "IC", _run_ic(benchmark, config, client)),
        MethodologyResult(benchmark, "DB", _run_db(benchmark, config, recording)),
        MethodologyResult(benchmark, "CH", _run_ch(benchmark, config)),
        MethodologyResult(benchmark, "SM", _run_sm(benchmark, config, client)),
    ]
    return assemble_accuracy_row(benchmark, parts)


def train_for_job(benchmark: str, config: ExperimentConfig,
                  seed_offset: int = 0) -> dict:
    """Executor routine of the ``train`` job kind.

    Ensures the artefact for (benchmark, seed offset, training knobs)
    exists — warm store hit or train-then-store — and returns a
    deterministic provenance summary that lands in the result store like
    any other job result.
    """
    spec = ArtifactSpec.for_config(benchmark, config, seed_offset=seed_offset)
    artifact = resolve_artifact(spec)
    return {
        "artifact": spec.content_hash(),
        "benchmark": benchmark,
        "train_seed": spec.train_seed,
        "recording_steps": len(artifact.recording),
        "imitation_error": artifact.client().imitation_error(artifact.recording),
        "size_bytes": len(artifact.to_bytes()),
    }


def accuracy_jobs(benchmarks, config: ExperimentConfig) -> list[ExperimentJob]:
    """One Table-3 methodology comparison per benchmark, as jobs.

    Each job trains the intelligent client for its benchmark (with the
    training seed offset by the benchmark's index, mirroring the
    benchmark harness) and runs all five methodologies.  The rows are
    independent, so the suite parallelizes across benchmarks.
    """
    return [ExperimentJob(Scenario.single(benchmark, config, seed_offset=index),
                          kind="accuracy")
            for index, benchmark in enumerate(benchmarks)]


def split_accuracy_jobs(benchmarks, config: ExperimentConfig) -> list[ExperimentJob]:
    """The split Figure-6 shape: 6 jobs per benchmark, flat.

    For the benchmark at index ``i``: one ``train`` job (scenario seed
    offset ``i`` = the training offset, as in the fused path), then five
    ``methodology`` jobs whose seed offsets are the fixed methodology
    run offsets 0–4 and whose placement agents carry the artefact
    reference (``intelligent@i`` for IC/SM, ``deskbench@i`` for DB,
    ``human`` for H/CH).  The suite drains the train wave first, so
    measurement jobs resolve their artefacts warm on every backend.
    """
    jobs = []
    for index, benchmark in enumerate(benchmarks):
        jobs.append(ExperimentJob(
            Scenario.single(benchmark, config, seed_offset=index),
            kind="train"))
        for method in METHODOLOGIES:
            if method in ("IC", "SM"):
                agent = f"intelligent@{index}"
            elif method == "DB":
                agent = f"deskbench@{index}"
            else:
                agent = "human"
            jobs.append(ExperimentJob(
                Scenario.single(benchmark, config, agent=agent,
                                seed_offset=METHODOLOGY_OFFSETS[method]),
                kind="methodology"))
    return jobs


def methodology_accuracy_rows(benchmarks=None,
                              config: Optional[ExperimentConfig] = None,
                              suite: Optional[ExperimentSuite] = None,
                              ) -> list[AccuracyRow]:
    """Figure 6 / Table 3 rows for several benchmarks, through the suite."""
    config = config or ExperimentConfig()
    benchmarks = list(benchmarks or config.benchmarks)
    return run_jobs(accuracy_jobs(benchmarks, config), suite)


def _tracker_of(result):
    """The tracker that produced a single-instance result's report."""
    # HostResult does not keep sessions, so the tracker is reached through
    # the report's extra channel when available; fall back to re-deriving
    # stats from the report itself.
    report = result.reports[0]
    tracker = report.extra.get("tracker")
    if tracker is None:
        raise RuntimeError("single-instance run did not expose its tracker")
    return tracker


def inference_time_row(benchmark: str, config: ExperimentConfig,
                       index: int = 0,
                       client: Optional[IntelligentClient] = None,
                       ) -> dict[str, float]:
    """One Figure-7 row: inference times of one benchmark's client.

    ``index`` is the benchmark's position in the figure's list; it
    offsets the training and frame-generation seeds exactly as the
    original serial loop did, so routing through jobs is bit-identical.
    The client resolves through the artefact registry, so a warm store
    makes this row training-free.
    """
    if client is None:
        client = resolve_artifact(ArtifactSpec.for_config(
            benchmark, config, seed_offset=index)).client()
    # Exercise inference on freshly generated frames.
    app = create_benchmark(benchmark, rng=StreamRandom(config.seed + 997 + index))
    for _ in range(40):
        frame = app.advance(1.0 / 30.0)
        client.decide(frame, now=0.0)
    return {
        "cv_time_ms": client.mean_cv_time() * 1e3,
        "input_generation_time_ms": client.mean_rnn_time() * 1e3,
        "achievable_apm": client.achievable_apm(),
    }


def inference_jobs(benchmarks, config: ExperimentConfig) -> list[ExperimentJob]:
    """One Figure-7 inference measurement per benchmark, as jobs."""
    return [ExperimentJob(Scenario.single(benchmark, config, seed_offset=index),
                          kind="inference")
            for index, benchmark in enumerate(benchmarks)]


def inference_times(benchmarks=None, config: Optional[ExperimentConfig] = None,
                    clients: Optional[dict[str, IntelligentClient]] = None,
                    suite: Optional[ExperimentSuite] = None,
                    ) -> dict[str, dict[str, float]]:
    """Figure 7: CNN (CV) and LSTM (input-generation) time per benchmark.

    With pre-trained ``clients`` the rows are computed in-process (the
    trained models cannot be described declaratively); otherwise each
    benchmark becomes an independent job on the suite.
    """
    config = config or ExperimentConfig()
    benchmarks = list(benchmarks or config.benchmarks)
    if clients:
        return {benchmark: inference_time_row(benchmark, config, index=index,
                                              client=clients.get(benchmark))
                for index, benchmark in enumerate(benchmarks)}
    results = run_jobs(inference_jobs(benchmarks, config), suite)
    return dict(zip(benchmarks, results))
