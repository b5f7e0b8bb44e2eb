"""CLI for the experiment execution subsystem.

Run any figure of the paper (or the whole suite) with a chosen worker
count and an optional on-disk result cache::

    PYTHONPATH=src python -m repro.experiments --list
    PYTHONPATH=src python -m repro.experiments --figure fig10 --workers 4
    PYTHONPATH=src python -m repro.experiments --all --workers 8 \
        --cache-dir .pictor-cache --profile quick

Or run ad-hoc scenarios — any placement mix, machine, session variant and
network — straight from a JSON spec file, an inline JSON string, or an
``A+B+C`` mix shorthand::

    PYTHONPATH=src python -m repro.experiments scenario RE+ITP+D2 --profile smoke
    PYTHONPATH=src python -m repro.experiments scenario examples/scenarios/mix3.json
    PYTHONPATH=src python -m repro.experiments scenario \
        '{"placements": ["RE", "ITP", "D2"], "variant": "optimized"}'

Execution backends are selectable (``--backend serial|parallel|
socket``); the socket backend submits jobs to a TCP queue server —
its own in-process one, or a standalone ``serve`` process named by
``--addr`` — drained by workers that need only network reach
(``serve`` binds to loopback unless given ``--host``)::

    PYTHONPATH=src python -m repro.experiments serve --queue /srv/q \
        --port 7781 &
    PYTHONPATH=src python -m repro.experiments worker \
        --addr 127.0.0.1:7781 &
    PYTHONPATH=src python -m repro.experiments scenario RE+ITP+D2 \
        --backend socket --addr 127.0.0.1:7781

Results are deterministic: serial, parallel and socket runs print
bit-identical tables, and a second run against the same
``--cache-dir`` replays without executing anything.

Everything a run stores lands in the SQLite result database
(``<cache-dir>/results.sqlite``); the ``results`` subcommand queries,
diffs and exports it — ``results diff`` on two runs (or two revisions)
is the figure-regression check CI performs::

    PYTHONPATH=src python -m repro.experiments results list \
        --store .pictor-cache --kind host
    PYTHONPATH=src python -m repro.experiments results show 53ab2f \
        --store .pictor-cache
    PYTHONPATH=src python -m repro.experiments results diff \
        .pictor-cache .pictor-cache-b
    PYTHONPATH=src python -m repro.experiments results diff \
        --store .pictor-cache deadbeef 53dad22 --tolerance 1e-9
    PYTHONPATH=src python -m repro.experiments results export \
        --store .pictor-cache --format csv -o results.csv
    PYTHONPATH=src python -m repro.experiments results gc \
        --store .pictor-cache --keep 2 --dry-run

The ``agents`` subcommand manages the trained-agent artefact registry
the same database carries: train once, content-addressed, then every
intelligent-client job — any backend, any machine with store access —
resolves its agent from the store instead of retraining::

    PYTHONPATH=src python -m repro.experiments agents train \
        --store .pictor-cache --profile smoke
    PYTHONPATH=src python -m repro.experiments agents list \
        --store .pictor-cache
    PYTHONPATH=src python -m repro.experiments agents show 53ab2f \
        --store .pictor-cache
    PYTHONPATH=src python -m repro.experiments agents gc \
        --store .pictor-cache --keep 1

The ``fleet`` subcommand scales from single scenarios to sampled
populations: a JSON :class:`~repro.fleet.PopulationSpec` describes
distributions over the scenario registries, ``fleet run`` drains a
deterministic sample through any backend, and ``fleet report`` answers
per-cohort percentiles (p50/p95/p99 latency, FPS, power by network /
machine / variant / mix arity) with pure SQL over the store — plus
``--baseline REV`` deltas, the cross-revision perf ledger::

    PYTHONPATH=src python -m repro.experiments fleet sample \
        examples/fleet/smoke.json --n 50
    PYTHONPATH=src python -m repro.experiments fleet run \
        examples/fleet/smoke.json --n 50 --backend socket --workers 2 \
        --cache-dir .fleet-cache --profile smoke
    PYTHONPATH=src python -m repro.experiments fleet report \
        examples/fleet/smoke.json --n 50 --store .fleet-cache \
        --profile smoke --by network,variant --baseline deadbeef
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional

from repro.core.reporting import format_rows
from repro.experiments.executor import BACKENDS, ExperimentSuite
from repro.experiments.figures import FIGURES, figure_names, run_figure
from repro.experiments.jobs import CACHE_SCHEMA_VERSION, ExperimentJob
from repro.experiments.store import RESULT_DB_FILENAME, ResultStore, current_git_rev
from repro.scenarios.config import ExperimentConfig
from repro.scenarios.scenario import Scenario

PROFILES = ("quick", "smoke", "standard", "paper")


def make_config(args) -> ExperimentConfig:
    if args.profile == "paper":
        config = ExperimentConfig.paper(seed=args.seed)
    elif args.profile == "standard":
        config = ExperimentConfig(seed=args.seed)
    elif args.profile == "smoke":
        config = ExperimentConfig.smoke(seed=args.seed)
    else:
        config = ExperimentConfig.quick(seed=args.seed)
    if args.benchmarks:
        config = config.with_benchmarks(args.benchmarks.split(","))
    if args.max_instances:
        config = replace(config, max_instances=args.max_instances)
    if args.duration:
        config = replace(config, duration_s=args.duration)
    if getattr(args, "fast_forward", False):
        config = replace(config, fast_forward=True)
    return config


def _add_execution_options(parser: argparse.ArgumentParser,
                           suppress_defaults: bool = False) -> None:
    # On a subparser the defaults are SUPPRESSed: argparse copies subparser
    # defaults over values the main parser already set, which would
    # silently discard flags given before the subcommand name.
    def default(value):
        return argparse.SUPPRESS if suppress_defaults else value

    parser.add_argument("--workers", type=int, default=default(1), metavar="N",
                        help="worker processes (1 = serial; default 1)")
    parser.add_argument("--cache-dir", default=default(None), metavar="DIR",
                        help="content-addressed result cache directory")
    parser.add_argument("--backend", choices=BACKENDS,
                        default=default(None),
                        help="execution backend (default: inferred — "
                             "socket with --addr, parallel with "
                             "--workers > 1, else serial)")
    parser.add_argument("--addr", default=default(None), metavar="HOST:PORT",
                        help="queue server address for the socket backend "
                             "(see the serve subcommand; default: the "
                             "socket backend starts its own in-process "
                             "server)")


def _add_config_options(parser: argparse.ArgumentParser,
                        suppress_defaults: bool = False) -> None:
    def default(value):
        return argparse.SUPPRESS if suppress_defaults else value

    parser.add_argument("--profile", choices=PROFILES, default=default("quick"),
                        help="measurement-interval preset (default: quick)")
    parser.add_argument("--seed", type=int, default=default(0))
    parser.add_argument("--benchmarks", default=default(None), metavar="A,B,...",
                        help="comma-separated benchmark short names")
    parser.add_argument("--max-instances", type=int, default=default(None),
                        metavar="N", help="colocation sweep upper bound")
    parser.add_argument("--duration", type=float, default=default(None),
                        metavar="S",
                        help="override the measurement interval (seconds)")
    parser.add_argument("--fast-forward", action="store_true",
                        default=default(False),
                        help="enable temporal upscaling (steady stretches "
                             "advance in macro jumps; results are "
                             "approximate — see experiments/README.md)")


def _add_store_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="result store: a run's --cache-dir or a "
                             ".sqlite file")


def _suite_from_args(args) -> ExperimentSuite:
    """The suite the figure, ``scenario`` and ``fleet run`` paths run on."""
    return ExperimentSuite(workers=args.workers, cache_dir=args.cache_dir,
                           backend=args.backend, queue_addr=args.addr)


def _stats_line(label: str, elapsed: float, suite: ExperimentSuite, args, *,
                submitted: str = "jobs submitted",
                show_backend: bool = False) -> str:
    """The closing ``<label> in <s> — <suite stats>`` line of a run."""
    stats = suite.stats
    where = f"{args.workers} worker(s)"
    if show_backend:
        where += f", {suite.backend} backend"
    return (f"{label} in {elapsed:.1f}s — {stats.submitted} {submitted}, "
            f"{stats.executed} executed, {stats.deduplicated} deduplicated, "
            f"{stats.cache_hits} cache hits ({where})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's figures through the parallel "
                    "experiment execution subsystem.")
    parser.add_argument("--figure", action="append", default=[],
                        metavar="NAME",
                        help="figure to run (repeatable); see --list")
    parser.add_argument("--all", action="store_true",
                        help="run every figure in the registry")
    parser.add_argument("--list", action="store_true", dest="list_figures",
                        help="list the available figures and exit")
    _add_execution_options(parser)
    _add_config_options(parser)
    # Every leaf parser names its handler; a subcommand's default
    # overrides this one, so main() dispatches on args.handler alone.
    parser.set_defaults(handler=_run_figures)

    subcommands = parser.add_subparsers(dest="command", metavar="subcommand")
    scenario = subcommands.add_parser(
        "scenario",
        help="run declarative scenarios from JSON specs or A+B+C shorthands",
        description="Run one or more scenarios given as JSON spec files, "
                    "inline JSON (an object or a list of objects), or "
                    "A+B+C benchmark-mix shorthands.")
    scenario.add_argument("spec", nargs="+",
                          help="spec file path, inline JSON, or A+B+C mix")
    _add_execution_options(scenario, suppress_defaults=True)
    _add_config_options(scenario, suppress_defaults=True)
    scenario.set_defaults(handler=_run_scenarios)

    trace = subcommands.add_parser(
        "trace",
        help="check (default) or re-record the golden kernel traces",
        description="Re-run every registered golden scenario under the "
                    "trace recorder and compare byte-for-byte against the "
                    "committed files in tests/golden/.  Without --update "
                    "this only checks (exit 1 on any mismatch) so CI can "
                    "never rewrite goldens silently; pass --update after "
                    "an intentional semantic change to re-record.")
    trace.add_argument("--update", action="store_true",
                       help="re-record and overwrite the golden files "
                            "(explicit opt-in)")
    trace.add_argument("--golden-dir", default=None, metavar="DIR",
                       help="override the golden directory (default: "
                            "tests/golden)")
    trace.add_argument("--list", action="store_true", dest="list_goldens",
                       help="list the registered golden scenarios and exit")
    trace.set_defaults(handler=_run_trace)

    results = subcommands.add_parser(
        "results",
        help="query, diff and export the SQLite result database",
        description="Query the result store a suite run filled "
                    "(--cache-dir DIR stores rows in DIR/results.sqlite), "
                    "diff two result sets or two git revisions metric by "
                    "metric, or export rows as JSON/CSV.")
    results_sub = results.add_subparsers(dest="results_command",
                                         metavar="action", required=True)

    def add_filters(sub):
        sub.add_argument("--kind", default=None,
                         help="only rows of this job kind")
        sub.add_argument("--scenario-hash", default=None, metavar="HASH",
                         help="only rows whose scenario hash starts with HASH")
        sub.add_argument("--git-rev", default=None, metavar="REV",
                         help="only rows written at this revision (prefix)")

    results_list = results_sub.add_parser(
        "list", help="list stored result rows (provenance only)",
        description="List the provenance columns of stored rows — no "
                    "result payload is unpickled.  --figure restricts the "
                    "listing to the keys a figure's job list produces "
                    "under the given --profile/--seed/... configuration.")
    _add_store_option(results_list)
    add_filters(results_list)
    results_list.add_argument("--figure", default=None, metavar="NAME",
                              help="only rows belonging to this figure's "
                                   "job list (see --list)")
    results_list.add_argument("--limit", type=int, default=None, metavar="N",
                              help="show at most N rows (newest first)")
    results_list.add_argument("--offset", type=int, default=0, metavar="N",
                              help="skip the first N rows (page through "
                                   "large stores with --limit)")
    _add_config_options(results_list, suppress_defaults=True)
    results_list.set_defaults(handler=_results_list)

    results_show = results_sub.add_parser(
        "show", help="show one row's full provenance and result",
        description="Print one stored row — provenance stamps plus the "
                    "result payload's plain-data form — as JSON.")
    results_show.add_argument("key", help="result key (a unique prefix is "
                                          "enough)")
    _add_store_option(results_show)
    results_show.set_defaults(handler=_results_show)

    results_diff = results_sub.add_parser(
        "diff", help="compare two result sets (or revisions) per metric",
        description="Compare result sets A and B metric by metric.  A and "
                    "B are result store paths (cache directories or "
                    ".sqlite files), or — with --store — git revisions "
                    "(prefixes) within one store.  Exits 1 when any key "
                    "or metric differs beyond the tolerance, so CI can "
                    "assert that two runs of the same scenarios agree.")
    results_diff.add_argument("a", help="result store path, or git rev "
                                        "with --store")
    results_diff.add_argument("b", help="result store path, or git rev "
                                        "with --store")
    _add_store_option(results_diff)
    results_diff.add_argument("--tolerance", type=float, default=0.0,
                              metavar="T",
                              help="relative tolerance per metric "
                                   "(default 0: bit-identical)")
    results_diff.add_argument("--tolerances", default=None, metavar="FILE",
                              help="per-metric tolerance table (a JSON "
                                   "object of metric-name pattern -> "
                                   "relative tolerance, '*' wildcards, "
                                   "first match wins, 'default' key as "
                                   "fallback); supersedes --tolerance")
    results_diff.add_argument("--ignore-fast-forward", action="store_true",
                              help="re-key both sides as if fast-forward "
                                   "were disabled, so an exact run and "
                                   "its temporally upscaled twin match "
                                   "up for envelope comparison")
    results_diff.add_argument("--report", default=None, metavar="FILE",
                              help="also write the full diff report as "
                                   "JSON to FILE")
    results_diff.add_argument("--max-deltas", type=int, default=20,
                              metavar="N",
                              help="print at most N metric deltas "
                                   "(default 20)")
    results_diff.set_defaults(handler=_results_diff)

    results_export = results_sub.add_parser(
        "export", help="export rows (provenance + metrics) as JSON or CSV",
        description="Export stored rows with their provenance stamps and "
                    "the flattened numeric metrics of each result payload.")
    _add_store_option(results_export)
    add_filters(results_export)
    results_export.add_argument("--format", choices=("json", "csv"),
                                default="json", dest="export_format",
                                help="output format (default: json)")
    results_export.add_argument("-o", "--output", default=None, metavar="FILE",
                                help="write to FILE (default: stdout)")
    results_export.set_defaults(handler=_results_export)

    results_gc = results_sub.add_parser(
        "gc", help="prune rows superseded by newer revisions",
        description="Drop result rows (and their indexed metrics) that "
                    "newer revisions of the same key supersede, keeping "
                    "the newest --keep revisions per key.  Replays only "
                    "ever read the newest row, so older revisions are "
                    "pure ledger history — this bounds a long-lived "
                    "store's growth explicitly.  Every dropped pair is "
                    "logged; --dry-run reports without deleting.")
    _add_store_option(results_gc)
    results_gc.add_argument("--keep", type=int, default=1, metavar="N",
                            help="revisions to keep per key, newest first "
                                 "(default 1)")
    results_gc.add_argument("--dry-run", action="store_true",
                            help="report what would be dropped; delete "
                                 "nothing")
    results_gc.add_argument("--no-vacuum", action="store_true",
                            help="skip the VACUUM that reclaims file "
                                 "space after deleting")
    results_gc.set_defaults(handler=_results_gc)

    fleet = subcommands.add_parser(
        "fleet",
        help="sample scenario populations, drain them, report per cohort",
        description="Fleet-scale sweeps: SPEC is a population spec — a "
                    "JSON file path or inline JSON — describing "
                    "distributions over benchmarks, mix sizes, instance "
                    "counts, networks, machines and session variants.  "
                    "Sampling is deterministic and streamable: the same "
                    "spec, --n and --sample-seed yield byte-identical "
                    "scenario sequences on every machine, so a report "
                    "can rebuild the population a run drained without "
                    "any side channel.")
    fleet_sub = fleet.add_subparsers(dest="fleet_command", metavar="action",
                                     required=True)

    def add_population(sub):
        sub.add_argument("spec", metavar="SPEC",
                         help="population spec: a JSON file path or "
                              "inline JSON")
        sub.add_argument("--n", type=int, default=100, metavar="N",
                         help="population size to sample (default 100)")
        sub.add_argument("--sample-seed", type=int, default=0, metavar="S",
                         help="population sampling seed — independent of "
                              "the config --seed (default 0)")

    fleet_sample = fleet_sub.add_parser(
        "sample", help="preview a sampled population without executing",
        description="List the scenarios (index, hash, description) a "
                    "sample draws, plus the population digest — one "
                    "SHA-256 over the scenario hash sequence that two "
                    "machines can compare to prove they sampled "
                    "identical populations.")
    add_population(fleet_sample)
    fleet_sample.add_argument("--show", type=int, default=None, metavar="N",
                              help="list at most N scenarios (the digest "
                                   "still covers all of them)")
    _add_config_options(fleet_sample, suppress_defaults=True)
    fleet_sample.set_defaults(handler=_fleet_sample)

    fleet_run = fleet_sub.add_parser(
        "run", help="drain a sampled population through the suite",
        description="Sample --n scenarios and drain them through the "
                    "chosen backend into --cache-dir's result store "
                    "(required: the store is the fleet's ledger and what "
                    "fleet report reads).  Interrupted runs resume for "
                    "free — finished jobs replay from the store.")
    add_population(fleet_run)
    _add_execution_options(fleet_run, suppress_defaults=True)
    _add_config_options(fleet_run, suppress_defaults=True)
    fleet_run.set_defaults(handler=_fleet_run)

    fleet_report = fleet_sub.add_parser(
        "report", help="per-cohort percentiles from the store (pure SQL)",
        description="Aggregate the population's stored results into "
                    "per-cohort p50/p95/p99 tables — by network, "
                    "machine, session variant and mix arity — reading "
                    "only the indexed metrics table and provenance "
                    "columns (no result payload is unpickled).  Exits 1 "
                    "when no stored row covers the population.")
    add_population(fleet_report)
    _add_store_option(fleet_report)
    fleet_report.add_argument("--by", default=None, metavar="DIM,...",
                              help="cohort dimensions, comma-separated "
                                   "(default: network,machine,variant,"
                                   "arity; also: instances)")
    fleet_report.add_argument("--metric", action="append", default=[],
                              metavar="LABEL=PATTERN",
                              help="metric selector (repeatable): a glob "
                                   "over flattened metric names "
                                   "('reports[*].rtt.mean') or @column "
                                   "for a provenance column "
                                   "('@runtime_s'); default: rtt_s, "
                                   "client_fps, power_w, runtime_s")
    fleet_report.add_argument("--git-rev", default=None, metavar="REV",
                              help="pin to rows written at this revision "
                                   "(prefix) instead of the newest row "
                                   "per key")
    fleet_report.add_argument("--baseline", default=None, metavar="REV",
                              help="also print p50/p99 deltas against "
                                   "this revision (prefix) — the "
                                   "cross-revision perf ledger")
    fleet_report.add_argument("--report", default=None, metavar="FILE",
                              help="write the full report as JSON to "
                                   "FILE (deterministic: byte-identical "
                                   "across replays of the same store)")
    _add_config_options(fleet_report, suppress_defaults=True)
    fleet_report.set_defaults(handler=_fleet_report)

    agents = subcommands.add_parser(
        "agents",
        help="train, list, inspect and prune stored agent artifacts",
        description="Manage the trained-agent artefact registry: the "
                    "artifacts table a --cache-dir's result database "
                    "carries.  `agents train` trains one artefact per "
                    "configured benchmark and stores it content-addressed "
                    "(idempotent: an existing hash replays from the "
                    "store); intelligent-client jobs then resolve their "
                    "agents from the same store instead of retraining.")
    agents_sub = agents.add_subparsers(dest="agents_command",
                                       metavar="action", required=True)

    agents_train = agents_sub.add_parser(
        "train", help="train and store one artefact per benchmark",
        description="Train the intelligent-client artefact of every "
                    "configured benchmark (seed offset = the benchmark's "
                    "position, matching the split accuracy pipeline) and "
                    "store it under its content hash.  Already-stored "
                    "hashes are not retrained.")
    _add_store_option(agents_train)
    _add_config_options(agents_train, suppress_defaults=True)
    agents_train.set_defaults(handler=_agents_train)

    agents_list = agents_sub.add_parser(
        "list", help="list stored artefacts (provenance only)",
        description="List stored artefact rows, newest first — no "
                    "payload is unpickled.")
    _add_store_option(agents_list)
    agents_list.add_argument("--benchmark", default=None, metavar="NAME",
                             help="only artefacts trained on this benchmark")
    agents_list.set_defaults(handler=_agents_list)

    agents_show = agents_sub.add_parser(
        "show", help="show one artefact's provenance and training spec",
        description="Print one stored artefact row — provenance stamps "
                    "plus the full training spec — as JSON.")
    agents_show.add_argument("hash", help="artefact content hash (a unique "
                                          "prefix is enough)")
    _add_store_option(agents_show)
    agents_show.set_defaults(handler=_agents_show)

    agents_gc = agents_sub.add_parser(
        "gc", help="prune old artefacts per (kind, benchmark)",
        description="Drop all but the newest --keep artefacts of each "
                    "(kind, benchmark) group.  Artefact payloads are the "
                    "largest rows a store carries; this bounds a "
                    "long-lived store's growth explicitly.  Every dropped "
                    "hash is logged; --dry-run reports without deleting.")
    _add_store_option(agents_gc)
    agents_gc.add_argument("--keep", type=int, default=1, metavar="N",
                           help="artefacts to keep per (kind, benchmark), "
                                "newest first (default 1)")
    agents_gc.add_argument("--dry-run", action="store_true",
                           help="report what would be dropped; delete "
                                "nothing")
    agents_gc.add_argument("--no-vacuum", action="store_true",
                           help="skip the VACUUM that reclaims file "
                                "space after deleting")
    agents_gc.set_defaults(handler=_agents_gc)

    worker = subcommands.add_parser(
        "worker",
        help="run a standalone worker against a queue server",
        description="Poll a queue server for pending experiment jobs, "
                    "execute them, and send provenance-stamped results "
                    "back for the server to store.  Run one per core on "
                    "any machine that can reach the server.")
    worker.add_argument("--addr", required=True, metavar="HOST:PORT",
                        help="queue server address (see the serve "
                             "subcommand)")
    worker.add_argument("--worker-id", default=None, metavar="ID",
                        help="worker identity used in claims "
                             "(default: <hostname>-<pid>)")
    worker.add_argument("--poll", type=float, default=0.2, metavar="S",
                        help="idle poll interval in seconds (default 0.2)")
    worker.add_argument("--max-jobs", type=int, default=None, metavar="N",
                        help="exit after completing N jobs (default: no limit)")
    worker.add_argument("--idle-timeout", type=float, default=None,
                        metavar="S",
                        help="exit after the queue stays empty this long "
                             "(default: poll forever)")
    worker.add_argument("--heartbeat", type=float, default=2.0, metavar="S",
                        help="heartbeat interval in seconds (default 2)")
    worker.set_defaults(handler=_run_worker)

    serve = subcommands.add_parser(
        "serve",
        help="serve a work-queue directory over TCP to socket workers",
        description="Run the queue server: a TCP front-end over a "
                    "work-queue directory, speaking the framed protocol "
                    "socket workers and the socket backend use.  Holds "
                    "each claim as a lease in memory and requeues any "
                    "lease its worker's heartbeats leave unstamped for "
                    "--heartbeat-timeout; a restarted server offers every "
                    "unfinished job again at once.  With --max > 0 it "
                    "also autoscales local worker processes against queue "
                    "depth.")
    serve.add_argument("--queue", required=True, metavar="DIR",
                       help="work-queue directory to serve (created on "
                            "demand)")
    serve.add_argument("--host", default="127.0.0.1", metavar="HOST",
                       help="interface to bind (default: 127.0.0.1, "
                            "loopback only — frames are unauthenticated, "
                            "so bind another interface only on a trusted "
                            "network)")
    serve.add_argument("--port", type=int, default=7781, metavar="N",
                       help="TCP port to bind (default 7781; 0 = any free "
                            "port)")
    serve.add_argument("--heartbeat-timeout", type=float, default=15.0,
                       metavar="S",
                       help="requeue a claim after this much heartbeat "
                            "silence (default 15)")
    serve.add_argument("--sweep-interval", type=float, default=1.0,
                       metavar="S",
                       help="lease sweep interval (default 1)")
    serve.add_argument("--min", type=int, default=0, dest="min_workers",
                       metavar="N",
                       help="minimum local workers to keep (default 0)")
    serve.add_argument("--max", type=int, default=0, dest="max_workers",
                       metavar="N",
                       help="autoscale up to N local workers against "
                            "queue depth (default 0: serve only)")
    serve.add_argument("--scale-interval", type=float, default=1.0,
                       metavar="S",
                       help="autoscaler decision interval (default 1)")
    serve.set_defaults(handler=_run_serve)
    return parser


def load_scenarios(spec: str, config: ExperimentConfig) -> list[Scenario]:
    """Interpret one CLI scenario spec (file / inline JSON / mix shorthand).

    A spec without its own ``config`` section inherits ``config`` (the
    CLI profile), so its content hash reflects what actually runs.
    """
    stripped = spec.strip()
    if stripped.startswith(("{", "[")):
        data = json.loads(stripped)
    elif Path(spec).exists():
        data = json.loads(Path(spec).read_text())
    elif "+" in spec:
        return [Scenario.mixed(spec.split("+"), config=config)]
    else:
        raise ValueError(
            f"cannot interpret scenario spec {spec!r}: not an existing file, "
            f"inline JSON, or an A+B+C benchmark mix")
    if isinstance(data, dict):
        data = [data]
    return [Scenario.from_dict(entry, config=config) for entry in data]


def _run_scenarios(args) -> int:
    try:
        config = make_config(args)
        scenarios = []
        for spec in args.spec:
            scenarios.extend(load_scenarios(spec, config))
        suite = _suite_from_args(args)
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    with suite:
        results = suite.run([ExperimentJob(scenario) for scenario in scenarios])
    elapsed = time.perf_counter() - started

    for scenario, result in zip(scenarios, results):
        rows = [{"instance": index, "benchmark": report.benchmark,
                 "server_fps": report.server_fps,
                 "client_fps": report.client_fps,
                 "rtt_ms": report.rtt.mean * 1e3}
                for index, report in enumerate(result.reports)]
        print(format_rows(
            rows, title=f"scenario {scenario.describe()} "
                        f"[{scenario.short_hash()}]"))
        print(f"total power: {result.average_power_watts:.2f} W, "
              f"energy: {result.energy_joules:.1f} J")
        print()
    print(f"provenance: schema v{CACHE_SCHEMA_VERSION}, "
          f"git {current_git_rev()[:12]}")
    # Timing is nondeterministic, so it goes to stderr: stdout stays
    # bit-identical across serial / parallel / cache-replay runs.
    print(_stats_line(f"{len(scenarios)} scenario(s)", elapsed, suite, args),
          file=sys.stderr)
    return 0


def _run_trace(args) -> int:
    from repro.experiments.goldens import (
        check_goldens,
        golden_registry,
        update_goldens,
    )
    golden_dir = Path(args.golden_dir) if args.golden_dir else None

    if args.list_goldens:
        rows = [{"golden": name,
                 "scenario": spec.scenario.describe(),
                 "hash": spec.scenario.short_hash(),
                 "duration_s": spec.duration}
                for name, spec in golden_registry().items()]
        print(format_rows(rows, title="Registered golden traces"))
        return 0

    if args.update:
        results = update_goldens(golden_dir)
        for name, status in sorted(results.items()):
            print(f"{name}: {status}")
        return 0

    results = check_goldens(golden_dir)
    for name, status in sorted(results.items()):
        print(f"{name}: {status}")
    if any(status != "ok" for status in results.values()):
        print("golden traces diverged; if the change is an intentional "
              "semantic change, re-record with "
              "`python -m repro.experiments trace --update`",
              file=sys.stderr)
        return 1
    return 0


def _scenario_label(scenario: dict) -> str:
    """A short ``RE+ITPx2`` style label from a stored scenario dict."""
    names = []
    for placement in scenario.get("placements", ()):
        if isinstance(placement, str):
            names.append(placement)
            continue
        label = str(placement.get("benchmark", "?"))
        if placement.get("count", 1) > 1:
            label += f"x{placement['count']}"
        if placement.get("agent", "human") != "human":
            label += f"({placement['agent']})"
        names.append(label)
    return "+".join(names) or "-"


def _print_rows(rows: list[dict], title: str) -> None:
    """A table of ``rows`` under ``title``; just the title when empty."""
    print(format_rows(rows, title=title) if rows else title)


def _plain_result(result):
    """A JSON-friendly form of a stored result payload."""
    import dataclasses
    if hasattr(result, "as_dict"):
        return result.as_dict()
    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        return dataclasses.asdict(result)
    return result


def _open_existing_store(path: str) -> ResultStore:
    """Open a store that already exists — read-only commands must never
    conjure an empty database out of a typo'd path (a diff against an
    accidentally fresh store would pass vacuously)."""
    given = Path(path)
    db = given if given.suffix in (".sqlite", ".db") \
        else given / RESULT_DB_FILENAME
    if not db.exists():
        raise ValueError(f"no result database at {db}; a suite run with "
                         "--cache-dir creates one")
    return ResultStore(path)


def _require_store(args, create: bool = False) -> ResultStore:
    """The ``--store`` a command names: opened only if it exists, unless
    ``create`` (a command that writes, like ``agents train``)."""
    if args.store is None:
        raise ValueError("pass --store PATH (the run's --cache-dir, or a "
                         ".sqlite file)")
    return ResultStore(args.store) if create else _open_existing_store(args.store)


def _resolve_result_set(token: str, store_path: Optional[str]):
    """(key → entry, label, rejected) for one ``results diff`` operand: a
    result store path, or — with ``--store`` — a git revision prefix.

    ``rejected`` counts the keys on file that the loaded set lacks: rows
    :meth:`ResultStore.result_set` rejected as stale or unreadable (read
    from the provenance columns; nothing is unpickled)."""
    path = Path(token)
    if (path.suffix in (".sqlite", ".db") and path.exists()) or path.is_dir():
        store, git_rev, label = _open_existing_store(token), None, str(token)
    elif store_path is None:
        raise ValueError(
            f"{token!r} is not a result store path; to compare git "
            "revisions, name the database with --store")
    else:
        store, git_rev = _open_existing_store(store_path), token
        label = f"{token}@{store_path}"
    entries = store.result_set(git_rev=git_rev)
    on_file = {row["key"] for row in store.rows(git_rev=git_rev)}
    return entries, label, len(on_file - entries.keys())


def _results_list(args) -> int:
    store = _require_store(args)
    keys = None
    if args.figure is not None:
        if args.figure not in FIGURES:
            raise ValueError(f"unknown figure {args.figure!r}; known: "
                             f"{', '.join(figure_names())}")
        config = make_config(args)
        keys = {job.key() for job in FIGURES[args.figure].build_jobs(config)}
    rows = store.rows(kind=args.kind, scenario_hash=args.scenario_hash,
                      git_rev=args.git_rev, keys=keys)
    total = len(rows)
    offset = args.offset or 0
    if offset < 0:
        raise ValueError("--offset must be non-negative")
    rows = rows[offset:]
    if args.limit is not None:
        rows = rows[:args.limit]
    display = [{
        "key": row["key"][:12],
        "kind": row["kind"],
        "scenario": _scenario_label(row["scenario"]),
        "scenario_hash": (row["scenario_hash"] or "")[:12],
        "git_rev": (row["git_rev"] or "")[:12],
        "runtime_s": (None if row["runtime_s"] is None
                      else round(row["runtime_s"], 3)),
        "cost_units": row["cost_units"],
    } for row in rows]
    showing = ""
    if offset or len(rows) < total:
        showing = (f" (showing {len(rows)} from offset {offset})" if offset
                   else f" (showing {len(rows)})")
    title = f"{total} result row(s) in {store.db_path}{showing}"
    _print_rows(display, title)
    return 0


def _results_show(args) -> int:
    store = _require_store(args)
    keys = sorted({row["key"] for row in store.rows()
                   if row["key"].startswith(args.key)})
    if not keys:
        raise ValueError(f"no stored result key starts with {args.key!r}")
    if len(keys) > 1:
        raise ValueError(f"key prefix {args.key!r} is ambiguous: "
                         + ", ".join(key[:12] for key in keys))
    entry = store.get_entry(keys[0])
    if entry is None:
        print(f"error: entry {keys[0][:12]} failed validation (see log)",
              file=sys.stderr)
        return 1
    payload = {name: value for name, value in entry.items()
               if name != "result"}
    payload["result"] = _plain_result(entry.get("result"))
    print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    return 0


def _results_diff(args) -> int:
    from repro.experiments.store import (
        ToleranceTable,
        diff_result_sets,
        rekey_ignoring_fast_forward,
    )
    set_a, label_a, rejected_a = _resolve_result_set(args.a, args.store)
    set_b, label_b, rejected_b = _resolve_result_set(args.b, args.store)
    if args.ignore_fast_forward:
        set_a = rekey_ignoring_fast_forward(set_a)
        set_b = rekey_ignoring_fast_forward(set_b)
    table = (ToleranceTable.load(args.tolerances)
             if args.tolerances else None)
    report = diff_result_sets(set_a, set_b, tolerance=args.tolerance,
                              tolerances=table)

    print(f"results diff: A={label_a} ({len(set_a)} result(s)) "
          f"vs B={label_b} ({len(set_b)} result(s))")
    for side, rejected in (("A", rejected_a), ("B", rejected_b)):
        if rejected:
            print(f"  {side}: {rejected} key(s) on file rejected as "
                  "stale/unreadable (see log)")
    print(f"{report.matched} matched, {report.identical} identical, "
          f"{len(report.deltas)} metric delta(s), "
          f"{len(report.only_in_a)} only in A, "
          f"{len(report.only_in_b)} only in B")
    for key in report.only_in_a:
        print(f"  only in A: {key[:12]}")
    for key in report.only_in_b:
        print(f"  only in B: {key[:12]}")
    for delta in report.deltas[:args.max_deltas]:
        print(f"  {delta.key[:12]} {delta.metric}: "
              f"{delta.a!r} -> {delta.b!r}")
    if len(report.deltas) > args.max_deltas:
        print(f"  ... and {len(report.deltas) - args.max_deltas} more "
              "delta(s)")

    if args.report:
        document = {"a": label_a, "b": label_b,
                    "tolerance": args.tolerance,
                    "tolerances": (dict(table.patterns,
                                        default=table.default)
                                   if table is not None else None),
                    "ignore_fast_forward": bool(args.ignore_fast_forward),
                    "rejected_a": rejected_a, "rejected_b": rejected_b,
                    **report.to_dict()}
        Path(args.report).write_text(json.dumps(document, indent=2) + "\n")
        print(f"report written to {args.report}", file=sys.stderr)

    if report.empty():
        print("no differences")
        return 0
    return 1


def _results_export(args) -> int:
    import csv
    import io

    from repro.experiments.store import entry_metrics
    store = _require_store(args)
    entries = store.result_set(git_rev=args.git_rev)
    rows = []
    for key in sorted(entries):
        entry = entries[key]
        if args.kind is not None and entry.get("kind") != args.kind:
            continue
        if args.scenario_hash is not None and not str(
                entry.get("scenario_hash", "")).startswith(args.scenario_hash):
            continue
        rows.append({
            "key": key,
            "kind": entry.get("kind"),
            "scenario": _scenario_label(entry.get("scenario", {})),
            "scenario_hash": entry.get("scenario_hash"),
            "git_rev": entry.get("git_rev"),
            "duration": entry.get("duration"),
            "runtime_s": entry.get("runtime_s"),
            "cost_units": entry.get("cost_units"),
            "metrics": entry_metrics(entry),
        })

    if args.export_format == "json":
        text = json.dumps(rows, indent=2, sort_keys=True) + "\n"
    else:
        provenance = ("key", "kind", "scenario", "scenario_hash", "git_rev",
                      "duration", "runtime_s", "cost_units")
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(list(provenance) + ["metric", "value"])
        for row in rows:
            stamp = [row[name] for name in provenance]
            for metric in sorted(row["metrics"]):
                writer.writerow(stamp + [metric, row["metrics"][metric]])
        text = buffer.getvalue()

    if args.output:
        Path(args.output).write_text(text)
        print(f"exported {len(rows)} result(s) to {args.output}",
              file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _results_gc(args) -> int:
    if args.keep < 1:
        raise ValueError("--keep must be at least 1 (gc keeps the newest "
                         "N revisions per key)")
    store = _require_store(args)
    report = store.gc(keep_revs=args.keep, dry_run=args.dry_run,
                      vacuum=not args.no_vacuum)
    verb = "would drop" if report.dry_run else "dropped"
    print(f"results gc: {verb} {report.dropped_rows} superseded result "
          f"row(s) and {report.dropped_metrics} metric row(s) across "
          f"{report.keys} key(s); kept {report.kept_rows} row(s) "
          f"(newest {report.keep_revs} revision(s) per key)"
          + ("; vacuumed" if report.vacuumed else ""))
    return 0


def _load_population_spec(token: str):
    """Interpret one CLI population spec (file path or inline JSON)."""
    from repro.fleet import PopulationSpec
    stripped = token.strip()
    if stripped.startswith("{"):
        data = json.loads(stripped)
    elif Path(token).exists():
        data = json.loads(Path(token).read_text())
    else:
        raise ValueError(f"cannot interpret population spec {token!r}: "
                         "not an existing file or inline JSON")
    return PopulationSpec.from_dict(data)


def _fleet_sample(args) -> int:
    from repro.fleet import population_digest, sample
    spec = _load_population_spec(args.spec)
    config = make_config(args)
    scenarios = list(sample(spec, args.n, seed=args.sample_seed,
                            config=config))
    shown = scenarios if args.show is None else scenarios[:args.show]
    rows = [{"index": index, "hash": scenario.short_hash(),
             "scenario": scenario.describe()}
            for index, scenario in enumerate(shown)]
    title = (f"population {spec.name} [{spec.short_hash()}] — "
             f"{len(scenarios)} sample(s), seed {args.sample_seed}"
             + (f" (showing {len(shown)})" if len(shown) < len(scenarios)
                else ""))
    _print_rows(rows, title)
    print(f"population digest: {population_digest(scenarios)}")
    return 0


def _fleet_run(args) -> int:
    from repro.fleet import (
        population_digest,
        population_jobs,
        scenarios_by_key,
    )
    spec = _load_population_spec(args.spec)
    config = make_config(args)
    if args.cache_dir is None:
        raise ValueError("fleet run needs --cache-dir DIR: the result "
                         "store is the fleet's ledger (and what fleet "
                         "report reads)")
    jobs = population_jobs(spec, args.n, seed=args.sample_seed,
                           config=config)
    index = scenarios_by_key(jobs)
    suite = _suite_from_args(args)
    started = time.perf_counter()
    with suite:
        suite.run(jobs)
    elapsed = time.perf_counter() - started
    # Deterministic stdout (serial / parallel / socket / replay agree);
    # timing and throughput go to stderr.
    print(f"population {spec.name} [{spec.short_hash()}]: "
          f"{len(jobs)} sample(s), {len(index)} unique job(s), "
          f"sample seed {args.sample_seed}")
    print(f"population digest: "
          f"{population_digest(job.scenario for job in jobs)}")
    print(f"provenance: schema v{CACHE_SCHEMA_VERSION}, "
          f"git {current_git_rev()[:12]}")
    print(_stats_line(f"{len(jobs)} job(s)", elapsed, suite, args,
                      submitted="submitted", show_backend=True),
          file=sys.stderr)
    return 0


def _fleet_report(args) -> int:
    from repro.fleet import (
        DEFAULT_DIMENSIONS,
        DEFAULT_METRICS,
        MetricSelector,
        compare_reports,
        fleet_report,
        population_jobs,
        scenarios_by_key,
    )
    spec = _load_population_spec(args.spec)
    config = make_config(args)
    store = _require_store(args)
    index = scenarios_by_key(population_jobs(spec, args.n,
                                             seed=args.sample_seed,
                                             config=config))
    dimensions = (tuple(name.strip() for name in args.by.split(","))
                  if args.by else DEFAULT_DIMENSIONS)
    metrics = (tuple(MetricSelector.parse(text) for text in args.metric)
               if args.metric else DEFAULT_METRICS)
    report = fleet_report(store, index, dimensions=dimensions,
                          metrics=metrics, git_rev=args.git_rev)

    print(f"fleet report: population {spec.name} [{spec.short_hash()}], "
          f"{report.covered}/{report.sampled} job(s) covered"
          + (f" at rev {args.git_rev}" if args.git_rev else ""))
    for metric in metrics:
        stats = [s for s in report.stats if s.metric == metric.label]
        rows = [{"dimension": s.dimension, "cohort": s.cohort,
                 "n": s.count, "mean": round(s.mean, 4),
                 "p50": round(s.p50, 4), "p95": round(s.p95, 4),
                 "p99": round(s.p99, 4)} for s in stats]
        if rows:
            print(format_rows(rows, title=f"{metric.label} "
                                          f"({metric.pattern})"))
            print()

    document = {"population": spec.to_dict(), "n": args.n,
                "sample_seed": args.sample_seed, **report.to_dict()}
    if args.baseline:
        baseline = fleet_report(store, index, dimensions=dimensions,
                                metrics=metrics, git_rev=args.baseline)
        deltas = compare_reports(report, baseline)
        rows = [{"metric": d["metric"], "dimension": d["dimension"],
                 "cohort": d["cohort"],
                 "p50": None if d["p50"] is None else round(d["p50"], 4),
                 "p50_base": (None if d["p50_baseline"] is None
                              else round(d["p50_baseline"], 4)),
                 "p50_%": (None if d["p50_delta_pct"] is None
                           else round(d["p50_delta_pct"], 2)),
                 "p99_%": (None if d["p99_delta_pct"] is None
                           else round(d["p99_delta_pct"], 2))}
                for d in deltas]
        title = (f"vs baseline {args.baseline} "
                 f"({baseline.covered}/{baseline.sampled} covered)")
        _print_rows(rows, title)
        document["baseline"] = {"git_rev": args.baseline,
                                "covered": baseline.covered,
                                "deltas": deltas}
    if args.report:
        Path(args.report).write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"report written to {args.report}", file=sys.stderr)
    if report.covered == 0:
        print("no stored results cover this population; run "
              "`fleet run` against this store first", file=sys.stderr)
        return 1
    return 0


def _agents_train(args) -> int:
    from repro.agents.artifacts import (
        ARTIFACT_SCHEMA_VERSION,
        ArtifactSpec,
        resolve_artifact,
    )
    config = make_config(args)
    store = _require_store(args, create=True)
    rows = []
    for index, benchmark in enumerate(config.benchmarks):
        spec = ArtifactSpec.for_config(benchmark, config, seed_offset=index)
        cached = store.get_artifact_bytes(
            spec.content_hash(), schema=ARTIFACT_SCHEMA_VERSION) is not None
        artifact = resolve_artifact(spec, store=store)
        rows.append({"benchmark": benchmark,
                     "hash": spec.short_hash(),
                     "train_seed": spec.train_seed,
                     "recording": len(artifact.recording),
                     "size_bytes": len(artifact.to_bytes()),
                     "status": "cached" if cached else "trained"})
    print(format_rows(rows, title=f"{len(rows)} agent artifact(s) in "
                                  f"{store.db_path}"))
    return 0


def _agents_list(args) -> int:
    store = _require_store(args)
    rows = store.artifact_rows(benchmark=args.benchmark)
    display = [{
        "hash": row["hash"][:12],
        "kind": row["kind"],
        "benchmark": row["benchmark"],
        "schema": row["schema"],
        "git_rev": (row["git_rev"] or "")[:12],
        "size_bytes": row["size_bytes"],
        "runtime_s": (None if row["runtime_s"] is None
                      else round(row["runtime_s"], 3)),
    } for row in rows]
    title = f"{len(rows)} agent artifact(s) in {store.db_path}"
    _print_rows(display, title)
    return 0


def _agents_show(args) -> int:
    store = _require_store(args)
    rows = [row for row in store.artifact_rows()
            if row["hash"].startswith(args.hash)]
    if not rows:
        raise ValueError(f"no stored artifact hash starts with "
                         f"{args.hash!r}")
    if len(rows) > 1:
        raise ValueError(f"hash prefix {args.hash!r} is ambiguous: "
                         + ", ".join(row["hash"][:12] for row in rows))
    print(json.dumps(rows[0], indent=2, sort_keys=True, default=str))
    return 0


def _agents_gc(args) -> int:
    if args.keep < 1:
        raise ValueError("--keep must be at least 1 (gc keeps the newest "
                         "N artefacts per group)")
    store = _require_store(args)
    report = store.gc_artifacts(keep=args.keep, dry_run=args.dry_run,
                                vacuum=not args.no_vacuum)
    verb = "would drop" if report.dry_run else "dropped"
    print(f"agents gc: {verb} {report.dropped} artifact(s) across "
          f"{report.groups} (kind, benchmark) group(s); kept {report.kept} "
          f"(newest {report.keep} per group)"
          + ("; vacuumed" if report.vacuumed else ""))
    return 0


def _run_worker(args) -> int:
    from repro.experiments.socket_queue import SocketQueue
    from repro.experiments.worker import default_worker_id, run_worker

    worker_id = args.worker_id or default_worker_id()
    executed = run_worker(SocketQueue(args.addr), worker_id=worker_id,
                          poll_s=args.poll, max_jobs=args.max_jobs,
                          idle_timeout_s=args.idle_timeout,
                          heartbeat_s=args.heartbeat)
    print(f"worker {worker_id}: executed {executed} job(s) from {args.addr}",
          file=sys.stderr)
    return 0


def _run_serve(args) -> int:
    import signal
    import threading

    from repro.experiments.coordinator import Coordinator
    from repro.experiments.server import QueueServer

    server = QueueServer(Path(args.queue), host=args.host, port=args.port,
                         heartbeat_timeout_s=args.heartbeat_timeout,
                         sweep_interval_s=args.sweep_interval)
    server.start()
    print(f"queue server listening on {server.address} "
          f"(queue: {args.queue})", file=sys.stderr, flush=True)

    coordinator = None
    coordinator_thread = None
    if args.max_workers > 0:
        # The coordinator connects over loopback even when serving on
        # 0.0.0.0 — its workers are local by definition.
        host = args.host if args.host not in ("0.0.0.0", "::") \
            else "127.0.0.1"
        coordinator = Coordinator(f"{host}:{server.port}",
                                  min_workers=args.min_workers,
                                  max_workers=args.max_workers,
                                  scale_interval_s=args.scale_interval)
        coordinator_thread = threading.Thread(target=coordinator.run,
                                              daemon=True,
                                              name="queue-coordinator")
        coordinator_thread.start()
        print(f"autoscaling {args.min_workers}..{args.max_workers} local "
              f"worker(s) every {args.scale_interval:g}s", file=sys.stderr,
              flush=True)

    # SIGTERM (``kill PID``) shuts down like Ctrl-C, so the ``finally``
    # below still kills the coordinator's workers.
    signal.signal(signal.SIGTERM, lambda *_: server._stop.set())
    try:
        server._stop.wait()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        if coordinator is not None:
            coordinator.stop(kill=True)
        server.stop()
    return 0


def _run_figures(args) -> int:
    if args.list_figures:
        rows = [{"figure": name, "title": spec.title}
                for name, spec in FIGURES.items()]
        print(format_rows(rows, title="Available figures"))
        return 0

    names = list(args.figure)
    if args.all:
        names = figure_names()
    if not names:
        print("nothing to do: pass --figure NAME (repeatable), --all, "
              "--list or the scenario subcommand", file=sys.stderr)
        return 2
    unknown = [name for name in names if name not in FIGURES]
    if unknown:
        print(f"unknown figures: {', '.join(unknown)}; known: "
              f"{', '.join(figure_names())}", file=sys.stderr)
        return 2

    try:
        config = make_config(args)
        suite = _suite_from_args(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    with suite:
        for name in names:
            rows = run_figure(name, config, suite)
            print(format_rows(rows, title=FIGURES[name].title))
            print()
    elapsed = time.perf_counter() - started
    print(_stats_line(f"{len(names)} figure(s)", elapsed, suite, args))
    return 0


#: Subcommand groups that report user errors (a missing store, an
#: unknown key prefix, a malformed spec) as one ``error:`` line, exit 2.
_STORE_COMMANDS = ("results", "fleet", "agents")


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command not in _STORE_COMMANDS:
        return args.handler(args)
    try:
        return args.handler(args)
    except (ValueError, KeyError, TypeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
