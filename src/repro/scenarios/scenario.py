"""The canonical, declarative description of one testbed run.

A :class:`Scenario` answers every question the paper's evaluation grid
asks about a run — *which* benchmark instances share a host (with which
driving agent, how many occurrences), on *what* machine, under *which*
session variant and network conditions, containerized or not, and with
what seed policy — as one frozen, hashable, picklable value.

Because it is a value object it round-trips through
:meth:`Scenario.to_dict` / :meth:`Scenario.from_dict` (the CLI's
JSON-spec format) and has a stable :meth:`Scenario.content_hash` that the
experiment executor uses as its cache key: any change to any knob, and
only such a change, produces a different hash.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.apps.registry import all_benchmarks
from repro.scenarios.config import ExperimentConfig
from repro.sim.fastforward import FastForwardConfig
from repro.scenarios.machines import MACHINE_SPECS, machine_spec
from repro.scenarios.networks import NETWORKS, network_link
from repro.scenarios.variants import SessionVariant, variant_name
from repro.server.host import CloudHost, HostConfig, HostResult

__all__ = ["AGENT_FACTORIES", "Placement", "SCENARIO_SCHEMA_VERSION",
           "Scenario", "SeedPolicy", "agent_factory", "canonical_hash",
           "hashed_content", "register_agent", "split_agent_name"]

#: Bump when the serialized scenario layout (or the result layout the
#: executor caches) changes, so stale provenance is always detectable.
SCENARIO_SCHEMA_VERSION = 2


def canonical_hash(payload) -> str:
    """SHA-256 over ``payload``'s canonical JSON (sorted keys, no
    whitespace) — the one encoding behind every scenario content hash
    and job key."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def hashed_content(data: dict) -> dict:
    """The part of a :meth:`Scenario.to_dict` output that its content hash
    covers: everything but the schema version."""
    return {key: value for key, value in data.items() if key != "schema"}


#: Named driving agents a placement may request.  ``None`` means the
#: host's default (the synthetic human player).  Factories must be
#: module-level callables taking the instantiated application, so the
#: scenario stays picklable — the name crosses the process boundary and
#: the factory is resolved inside the worker.
class _ArtifactAgentSpec:
    """Registry entry for agents materialized from trained artefacts.

    The placement name stays declarative (``intelligent``,
    ``intelligent@3``, ``intelligent#<hash>``, ``deskbench@3``); the
    trained agent resolves lazily — memo, ambient artefact store, or
    train-on-demand — inside the executing process when the host binds
    its instances, like every other name-resolved scenario registry.
    The heavy agents package is imported only at bind time, so scenario
    construction and hashing stay lightweight.
    """

    def __init__(self, kind: str):
        self.kind = kind

    def bind(self, scenario: "Scenario", benchmark: str, agent: str) -> Callable:
        from repro.agents.artifacts import bind_scenario_agent
        return bind_scenario_agent(self.kind, scenario, benchmark, agent)


AGENT_FACTORIES: dict[str, Optional[Callable]] = {
    "human": None,
    "intelligent": _ArtifactAgentSpec("intelligent"),
    "deskbench": _ArtifactAgentSpec("deskbench"),
}


def split_agent_name(name: str) -> tuple[str, str, str]:
    """Split a placement agent name into (base, separator, parameter).

    ``"intelligent@3"`` → ``("intelligent", "@", "3")`` (a training-seed
    offset), ``"intelligent#ab12…"`` → ``("intelligent", "#", "ab12…")``
    (an explicit artefact hash), bare names → ``(name, "", "")``.
    """
    for sep in ("@", "#"):
        base, found, param = name.partition(sep)
        if found:
            return base, sep, param
    return name, "", ""


def agent_factory(name: str) -> Optional[Callable]:
    """The agent factory registered under ``name`` (None = default human).

    Parametrized names (``intelligent@3``) resolve through their base
    name; the parameter is consumed by the registered spec's ``bind``
    (see :meth:`Scenario.build_host`).
    """
    base, _, _ = split_agent_name(name)
    try:
        return AGENT_FACTORIES[base]
    except KeyError:
        raise KeyError(f"unknown agent {base!r}; "
                       f"known: {sorted(AGENT_FACTORIES)}") from None


def register_agent(name: str, factory: Callable) -> None:
    """Register an agent factory (``factory(app) -> agent``) under ``name``.

    Like all scenario registries (agents, machines, networks), entries
    are resolved *by name* inside the executing process.  For scenarios
    that run on a process-pool backend, perform the registration at
    module import time in an imported module (not ad hoc in ``__main__``)
    so spawn-based worker processes see it too; fork-based workers
    (Linux default) inherit it either way.
    """
    if not name:
        raise ValueError("agent name must be non-empty")
    AGENT_FACTORIES[name] = factory


@dataclass(frozen=True)
class Placement:
    """``count`` instances of one benchmark, driven by one named agent."""

    benchmark: str
    agent: str = "human"
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("placement count must be at least 1")
        known = all_benchmarks()
        if self.benchmark not in known:
            raise ValueError(f"unknown benchmark {self.benchmark!r}; "
                             f"known: {', '.join(sorted(known))}")
        base, sep, param = split_agent_name(self.agent)
        if base not in AGENT_FACTORIES:
            raise ValueError(f"unknown agent {base!r}; "
                             f"known: {sorted(AGENT_FACTORIES)}")
        if sep:
            if not hasattr(AGENT_FACTORIES[base], "bind"):
                raise ValueError(f"agent {base!r} does not take a "
                                 f"{sep!r} parameter")
            if sep == "@":
                try:
                    int(param)
                except ValueError:
                    raise ValueError(
                        f"agent parameter in {self.agent!r} must be an "
                        "integer training-seed offset") from None
            elif not param:
                raise ValueError(f"agent {self.agent!r} names an empty "
                                 "artefact hash")


@dataclass(frozen=True)
class SeedPolicy:
    """How a scenario derives the seed of its random streams.

    ``base`` pins an absolute base seed; the default (None) inherits
    ``config.seed`` so sweeps stay controlled by one experiment config.
    ``offset`` decorrelates repeated runs of otherwise-equal scenarios.
    """

    offset: int = 0
    base: Optional[int] = None


def _fields(value) -> dict:
    """A dataclass instance's fields as a dict, in declaration order —
    :func:`dataclasses.asdict` for one level, without its deep copy."""
    return {name: getattr(value, name) for name in value.__dataclass_fields__}


def _as_placement(entry) -> Placement:
    if isinstance(entry, Placement):
        return entry
    if isinstance(entry, str):
        return Placement(benchmark=entry)
    if isinstance(entry, dict):
        return Placement(**entry)
    raise TypeError(f"cannot interpret {entry!r} as a placement")


@dataclass(frozen=True)
class Scenario:
    """One declaratively described testbed run."""

    placements: tuple[Placement, ...]
    config: ExperimentConfig = field(default_factory=ExperimentConfig)
    variant: SessionVariant = field(default_factory=SessionVariant)
    machine: str = "paper"
    containerized: bool = False
    network: str = "lan_1gbps"
    seed: SeedPolicy = field(default_factory=SeedPolicy)

    def __post_init__(self) -> None:
        placements = tuple(_as_placement(p) for p in self.placements)
        if not placements:
            raise ValueError("a scenario needs at least one placement")
        # Canonical form: adjacent placements of the same (benchmark,
        # agent) merge into one counted placement, so ("RE", "RE") and
        # Placement("RE", count=2) hash — and therefore cache — the same.
        merged: list[Placement] = []
        for placement in placements:
            if merged and merged[-1].benchmark == placement.benchmark \
                    and merged[-1].agent == placement.agent:
                merged[-1] = replace(merged[-1],
                                     count=merged[-1].count + placement.count)
            else:
                merged.append(placement)
        object.__setattr__(self, "placements", tuple(merged))
        # Accept a registry name or field dict for the variant, mirroring
        # the JSON-spec form ("variant": "optimized").
        object.__setattr__(self, "variant",
                           SessionVariant.from_dict(self.variant))
        if self.machine not in MACHINE_SPECS:
            raise ValueError(f"unknown machine spec {self.machine!r}; "
                             f"known: {sorted(MACHINE_SPECS)}")
        if self.network not in NETWORKS:
            raise ValueError(f"unknown network {self.network!r}; "
                             f"known: {sorted(NETWORKS)}")

    # -- convenience constructors -----------------------------------------------------
    @classmethod
    def single(cls, benchmark: str, config: Optional[ExperimentConfig] = None,
               *, agent: str = "human", seed_offset: int = 0,
               **options) -> "Scenario":
        """One benchmark instance alone on the server."""
        return cls(placements=(Placement(benchmark, agent=agent),),
                   config=config or ExperimentConfig(),
                   seed=SeedPolicy(offset=seed_offset), **options)

    @classmethod
    def colocated(cls, benchmark: str, instances: int,
                  config: Optional[ExperimentConfig] = None,
                  *, seed_offset: int = 0, **options) -> "Scenario":
        """``instances`` copies of the same benchmark on one server."""
        if instances < 1:
            raise ValueError("instances must be at least 1")
        return cls(placements=(Placement(benchmark, count=instances),),
                   config=config or ExperimentConfig(),
                   seed=SeedPolicy(offset=seed_offset), **options)

    @classmethod
    def mixed(cls, benchmarks, config: Optional[ExperimentConfig] = None,
              *, seed_offset: int = 0, **options) -> "Scenario":
        """An arbitrary mix of benchmarks sharing one server."""
        return cls(placements=tuple(_as_placement(b) for b in benchmarks),
                   config=config or ExperimentConfig(),
                   seed=SeedPolicy(offset=seed_offset), **options)

    # -- derived views ----------------------------------------------------------------
    @property
    def benchmarks(self) -> tuple[str, ...]:
        """The benchmark short names, one entry per instance, in order."""
        return tuple(p.benchmark for p in self.placements for _ in range(p.count))

    @property
    def instances(self) -> tuple[tuple[str, str], ...]:
        """(benchmark, agent) per instance, in placement order."""
        return tuple((p.benchmark, p.agent)
                     for p in self.placements for _ in range(p.count))

    def effective_seed(self) -> int:
        base = self.config.seed if self.seed.base is None else self.seed.base
        return base + self.seed.offset

    def cost_units(self, duration: Optional[float] = None) -> float:
        """An a-priori cost for running this scenario, in abstract units.

        Simulated seconds (warm-up plus the measurement interval, or
        ``duration`` when the caller overrides it) times the instance
        count: every instance adds its own event streams, so the event
        volume — and therefore wall time on any backend — grows roughly
        with this product.  It is a provenance stamp: every result-store
        row records it next to the measured ``runtime_s``, and ``fleet
        report`` selects it as ``@cost_units``.  Nothing schedules by it.
        """
        span = self.config.duration_s if duration is None else duration
        ff = self.config.fast_forward
        if ff.enabled:
            # Fast-forward micro-simulates only enough windows to
            # establish steadiness plus the exit window; without this
            # cap a fast-forwarded two-minute run would be stamped as
            # if it cost a full-fidelity one.
            micro_cap = (ff.window_s * (ff.min_steady_windows + 1)
                         + ff.exit_window_s)
            span = min(span, micro_cap)
        return (self.config.warmup_s + span) * len(self.benchmarks)

    def describe(self) -> str:
        """A short human-readable label for progress output and tables."""
        names = []
        for placement in self.placements:
            label = placement.benchmark
            if placement.count > 1:
                label += f"x{placement.count}"
            if placement.agent != "human":
                label += f"({placement.agent})"
            names.append(label)
        parts = ["+".join(names), f"seed+{self.seed.offset}"]
        if self.seed.base is not None:
            parts[-1] = f"seed={self.seed.base}+{self.seed.offset}"
        name = variant_name(self.variant)
        if name != "default":
            changed = name or ",".join(
                field_name for field_name, value in self.variant.to_dict().items()
                if value != getattr(SessionVariant(), field_name))
            parts.append(f"[{changed}]")
        if self.machine != "paper":
            parts.append(f"@{self.machine}")
        if self.network != "lan_1gbps":
            parts.append(f"net={self.network}")
        if self.containerized:
            parts.append("containerized")
        if self.config.fast_forward.enabled:
            parts.append("fast-forward")
        return " ".join(parts)

    # -- serialization ----------------------------------------------------------------
    def to_dict(self) -> dict:
        """A plain-data form that round-trips through :meth:`from_dict`.

        Every nested value is a frozen dataclass of immutable fields, so
        each level is a field-list copy: :func:`dataclasses.asdict` would
        produce the same dicts, in the same key order, through a deep copy.
        """
        config = _fields(self.config)
        # Omit-when-default: a config with fast-forward off serializes
        # exactly as it did before the field existed, so every existing
        # content hash, cache key and golden-trace header is preserved.
        # When present it keeps its place, the config's last key.
        if self.config.fast_forward == FastForwardConfig():
            del config["fast_forward"]
        else:
            config["fast_forward"] = _fields(self.config.fast_forward)
        return {
            "schema": SCENARIO_SCHEMA_VERSION,
            "placements": [_fields(p) for p in self.placements],
            "config": config,
            "variant": self.variant.to_dict(),
            "machine": self.machine,
            "containerized": self.containerized,
            "network": self.network,
            "seed": _fields(self.seed),
        }

    @staticmethod
    def from_dict(data: dict,
                  config: Optional[ExperimentConfig] = None) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output or a hand-written
        spec.

        Specs may omit anything but ``placements``.  ``config`` (e.g. a
        CLI profile) is the base configuration; a spec's ``config``
        section — itself allowed to be partial — is merged over it, so
        ``{"config": {"seed": 7}}`` keeps the profile's durations.
        Placement entries may be bare benchmark names.
        """
        if "placements" not in data:
            raise KeyError("a scenario spec needs a 'placements' list")
        unknown = set(data) - {"schema", "placements", "config", "variant",
                               "machine", "containerized", "network", "seed"}
        if unknown:
            raise KeyError(f"unknown scenario spec fields {sorted(unknown)}")
        config = config or ExperimentConfig()
        if "config" in data:
            config_data = dict(data["config"])
            unknown = set(config_data) - set(
                ExperimentConfig.__dataclass_fields__)
            if unknown:
                raise KeyError(f"unknown config fields {sorted(unknown)}")
            if "benchmarks" in config_data:
                config_data["benchmarks"] = tuple(config_data["benchmarks"])
            config = replace(config, **config_data)
        seed_data = data.get("seed", {})
        if isinstance(seed_data, int):
            seed_data = {"offset": seed_data}
        return Scenario(
            placements=tuple(_as_placement(p) for p in data["placements"]),
            config=config,
            variant=SessionVariant.from_dict(data.get("variant", {})),
            machine=data.get("machine", "paper"),
            containerized=bool(data.get("containerized", False)),
            network=data.get("network", "lan_1gbps"),
            seed=SeedPolicy(**seed_data),
        )

    def content_hash(self) -> str:
        """A stable SHA-256 over the scenario's content.

        Deliberately excludes the schema version: provenance (is this
        entry from the current schema?) is recorded *inside* result-store
        entries so stale entries are detected and logged rather than
        silently keyed away (see
        :class:`repro.experiments.store.ResultStore`).
        """
        return canonical_hash(hashed_content(self.to_dict()))

    def short_hash(self) -> str:
        return self.content_hash()[:12]

    # -- execution --------------------------------------------------------------------
    def build_host(self) -> CloudHost:
        """Construct the (not yet run) testbed host this scenario describes."""
        host_config = HostConfig(
            seed=self.effective_seed(),
            machine_spec=machine_spec(self.machine),
            pictor=self.variant.pictor_config(),
            containerized=self.containerized,
        )
        host = CloudHost(host_config)
        link = network_link(self.network)
        for benchmark, agent in self.instances:
            factory = agent_factory(agent)
            if hasattr(factory, "bind"):
                factory = factory.bind(self, benchmark, agent)
            host.add_instance(
                benchmark, agent_factory=factory,
                session_config=self.variant.session_config(link=link))
        return host

    def run(self, suite=None, duration: Optional[float] = None) -> HostResult:
        """Run this scenario and return its :class:`HostResult`.

        With a ``suite`` the run goes through the experiment executor
        (deduplication, caching, worker processes); without one it
        executes in-process.  Both paths produce bit-identical results.
        """
        from repro.experiments.jobs import ExperimentJob, execute_job
        job = ExperimentJob(self, duration=duration)
        if suite is not None:
            return suite.run([job])[0]
        return execute_job(job)
