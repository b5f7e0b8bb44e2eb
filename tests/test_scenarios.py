"""The declarative Scenario API: serialization, hashing, execution.

The contract under test: a scenario is one canonical value — it
round-trips through ``to_dict``/``from_dict`` unchanged, its content
hash is stable across processes and sensitive to every knob, and
``Scenario.run()`` executes the placements it describes.
"""

from __future__ import annotations

import json
import pickle
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import all_benchmarks
from repro.experiments import ExperimentConfig
from repro.scenarios.machines import MACHINE_SPECS
from repro.scenarios.networks import NETWORKS
from repro.scenarios.scenario import SCENARIO_SCHEMA_VERSION
from repro.scenarios.variants import SESSION_VARIANTS
from repro.sim.fastforward import FastForwardConfig
from repro.scenarios import (
    Placement,
    Scenario,
    SeedPolicy,
    SessionVariant,
    n_way_mixes,
    session_variant,
    variant_name,
)


@pytest.fixture(scope="module")
def config() -> ExperimentConfig:
    return ExperimentConfig.smoke(seed=5)


# -- value semantics ------------------------------------------------------------------
def test_placement_and_scenario_validation(config):
    with pytest.raises(ValueError):
        Placement("NOPE")
    with pytest.raises(ValueError):
        Placement("RE", agent="terminator")
    with pytest.raises(ValueError):
        Placement("RE", count=0)
    with pytest.raises(ValueError):
        Scenario(placements=(), config=config)
    with pytest.raises(ValueError):
        Scenario.single("RE", config, machine="warehouse")
    with pytest.raises(ValueError):
        Scenario.single("RE", config, network="avian_carrier")
    with pytest.raises(KeyError):
        session_variant("overclocked")
    with pytest.raises(KeyError):
        SessionVariant.optimized(("warp_drive",))


def test_placements_canonicalize_to_counted_form(config):
    expanded = Scenario.mixed(("RE", "RE", "ITP"), config)
    counted = Scenario(placements=(Placement("RE", count=2), Placement("ITP")),
                       config=config)
    assert expanded == counted
    assert expanded.content_hash() == counted.content_hash()
    assert expanded.benchmarks == ("RE", "RE", "ITP")
    assert counted.instances == (("RE", "human"), ("RE", "human"),
                                 ("ITP", "human"))


def test_dict_round_trip_equality(config):
    scenario = Scenario.mixed(
        ("RE", "ITP", "D2"), config, seed_offset=7,
        variant=session_variant("optimized"), machine="no_contention",
        containerized=True, network="cellular_5g")
    rebuilt = Scenario.from_dict(scenario.to_dict())
    assert rebuilt == scenario
    assert rebuilt.content_hash() == scenario.content_hash()
    # And through an actual JSON round trip (what the CLI does).
    rebuilt = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
    assert rebuilt == scenario


def test_from_dict_accepts_sparse_hand_written_specs(config):
    scenario = Scenario.from_dict(
        {"placements": ["RE", "ITP", "D2"], "variant": "optimized",
         "seed": 3},
        config=config)
    assert scenario.benchmarks == ("RE", "ITP", "D2")
    assert scenario.variant == session_variant("optimized")
    assert scenario.seed == SeedPolicy(offset=3)
    assert scenario.config == config
    # A partial config section merges over the provided base config
    # instead of silently resetting it to library defaults.
    merged = Scenario.from_dict(
        {"placements": ["RE"], "config": {"seed": 7}}, config=config)
    assert merged.config.seed == 7
    assert merged.config.duration_s == config.duration_s
    with pytest.raises(KeyError):
        Scenario.from_dict({"benchmarks": ["RE"]})
    with pytest.raises(KeyError):
        Scenario.from_dict({"placements": ["RE"], "warp": 9})
    with pytest.raises(KeyError):
        Scenario.from_dict({"placements": ["RE"], "config": {"warp": 9}})


def test_hash_sensitivity(config):
    base = Scenario.single("RE", config)
    assert base.content_hash() != Scenario.single("ITP", config).content_hash()
    assert base.content_hash() != Scenario.single(
        "RE", config, seed_offset=1).content_hash()
    # Differing variants hash differently — including each named variant.
    hashes = {Scenario.single("RE", config,
                              variant=session_variant(name)).content_hash()
              for name in ("default", "native", "single_buffered",
                           "optimized", "memoize_xgwa", "two_step_copy",
                           "slow_motion")}
    assert len(hashes) == 7
    assert base.content_hash() != Scenario.single(
        "RE", config, containerized=True).content_hash()
    assert base.content_hash() != Scenario.single(
        "RE", config, machine="no_contention").content_hash()
    assert base.content_hash() != Scenario.single(
        "RE", config, network="broadband_10g").content_hash()
    # A pinned absolute seed differs from the inherited one.
    pinned = Scenario(placements=(Placement("RE"),), config=config,
                      seed=SeedPolicy(offset=0, base=123))
    assert base.content_hash() != pinned.content_hash()
    assert pinned.effective_seed() == 123


def test_hash_is_stable_across_process_boundaries(config):
    scenario = Scenario.mixed(("RE", "ITP", "D2"), config, seed_offset=7,
                              variant=session_variant("optimized"))
    spec = json.dumps(scenario.to_dict())
    script = (
        "import json, sys\n"
        "from repro.scenarios import Scenario\n"
        "print(Scenario.from_dict(json.loads(sys.argv[1])).content_hash())\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", script, spec],
                          capture_output=True, text=True,
                          env={"PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == scenario.content_hash()


def test_variant_field_accepts_registry_names(config):
    named = Scenario.single("RE", config, variant="optimized")
    assert named.variant == session_variant("optimized")
    assert named == Scenario.single("RE", config,
                                    variant=session_variant("optimized"))
    assert named.to_dict()["variant"] == session_variant("optimized").to_dict()
    with pytest.raises(KeyError):
        Scenario.single("RE", config, variant="overclocked")


def test_non_host_jobs_reject_unhonored_scenario_fields(config):
    from repro.experiments import ExperimentJob

    ExperimentJob(Scenario.single("RE", config, seed_offset=2),
                  kind="inference")       # defaults are fine
    for options in ({"machine": "no_contention"}, {"containerized": True},
                    {"variant": "optimized"}, {"network": "cellular_5g"}):
        with pytest.raises(ValueError):
            ExperimentJob(Scenario.single("RE", config, **options),
                          kind="inference")
    with pytest.raises(ValueError):
        ExperimentJob(Scenario(placements=(Placement("RE"),), config=config,
                               seed=SeedPolicy(offset=0, base=9)),
                      kind="accuracy")


def test_variant_registry_names(config):
    assert variant_name(SessionVariant()) == "default"
    assert variant_name(session_variant("native")) == "native"
    assert variant_name(SessionVariant(measurement_enabled=False,
                                       slow_motion=True)) is None
    assert session_variant("optimized").memoize_window_attributes
    assert session_variant("optimized").two_step_frame_copy


# -- property-based hash/round-trip invariants ----------------------------------------
_scenario_strategy = st.builds(
    lambda placements, variant, machine, network, containerized, offset, base: Scenario(
        placements=tuple(Placement(b, count=c) for b, c in placements),
        config=ExperimentConfig.smoke(seed=5),
        variant=session_variant(variant),
        machine=machine,
        network=network,
        containerized=containerized,
        seed=SeedPolicy(offset=offset, base=base),
    ),
    placements=st.lists(
        st.tuples(st.sampled_from(sorted(all_benchmarks())),
                  st.integers(min_value=1, max_value=3)),
        min_size=1, max_size=4),
    variant=st.sampled_from(sorted(SESSION_VARIANTS)),
    machine=st.sampled_from(sorted(MACHINE_SPECS)),
    network=st.sampled_from(sorted(NETWORKS)),
    containerized=st.booleans(),
    offset=st.integers(min_value=0, max_value=999),
    base=st.one_of(st.none(), st.integers(min_value=0, max_value=999)),
)


def _permuted(data, rng):
    """``data`` with every dict's key insertion order shuffled, recursively."""
    if isinstance(data, dict):
        items = [(key, _permuted(value, rng)) for key, value in data.items()]
        rng.shuffle(items)
        return dict(items)
    if isinstance(data, list):
        return [_permuted(entry, rng) for entry in data]
    return data


@settings(max_examples=40, deadline=None)
@given(scenario=_scenario_strategy)
def test_round_trip_and_hash_fixpoint(scenario):
    """to_dict/from_dict/content_hash is a fixpoint for any scenario."""
    data = scenario.to_dict()
    rebuilt = Scenario.from_dict(data)
    assert rebuilt == scenario
    assert rebuilt.content_hash() == scenario.content_hash()
    assert rebuilt.to_dict() == data
    # Placement construction order survives the round trip: the expanded
    # per-instance benchmark sequence is preserved exactly.
    assert rebuilt.benchmarks == scenario.benchmarks
    assert rebuilt.placements == scenario.placements


def _asdict_to_dict(scenario: Scenario) -> dict:
    """Scenario.to_dict as it was written with dataclasses.asdict, kept as
    the byte-level reference for the field-list copy."""
    config = asdict(scenario.config)
    if scenario.config.fast_forward == FastForwardConfig():
        del config["fast_forward"]
    return {
        "schema": SCENARIO_SCHEMA_VERSION,
        "placements": [asdict(p) for p in scenario.placements],
        "config": config,
        "variant": asdict(scenario.variant),
        "machine": scenario.machine,
        "containerized": scenario.containerized,
        "network": scenario.network,
        "seed": asdict(scenario.seed),
    }


@settings(max_examples=40, deadline=None)
@given(scenario=_scenario_strategy,
       fast_forward=st.sampled_from([False, True, {"window_s": 0.25},
                                     {"enabled": True, "tolerance": 0.1}]))
def test_to_dict_pickles_like_the_asdict_reference(scenario, fast_forward):
    """Field-list copies serialize to the same bytes as asdict's deep
    copies, fast-forward off (omitted) and on (the config's last key)."""
    from repro.experiments import ExperimentJob
    scenario = replace(scenario, config=replace(scenario.config,
                                                fast_forward=fast_forward))
    data = scenario.to_dict()
    reference = _asdict_to_dict(scenario)
    assert (pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL)
            == pickle.dumps(reference, protocol=pickle.HIGHEST_PROTOCOL))
    assert list(data["config"]) == list(reference["config"])
    if "fast_forward" in data["config"]:
        assert list(data["config"])[-1] == "fast_forward"
    assert json.dumps(data) == json.dumps(reference)
    # Two calls share no mutable state.
    data["config"].setdefault("fast_forward", {})["enabled"] = "mutated"
    assert scenario.to_dict() == reference
    assert ExperimentJob(scenario).key() == ExperimentJob(
        Scenario.from_dict(reference)).key()


@settings(max_examples=40, deadline=None)
@given(scenario=_scenario_strategy, rng=st.randoms(use_true_random=False))
def test_content_hash_invariant_under_dict_key_order(scenario, rng):
    """A spec means the same scenario no matter how its keys are ordered."""
    shuffled = _permuted(scenario.to_dict(), rng)
    rebuilt = Scenario.from_dict(shuffled)
    assert rebuilt == scenario
    assert rebuilt.content_hash() == scenario.content_hash()


@settings(max_examples=40, deadline=None)
@given(scenario=_scenario_strategy)
def test_expanded_and_counted_placements_hash_identically(scenario):
    """Per-instance expansion is a faithful, order-preserving encoding."""
    expanded = Scenario(
        placements=tuple(Placement(benchmark, agent=agent)
                         for benchmark, agent in scenario.instances),
        config=scenario.config, variant=scenario.variant,
        machine=scenario.machine, containerized=scenario.containerized,
        network=scenario.network, seed=scenario.seed)
    assert expanded.benchmarks == scenario.benchmarks
    assert expanded.content_hash() == scenario.content_hash()


# -- execution equivalence ------------------------------------------------------------
def test_three_way_mix_runs_end_to_end(config):
    result = Scenario.mixed(("RE", "ITP", "D2"), config).run()
    assert [r.benchmark for r in result.reports] == ["RE", "ITP", "D2"]
    assert all(r.client_fps > 0 for r in result.reports)


def test_n_way_mixes_generator(config):
    narrowed = config.with_benchmarks(["RE", "ITP", "D2", "STK"])
    scenarios = n_way_mixes(narrowed)
    # C(4,3) + C(4,4) = 5 mixes, each with distinct seed offsets.
    assert len(scenarios) == 5
    assert sorted(len(s.benchmarks) for s in scenarios) == [3, 3, 3, 3, 4]
    assert len({s.seed.offset for s in scenarios}) == 5
    assert len({s.content_hash() for s in scenarios}) == 5
    with pytest.raises(ValueError):
        n_way_mixes(narrowed, sizes=(1,))
