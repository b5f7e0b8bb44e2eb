"""Slower integration tests: the Table-3 accuracy experiment and ablations.

These exercise the full intelligent-client training + five-methodology
comparison pipeline end to end on one benchmark, plus the contention-model
ablation that justifies the reproduction's central modelling choice.
"""

import pytest

from repro.agents.artifacts import ArtifactSpec, resolve_artifact
from repro.experiments.ablations import contention_model_ablation
from repro.experiments.accuracy import inference_times, methodology_accuracy
from repro.scenarios.config import ExperimentConfig


@pytest.fixture(scope="module")
def config() -> ExperimentConfig:
    return ExperimentConfig(seed=19, duration_s=5.0, warmup_s=0.5,
                            recording_seconds=4.0, cnn_epochs=2, lstm_epochs=5)


@pytest.fixture(scope="module")
def trained(config):
    artifact = resolve_artifact(ArtifactSpec.for_config("RE", config))
    return artifact.client(), artifact.recording


def test_methodology_accuracy_orders_the_methodologies(config, trained):
    client, recording = trained
    row = methodology_accuracy("RE", config, client=client, recording=recording)
    # All five methodologies produced RTT distributions.
    assert set(row.mean_rtt_ms) == {"H", "IC", "DB", "CH", "SM"}
    assert all(value > 0 for value in row.mean_rtt_ms.values())
    assert set(row.error_percent) == {"IC", "DB", "CH", "SM"}
    # The intelligent client tracks the human baseline closely; the two
    # methodologies that change system behaviour / drop stages do not.
    assert row.error_percent["IC"] < 12.0
    assert row.error_percent["CH"] > row.error_percent["IC"]
    assert row.error_percent["SM"] > row.error_percent["IC"]
    # Chen et al. and Slow-Motion both *under*-estimate the RTT.
    assert row.mean_rtt_ms["CH"] < row.mean_rtt_ms["H"]
    assert row.mean_rtt_ms["SM"] < row.mean_rtt_ms["H"]
    # The table row used by the harness is printable.
    cells = row.as_table_row()
    assert cells[0] == "RE" and len(cells) == 5


def test_inference_times_reuse_trained_client(config, trained):
    client, _recording = trained
    rows = inference_times(["RE"], config, clients={"RE": client})
    assert set(rows) == {"RE"}
    assert 30.0 < rows["RE"]["cv_time_ms"] < 150.0
    assert 0.5 < rows["RE"]["input_generation_time_ms"] < 10.0
    assert rows["RE"]["achievable_apm"] > 300.0


def test_contention_model_ablation_separates_the_two_machines(config):
    result = contention_model_ablation("RE", instances=3, config=config)
    assert result["realistic_rtt_inflation"] > 1.0
    assert result["contention_free_rtt_inflation"] < \
        result["realistic_rtt_inflation"]
