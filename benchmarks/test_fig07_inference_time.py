"""Figure 7: intelligent-client CNN (CV) and LSTM (input-generation) times.

Paper result: CV inference averages 72.7 ms and input generation 1.9 ms
across the suite, allowing ~804 actions per minute — comfortably above a
professional player's ~300 APM.
"""

from __future__ import annotations

import numpy as np

from conftest import emit
from repro.experiments.figures import run_figure


def test_fig07_inference_times(benchmark, config, suite):
    rows = benchmark.pedantic(
        lambda: run_figure("fig07", config, suite), rounds=1, iterations=1)

    emit("Figure 7: intelligent-client inference time per benchmark",
         ["bench", "CV (ms)", "input gen (ms)", "achievable APM"],
         [[row["benchmark"], f"{row['cv_time_ms']:.1f}",
           f"{row['input_generation_time_ms']:.2f}",
           f"{row['achievable_apm']:.0f}"]
          for row in rows],
         notes="Paper averages: CV 72.7 ms, input generation 1.9 ms, 804 APM.")

    cv_mean = float(np.mean([row["cv_time_ms"] for row in rows]))
    rnn_mean = float(np.mean([row["input_generation_time_ms"] for row in rows]))
    apm_mean = float(np.mean([row["achievable_apm"] for row in rows]))
    assert 50.0 < cv_mean < 100.0
    assert 1.0 < rnn_mean < 4.0
    assert apm_mean > 300.0          # faster than professional players
