"""Design ablation: the effective-rate contention model.

Not a paper figure — this ablation justifies the reproduction's central
modelling choice (DESIGN.md).  With the contention levers disabled
(abundant cores, no cache pressure, no GPU sharing penalty), colocating
four instances barely moves the RTT; with the realistic machine the RTT
inflates substantially, which is what Figures 11-16 rely on.
"""

from __future__ import annotations

from conftest import emit
from repro.experiments.figures import run_figure


def test_ablation_contention_model(benchmark, config, suite):
    [result] = benchmark.pedantic(
        lambda: run_figure("ablation", config, suite), rounds=1, iterations=1)

    emit("Ablation: RTT inflation at 4 colocated instances (D2)",
         ["machine model", "RTT inflation (x)"],
         [["realistic (contention modelled)", f"{result['realistic_rtt_inflation']:.2f}"],
          ["contention-free", f"{result['contention_free_rtt_inflation']:.2f}"]])

    assert result["realistic_rtt_inflation"] > 1.15
    assert result["realistic_rtt_inflation"] > \
        result["contention_free_rtt_inflation"] + 0.05
    assert result["contention_free_rtt_inflation"] < 1.35
