"""Figure 18 and the Section 5.3 energy argument: mixed benchmark pairs.

Paper result: of the 15 unordered pairs, 11 keep both members above the
25-FPS QoS bar; adding the second (different) benchmark raises total
server power by no more than ~25%, so sharing a server saves at least
~37% energy versus running the two applications on separate servers.
"""

from __future__ import annotations

from conftest import emit
from repro.experiments import run_jobs
from repro.experiments.figures import run_figure
from repro.experiments.mixed import pair_energy_from_results, pair_energy_jobs


def test_fig18_mixed_pair_fps(benchmark, config, suite):
    def run():
        rows = run_figure("fig18", config, suite)
        saving = pair_energy_from_results(
            run_jobs(pair_energy_jobs(("RE", "ITP"), config), suite))
        return rows, saving

    rows, saving = benchmark.pedantic(run, rounds=1, iterations=1)

    emit("Figure 18: client FPS for the 15 mixed benchmark pairs",
         ["pair", "FPS (left)", "FPS (right)", "both >= 25?"],
         [[row["pair"], f"{row['fps_a']:.1f}", f"{row['fps_b']:.1f}",
           "yes" if row["both_meet_qos"] else "no"]
          for row in rows],
         notes="Paper: 11 of 15 pairs keep both members above 25 FPS.")
    emit("Section 5.3: energy of sharing one server vs. two servers (RE+ITP)",
         ["shared W", "separate W", "energy saving"],
         [[f"{saving['shared_power_watts']:.0f}",
           f"{saving['separate_power_watts']:.0f}",
           f"{saving['energy_saving_percent']:.0f}%"]],
         notes="Paper: at least ~37% saving.")

    assert len(rows) == 15
    qos_pairs = sum(1 for row in rows if row["both_meet_qos"])
    # The majority of pairs (paper: 11/15) keep acceptable QoS.
    assert qos_pairs >= 8
    assert saving["energy_saving_percent"] > 30.0
