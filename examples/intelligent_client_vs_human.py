#!/usr/bin/env python3
"""Train an intelligent client and compare it against the human baseline.

This example reproduces the core of the Section 4 accuracy argument for a
single benchmark (Red Eclipse):

1. record a synthetic-human session of the game scene;
2. train the CNN object recognizer and the LSTM action model on it;
3. run the cloud rendering testbed once driven by the human and once by
   the trained intelligent client;
4. compare the two RTT distributions (Table 3's percentage error).

Run with:  python examples/intelligent_client_vs_human.py
"""

from __future__ import annotations

from repro.apps.registry import create_benchmark
from repro.core.measurements import percentage_error
from repro.core.reporting import format_table
from repro.agents.intelligent_client import train_intelligent_client
from repro.experiments.accuracy import run_custom
from repro.scenarios import Scenario
from repro.scenarios.config import ExperimentConfig
from repro.sim.randomness import StreamRandom

BENCHMARK = "RE"


def main() -> None:
    config = ExperimentConfig(seed=7, duration_s=20.0, warmup_s=2.0,
                              recording_seconds=15.0, cnn_epochs=10,
                              lstm_epochs=30)

    print(f"Training the intelligent client for {BENCHMARK} ...")
    app = create_benchmark(BENCHMARK, rng=StreamRandom(100))
    client, recording = train_intelligent_client(
        app, rng=StreamRandom(101),
        recording_seconds=config.recording_seconds,
        cnn_epochs=config.cnn_epochs, lstm_epochs=config.lstm_epochs)
    print(f"  recorded session : {len(recording)} (frame, action) pairs, "
          f"{recording.actions_per_minute:.0f} APM")
    print(f"  CNN training loss: {client.detector.net.final_training_loss:.4f}")
    print(f"  LSTM training loss: {client.policy.final_training_loss:.4f}")
    print(f"  imitation error  : {client.imitation_error(recording):.3f} "
          "(mean action-vector error)")
    print()

    print("Running the human-driven testbed ...")
    human_run = Scenario.single(BENCHMARK, config, seed_offset=0).run()
    print("Running the intelligent-client-driven testbed ...")

    def use_trained_client(new_app):
        client.app = new_app
        client.policy.reset_state()
        return client

    ic_run = run_custom(BENCHMARK, config, seed_offset=1,
                        agent_factory=use_trained_client)

    human = human_run.reports[0]
    intelligent = ic_run.reports[0]
    error = percentage_error(intelligent.rtt.mean, human.rtt.mean)

    print()
    print(format_table(
        ["metric", "human", "intelligent client"],
        [["mean RTT (ms)", f"{human.rtt.mean * 1e3:.1f}",
          f"{intelligent.rtt.mean * 1e3:.1f}"],
         ["75%-tile RTT (ms)", f"{human.rtt.p75 * 1e3:.1f}",
          f"{intelligent.rtt.p75 * 1e3:.1f}"],
         ["server FPS", f"{human.server_fps:.1f}", f"{intelligent.server_fps:.1f}"],
         ["client FPS", f"{human.client_fps:.1f}", f"{intelligent.client_fps:.1f}"],
         ["benchmark CPU", f"{human.cpu_utilization_cores * 100:.0f}%",
          f"{intelligent.cpu_utilization_cores * 100:.0f}%"],
         ["GPU utilization", f"{human.gpu_utilization * 100:.0f}%",
          f"{intelligent.gpu_utilization * 100:.0f}%"]],
        title=f"Human vs. intelligent client ({BENCHMARK})"))
    print()
    print(f"Mean-RTT percentage error (Table 3 metric): {error:.1f}%  "
          "(paper: 1.6% on average across the suite)")
    print(f"Mean CV inference time : {client.mean_cv_time() * 1e3:.1f} ms "
          "(paper: 72.7 ms average)")
    print(f"Mean input-generation time: {client.mean_rnn_time() * 1e3:.2f} ms "
          "(paper: 1.9 ms average)")
    print(f"Achievable APM         : {client.achievable_apm():.0f} "
          "(paper: 804 APM average)")


if __name__ == "__main__":
    main()
