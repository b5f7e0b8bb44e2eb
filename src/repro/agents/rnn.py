"""A Long Short-Term Memory network for action generation.

The paper's intelligent client uses an LSTM (trained with TensorFlow) to
map the objects recognized in each frame to the action a human would
issue.  This module implements a single-layer LSTM with a linear output
head in numpy, trained with truncated back-propagation through time on
the recorded (objects → action) sequences.

The goal, as the paper stresses, is not to train a competitive game AI
but a model that *mimics human actions on the scene it was trained on*;
a low training loss on that scene is sufficient (Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["Lstm", "LstmConfig"]


@dataclass(frozen=True)
class LstmConfig:
    """Architecture and training hyper-parameters."""

    input_units: int = 30
    hidden_units: int = 32
    output_units: int = 3
    sequence_length: int = 6          # truncated BPTT window
    learning_rate: float = 0.05
    epochs: int = 60
    weight_scale: float = 0.15
    gradient_clip: float = 1.0


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # np.minimum/np.maximum are np.clip's ufuncs without its wrapper.
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(x, -30.0), 30.0)))


class Lstm:
    """Single-layer LSTM with a linear readout, trained by truncated BPTT."""

    def __init__(self, config: Optional[LstmConfig] = None, seed: int = 0):
        self.config = config or LstmConfig()
        cfg = self.config
        rng = np.random.default_rng(seed)
        scale = cfg.weight_scale
        concat = cfg.input_units + cfg.hidden_units
        # Gate order: input, forget, cell candidate, output.
        self.w_gates = rng.normal(0.0, scale, (concat, 4 * cfg.hidden_units))
        self.b_gates = np.zeros(4 * cfg.hidden_units)
        self.b_gates[cfg.hidden_units:2 * cfg.hidden_units] = 1.0  # forget-gate bias
        self.w_out = rng.normal(0.0, scale, (cfg.hidden_units, cfg.output_units))
        self.b_out = np.zeros(cfg.output_units)
        self.training_losses: list[float] = []
        self.reset_state()

    # -- state ---------------------------------------------------------------
    def reset_state(self) -> None:
        """Clear the recurrent state (start of a new play session)."""
        self._h = np.zeros(self.config.hidden_units)
        self._c = np.zeros(self.config.hidden_units)

    # -- forward --------------------------------------------------------------
    def _step(self, x: np.ndarray, h: np.ndarray, c: np.ndarray):
        cfg = self.config
        concat = np.concatenate([x, h])
        gates = concat @ self.w_gates + self.b_gates
        hidden = cfg.hidden_units
        i = _sigmoid(gates[:hidden])
        f = _sigmoid(gates[hidden:2 * hidden])
        g = np.tanh(gates[2 * hidden:3 * hidden])
        o = _sigmoid(gates[3 * hidden:])
        c_new = f * c + i * g
        h_new = o * np.tanh(c_new)
        cache = (concat, i, f, g, o, c, c_new)
        return h_new, c_new, cache

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict the action vector for one frame, carrying the state forward."""
        features = np.asarray(features, dtype=float)
        if features.shape != (self.config.input_units,):
            raise ValueError(
                f"expected features of shape ({self.config.input_units},), "
                f"got {features.shape}")
        self._h, self._c, _cache = self._step(features, self._h, self._c)
        return self._h @ self.w_out + self.b_out

    def predict_sequence(self, features: np.ndarray) -> np.ndarray:
        """Predict actions for a whole (T, input_units) sequence from reset state."""
        self.reset_state()
        return np.stack([self.predict(row) for row in features])

    # -- training ----------------------------------------------------------------
    def train(self, features: np.ndarray, actions: np.ndarray,
              epochs: Optional[int] = None) -> float:
        """Train on an aligned (T, in) / (T, out) sequence; returns final loss."""
        cfg = self.config
        epochs = epochs if epochs is not None else cfg.epochs
        features = np.asarray(features, dtype=float)
        actions = np.asarray(actions, dtype=float)
        if features.shape[0] != actions.shape[0]:
            raise ValueError("features and actions must have the same length")
        if features.shape[0] < 2:
            raise ValueError("need at least two steps to train the LSTM")

        final_loss = float("inf")
        for _epoch in range(epochs):
            losses = []
            for start in range(0, features.shape[0] - 1, cfg.sequence_length):
                window_x = features[start:start + cfg.sequence_length]
                window_y = actions[start:start + cfg.sequence_length]
                losses.append(self._train_window(window_x, window_y))
            final_loss = float(np.mean(losses))
            self.training_losses.append(final_loss)
        return final_loss

    def _train_window(self, xs: np.ndarray, ys: np.ndarray) -> float:
        cfg = self.config
        hidden = cfg.hidden_units
        h = np.zeros(hidden)
        c = np.zeros(hidden)
        caches = []
        outputs = []
        hs = []
        for x in xs:
            h, c, cache = self._step(x, h, c)
            caches.append(cache)
            hs.append(h)
            outputs.append(h @ self.w_out + self.b_out)
        outputs = np.stack(outputs)
        errors = outputs - ys
        loss = float(np.mean(errors ** 2))

        grad_w_gates = np.zeros_like(self.w_gates)
        grad_b_gates = np.zeros_like(self.b_gates)
        grad_w_out = np.zeros_like(self.w_out)
        grad_b_out = np.zeros_like(self.b_out)
        dh_next = np.zeros(hidden)
        dc_next = np.zeros(hidden)
        steps = len(xs)
        scale = steps * cfg.output_units
        w_out_t = self.w_out.T
        w_gates_t = self.w_gates.T
        inputs = cfg.input_units

        for t in reversed(range(steps)):
            concat, i, f, g, o, c_prev, c_new = caches[t]
            dout = 2.0 * errors[t] / scale
            grad_w_out += hs[t][:, np.newaxis] * dout
            grad_b_out += dout
            dh = dout @ w_out_t + dh_next
            tanh_c = np.tanh(c_new)
            do = dh * tanh_c
            dc = dh * o * (1.0 - tanh_c ** 2) + dc_next
            di = dc * g
            dg = dc * i
            df = dc * c_prev
            dc_next = dc * f
            d_gates = np.concatenate([
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g ** 2),
                do * o * (1.0 - o),
            ])
            grad_w_gates += concat[:, np.newaxis] * d_gates
            grad_b_gates += d_gates
            dh_next = (d_gates @ w_gates_t)[inputs:]

        clip = cfg.gradient_clip
        for grad in (grad_w_gates, grad_b_gates, grad_w_out, grad_b_out):
            np.minimum(np.maximum(grad, -clip, out=grad), clip, out=grad)

        lr = cfg.learning_rate
        self.w_gates -= lr * grad_w_gates
        self.b_gates -= lr * grad_b_gates
        self.w_out -= lr * grad_w_out
        self.b_out -= lr * grad_b_out
        return loss

    # -- introspection ------------------------------------------------------------
    @property
    def final_training_loss(self) -> Optional[float]:
        return self.training_losses[-1] if self.training_losses else None
