"""A small convolutional network for frame object recognition.

The paper uses MobileNets on TensorFlow for the computer-vision step of
the intelligent client.  Neither TensorFlow nor a GPU is available here,
so this module implements a compact convolutional network from scratch in
numpy — one strided convolution, a ReLU, and two dense layers — trained
with mini-batch SGD on mean-squared error.  The network maps a rasterized
frame to per-class object descriptors ([presence, mean-x, mean-y] for
every :class:`~repro.graphics.frame.ObjectClass`), which is exactly the
information the downstream LSTM consumes.

The network is intentionally small: the claim being reproduced is not
ImageNet-scale accuracy but that a vision model trained on a recorded
session recognizes the scene's input-relevant objects well enough for the
action model to mimic the human player.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["ConvNet", "ConvNetConfig"]


@dataclass(frozen=True)
class ConvNetConfig:
    """Architecture and training hyper-parameters."""

    input_height: int = 36
    input_width: int = 64
    input_channels: int = 3
    conv_filters: int = 8
    conv_kernel: int = 5
    conv_stride: int = 3
    hidden_units: int = 64
    output_units: int = 30           # len(ObjectClass) * 3
    learning_rate: float = 0.05
    batch_size: int = 32
    epochs: int = 30
    weight_scale: float = 0.1

    @property
    def conv_output_height(self) -> int:
        return (self.input_height - self.conv_kernel) // self.conv_stride + 1

    @property
    def conv_output_width(self) -> int:
        return (self.input_width - self.conv_kernel) // self.conv_stride + 1

    @property
    def flattened_units(self) -> int:
        return self.conv_output_height * self.conv_output_width * self.conv_filters


def _im2col(images: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Rearrange image patches into rows for matrix-multiply convolution.

    ``images`` has shape (N, H, W, C); the result has shape
    (N, out_h, out_w, kernel*kernel*C), each row a patch flattened in
    (row, column, channel) order.  The strided window view costs nothing;
    the reshape makes the one copy.
    """
    n, *_, channels = images.shape
    windows = sliding_window_view(images, (kernel, kernel), axis=(1, 2))
    # (N, out_h, out_w, C, kernel, kernel) -> (N, out_h, out_w, kernel, kernel, C)
    patches = windows[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)
    return patches.reshape(n, patches.shape[1], patches.shape[2],
                           kernel * kernel * channels)


class ConvNet:
    """conv → ReLU → dense → ReLU → dense, trained with SGD on MSE."""

    def __init__(self, config: Optional[ConvNetConfig] = None, seed: int = 0):
        self.config = config or ConvNetConfig()
        rng = np.random.default_rng(seed)
        cfg = self.config
        scale = cfg.weight_scale
        self.conv_w = rng.normal(0.0, scale,
                                 (cfg.conv_kernel * cfg.conv_kernel * cfg.input_channels,
                                  cfg.conv_filters))
        self.conv_b = np.zeros(cfg.conv_filters)
        self.dense1_w = rng.normal(0.0, scale, (cfg.flattened_units, cfg.hidden_units))
        self.dense1_b = np.zeros(cfg.hidden_units)
        self.dense2_w = rng.normal(0.0, scale, (cfg.hidden_units, cfg.output_units))
        self.dense2_b = np.zeros(cfg.output_units)
        self.training_losses: list[float] = []

    # -- forward -------------------------------------------------------------
    def forward(self, images: np.ndarray, keep_cache: bool = False):
        """Forward pass.  ``images`` has shape (N, H, W, C)."""
        cfg = self.config
        if images.ndim == 3:
            images = images[np.newaxis, ...]
        if images.shape[1:] != (cfg.input_height, cfg.input_width, cfg.input_channels):
            raise ValueError(
                f"expected input of shape (N, {cfg.input_height}, {cfg.input_width}, "
                f"{cfg.input_channels}), got {images.shape}")

        columns = _im2col(images, cfg.conv_kernel, cfg.conv_stride)
        conv_pre = columns @ self.conv_w + self.conv_b
        conv_out = np.maximum(conv_pre, 0.0)
        flat = conv_out.reshape(images.shape[0], -1)
        hidden_pre = flat @ self.dense1_w + self.dense1_b
        hidden = np.maximum(hidden_pre, 0.0)
        output = hidden @ self.dense2_w + self.dense2_b
        if keep_cache:
            cache = (columns, conv_pre, flat, hidden_pre, hidden)
            return output, cache
        return output

    def predict(self, image: np.ndarray) -> np.ndarray:
        """Predict the object-descriptor vector for one frame's pixels."""
        return self.forward(image)[0]

    # -- training --------------------------------------------------------------
    def train(self, images: np.ndarray, targets: np.ndarray,
              epochs: Optional[int] = None, seed: int = 0) -> float:
        """Train on (images, targets); returns the final epoch's mean loss."""
        cfg = self.config
        epochs = epochs if epochs is not None else cfg.epochs
        if images.shape[0] != targets.shape[0]:
            raise ValueError("images and targets must have the same first dimension")
        rng = np.random.default_rng(seed)
        n = images.shape[0]

        final_loss = float("inf")
        for _epoch in range(epochs):
            order = rng.permutation(n)
            epoch_losses = []
            for start in range(0, n, cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                loss = self._train_batch(images[batch], targets[batch])
                epoch_losses.append(loss)
            final_loss = float(np.mean(epoch_losses))
            self.training_losses.append(final_loss)
        return final_loss

    def _train_batch(self, images: np.ndarray, targets: np.ndarray) -> float:
        cfg = self.config
        output, cache = self.forward(images, keep_cache=True)
        columns, conv_pre, flat, hidden_pre, hidden = cache
        batch = images.shape[0]

        error = output - targets
        loss = float(np.mean(error ** 2))

        grad_output = 2.0 * error / (batch * cfg.output_units)
        grad_dense2_w = hidden.T @ grad_output
        grad_dense2_b = grad_output.sum(axis=0)
        grad_hidden = grad_output @ self.dense2_w.T
        grad_hidden_pre = grad_hidden * (hidden_pre > 0)
        grad_dense1_w = flat.T @ grad_hidden_pre
        grad_dense1_b = grad_hidden_pre.sum(axis=0)
        grad_flat = grad_hidden_pre @ self.dense1_w.T
        grad_conv_out = grad_flat.reshape(conv_pre.shape)
        grad_conv_pre = grad_conv_out * (conv_pre > 0)
        grad_conv_w = columns.reshape(-1, columns.shape[-1]).T @ \
            grad_conv_pre.reshape(-1, cfg.conv_filters)
        grad_conv_b = grad_conv_pre.reshape(-1, cfg.conv_filters).sum(axis=0)

        lr = cfg.learning_rate
        self.dense2_w -= lr * grad_dense2_w
        self.dense2_b -= lr * grad_dense2_b
        self.dense1_w -= lr * grad_dense1_w
        self.dense1_b -= lr * grad_dense1_b
        self.conv_w -= lr * grad_conv_w
        self.conv_b -= lr * grad_conv_b
        return loss

    # -- introspection ------------------------------------------------------------
    @property
    def final_training_loss(self) -> Optional[float]:
        return self.training_losses[-1] if self.training_losses else None
