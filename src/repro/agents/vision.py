"""Object detection: the computer-vision step of the intelligent client.

The :class:`ObjectDetector` wraps the convolutional network with the
frame-level plumbing the client needs: training on a recorded session's
pixel buffers and labels, and turning a raw frame into the flat
per-class descriptor vector the LSTM consumes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.agents.cnn import ConvNet, ConvNetConfig
from repro.graphics.frame import Frame

__all__ = ["ObjectDetector"]


class ObjectDetector:
    """CNN-based recognition of the input-relevant objects in a frame."""

    def __init__(self, net: Optional[ConvNet] = None):
        self.net = net or ConvNet(ConvNetConfig())

    # -- training -------------------------------------------------------------
    def train(self, images: np.ndarray, targets: np.ndarray,
              epochs: Optional[int] = None) -> float:
        """Train the CNN on a recorded session's
        :meth:`~repro.agents.recorder.RecordedSession.images` and their
        labels, :meth:`~repro.agents.recorder.RecordedSession.feature_matrix`."""
        if len(images) == 0:
            raise ValueError("cannot train on an empty recorded session")
        return self.net.train(images, targets, epochs=epochs)

    # -- inference ---------------------------------------------------------------
    def features(self, frame: Frame) -> np.ndarray:
        """The raw per-class descriptor vector for ``frame``."""
        return self.net.predict(frame.pixels)
