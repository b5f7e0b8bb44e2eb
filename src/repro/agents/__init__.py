"""The intelligent client framework and its baselines.

This package implements the paper's other primary contribution: the
AI-driven client that mimics human interaction with 3D applications
(Section 3.1).  It contains:

* :mod:`repro.agents.human` — the synthetic human reference player whose
  recorded sessions provide both the training data and the ground-truth
  performance distributions;
* :mod:`repro.agents.recorder` — session recording (frames + actions);
* :mod:`repro.agents.cnn` — a small convolutional network (the MobileNets
  analogue) for object recognition, implemented in numpy;
* :mod:`repro.agents.rnn` — an LSTM (the TensorFlow LSTM analogue) that
  maps recognized objects to human-like actions;
* :mod:`repro.agents.vision` — the object-detection wrapper around the CNN;
* :mod:`repro.agents.intelligent_client` — the trained client that drives
  a benchmark;
* :mod:`repro.agents.baselines` — the prior-work methodologies Pictor is
  compared against in Figure 6 / Table 3 (DeskBench-style record/replay,
  Chen et al.'s stage-sum estimation, and Slow-Motion benchmarking).
"""

from repro.agents.human import HumanPlayer
from repro.agents.recorder import RecordedSession, RecordedStep, SessionRecorder
from repro.agents.cnn import ConvNet, ConvNetConfig
from repro.agents.rnn import Lstm, LstmConfig
from repro.agents.vision import ObjectDetector
from repro.agents.intelligent_client import IntelligentClient, train_intelligent_client
from repro.agents.baselines import (
    ChenMethodology,
    DeskBenchClient,
    SlowMotionMethodology,
)

__all__ = [
    "ChenMethodology",
    "ConvNet",
    "ConvNetConfig",
    "DeskBenchClient",
    "HumanPlayer",
    "IntelligentClient",
    "Lstm",
    "LstmConfig",
    "ObjectDetector",
    "RecordedSession",
    "RecordedStep",
    "SessionRecorder",
    "SlowMotionMethodology",
    "train_intelligent_client",
]
