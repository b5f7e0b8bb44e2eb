"""Seeded random-number streams for reproducible experiments.

Every stochastic component (application frame complexity, human reaction
times, network jitter, container overhead spikes, ...) draws from its own
named stream so that adding a new component never perturbs the draws seen
by existing ones.  Streams are derived deterministically from a single
experiment seed.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

__all__ = ["RandomStreams", "StreamRandom"]

#: Doubles a buffering stream draws from its generator at a time.
_BLOCK = 64


class StreamRandom:
    """A thin convenience wrapper over ``numpy.random.Generator``.

    Adds the distributions the simulator actually uses (truncated normal,
    log-normal parameterized by mean/CV, bounded jitter) so call sites stay
    readable.

    Buffering invariant: every value a stream returns is bit-identical to
    the value the same sequence of scalar calls on
    ``np.random.default_rng(seed)`` would return.

    * ``random``, ``uniform``, ``jitter`` and ``bernoulli`` consume doubles
      from a block drawn with ``Generator.random(n)``, which yields exactly
      the doubles that ``n`` scalar ``random()`` calls would.  ``uniform``
      computes ``low + (high - low) * u``, numpy's own formula, and raises
      numpy's errors for a negative or non-finite range.
    * Right before a block is drawn the stream saves
      ``bit_generator.state``.  Before any other draw (``normal``,
      ``lognormal_mean_cv``, ``truncated_normal``, ``integers``, ``choice``,
      ``shuffle``, ``standard_normal``, ``exponential``, or any access to
      the generator through ``_rng``) it restores that state and re-draws
      exactly the doubles already consumed, so the generator stands where
      the scalar calls would have left it.  From then on the stream draws
      every value directly and never buffers again, so a stream mixing
      distributions pays the rewind once instead of on every switch.
    * ``lognormal_mean_cv`` keeps ``np.log``/``np.sqrt``: ``math.log``
      differs from numpy's scalar log in the last bit on some inputs (350 of
      200,000 tried), which would change results.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._generator = np.random.default_rng(self.seed)
        self._buffering = True
        # The current block, the index of its next unread double, and the
        # bit-generator state from just before the block was drawn.
        self._block: list[float] = []
        self._next = 0
        self._block_state: dict | None = None

    @property
    def _rng(self) -> np.random.Generator:
        """The generator, positioned after exactly the values handed out so far.

        Ends buffering for good.
        """
        if self._buffering:
            self._buffering = False
            if self._block_state is not None:
                self._generator.bit_generator.state = self._block_state
                self._generator.random(self._next)
            self._block = []
            self._next = 0
            self._block_state = None
        return self._generator

    def _refill(self) -> float:
        """Draw the next block and return its first double."""
        generator = self._generator
        self._block_state = generator.bit_generator.state
        self._block = generator.random(_BLOCK).tolist()
        self._next = 1
        return self._block[0]

    # -- pass-throughs ------------------------------------------------------
    def random(self) -> float:
        index = self._next
        if index < len(self._block):
            self._next = index + 1
            return self._block[index]
        if self._buffering:
            return self._refill()
        return self._generator.random()

    def uniform(self, low: float, high: float) -> float:
        span = high - low
        # numpy rejects a range by its sign bit, so a span of -0.0 too.
        if not 0.0 < span < math.inf and (span != 0.0 or math.copysign(1.0, span) < 0.0):
            if math.isfinite(span):
                raise ValueError("high - low < 0")
            raise OverflowError("high - low range exceeds valid bounds")
        # ``random()`` inlined for the common case: jitter draws come here.
        index = self._next
        if index < len(self._block):
            self._next = index + 1
            return float(low + span * self._block[index])
        return float(low + span * self.random())

    def integers(self, low: int, high: int) -> int:
        return int(self._rng.integers(low, high))

    def normal(self, mean: float, std: float) -> float:
        return float(self._rng.normal(mean, std))

    def exponential(self, mean: float) -> float:
        return float(self._rng.exponential(mean))

    def choice(self, options, p=None):
        index = self._rng.choice(len(options), p=p)
        return options[int(index)]

    def shuffle(self, items: list) -> None:
        self._rng.shuffle(items)

    def standard_normal(self, size):
        return self._rng.standard_normal(size)

    # -- derived distributions ----------------------------------------------
    def truncated_normal(
        self, mean: float, std: float, low: float = 0.0, high: float = float("inf")
    ) -> float:
        """A normal draw clipped to ``[low, high]``.

        Clipping (rather than rejection sampling) keeps the draw count per
        call constant, which keeps streams aligned across configurations.
        """
        return float(min(max(self._rng.normal(mean, std), low), high))

    def lognormal_mean_cv(self, mean: float, cv: float) -> float:
        """Log-normal draw parameterized by mean and coefficient of variation."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        if cv <= 0:
            return float(mean)
        sigma2 = np.log(1.0 + cv * cv)
        mu = np.log(mean) - sigma2 / 2.0
        return float(self._rng.lognormal(mu, np.sqrt(sigma2)))

    def jitter(self, value: float, fraction: float) -> float:
        """``value`` scaled by a uniform factor in ``[1 - f, 1 + f]``."""
        if fraction <= 0:
            return value
        return value * self.uniform(1.0 - fraction, 1.0 + fraction)

    def bernoulli(self, probability: float) -> bool:
        return self.random() < probability


class RandomStreams:
    """A family of independent named random streams under one master seed."""

    def __init__(self, seed: int = 0):
        self.master_seed = int(seed)
        self._streams: dict[str, StreamRandom] = {}

    def stream(self, name: str) -> StreamRandom:
        """Return (creating on first use) the stream with the given name."""
        if name not in self._streams:
            self._streams[name] = StreamRandom(self._derive_seed(name))
        return self._streams[name]

    def _derive_seed(self, name: str) -> int:
        digest = hashlib.sha256(f"{self.master_seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "little")

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def names(self) -> list[str]:
        return sorted(self._streams)
