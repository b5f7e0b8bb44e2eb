"""Tests for the seeded random-stream helpers."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import randomness
from repro.sim.randomness import RandomStreams, StreamRandom


def test_same_seed_reproduces_sequence():
    a = StreamRandom(42)
    b = StreamRandom(42)
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_seeds_differ():
    a = StreamRandom(1)
    b = StreamRandom(2)
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_uniform_respects_bounds(rng):
    for _ in range(200):
        value = rng.uniform(2.0, 3.0)
        assert 2.0 <= value <= 3.0


def test_truncated_normal_respects_bounds(rng):
    values = [rng.truncated_normal(0.0, 10.0, low=-1.0, high=1.0) for _ in range(200)]
    assert all(-1.0 <= v <= 1.0 for v in values)


def test_lognormal_mean_cv_matches_target_mean(rng):
    samples = [rng.lognormal_mean_cv(5.0, 0.3) for _ in range(5000)]
    assert np.mean(samples) == pytest.approx(5.0, rel=0.05)


def test_lognormal_zero_cv_is_deterministic(rng):
    assert rng.lognormal_mean_cv(3.0, 0.0) == 3.0


def test_lognormal_requires_positive_mean(rng):
    with pytest.raises(ValueError):
        rng.lognormal_mean_cv(0.0, 0.5)


def test_jitter_stays_within_fraction(rng):
    for _ in range(200):
        value = rng.jitter(10.0, 0.2)
        assert 8.0 <= value <= 12.0


def test_jitter_zero_fraction_is_identity(rng):
    assert rng.jitter(7.0, 0.0) == 7.0


def test_bernoulli_probability_roughly_respected(rng):
    hits = sum(rng.bernoulli(0.3) for _ in range(5000))
    assert 0.25 < hits / 5000 < 0.35


def test_choice_returns_an_option(rng):
    options = ["a", "b", "c"]
    for _ in range(20):
        assert rng.choice(options) in options


def test_named_streams_are_independent_of_creation_order():
    streams_a = RandomStreams(99)
    streams_b = RandomStreams(99)
    # Create in different orders; the same-named stream must agree.
    first_a = streams_a.stream("alpha").random()
    streams_b.stream("beta")
    first_b = streams_b.stream("alpha").random()
    assert first_a == first_b


def test_stream_is_cached():
    streams = RandomStreams(5)
    assert streams.stream("x") is streams.stream("x")


def test_names_lists_created_streams():
    streams = RandomStreams(5)
    streams.stream("b")
    streams.stream("a")
    assert streams.names() == ["a", "b"]
    assert "a" in streams and "c" not in streams


# -- block buffering: bit-identical to the scalar generator calls -------------

BLOCK_LENGTHS = [1, 3, 8, randomness._BLOCK]


class ScalarReference:
    """The reference: one scalar ``Generator`` call per draw, nothing buffered."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def random(self):
        return float(self._rng.random())

    def uniform(self, low, high):
        return float(self._rng.uniform(low, high))

    def integers(self, low, high):
        return int(self._rng.integers(low, high))

    def normal(self, mean, std):
        return float(self._rng.normal(mean, std))

    def exponential(self, mean):
        return float(self._rng.exponential(mean))

    def choice(self, options, p=None):
        return options[int(self._rng.choice(len(options), p=p))]

    def shuffle(self, items):
        self._rng.shuffle(items)

    def standard_normal(self, size):
        return self._rng.standard_normal(size)

    def truncated_normal(self, mean, std, low=0.0, high=float("inf")):
        return float(np.clip(self._rng.normal(mean, std), low, high))

    def lognormal_mean_cv(self, mean, cv):
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        if cv <= 0:
            return float(mean)
        sigma2 = np.log(1.0 + cv * cv)
        mu = np.log(mean) - sigma2 / 2.0
        return float(self._rng.lognormal(mu, np.sqrt(sigma2)))

    def jitter(self, value, fraction):
        if fraction <= 0:
            return value
        return value * self.uniform(1.0 - fraction, 1.0 + fraction)

    def bernoulli(self, probability):
        return self._rng.random() < probability


def _bits(value):
    """A comparison key that tells apart values differing in any bit or type."""
    if isinstance(value, float):
        return ("float", type(value), value.hex())
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, list):
        return ("list", [_bits(item) for item in value])
    return (type(value), value)


def _apply(stream, op):
    """Run one operation; the result (or raised error) as a comparison key."""
    name, *args = op
    try:
        if name == "generator":
            return _bits(float(stream._rng.random()))
        if name == "shuffle":
            items = list(args[0])
            stream.shuffle(items)
            return _bits(items)
        if name == "choice":
            options, weights = args
            p = None if weights is None else np.asarray(weights) / sum(weights)
            return _bits(stream.choice(options, p=p))
        return _bits(getattr(stream, name)(*args))
    except (ValueError, OverflowError) as error:
        return ("raised", type(error), str(error))


def _assert_same(seed, ops):
    stream, reference = StreamRandom(seed), ScalarReference(seed)
    for index, op in enumerate(ops):
        assert _apply(stream, op) == _apply(reference, op), (index, op)
    # The generators must also end in the same place.
    assert stream.random() == reference.random()


_finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
_std = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
_UNIFORM_OPS = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("uniform"), _finite, _finite),
    st.tuples(st.just("jitter"), _finite, st.floats(min_value=-0.5, max_value=1.0)),
    st.tuples(st.just("bernoulli"), st.floats(min_value=0.0, max_value=1.0)),
)
_OTHER_OPS = st.one_of(
    st.tuples(st.just("normal"), _finite, _std),
    st.tuples(st.just("exponential"), st.floats(min_value=1e-3, max_value=10.0)),
    st.tuples(st.just("lognormal_mean_cv"), st.floats(min_value=1e-3, max_value=100.0),
              st.floats(min_value=-0.1, max_value=2.0)),
    st.tuples(st.just("truncated_normal"), _finite, _std, _finite, _finite),
    st.tuples(st.just("integers"), st.integers(-50, 50), st.integers(51, 200)),
    st.tuples(st.just("choice"), st.lists(st.integers(), min_size=1, max_size=5),
              st.none()),
    st.tuples(st.just("shuffle"), st.lists(st.integers(), max_size=6)),
    st.tuples(st.just("standard_normal"), st.integers(0, 4)),
    st.tuples(st.just("generator")),
)


@pytest.mark.parametrize("block", BLOCK_LENGTHS)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**63 - 1),
       ops=st.lists(st.one_of(_UNIFORM_OPS, _UNIFORM_OPS, _OTHER_OPS), max_size=80))
def test_interleaved_draws_match_scalar_generator_calls(block, seed, ops):
    with mock.patch.object(randomness, "_BLOCK", block):
        _assert_same(seed, ops)


@pytest.mark.parametrize("block", BLOCK_LENGTHS)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), ops=st.lists(_UNIFORM_OPS, max_size=600))
def test_uniform_only_streams_match_scalar_generator_calls(block, seed, ops):
    with mock.patch.object(randomness, "_BLOCK", block):
        _assert_same(seed, ops)


@pytest.mark.parametrize("block", BLOCK_LENGTHS)
@pytest.mark.parametrize("first_other", ["normal", "lognormal_mean_cv", "integers",
                                         "generator", "shuffle", "choice"])
def test_first_other_draw_anywhere_in_a_block(block, first_other):
    """The first non-uniform draw before any uniform, mid-block, on a boundary."""
    other = {"normal": ("normal", 1.0, 2.0),
             "lognormal_mean_cv": ("lognormal_mean_cv", 3.0, 0.4),
             "integers": ("integers", 0, 1000),
             "generator": ("generator",),
             "shuffle": ("shuffle", list(range(8))),
             "choice": ("choice", ["a", "b", "c"], [1.0, 2.0, 3.0])}[first_other]
    uniforms_before = sorted({0, 1, block // 2, block - 1, block, block + 1,
                              2 * block, 2 * block + 1})
    with mock.patch.object(randomness, "_BLOCK", block):
        for count in uniforms_before:
            ops = [("uniform", 0.25, 4.0)] * count + [other] + [("random",)] * (block + 2)
            _assert_same(17 + count, ops)


def test_uniform_rejects_bad_ranges_like_numpy():
    stream = StreamRandom(3)
    for low, high in [(1.0, 0.0), (0.0, -0.0)]:
        with pytest.raises(ValueError):
            stream.uniform(low, high)
    for low, high in [(0.0, float("inf")), (float("nan"), 1.0), (0.0, -float("inf"))]:
        with pytest.raises(OverflowError):
            stream.uniform(low, high)
    # A rejected call draws nothing.
    assert stream.random() == ScalarReference(3).random()
