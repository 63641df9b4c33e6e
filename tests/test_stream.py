"""graft's random stream against numpy's SeedSequence and Generator(PCG64), call for call."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graft.stream import Stream, generate_state, spawn_word

PROPERTY = settings(max_examples=150, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])

seeds = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 - 1]), st.integers(0, 2**128))
words = st.integers(0, 2**32 - 1)


def oracle(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


@PROPERTY
@given(seeds, st.lists(st.integers(0, 2**40), max_size=3), st.integers(1, 12))
def test_seed_words_match_seed_sequence(seed, spawn_key, n_words):
    expected = np.random.SeedSequence(seed, spawn_key=spawn_key).generate_state(n_words)
    assert generate_state(seed, tuple(spawn_key), n_words) == [int(w) for w in expected]


@PROPERTY
@given(words, words, words)
def test_spawn_word_matches_seed_sequence(seed, key0, key1):
    expected = np.random.SeedSequence(seed, spawn_key=(key0, key1)).generate_state(1)[0]
    assert spawn_word(seed, key0, key1) == int(expected)


# one call of the interleaving: ("random",), ("shuffle", length) or ("integers", high)
calls = st.lists(
    st.one_of(
        st.tuples(st.just("random")),
        st.tuples(st.just("shuffle"), st.integers(0, 40)),
        st.tuples(st.just("integers"), st.one_of(st.integers(1, 1000), st.integers(1, 2**63), st.just(2**32))),
    ),
    max_size=25,
)


@PROPERTY
@given(seeds, calls)
def test_interleaved_draws_match_the_generator(seed, sequence):
    ours, theirs = Stream(seed), oracle(seed)
    for name, *arg in sequence:
        if name == "random":
            assert ours.random() == theirs.random()
        elif name == "shuffle":
            a, b = list(range(arg[0])), list(range(arg[0]))
            ours.shuffle(a)
            theirs.shuffle(b)
            assert a == b
        else:
            assert ours.integers(arg[0]) == int(theirs.integers(arg[0]))
    assert ours.random() == theirs.random()  # the pending half-word, if any, is consumed alike


@PROPERTY
@given(seeds, st.one_of(st.integers(0, 60), st.integers(10_001, 12_000)), st.data())
def test_choice_without_replacement_matches_the_generator(seed, n, data):
    # Floyd's algorithm with its shuffle, and above 10,000 the tail shuffle of the whole range
    size = data.draw(st.one_of(st.integers(0, n), st.integers(n // 50 + 1, n) if n > 10_000 else st.just(n)))
    ours, theirs = Stream(seed), oracle(seed)
    assert ours.choice(n, size=size, replace=False) == [int(i) for i in theirs.choice(n, size=size, replace=False)]
    assert ours.random() == theirs.random()


@PROPERTY
@given(
    seeds,
    st.one_of(st.integers(0, 60), st.integers(61, 10**6)),
    st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0)),
)
def test_binomial_matches_the_generator(seed, n, p):
    # inversion while min(p, 1 - p) * n <= 30, BTPE above; p > 0.5 draws n minus a draw at 1 - p
    ours, theirs = Stream(seed), oracle(seed)
    for _ in range(5):
        assert ours.binomial(n, p) == int(theirs.binomial(n, p))
    assert ours.random() == theirs.random()


def test_both_binomial_regimes_match_on_long_runs():
    # BTPE at (1000, 0.2), (1000, 0.8) and (10**6, 0.5); inversion at (40, 0.3) and (20, 0.98)
    for n, p in [(1000, 0.2), (1000, 0.8), (10**6, 0.5), (40, 0.3), (20, 0.98)]:
        ours, theirs = Stream(7), oracle(7)
        assert [ours.binomial(n, p) for _ in range(200)] == [int(theirs.binomial(n, p)) for _ in range(200)]


def test_a_seed_must_be_a_non_negative_integer():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        Stream(-1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        generate_state(5, (-1,))
    for seed in (1.5, "3", None):  # None is numpy's seed from the operating system: refused, not drawn
        with pytest.raises(TypeError):
            Stream(seed)
    assert Stream(np.int64(9)).random() == oracle(9).random()
    expected = np.random.SeedSequence(2**32 - 1, spawn_key=(7, 1)).generate_state(1)[0]
    assert spawn_word(np.uint32(2**32 - 1), np.int64(7), 1) == int(expected)  # numpy ints, read without wrapping
    with pytest.raises(TypeError):
        spawn_word(None, 0, 0)


def test_out_of_range_arguments_are_refused_as_numpy_refuses_them():
    s = Stream(0)
    for call in (lambda: s.integers(0), lambda: s.choice(3, size=4), lambda: s.binomial(5, 1.5), lambda: s.binomial(-1, 0.5)):
        with pytest.raises(ValueError):
            call()
    with pytest.raises(ValueError):
        s.binomial(5, float("nan"))
