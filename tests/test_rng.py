"""The vectorized Philox draws are numpy's own Philox4x64-10 streams."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dqubit.rng import substream, uniform_table


def philox_draws(seed: int, trial: int, first: int, count: int) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, trial], np.uint64)))
    return gen.random(first + count)[first:]


@settings(max_examples=60, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    first_trial=st.integers(0, 2**64 - 2**20),
    rows=st.lists(st.integers(0, 2**20 - 1), min_size=1, max_size=6, unique=True),
    first=st.lists(st.integers(0, 900), min_size=6, max_size=6),
    n_draws=st.integers(1, 13),
)
def test_uniform_table_equals_numpy_philox(seed, first_trial, rows, first, n_draws):
    first = first[: len(rows)]
    out = uniform_table(seed, first_trial, len(rows), n_draws, np.array(first), np.array(rows))
    assert out.shape == (len(rows), n_draws)
    for i, (r, f) in enumerate(zip(rows, first)):
        assert np.array_equal(out[i], philox_draws(seed, first_trial + r, f, n_draws))
    shared = uniform_table(seed, first_trial, len(rows), n_draws, first[0], np.array(rows))
    for i, r in enumerate(rows):
        assert np.array_equal(shared[i], philox_draws(seed, first_trial + r, first[0], n_draws))


@settings(max_examples=40, deadline=None, database=None)
@given(
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=6, max_size=6),
    first_trial=st.integers(0, 2**64 - 2**20),
    rows=st.lists(st.integers(0, 2**20 - 1), min_size=1, max_size=6),
    first=st.lists(st.integers(0, 900), min_size=6, max_size=6),
    n_draws=st.integers(1, 13),
)
def test_uniform_table_takes_one_seed_per_row(seeds, first_trial, rows, first, n_draws):
    # a block of trajectories from several cells fills its windows in one call
    seeds, first = seeds[: len(rows)], first[: len(rows)]
    out = uniform_table(
        np.array(seeds, np.uint64), first_trial, len(rows), n_draws, np.array(first), np.array(rows)
    )
    for i, (s, r, f) in enumerate(zip(seeds, rows, first)):
        assert np.array_equal(out[i], substream(s, first_trial + r).random(f + n_draws)[f:])


def test_default_rows_are_consecutive_trials_from_the_start():
    out = uniform_table(7, 40, 3, 9)
    for i in range(3):
        assert np.array_equal(out[i], substream(7, 40 + i).random(9))


def test_substream_keys_large_seeds_exactly():
    a = substream(2**63 + 5).random(4)
    b = substream(2**63 + 8).random(4)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, philox_draws(2**63 + 5, 0, 0, 4))


def test_numpy_integer_labels_are_the_int_streams():
    ref = substream(11, 5).random(4)
    for label in (np.int64(5), np.uint64(5), np.int32(5)):
        assert np.array_equal(substream(11, label).random(4), ref)
    assert np.array_equal(substream(11, np.int64(-1)).random(4), substream(11, 2**64 - 1).random(4))
