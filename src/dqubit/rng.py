"""Counter-based random substreams.

Every stochastic routine in the package draws from a Philox generator keyed
by (seed, stream id).  Trial t of a Monte Carlo run uses key (seed, t), so
results are independent of chunking, execution order and worker count.

Philox4x64-10 (Salmon, Moraes, Dror & Shaw, "Parallel random numbers: as
easy as 1, 2, 3", SC'11) is a pure function of key and counter, so
``uniform_table`` computes the draws of many trials at once, and any window
of a trial's stream without the draws before it.  Uniform ``i`` of a stream
is lane ``i % 4`` of the block at counter ``i // 4 + 1``, mapped to
``(x >> 11) * 2**-53``: exactly what ``np.random.Philox(key=[seed, t])``
followed by ``random()`` yields.

Stream layout of one pumping trajectory (trial ``t`` of a cell seeded ``s``):

* ``chain``: one uniform, column 0, inverted through the count law's CDF.
* ``jump``: the norm threshold of jump ``j`` (``j = 0 .. _MAX_JUMPS``) is
  column ``j``; the decay channel of jump ``j`` is column ``_MAX_JUMPS + 1 + j``.
  ``scatter._MAX_JUMPS`` thus fixes the jump stream layout: changing it
  moves every jump trajectory's bytes and needs a ``__version__`` bump.

Jump trajectories fetch their columns in windows, for live trajectories
only, so a trajectory costs the draws it uses rather than the whole stream.
A block of jump trajectories, or a slice of chain trajectories, may hold
several cells: ``uniform_table`` then takes one seed, trial and first draw
per row, so one call fills every row, and each row still reads its own
cell's stream.
"""
from __future__ import annotations

import zlib

import numpy as np

_MASK64 = (1 << 64) - 1
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)
# Philox4x64 multipliers and Weyl key increments, as (2, 1, 1) columns that
# pair with the stacked word pairs (w0, w2) and key words (k0, k1)
_MULT = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], np.uint64).reshape(2, 1, 1)
_MULT_LO, _MULT_HI = _MULT & _LO32, _MULT >> _SHIFT32
_WEYL = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], np.uint64).reshape(2, 1, 1)
_ROUNDS = 10
_CHUNK_BLOCKS = 8192


def _stream_id(label) -> int:
    if isinstance(label, (int, np.integer)):
        return int(label) & _MASK64
    return zlib.crc32(str(label).encode()) & _MASK64


def substream(seed: int, label=0) -> np.random.Generator:
    """Generator for one named/indexed substream of ``seed``."""
    key = np.array([seed & _MASK64, _stream_id(label)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) 64-bit words of the 128-bit products ``_MULT * x``, from 32-bit halves."""
    x_lo, x_hi = x & _LO32, x >> _SHIFT32
    t = x_hi * _MULT_LO + ((x_lo * _MULT_LO) >> _SHIFT32)
    mid = x_lo * _MULT_HI + (t & _LO32)
    return x_hi * _MULT_HI + (t >> _SHIFT32) + (mid >> _SHIFT32), x * _MULT


def _philox_blocks(seeds: np.ndarray, trials: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Philox4x64-10 output words (n, k, 4) of keys (seeds, trials) at counters (c, 0, 0, 0).

    ``seeds`` and ``trials`` are (n, 1) and ``counters`` (n, k), all uint64.  The
    four words are kept as two stacked pairs, ``x = (w0, w2)``, which a round
    multiplies, and ``y = (w1, w3)``; one round is ``x, y = hi[::-1] ^ y ^ key, lo[::-1]``.
    """
    x = np.zeros((2,) + counters.shape, np.uint64)
    x[0] = counters
    y = np.zeros_like(x)
    key = np.empty((2,) + trials.shape, np.uint64)
    key[0], key[1] = seeds, trials
    for r in range(_ROUNDS):
        if r:
            key += _WEYL
        hi, lo = _mulhilo(x)
        x, y = hi[::-1] ^ y ^ key, lo[::-1]
    return np.stack([x[0], y[0], x[1], y[1]], axis=-1)


def uniform_table(
    seed,
    first_trial: int,
    n_trials: int,
    n_draws: int,
    first_draw=0,
    rows=None,
) -> np.ndarray:
    """(n_trials, n_draws) uniforms: row i holds draws ``first_draw[i] ..`` of its trial.

    Row i belongs to trial ``first_trial + rows[i]`` (``rows`` defaults to
    ``0 .. n_trials-1``) of seed ``seed[i]``: ``seed`` is one int for every
    row or an integer array with one seed per row.  ``first_draw`` is one
    stream position for every row or one per row.  Entry (i, j) equals draw
    ``first_draw[i] + j`` of ``substream(seed[i], first_trial + rows[i]).random``.
    """
    if np.ndim(seed) == 0:
        seeds = np.full(n_trials, int(seed) & _MASK64, np.uint64)
    else:
        seeds = np.asarray(seed).astype(np.uint64)
    offsets = np.arange(n_trials) if rows is None else np.asarray(rows)
    trials = offsets.astype(np.uint64) + np.uint64(first_trial & _MASK64)
    start = np.broadcast_to(np.asarray(first_draw, np.int64), (n_trials,))
    lane = start % 4
    n_blocks = (int(lane.max(initial=0)) + n_draws + 3) // 4
    counters = ((start // 4 + 1)[:, None] + np.arange(n_blocks)).astype(np.uint64)
    # row slices of at most _CHUNK_BLOCKS blocks keep the round temporaries in cache
    step = max(1, _CHUNK_BLOCKS // max(n_blocks, 1))
    out = np.empty((n_trials, n_draws))
    for i in range(0, n_trials, step):
        part = slice(i, i + step)
        words = _philox_blocks(seeds[part, None], trials[part, None], counters[part])
        words = words.reshape(len(words), 4 * n_blocks)
        words = np.take_along_axis(words, lane[part, None] + np.arange(n_draws), axis=1)
        words >>= _SHIFT11
        out[part] = words * 2.0**-53
    return out
