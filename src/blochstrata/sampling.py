"""Seedable random states, directions, and Bloch vectors for Monte-Carlo runs.

Every draw is a pure function of (seed, index) under one BLAS kernel, which
rounds its norm or Gram product: each index gets its own substream of a
counter-based Philox generator, keyed through a SeedSequence spawn key.  Scans
are reproducible bit-for-bit and order-independent, whatever the parallelism.

Index i of a sampler draws from
``Generator(Philox(SeedSequence(entropy=seed, spawn_key=(tag, *shape, i))))``.
Such a Philox is fully described by its 2 x 64-bit key, with its counter at
0 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011).
No draw builds that generator: :func:`_keys` derives the keys of a whole
block at once, and :func:`_draws` resets one Philox per thread to each key
in turn through its ``state`` dict.  Each index is drawn once: a degenerate
draw, of probability zero, is a NumericError, not redrawn.  The keys of
indices below 2**32 come from numpy's SeedSequence pool of (seed, tag,
*shape) and a copy of its last-word and output hash steps over an array of
indices, a block's four pool words hashed in one pass; a larger index,
whose spawn key has more words, takes SeedSequence itself.  The scalar
samplers are one-item calls of the block forms.  So the streams rely on
``SeedSequence.pool``, the constants of its hash and the ``Philox.state``
layout; ``tests/test_sampling.py`` compares the keys with SeedSequence and
every block form with generators built the per-index way, so a change of
any of them fails there rather than changing a stream.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass, fields
from functools import lru_cache
from math import sqrt
from typing import Iterator

import numpy as np

from .basis import _row_dots
from .errors import DomainError, NumericError, _first_failure, _integer, _real, _shown, _zeros

_STATE_TAG = 0
_DIRECTION_TAG = 1
_BALL_TAG = 2
_TUPLE_TAG = 3

_MIN_GAUSSIAN_NORM = 1e-150  # a Gaussian draw this short has no usable direction
# the floor on tr G G^H, the trace that normalizes a sampled state: it is |z|^2 / 2
# for the Gaussian draws z, so this is about _MIN_GAUSSIAN_NORM squared
_MIN_GINIBRE_TRACE = 1e-300
_MAX_SEED = 2**64 - 1

# Samples per block of a scan, at most.  Speed was flat, within noise, from 64 to
# 1500; a bounded block keeps the stacks' memory constant whatever the count.
SCAN_BLOCK = 256
# Bytes of one stack of a block, at most, from each item's bytes (_block_size): 256
# complex N x N matrices fit up to N = 64 and 256 float tuples up to 8192 entries, so
# a large N or tuple does not make a block's stacks grow with it.
_BLOCK_STACK_BYTES = 16 * 2**20

# numpy's SeedSequence hash (O'Neill's seed_seq_fe) on 32-bit words, pool of 4
_WORD = 2**32
_MASK = _WORD - 1
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _word_count(value: int) -> int:
    """How many 32-bit words SeedSequence reads from an int; 0 is one word."""
    return max(-(-value.bit_length() // 32), 1)


@lru_cache(maxsize=64)
def _folded(seed: int, prefix: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """SeedSequence(entropy=seed, spawn_key=(*prefix, i)) up to its last word, i.

    A spawn key pads the seed to the pool size whether or not i follows, so
    the pool before i is numpy's pool of (seed, prefix), and the hash
    constant has stepped _POOL times for each of the L entropy words before
    i.  So i enters pool word k as mix(pool[k], hashmix(i)) with constants
    known here.  Per k the result holds the two constants of that hashmix,
    _MIX_MULT_L * pool[k], and the two constants generate_state hashes pool
    word k with.
    """
    pool = np.random.SeedSequence(entropy=seed, spawn_key=prefix).pool.tolist()
    words = max(_word_count(seed), _POOL) + sum(_word_count(value) for value in prefix)
    const = _INIT_A * pow(_MULT_A, _POOL * words, _WORD) & _MASK
    out_const = _INIT_B
    steps = []
    for k in range(_POOL):
        after, out_after = const * _MULT_A & _MASK, out_const * _MULT_B & _MASK
        steps.append((const, after, _MIX_MULT_L * pool[k] & _MASK, out_const, out_after))
        const, out_const = after, out_after
    return tuple(steps)


def _hashed(x, before, after, left, out_before, out_after):
    """The output word of index word x for one pool word (one step of _folded),
    or, given (4, 1) columns of the four steps, of every pool word at once."""
    h = (x ^ before) * after & _MASK
    w = (left - _MIX_MULT_R * (h ^ h >> 16)) & _MASK
    w = ((w ^ w >> 16) ^ out_before) * out_after & _MASK
    return w ^ w >> 16


def _keys(seed: int, prefix, indices) -> np.ndarray:
    """(M, 2) uint64 Philox keys, row j that of spawn key (*prefix, indices[j]).

    Row j equals SeedSequence(entropy=seed, spawn_key=(*prefix, indices[j]))
    .generate_state(2, np.uint64).  An index below 2**32, one word, takes the
    folded hash: on a Python int for a single index, one pool word at a
    time, where numpy calls would cost more than they save; for a block, on
    a (4, M) uint64 array, all four pool words in one pass, with _folded's
    constants as (4, 1) columns.  A larger index, whose spawn key has more
    words, takes SeedSequence itself.
    """
    steps = _folded(seed, tuple(prefix))
    single = len(indices) == 1
    if single:
        x = indices[0]
        large = [0] if x >= _WORD else []
        words = [_hashed(x, *step) for step in steps]
    else:
        top = max(indices, default=0)
        large = [j for j, i in enumerate(indices) if i >= _WORD] if top >= _WORD else []
        x = np.array([i & _MASK for i in indices] if large else indices, dtype=np.uint64)
        words = _hashed(x, *np.array(steps, dtype=np.uint64).T[:, :, None])
    keys = [words[0] | words[1] << 32, words[2] | words[3] << 32]
    keys = np.array([keys], dtype=np.uint64) if single else np.stack(keys, axis=1)
    for j in large:
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(*prefix, indices[j]))
        keys[j] = ss.generate_state(2, np.uint64)
    return keys


# One reusable Generator per thread: building a Philox costs more than a
# whole block draw per index, and _draws resets its state before each
# index's draw, so nothing carries over between calls.  Reset and draw are
# two steps, so threads must not share it.
_local = threading.local()


def _draws(seed: int, prefix: tuple, indices, shape, uniform: bool = False):
    """First draws of each index's substream: (z, u).

    Row j of z is standard_normal(shape) of index j's generator, and u[j]
    the random() it draws next (uniform only).  Before index i draws, the
    thread's Philox is reset to i's key with counter 0 and an empty buffer:
    the state of a fresh Philox(SeedSequence(entropy=seed, spawn_key=(*prefix, i))).
    """
    z = _zeros((len(indices), *shape), f"draws of shape {shape}")
    u = np.empty(len(indices)) if uniform else None
    rng = getattr(_local, "rng", None)
    if rng is None:
        rng = _local.rng = np.random.Generator(np.random.Philox(0))
    bitgen = rng.bit_generator
    inner = {"counter": (0, 0, 0, 0), "key": None}
    state = {
        "bit_generator": "Philox",
        "state": inner,
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for j, key in enumerate(_keys(seed, prefix, indices).tolist()):
        inner["key"] = key
        bitgen.state = state
        rng.standard_normal(out=z[j])
        if uniform:
            u[j] = rng.random()
    return z, u


def _degenerate(seed: int, indices, values: np.ndarray, floor: float, kind: str) -> None:
    """NumericError naming the first index whose values entry is not above floor.

    Called before values divides the draws, so no NaN passes.  Only a draw
    whose Gaussian entries are all 0.0 falls this short, an event of
    probability zero.
    """
    j = _first_failure(values > floor)
    if j is not None:
        raise NumericError(f"degenerate {kind} draw (seed={seed}, index={indices[j]})")


def _gram(z: np.ndarray) -> np.ndarray:
    """G G^H for each row's complex Gaussian G = (z[0] + i z[1])/sqrt(2), in one guarded
    (M, N, N) stack: NumericError naming it if it cannot be allocated."""
    g = (z[:, 0] + 1j * z[:, 1]) / sqrt(2.0)
    m, n, _ = g.shape
    h = _zeros((m, n, n), f"Gram matrices of dimension {n}", complex)
    return np.matmul(g, g.conj().swapaxes(1, 2), out=h)


def _index_list(seed: int, indices=()) -> tuple[int, list[int]]:
    """The seed as an int and the indices as a list of ints; DomainError unless
    the seed is a 64-bit unsigned integer and every index an integer >= 0."""
    seed = _integer(seed, "seed")
    if not 0 <= seed <= _MAX_SEED:
        raise DomainError(f"seed must be a 64-bit unsigned integer, got {_shown(seed)}")
    indices = list(indices)
    _integer(min(indices, default=0), "index", 0)
    return seed, list(map(operator.index, indices))


def _block_size(item_bytes: int) -> int:
    """Items per scan block of items of item_bytes bytes each: SCAN_BLOCK, or fewer, at
    least 1, so that a block's stack takes at most _BLOCK_STACK_BYTES.  An item of
    fewer than 1 byte counts as 1.  For a complex N x N matrix, 16 N**2 bytes: 256 for
    N <= 64, 248 at N = 65, 1 from N = 725."""
    return max(1, min(SCAN_BLOCK, _BLOCK_STACK_BYTES // max(item_bytes, 1)))


def _blocks(count: int, draw, item_bytes: int):
    """(indices, draw(indices)) over consecutive blocks of _block_size(item_bytes) indices,
    each indices a range.

    A block is drawn only once the stacks before it are taken, and a draw
    that raises yields nothing of its block, so a caller that reports each
    stack as it comes fails there before any item of that block.
    """
    size = _block_size(item_bytes)
    for start in range(0, count, size):
        indices = range(start, min(start + size, count))
        yield indices, draw(indices)


@dataclass(frozen=True)
class SamplerConfig:
    """Parameters of a reproducible state-sampling stream."""

    seed: int
    dim: int
    rank: int
    count: int

    def __post_init__(self):
        seed, _ = _index_list(self.seed)
        dim = _integer(self.dim, "dim", 2)
        checked = seed, dim, _integer(self.rank, "rank", 1, dim), _integer(self.count, "count", 0)
        for field, value in zip(fields(self), checked):  # the class is frozen
            object.__setattr__(self, field.name, value)


def _check_config(config) -> None:
    """DomainError unless config is a SamplerConfig."""
    if not isinstance(config, SamplerConfig):
        raise DomainError(f"config must be a SamplerConfig, got {_shown(config)}")


def _state_block(config: SamplerConfig, indices) -> np.ndarray:
    """(M, N, N) stack of sample_state(config, i) for i in indices, bit for bit."""
    _, indices = _index_list(config.seed, indices)
    n, k = config.dim, config.rank
    z, _ = _draws(config.seed, (_STATE_TAG, n, k), indices, (2, n, k))
    h = _gram(z)
    tr = h.trace(axis1=1, axis2=2).real
    _degenerate(config.seed, indices, tr, _MIN_GINIBRE_TRACE, "Ginibre")
    h /= tr[:, None, None]
    return h


def sample_state(config: SamplerConfig, index: int) -> np.ndarray:
    """Random rank-k density matrix, Hilbert-Schmidt measure restricted to rank k.

    Draws an N x k matrix G of standard complex Gaussians, (x + iy)/sqrt(2),
    and returns G G^H / Tr{G G^H}.  The result has rank k almost surely;
    the probability-zero degenerate draw G = 0 is a NumericError.
    """
    _check_config(config)
    return _state_block(config, [index])[0]


def sample_states(config: SamplerConfig) -> Iterator[np.ndarray]:
    """The full stream of config.count states, in index order.

    The states are drawn in blocks (_blocks), SCAN_BLOCK up to N = 64; a block
    whose draw fails raises after the states of the blocks before it, and
    yields none of its own.
    """
    _check_config(config)
    item_bytes = 16 * config.dim**2  # a complex N x N matrix
    for _, stack in _blocks(config.count, lambda i: _state_block(config, i), item_bytes):
        yield from stack


def _direction_block(seed: int, num_coords: int, indices) -> np.ndarray:
    """(M, num_coords) stack of sample_direction(seed, num_coords, i), bit for bit."""
    seed, indices = _index_list(seed, indices)
    num_coords = _integer(num_coords, "num_coords", 3)
    z, _ = _draws(seed, (_DIRECTION_TAG, num_coords), indices, (num_coords,))
    norm = np.sqrt(_row_dots(z))
    _degenerate(seed, indices, norm, _MIN_GAUSSIAN_NORM, "direction")
    return z / norm[:, None]


def sample_direction(seed: int, num_coords: int, index: int) -> np.ndarray:
    """Uniform random unit vector in R^num_coords (normalized Gaussian draw)."""
    return _direction_block(seed, num_coords, [index])[0]


def _ball_block(seed: int, num_coords: int, radius: float, indices) -> np.ndarray:
    """(M, num_coords) stack of sample_bloch_in_ball(seed, num_coords, radius, i)."""
    radius = _real(radius, "radius", positive=True)
    seed, indices = _index_list(seed, indices)
    num_coords = _integer(num_coords, "num_coords", 1)
    z, u = _draws(seed, (_BALL_TAG, num_coords), indices, (num_coords,), uniform=True)
    norm = np.sqrt(_row_dots(z))
    _degenerate(seed, indices, norm, _MIN_GAUSSIAN_NORM, "ball")
    # the power in Python floats, as sample_bloch_in_ball of v0.1.0 takes it
    lengths = np.array([radius * x ** (1.0 / num_coords) for x in u.tolist()])
    try:
        with np.errstate(over="raise", invalid="raise"):
            return z * (lengths / norm)[:, None]
    except FloatingPointError as exc:
        raise NumericError(f"ball vector of radius {radius!r} is not finite: {exc}") from exc


def sample_bloch_in_ball(seed: int, num_coords: int, radius: float, index: int) -> np.ndarray:
    """Uniform random vector strictly inside the ball of the given radius.

    Direction times radius * u**(1/d) with u uniform in [0, 1), so the
    result's norm is strictly below the radius.  A radius near the top of
    the float range can overflow the scaling of a short draw: that is a
    NumericError, never a non-finite vector.
    """
    return _ball_block(seed, num_coords, radius, [index])[0]


def _tuple_block(seed: int, size: int, indices) -> np.ndarray:
    """(M, size) stack of sample_unit_sum_tuple(seed, size, i), bit for bit."""
    seed, indices = _index_list(seed, indices)
    size = _integer(size, "size", 1)
    x, _ = _draws(seed, (_TUPLE_TAG, size), indices, (size,))
    return x - x.mean(axis=1, keepdims=True) + 1.0 / size


def sample_unit_sum_tuple(seed: int, size: int, index: int) -> np.ndarray:
    """Random real tuple summing to 1: standard normals shifted by 1/n - mean.

    Entries may be negative; used to exercise the sum-of-squares lower bound.
    """
    return _tuple_block(seed, size, [index])[0]
