"""Seedable random states, directions, and Bloch vectors for Monte-Carlo runs.

Every draw is a pure function of (seed, index): each index gets its own
substream of a counter-based Philox generator, keyed through a SeedSequence
spawn key.  Scans are therefore reproducible bit-for-bit and
order-independent, whatever the degree of parallelism.

Index i of a sampler draws from
``Generator(Philox(SeedSequence(entropy=seed, spawn_key=(tag, *shape, i))))``.
Such a Philox is fully described by its 2 x 64-bit key, with its counter at
0 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011).
The block forms derive the keys of a whole block at once (:func:`_keys`,
numpy's SeedSequence hash over arrays of indices) and reset one Philox to
each key through its ``state`` dict, so a block draws the same bits as one
generator per index without building one.  Two cases take the per-index
:func:`_generator` path instead: an index >= 2**32, whose spawn key has one
more word, and a degenerate first draw, which is redrawn from its own
substream.  The scalar samplers are one-item calls of the block forms.
``tests/test_sampling.py`` compares every block form with generators built
the per-index way, so a change of numpy's ``Philox.state`` layout or of its
SeedSequence hash fails there rather than changing a stream.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass
from functools import lru_cache
from math import sqrt
from typing import Iterator

import numpy as np

from .errors import BlochGeometryError, DomainError, NumericError

_STATE_TAG = 0
_DIRECTION_TAG = 1
_BALL_TAG = 2
_TUPLE_TAG = 3

_MAX_REDRAWS = 8
_MIN_GAUSSIAN_NORM = 1e-150  # a Gaussian draw this short has no usable direction
_MAX_SEED = 2**64 - 1

# Samples per block of a scan.  Speed was flat, within noise, from 64 to 1500;
# a fixed block keeps the stack's memory constant whatever the count.
SCAN_BLOCK = 256

# numpy's SeedSequence hash (O'Neill's seed_seq_fe) on 32-bit words, pool of 4
_WORD = 2**32
_MASK = _WORD - 1
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words(value: int) -> list[int]:
    """The 32-bit words SeedSequence reads from an int, lowest first; 0 is one word."""
    value = operator.index(value)  # a numpy integer too, as SeedSequence takes it
    return [(value >> s) & _MASK for s in range(0, max(value.bit_length(), 1), 32)]


@lru_cache(maxsize=64)
def _folded(seed: int, prefix: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """SeedSequence(entropy=seed, spawn_key=(*prefix, i)) up to its last word, i.

    The seed words, padded to the pool size because a spawn key follows, and
    the prefix words are mixed into the pool first, and the hash constants
    step the same way whatever the words are.  So the last word i enters
    pool word k as mix(pool[k], hashmix(i)) with constants known here.  Per
    k the result holds the two constants of that hashmix, _MIX_MULT_L *
    pool[k], and the two constants generate_state hashes pool word k with.
    """
    entropy = _words(seed)
    entropy += [0] * (_POOL - len(entropy))
    entropy += [w for value in prefix for w in _words(value)]
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK
        value = value * const & _MASK
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK
        return result ^ result >> 16

    pool = [hashmix(w) for w in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(w))
    steps = []
    out_const = _INIT_B
    for dst in range(_POOL):
        before, out_before = const, out_const
        hashmix(0)
        out_const = out_const * _MULT_B & _MASK
        steps.append((before, const, _MIX_MULT_L * pool[dst] & _MASK, out_before, out_const))
    return tuple(steps)


def _keys(seed: int, prefix, indices) -> np.ndarray:
    """(M, 2) uint64 Philox keys, row j that of spawn key (*prefix, indices[j]).

    Row j equals SeedSequence(entropy=seed, spawn_key=(*prefix, indices[j]))
    .generate_state(2, np.uint64).  Every index must be below 2**32, so that
    it is one word.  The same integer operations run on a Python int for a
    single index, where numpy calls would cost more than they save, and on a
    uint64 array for a block.
    """
    single = len(indices) == 1
    x = int(indices[0]) if single else np.asarray(indices, dtype=np.uint64)
    words = []
    for before, after, left, out_before, out_after in _folded(seed, tuple(prefix)):
        h = (x ^ before) * after & _MASK
        w = (left - _MIX_MULT_R * (h ^ h >> 16)) & _MASK
        w = ((w ^ w >> 16) ^ out_before) * out_after & _MASK
        words.append(w ^ w >> 16)
    keys = [words[0] | words[1] << 32, words[2] | words[3] << 32]
    return np.array([keys], dtype=np.uint64) if single else np.stack(keys, axis=1)


# One reusable Generator per thread: building a Philox costs more than a
# whole block draw per index, and _draws resets its state before each draw,
# so nothing carries over between calls.  Reset and draw are two steps, so
# threads must not share it.
_local = threading.local()


def _generator(seed: int, *key: int) -> np.random.Generator:
    """Independent substream for one (seed, sampler kind, shape, index) tuple."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def _draws(seed: int, prefix: tuple, indices, shape, uniform: bool = False):
    """First draws of each index's substream: (z, u).

    Row j of z is standard_normal(shape) of index j's generator, and u[j]
    the random() it draws next (uniform only).  For an index below 2**32 one
    Philox per thread is reset to its key with counter 0 and an empty buffer,
    the state of a fresh Philox(SeedSequence); a larger index, whose spawn
    key has one more word, gets its own generator.
    """
    z = np.empty((len(indices), *shape))
    u = np.empty(len(indices)) if uniform else None

    def draw(rng, j):
        rng.standard_normal(out=z[j])
        if uniform:
            u[j] = rng.random()

    keyed = []
    for j, i in enumerate(indices):
        if i < _WORD:
            keyed.append(j)
        else:
            draw(_generator(seed, *prefix, i), j)
    if keyed:
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
        keys = _keys(seed, prefix, [indices[j] for j in keyed]).tolist()
        for j, key in zip(keyed, keys):
            inner["key"] = key
            bitgen.state = state
            draw(rng, j)
    return z, u


def _attempts(kind: str, seed: int, index: int) -> Iterator[int]:
    """Attempt numbers for a redraw loop; NumericError once they run out."""
    yield from range(_MAX_REDRAWS)
    raise NumericError(
        f"degenerate {kind} draw persisted for {_MAX_REDRAWS} attempts "
        f"(seed={seed}, index={index})"
    )


def _redraw(seed, prefix, indices, z, u, values, measure, floor, kind) -> bool:
    """Redraw each row of z whose values entry is not above floor; True if any was.

    values holds measure(z) row by row.  A degenerate first draw, of
    probability zero, is drawn again from its index's own generator, from
    the first attempt on, until measure passes; the uniform u, if any, is
    drawn after the draw that passes.  z, u and values are updated in place.
    """
    rows = [j for j, x in enumerate(values.tolist()) if not x > floor]
    for j in rows:
        rng = _generator(seed, *prefix, indices[j])
        for _ in _attempts(kind, seed, indices[j]):
            z[j] = rng.standard_normal(z.shape[1:])
            values[j] = measure(z[j : j + 1])[0]
            if values[j] > floor:
                break
        if u is not None:
            u[j] = rng.random()
    return bool(rows)


def _norms(z: np.ndarray) -> np.ndarray:
    """Row norms of z: np.linalg.norm's BLAS dot, row by row."""
    return np.sqrt(np.matmul(z[:, None, :], z[:, :, None]).ravel())


def _gram(z: np.ndarray) -> np.ndarray:
    """G G^H for each row's complex Gaussian G = (z[0] + i z[1])/sqrt(2)."""
    g = (z[:, 0] + 1j * z[:, 1]) / sqrt(2.0)
    return g @ g.conj().swapaxes(1, 2)


def _trace(h: np.ndarray) -> np.ndarray:
    return h.trace(axis1=1, axis2=2).real


def _check_seed_index(seed: int, index: int) -> None:
    if not 0 <= seed <= _MAX_SEED:
        raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if index < 0:
        raise DomainError(f"index must be >= 0, got {index}")


def _index_list(seed: int, indices) -> list[int]:
    """The indices as a list of ints, after the seed and index checks."""
    indices = [operator.index(i) for i in indices]
    _check_seed_index(seed, min(indices, default=0))
    return indices


def _blocks(count: int, draw):
    """Stacks draw(indices) over consecutive blocks of up to SCAN_BLOCK indices.

    When a block's draw raises, its indices are drawn one at a time, so the
    stack of the draws before the failing one comes first, and the caller
    reports those items and fails where a loop over single items would.
    """
    for start in range(0, count, SCAN_BLOCK):
        indices = range(start, min(start + SCAN_BLOCK, count))
        try:
            stack = draw(indices)
        except BlochGeometryError:
            drawn = []
            for i in indices:
                try:
                    drawn.append(draw([i])[0])
                except BlochGeometryError:
                    if drawn:
                        yield np.stack(drawn)
                    raise
            stack = np.stack(drawn)
        yield stack


@dataclass(frozen=True)
class SamplerConfig:
    """Parameters of a reproducible state-sampling stream."""

    seed: int
    dim: int
    rank: int
    count: int

    def __post_init__(self):
        _check_seed_index(self.seed, 0)
        if self.dim < 2:
            raise DomainError(f"dimension must be >= 2, got {self.dim}")
        if not 1 <= self.rank <= self.dim:
            raise DomainError(f"rank must be in 1..{self.dim}, got {self.rank}")
        if self.count < 0:
            raise DomainError(f"count must be >= 0, got {self.count}")


def _state_block(config: SamplerConfig, indices) -> np.ndarray:
    """(M, N, N) stack of sample_state(config, i) for i in indices, bit for bit."""
    indices = _index_list(config.seed, indices)
    n, k = config.dim, config.rank
    prefix = (_STATE_TAG, n, k)
    z, _ = _draws(config.seed, prefix, indices, (2, n, k))
    h = _gram(z)
    tr = _trace(h)
    if _redraw(
        config.seed, prefix, indices, z, None, tr, lambda z: _trace(_gram(z)), 1e-300, "Ginibre"
    ):
        h = _gram(z)
    return h / tr[:, None, None]


def sample_state(config: SamplerConfig, index: int) -> np.ndarray:
    """Random rank-k density matrix, Hilbert-Schmidt measure restricted to rank k.

    Draws an N x k matrix G of standard complex Gaussians, (x + iy)/sqrt(2),
    and returns G G^H / Tr{G G^H}.  The result has rank k almost surely;
    the probability-zero degenerate draw G = 0 is redrawn a bounded number
    of times.
    """
    return _state_block(config, [index])[0]


def sample_states(config: SamplerConfig) -> Iterator[np.ndarray]:
    """The full stream of config.count states, in index order."""
    for stack in _blocks(config.count, lambda indices: _state_block(config, indices)):
        yield from stack


def _direction_block(seed: int, num_coords: int, indices) -> np.ndarray:
    """(M, num_coords) stack of sample_direction(seed, num_coords, i), bit for bit."""
    if num_coords < 3:
        raise DomainError(f"direction space must have >= 3 coordinates, got {num_coords}")
    indices = _index_list(seed, indices)
    prefix = (_DIRECTION_TAG, num_coords)
    z, _ = _draws(seed, prefix, indices, (num_coords,))
    norm = _norms(z)
    _redraw(seed, prefix, indices, z, None, norm, _norms, _MIN_GAUSSIAN_NORM, "direction")
    return z / norm[:, None]


def sample_direction(seed: int, num_coords: int, index: int) -> np.ndarray:
    """Uniform random unit vector in R^num_coords (normalized Gaussian draw)."""
    return _direction_block(seed, num_coords, [index])[0]


def _ball_block(seed: int, num_coords: int, radius: float, indices) -> np.ndarray:
    """(M, num_coords) stack of sample_bloch_in_ball(seed, num_coords, radius, i)."""
    if not 0 < radius < np.inf:
        raise DomainError(f"radius must be positive and finite, got {radius}")
    if num_coords < 1:
        raise DomainError(f"vector must have >= 1 coordinate, got {num_coords}")
    indices = _index_list(seed, indices)
    prefix = (_BALL_TAG, num_coords)
    z, u = _draws(seed, prefix, indices, (num_coords,), uniform=True)
    norm = _norms(z)
    _redraw(seed, prefix, indices, z, u, norm, _norms, _MIN_GAUSSIAN_NORM, "ball")
    # the power in Python floats, as sample_bloch_in_ball of v0.1.0 takes it
    lengths = np.array([radius * x ** (1.0 / num_coords) for x in u.tolist()])
    return z * (lengths / norm)[:, None]


def sample_bloch_in_ball(seed: int, num_coords: int, radius: float, index: int) -> np.ndarray:
    """Uniform random vector strictly inside the ball of the given radius.

    Direction times radius * u**(1/d) with u uniform in [0, 1), so the
    result's norm is strictly below the radius.
    """
    return _ball_block(seed, num_coords, radius, [index])[0]


def _tuple_block(seed: int, size: int, indices) -> np.ndarray:
    """(M, size) stack of sample_unit_sum_tuple(seed, size, i), bit for bit."""
    if size < 1:
        raise DomainError(f"tuple size must be >= 1, got {size}")
    indices = _index_list(seed, indices)
    x, _ = _draws(seed, (_TUPLE_TAG, size), indices, (size,))
    return x - x.mean(axis=1, keepdims=True) + 1.0 / size


def sample_unit_sum_tuple(seed: int, size: int, index: int) -> np.ndarray:
    """Random real tuple summing to 1: standard normals shifted by 1/n - mean.

    Entries may be negative; used to exercise the sum-of-squares lower bound.
    """
    return _tuple_block(seed, size, [index])[0]
