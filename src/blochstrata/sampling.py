"""Seedable random states, directions, and Bloch vectors for Monte-Carlo runs.

Every draw is a pure function of (seed, index): each index gets its own
substream of a counter-based Philox generator, derived through a
SeedSequence spawn key.  Scans are therefore reproducible bit-for-bit and
order-independent, whatever the degree of parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Iterator

import numpy as np

from .errors import DomainError, NumericError

_STATE_TAG = 0
_DIRECTION_TAG = 1
_BALL_TAG = 2
_TUPLE_TAG = 3

_MAX_REDRAWS = 8
_MIN_GAUSSIAN_NORM = 1e-150  # a Gaussian draw this short has no usable direction
_MAX_SEED = 2**64 - 1


def _generator(seed: int, *key: int) -> np.random.Generator:
    """Independent substream for one (seed, sampler kind, shape, index) tuple."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def _attempts(kind: str, seed: int, index: int) -> Iterator[int]:
    """Attempt numbers for a redraw loop; NumericError once they run out."""
    yield from range(_MAX_REDRAWS)
    raise NumericError(
        f"degenerate {kind} draw persisted for {_MAX_REDRAWS} attempts "
        f"(seed={seed}, index={index})"
    )


def _gaussian(rng: np.random.Generator, num_coords: int, kind: str, seed: int, index: int):
    """(v, |v|) of a standard Gaussian draw, redrawn while |v| <= _MIN_GAUSSIAN_NORM."""
    for _ in _attempts(kind, seed, index):
        v = rng.standard_normal(num_coords)
        norm = float(np.linalg.norm(v))
        if norm > _MIN_GAUSSIAN_NORM:
            return v, norm


def _check_seed_index(seed: int, index: int) -> None:
    if not 0 <= seed <= _MAX_SEED:
        raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if index < 0:
        raise DomainError(f"index must be >= 0, got {index}")


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


def sample_state(config: SamplerConfig, index: int) -> np.ndarray:
    """Random rank-k density matrix, Hilbert-Schmidt measure restricted to rank k.

    Draws an N x k matrix G of standard complex Gaussians, (x + iy)/sqrt(2),
    and returns G G^H / Tr{G G^H}.  The result has rank k almost surely;
    the probability-zero degenerate draw G = 0 is redrawn a bounded number
    of times.
    """
    _check_seed_index(config.seed, index)
    rng = _generator(config.seed, _STATE_TAG, config.dim, config.rank, index)
    n, k = config.dim, config.rank
    for _ in _attempts("Ginibre", config.seed, index):
        z = rng.standard_normal((2, n, k))
        g = (z[0] + 1j * z[1]) / sqrt(2.0)
        h = g @ g.conj().T
        tr = float(h.trace().real)
        if tr > 1e-300:
            return h / tr


def sample_states(config: SamplerConfig) -> Iterator[np.ndarray]:
    """The full stream of config.count states, in index order."""
    return (sample_state(config, i) for i in range(config.count))


def sample_direction(seed: int, num_coords: int, index: int) -> np.ndarray:
    """Uniform random unit vector in R^num_coords (normalized Gaussian draw)."""
    if num_coords < 3:
        raise DomainError(f"direction space must have >= 3 coordinates, got {num_coords}")
    _check_seed_index(seed, index)
    rng = _generator(seed, _DIRECTION_TAG, num_coords, index)
    v, norm = _gaussian(rng, num_coords, "direction", seed, index)
    return v / norm


def sample_bloch_in_ball(seed: int, num_coords: int, radius: float, index: int) -> np.ndarray:
    """Uniform random vector strictly inside the ball of the given radius.

    Direction times radius * u**(1/d) with u uniform in [0, 1), so the
    result's norm is strictly below the radius.
    """
    if not 0 < radius < np.inf:
        raise DomainError(f"radius must be positive and finite, got {radius}")
    if num_coords < 1:
        raise DomainError(f"vector must have >= 1 coordinate, got {num_coords}")
    _check_seed_index(seed, index)
    rng = _generator(seed, _BALL_TAG, num_coords, index)
    v, norm = _gaussian(rng, num_coords, "ball", seed, index)
    return v * (radius * rng.random() ** (1.0 / num_coords) / norm)


def sample_unit_sum_tuple(seed: int, size: int, index: int) -> np.ndarray:
    """Random real tuple summing to 1: standard normals shifted by 1/n - mean.

    Entries may be negative; used to exercise the sum-of-squares lower bound.
    """
    if size < 1:
        raise DomainError(f"tuple size must be >= 1, got {size}")
    _check_seed_index(seed, index)
    rng = _generator(seed, _TUPLE_TAG, size, index)
    x = rng.standard_normal(size)
    return x - x.mean() + 1.0 / size
