"""Tests for the seedable samplers: determinism, rank control, distributions."""

import sys
import threading

import numpy as np
import pytest

import blochstrata.sampling as sampling
from blochstrata import (
    DomainError,
    NumericError,
    SamplerConfig,
    StateKind,
    build_basis,
    classify,
    from_bloch,
    purity,
    sample_bloch_in_ball,
    sample_direction,
    sample_state,
    sample_states,
    sample_unit_sum_tuple,
    spectrum,
    stratum_radius,
)


def test_state_stream_is_bit_deterministic():
    config = SamplerConfig(seed=2024, dim=4, rank=2, count=5)
    first = [sample_state(config, i) for i in range(5)]
    second = list(sample_states(config))
    for a, b in zip(first, second):
        assert a.tobytes() == b.tobytes()


def test_direction_and_ball_are_deterministic():
    a = sample_direction(55, 8, 3)
    b = sample_direction(55, 8, 3)
    assert a.tobytes() == b.tobytes()
    x = sample_bloch_in_ball(55, 8, 0.4, 3)
    y = sample_bloch_in_ball(55, 8, 0.4, 3)
    assert x.tobytes() == y.tobytes()
    t = sample_unit_sum_tuple(55, 6, 3)
    u = sample_unit_sum_tuple(55, 6, 3)
    assert t.tobytes() == u.tobytes()


def test_numpy_integer_arguments_draw_the_same_stream():
    a = sample_direction(np.uint64(2**64 - 1), np.int64(8), np.int32(3))
    assert a.tobytes() == sample_direction(2**64 - 1, 8, 3).tobytes()
    c = SamplerConfig(seed=np.uint64(55), dim=np.int64(3), rank=np.int8(2), count=1)
    assert sample_state(c, 0).tobytes() == sample_state(SamplerConfig(55, 3, 2, 1), 0).tobytes()
    with pytest.raises(TypeError):
        sample_direction(1.5, 8, 0)


def test_different_indices_differ():
    assert not np.array_equal(sample_direction(55, 8, 0), sample_direction(55, 8, 1))
    c = SamplerConfig(seed=55, dim=3, rank=3, count=2)
    assert not np.array_equal(sample_state(c, 0), sample_state(c, 1))


def test_states_are_valid_density_matrices():
    config = SamplerConfig(seed=1, dim=4, rank=4, count=1000)
    for rho in sample_states(config):
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert np.abs(rho - rho.conj().T).max() <= 1e-14
        assert classify(rho).kind is StateKind.POSITIVE_INTERIOR


def test_rank_one_states_are_pure():
    config = SamplerConfig(seed=8, dim=5, rank=1, count=50)
    for rho in sample_states(config):
        assert purity(rho) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("dim,rank", [(3, 1), (3, 2), (4, 2), (6, 3)])
def test_zero_counts_match_rank(dim, rank):
    config = SamplerConfig(seed=31, dim=dim, rank=rank, count=100)
    for rho in sample_states(config):
        assert spectrum(rho, zero_tol=1e-9).zero_count == dim - rank


def test_directions_are_unit():
    for i in range(100):
        n = sample_direction(9, 15, i)
        assert abs(np.linalg.norm(n) - 1.0) <= 1e-12


def test_direction_empirical_mean_is_centered():
    draws = np.array([sample_direction(123, 8, i) for i in range(10_000)])
    assert np.abs(draws.mean(axis=0)).max() <= 3.0 / np.sqrt(10_000)


def test_ball_vectors_stay_inside_and_positivity_holds():
    dim = 3
    b = build_basis(dim)
    radius = stratum_radius(dim, 1)
    for i in range(200):
        v = sample_bloch_in_ball(77, dim * dim - 1, radius, i)
        assert np.linalg.norm(v) < radius
        rho = from_bloch(b, v)
        assert np.linalg.eigvalsh(rho)[0] >= -1e-10


def test_unit_sum_tuple_sums_to_one():
    for i in range(50):
        t = sample_unit_sum_tuple(4, 7, i)
        assert t.sum() == pytest.approx(1.0, abs=1e-12)


def test_sampler_validation():
    with pytest.raises(DomainError):
        SamplerConfig(seed=-1, dim=3, rank=1, count=1)
    with pytest.raises(DomainError):
        SamplerConfig(seed=0, dim=1, rank=1, count=1)
    with pytest.raises(DomainError):
        SamplerConfig(seed=0, dim=3, rank=4, count=1)
    with pytest.raises(DomainError):
        SamplerConfig(seed=0, dim=3, rank=1, count=-1)
    with pytest.raises(DomainError):
        sample_direction(1, 2, 0)
    with pytest.raises(DomainError):
        sample_bloch_in_ball(1, 8, 0.0, 0)
    with pytest.raises(DomainError):
        sample_bloch_in_ball(1, 8, -1.0, 0)
    with pytest.raises(DomainError):
        sample_bloch_in_ball(1, 8, float("nan"), 0)
    config = SamplerConfig(seed=0, dim=3, rank=1, count=1)
    with pytest.raises(DomainError):
        sample_state(config, -1)


def _zero_first_draws(seed, prefix, indices, shape, uniform=False):
    """Stands in for the keyed block draw: every first draw is degenerate (zero)."""
    return np.zeros((len(indices), *shape)), np.zeros(len(indices)) if uniform else None


class _ZeroRng:
    """Stands in for a generator whose every Gaussian draw is degenerate."""

    def __init__(self):
        self.draws = 0

    def standard_normal(self, shape):
        self.draws += 1
        return np.zeros(shape)

    def random(self):
        return 0.5


@pytest.mark.parametrize(
    "draw",
    [
        lambda: sample_state(SamplerConfig(seed=1, dim=3, rank=2, count=1), 0),
        lambda: sample_direction(1, 8, 0),
        lambda: sample_bloch_in_ball(1, 8, 0.5, 0),
    ],
    ids=["state", "direction", "ball"],
)
def test_degenerate_draws_give_up_after_max_redraws(draw, monkeypatch):
    rng = _ZeroRng()
    monkeypatch.setattr(sampling, "_draws", _zero_first_draws)
    monkeypatch.setattr(sampling, "_generator", lambda *key: rng)
    with pytest.raises(NumericError, match="degenerate"):
        draw()
    assert rng.draws == sampling._MAX_REDRAWS


class _TinyThenOnesRng(_ZeroRng):
    """A generator whose first Gaussian draw is too short to normalize."""

    def standard_normal(self, shape):
        self.draws += 1
        return np.full(shape, 1e-151 if self.draws == 1 else 1.0)


@pytest.mark.parametrize(
    "draw,expected",
    [
        (lambda: sample_direction(1, 4, 0), np.full(4, 0.5)),
        (lambda: sample_bloch_in_ball(1, 4, 0.5, 0), np.full(4, 0.25 * 0.5 ** 0.25)),
    ],
    ids=["direction", "ball"],
)
def test_a_too_short_gaussian_draw_is_redrawn(draw, expected, monkeypatch):
    rng = _TinyThenOnesRng()
    monkeypatch.setattr(sampling, "_draws", _zero_first_draws)
    monkeypatch.setattr(sampling, "_generator", lambda *key: rng)
    np.testing.assert_allclose(draw(), expected, rtol=1e-15)
    assert rng.draws == 2


def test_every_sampler_words_seed_and_index_errors_alike():
    config = SamplerConfig(seed=0, dim=3, rank=1, count=1)
    bad_seed = [
        lambda: SamplerConfig(seed=2**64, dim=3, rank=1, count=1),
        lambda: sample_direction(2**64, 8, 0),
        lambda: sample_bloch_in_ball(2**64, 8, 0.5, 0),
        lambda: sample_unit_sum_tuple(2**64, 4, 0),
    ]
    bad_index = [
        lambda: sample_state(config, -1),
        lambda: sample_direction(0, 8, -1),
        lambda: sample_bloch_in_ball(0, 8, 0.5, -1),
        lambda: sample_unit_sum_tuple(0, 4, -1),
    ]
    for draws, message in [
        (bad_seed, f"seed must be a 64-bit unsigned integer, got {2**64}"),
        (bad_index, "index must be >= 0, got -1"),
    ]:
        for draw in draws:
            with pytest.raises(DomainError) as exc:
                draw()
            assert str(exc.value) == message


# Per-index generators built the documented way, with each sampler's formula,
# independently of the block forms: the reference every block draw must equal.
def _reference(seed, tag, *shape_and_index):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(tag, *shape_and_index))
    return np.random.Generator(np.random.Philox(ss))


def _reference_state(seed, dim, rank, index):
    z = _reference(seed, sampling._STATE_TAG, dim, rank, index).standard_normal((2, dim, rank))
    g = (z[0] + 1j * z[1]) / np.sqrt(2.0)
    h = g @ g.conj().T
    return h / float(h.trace().real)


def _reference_direction(seed, num_coords, index):
    v = _reference(seed, sampling._DIRECTION_TAG, num_coords, index).standard_normal(num_coords)
    return v / float(np.linalg.norm(v))


def _reference_ball(seed, num_coords, radius, index):
    rng = _reference(seed, sampling._BALL_TAG, num_coords, index)
    v = rng.standard_normal(num_coords)
    return v * (radius * rng.random() ** (1.0 / num_coords) / float(np.linalg.norm(v)))


def _reference_tuple(seed, size, index):
    x = _reference(seed, sampling._TUPLE_TAG, size, index).standard_normal(size)
    return x - x.mean() + 1.0 / size


SEEDS = [0, 2**32 + 7, 2**64 - 1]
# (block form, reference) pairs with the same trailing arguments
SAMPLERS = {
    "state": (
        lambda seed, idx: sampling._state_block(SamplerConfig(seed, 4, 2, 1), idx),
        lambda seed, i: _reference_state(seed, 4, 2, i),
    ),
    "state-pure": (
        lambda seed, idx: sampling._state_block(SamplerConfig(seed, 3, 1, 1), idx),
        lambda seed, i: _reference_state(seed, 3, 1, i),
    ),
    "direction": (
        lambda seed, idx: sampling._direction_block(seed, 15, idx),
        lambda seed, i: _reference_direction(seed, 15, i),
    ),
    "ball": (
        lambda seed, idx: sampling._ball_block(seed, 8, 0.4, idx),
        lambda seed, i: _reference_ball(seed, 8, 0.4, i),
    ),
    "tuple": (
        lambda seed, idx: sampling._tuple_block(seed, 9, idx),
        lambda seed, i: _reference_tuple(seed, 9, i),
    ),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("prefix", [(0, 4, 2), (1, 15), (2, 8), (3, 7), (1, 2**32 + 5)])
def test_block_keys_equal_seed_sequence_state(seed, prefix):
    indices = [*range(0, 3000, 7), 2**32 - 1]
    expected = np.array([
        np.random.SeedSequence(entropy=seed, spawn_key=(*prefix, i)).generate_state(2, np.uint64)
        for i in indices
    ])
    assert np.array_equal(sampling._keys(seed, prefix, indices), expected)
    # one index takes the Python-int path
    for i in (0, 7, 2**32 - 1):
        assert np.array_equal(sampling._keys(seed, prefix, [i]), expected[indices.index(i)][None])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", SAMPLERS)
def test_block_draws_equal_generators_built_per_index(seed, name):
    # pins the reliance on numpy's Philox state layout and SeedSequence hash:
    # if either changes, this fails instead of the stream drifting
    block, reference = SAMPLERS[name]
    # a plain block, and one across 2**32, where the spawn key gains a word
    for indices in (range(40), range(2**32 - 3, 2**32 + 3)):
        expected = np.stack([reference(seed, i) for i in indices])
        assert block(seed, indices).tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", ["state", "state-pure", "direction", "ball"])
def test_a_degenerate_draw_mid_block_is_redrawn_from_its_own_generator(name, monkeypatch):
    block, reference = SAMPLERS[name]
    draws = sampling._draws
    redrawn = []

    def zero_row_5(seed, prefix, indices, shape, uniform=False):
        z, u = draws(seed, prefix, indices, shape, uniform)
        z[5] = 0.0
        return z, u

    def generator(seed, *key):
        redrawn.append(key[-1])
        return _reference(seed, *key)

    monkeypatch.setattr(sampling, "_draws", zero_row_5)
    monkeypatch.setattr(sampling, "_generator", generator)
    indices = range(100, 112)
    expected = np.stack([reference(7, i) for i in indices])
    assert block(7, indices).tobytes() == expected.tobytes()
    assert redrawn == [105]


def test_blocks_report_the_draws_before_a_failing_one_first():
    block = sampling.SCAN_BLOCK

    def draw(indices):
        if block + 5 in indices:
            raise NumericError("synthetic failure")
        return np.array(indices)[:, None]

    stacks = sampling._blocks(3 * block, draw)
    assert next(stacks).ravel().tolist() == list(range(block))
    assert next(stacks).ravel().tolist() == list(range(block, block + 5))
    with pytest.raises(NumericError, match="synthetic failure"):
        next(stacks)


def test_state_stream_yields_the_states_before_a_failing_draw(monkeypatch):
    config = SamplerConfig(seed=3, dim=3, rank=2, count=2 * sampling.SCAN_BLOCK)
    expected = list(sample_states(config))
    fail_at = sampling.SCAN_BLOCK + 40
    draws = sampling._draws

    def zero_failing_row(seed, prefix, indices, shape, uniform=False):
        z, u = draws(seed, prefix, indices, shape, uniform)
        z[[j for j, i in enumerate(indices) if i == fail_at]] = 0.0
        return z, u

    monkeypatch.setattr(sampling, "_draws", zero_failing_row)
    monkeypatch.setattr(sampling, "_generator", lambda *key: _ZeroRng())
    got = []
    with pytest.raises(NumericError, match=f"index={fail_at}"):
        for rho in sample_states(config):
            got.append(rho)
    assert len(got) == fail_at
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))


def test_threads_drawing_at_once_get_their_own_streams():
    # each thread resets its own Philox; a shared one would mix the streams
    seeds = range(4)
    expected = {s: sampling._direction_block(s, 8, range(300)).tobytes() for s in seeds}
    got = {}

    def work(seed):
        for _ in range(5):
            got[seed] = sampling._direction_block(seed, 8, range(300)).tobytes()
            if got[seed] != expected[seed]:
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == expected
