"""Tests for the seedable samplers: determinism, rank control, distributions."""

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
