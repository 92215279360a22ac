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
    # True is not the integer 1, though operator.index reads it so
    with pytest.raises(DomainError, match="rank must be an integer, got True"):
        SamplerConfig(1, 2, True, 1)
    with pytest.raises(DomainError, match="size must be an integer, got True"):
        sample_unit_sum_tuple(1, True, 0)
    with pytest.raises(DomainError, match="num_coords must be an integer, got True"):
        sample_bloch_in_ball(1, True, 0.5, 0)
    with pytest.raises(DomainError, match="seed must be an integer, got True"):
        sample_direction(True, 8, True)
    with pytest.raises(DomainError):
        sample_direction(1.5, 8, 0)


@pytest.mark.parametrize("draw,message", [
    pytest.param(lambda: SamplerConfig(seed=1, dim=3.0, rank=1, count=1),
                 "dim must be an integer, got 3.0", id="config-dim"),
    pytest.param(lambda: SamplerConfig(seed=1, dim=3, rank=1, count=1.0),
                 "count must be an integer, got 1.0", id="config-count"),
    pytest.param(lambda: sample_direction(1, 8.0, 0),
                 "num_coords must be an integer, got 8.0", id="direction-num-coords"),
    pytest.param(lambda: sample_direction(1.0, 8, 0),
                 "seed must be an integer, got 1.0", id="direction-seed"),
    pytest.param(lambda: sample_unit_sum_tuple(1, 3.5, 0),
                 "size must be an integer, got 3.5", id="tuple-size"),
    pytest.param(lambda: sample_bloch_in_ball(1, 8.0, 0.5, 0),
                 "num_coords must be an integer, got 8.0", id="ball-num-coords"),
    pytest.param(lambda: sample_state(SamplerConfig(1, 3, 1, 1), 1.0),
                 "index must be an integer, got 1.0", id="state-index"),
    pytest.param(lambda: sample_direction(1, 8, "0"),
                 "index must be an integer, got '0'", id="direction-string-index"),
])
def test_non_integer_sampler_arguments_are_domain_errors(draw, message):
    with pytest.raises(DomainError) as exc:
        draw()
    assert str(exc.value) == message


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
    with pytest.raises(DomainError, match="radius"):
        sample_bloch_in_ball(1, 8, "0.5", 0)
    with pytest.raises(DomainError, match="radius"):
        sample_bloch_in_ball(1, 8, None, 0)
    with pytest.raises(DomainError):
        sample_bloch_in_ball(1, 0, 0.5, 0)
    config = SamplerConfig(seed=0, dim=3, rank=1, count=1)
    with pytest.raises(DomainError):
        sample_state(config, -1)


def _draws_filled_with(monkeypatch, value, u=None):
    """Wraps the keyed block draw so every Gaussian entry is value (and u, if given)."""
    draws = sampling._draws
    calls = []

    def filled(seed, prefix, indices, shape, uniform=False):
        calls.append(list(indices))
        z, drawn_u = draws(seed, prefix, indices, shape, uniform)
        z[...] = value
        if u is not None and drawn_u is not None:
            drawn_u[...] = u
        return z, drawn_u

    monkeypatch.setattr(sampling, "_draws", filled)
    return calls


@pytest.mark.parametrize(
    "draw,kind",
    [
        (lambda: sample_state(SamplerConfig(seed=1, dim=3, rank=2, count=1), 0), "Ginibre"),
        (lambda: sample_direction(1, 8, 0), "direction"),
        (lambda: sample_bloch_in_ball(1, 8, 0.5, 0), "ball"),
    ],
    ids=["state", "direction", "ball"],
)
def test_a_degenerate_draw_is_a_numeric_error(draw, kind, monkeypatch):
    # an all-zero draw is a NumericError at once: each index is drawn once
    calls = _draws_filled_with(monkeypatch, 0.0)
    with pytest.raises(NumericError) as exc:
        draw()
    assert str(exc.value) == f"degenerate {kind} draw (seed=1, index=0)"
    assert calls == [[0]]


@pytest.mark.parametrize(
    "draw,expected",
    [
        (lambda: sample_direction(1, 4, 0), np.full(4, 0.5)),
        (lambda: sample_bloch_in_ball(1, 4, 0.5, 0), np.full(4, 0.25 * 0.5 ** 0.25)),
    ],
    ids=["direction", "ball"],
)
def test_a_too_short_gaussian_draw_is_a_numeric_error(draw, expected, monkeypatch):
    # entries of 1e-151 have norm 2e-151, below _MIN_GAUSSIAN_NORM: not redrawn, a NumericError
    calls = _draws_filled_with(monkeypatch, 1e-151, u=0.5)
    with pytest.raises(NumericError, match=r"degenerate \w+ draw \(seed=1, index=0\)"):
        draw()
    assert calls == [[0]]
    # entries of 1e-149 have norm 2e-149, above it: normalized like any draw
    _draws_filled_with(monkeypatch, 1e-149, u=0.5)
    np.testing.assert_allclose(draw(), expected, rtol=1e-15)


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


def _seed_sequence_keys(seed, prefix, indices):
    return np.array([
        np.random.SeedSequence(entropy=seed, spawn_key=(*prefix, i)).generate_state(2, np.uint64)
        for i in indices
    ])


# 2**32 + 1 too: the least two-word seed but one, its high word 1
@pytest.mark.parametrize("seed", [*SEEDS, 2**32 + 1])
@pytest.mark.parametrize("prefix", [(0, 4, 2), (1, 15), (2, 8), (3, 7), (1, 2**32 + 5)])
def test_block_keys_equal_seed_sequence_state(seed, prefix):
    # an index from 2**32 on has more words; it takes SeedSequence itself
    indices = [*range(0, 3000, 7), 2**32 - 1, 2**32, 2**40 + 3, 2**64, 2**70]
    expected = _seed_sequence_keys(seed, prefix, indices)
    assert np.array_equal(sampling._keys(seed, prefix, indices), expected)
    # one index takes the Python-int path
    for i in (0, 7, 2**32 - 1, 2**32, 2**40 + 3, 2**64, 2**70):
        assert np.array_equal(sampling._keys(seed, prefix, [i]), expected[indices.index(i)][None])
    # the one-pass hash of a block, at block sizes around SCAN_BLOCK and in a block
    # that mixes indices below and above 2**32, against SeedSequence and single indices
    for indices in (*(range(300, 300 + size) for size in (2, 255, 256, 257)),
                    range(2**32 - 128, 2**32 + 128)):
        expected = _seed_sequence_keys(seed, prefix, indices)
        assert np.array_equal(sampling._keys(seed, prefix, indices), expected)
        singles = [sampling._keys(seed, prefix, [i])[0] for i in indices]
        assert np.array_equal(np.array(singles), expected)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", SAMPLERS)
def test_block_draws_equal_generators_built_per_index(seed, name):
    # pins the reliance on numpy's Philox state layout and SeedSequence hash:
    # if either changes, this fails instead of the stream drifting
    block, reference = SAMPLERS[name]
    # a plain block, and ones across 2**32 and 2**64, where the spawn key gains a word
    for indices in (range(40), range(2**32 - 3, 2**32 + 3), range(2**64 - 3, 2**64 + 3)):
        expected = np.stack([reference(seed, i) for i in indices])
        assert block(seed, indices).tobytes() == expected.tobytes()


def _zero_row_of(monkeypatch, zeroed):
    """Wraps the keyed block draw so the Gaussian draw of each index in zeroed is all zero."""
    draws = sampling._draws
    calls = []

    def zero_row(seed, prefix, indices, shape, uniform=False):
        calls.append(list(indices))
        z, u = draws(seed, prefix, indices, shape, uniform)
        for row, index in enumerate(indices):
            if index in zeroed:
                z[row] = 0.0
        return z, u

    monkeypatch.setattr(sampling, "_draws", zero_row)
    return calls


@pytest.mark.parametrize("name", ["state", "state-pure", "direction", "ball"])
def test_a_degenerate_draw_mid_block_fails_naming_its_index(name, monkeypatch):
    # a zero draw mid-block fails the block, naming its index, and is not drawn again;
    # of two zero draws in one block, the one of the lower index is named
    block, _ = SAMPLERS[name]
    for zeroed, named in (({105}, 105), ({108, 103}, 103)):
        with monkeypatch.context() as patch:
            calls = _zero_row_of(patch, zeroed)
            message = rf"degenerate \w+ draw \(seed=7, index={named}\)$"
            with pytest.raises(NumericError, match=message):
                block(7, range(100, 112))
        assert calls == [list(range(100, 112))]


def test_blocks_report_the_draws_before_a_failing_one_first():
    block = sampling.SCAN_BLOCK

    def draw(indices):
        if block + 5 in indices:
            raise NumericError("synthetic failure")
        return np.array(indices)[:, None]

    stacks = sampling._blocks(3 * block, draw, 8)  # an item of one int64: blocks of SCAN_BLOCK
    indices, stack = next(stacks)
    assert indices == range(block) and stack.ravel().tolist() == list(range(block))
    # the failing block yields none of the draws before its failing index
    with pytest.raises(NumericError, match="synthetic failure"):
        next(stacks)


def test_a_count_of_0_yields_no_block_and_makes_no_draw(monkeypatch):
    calls = []

    def draw(indices):
        calls.append(indices)
        return np.array(indices)[:, None]

    assert list(sampling._blocks(0, draw, 8)) == [] and calls == []
    # a SamplerConfig has checked the count, so a stream of 0 states has nothing to draw
    monkeypatch.setattr(sampling, "_state_block", lambda config, indices: draw(indices))
    assert list(sample_states(SamplerConfig(seed=1, dim=3, rank=2, count=0))) == []
    assert calls == []


def test_a_block_is_256_items_up_to_n_64_then_16_mib_per_complex_stack():
    # an item's bytes: 16 N**2 for a complex N x N matrix, 8 n for a tuple of n floats
    def matrices(n):
        return sampling._block_size(16 * n * n)

    assert [matrices(n) for n in range(2, 65)] == [sampling.SCAN_BLOCK] * 63
    assert matrices(65) == 248  # 16 MiB over 65 x 65 x 16 bytes
    assert matrices(724) == 2
    assert matrices(725) == matrices(10**7) == 1
    assert sampling._block_size(8 * 8192) == 256
    assert sampling._block_size(8 * 8193) == 255


def test_a_state_stream_past_n_64_is_drawn_in_smaller_blocks(monkeypatch):
    sizes = []
    draw = sampling._state_block

    def counted(config, indices):
        sizes.append(len(indices))
        return draw(config, indices)

    monkeypatch.setattr(sampling, "_state_block", counted)
    config = SamplerConfig(seed=3, dim=65, rank=1, count=250)
    states = list(sample_states(config))
    assert sizes == [248, 2]
    assert all(rho.tobytes() == sample_state(config, i).tobytes() for i, rho in enumerate(states))


def test_state_stream_yields_the_states_before_a_failing_draw(monkeypatch):
    config = SamplerConfig(seed=3, dim=3, rank=2, count=2 * sampling.SCAN_BLOCK)
    expected = list(sample_states(config))
    fail_at = sampling.SCAN_BLOCK + 40
    _zero_row_of(monkeypatch, {fail_at})
    got = []
    with pytest.raises(NumericError, match=f"index={fail_at}"):
        for rho in sample_states(config):
            got.append(rho)
    assert len(got) == sampling.SCAN_BLOCK  # the block before the failing draw's block
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
