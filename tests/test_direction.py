"""Tests for directional matrices, mu-spectra, admissible lengths, and cap states."""

from math import sqrt

import numpy as np
import pytest

from blochstrata import (
    DomainError,
    StateKind,
    build_basis,
    classify,
    direction_report,
    directional_matrix,
    directional_matrix_of_boundary,
    expand,
    extremal_spectra,
    purity,
    sample_direction,
    spectrum,
    state_along,
    stratum_radius,
)


@pytest.fixture(scope="module")
def basis3():
    return build_basis(3)


def test_qubit_z_direction():
    b = build_basis(2)
    t = directional_matrix(b, np.array([0.0, 0.0, 1.0]))
    np.testing.assert_allclose(t, np.diag([1.0, -1.0]) / sqrt(2.0), atol=1e-15)


def test_coordinate_directions_pick_basis_elements(basis3):
    for j in range(8):
        n = np.zeros(8)
        n[j] = 1.0
        np.testing.assert_allclose(
            directional_matrix(basis3, n), basis3[j], atol=1e-15
        )


def test_opposite_direction_negates(basis3):
    rng = np.random.default_rng(5)
    v = rng.standard_normal(8)
    v /= np.linalg.norm(v)
    np.testing.assert_allclose(
        directional_matrix(basis3, -v), -directional_matrix(basis3, v), atol=1e-15
    )


def test_rejects_non_unit_direction(basis3):
    with pytest.raises(DomainError):
        directional_matrix(basis3, np.full(8, 0.5))


def test_nan_inputs_are_rejected(basis3):
    with pytest.raises(DomainError):
        directional_matrix(basis3, np.full(8, np.nan))
    with pytest.raises(DomainError):
        state_along(basis3, np.eye(8)[0], float("nan"))


def test_qubit_report():
    b = build_basis(2)
    rep = direction_report(b, np.array([0.0, 0.0, 1.0]))
    np.testing.assert_allclose(rep.mu, [sqrt(0.5), -sqrt(0.5)], atol=1e-15)
    assert rep.max_length == pytest.approx(sqrt(0.5), abs=1e-15)
    assert rep.cap_state_class.kind is StateKind.BOUNDARY
    assert rep.cap_zero_count == 1
    cap = state_along(b, np.array([0.0, 0.0, 1.0]), rep.max_length)
    np.testing.assert_allclose(cap, np.diag([1.0, 0.0]), atol=1e-15)


def test_top_heavy_direction_reaches_large_sphere(basis3):
    top_heavy, _ = extremal_spectra(3)
    n = expand(basis3, np.diag(top_heavy))
    rep = direction_report(basis3, n)
    assert rep.max_length == pytest.approx(sqrt(2.0 / 3.0), abs=1e-12)
    cap = state_along(basis3, n, rep.max_length)
    assert purity(cap) == pytest.approx(1.0, abs=1e-10)


def test_bottom_heavy_direction_stops_at_small_sphere(basis3):
    _, bottom_heavy = extremal_spectra(3)
    n = expand(basis3, np.diag(bottom_heavy))
    rep = direction_report(basis3, n)
    assert rep.max_length == pytest.approx(sqrt(1.0 / 6.0), abs=1e-12)
    cap = state_along(basis3, n, rep.max_length)
    np.testing.assert_allclose(
        spectrum(cap).values, [0.5, 0.5, 0.0], atol=1e-10
    )


def test_extremal_spectra_values():
    top, bottom = extremal_spectra(3)
    np.testing.assert_allclose(
        top, [sqrt(2.0 / 3.0), -1.0 / sqrt(6.0), -1.0 / sqrt(6.0)], atol=1e-15
    )
    # both cases coincide at N=2
    top2, bottom2 = extremal_spectra(2)
    np.testing.assert_allclose(top2, [sqrt(0.5), -sqrt(0.5)], atol=1e-15)
    np.testing.assert_allclose(bottom2, top2, atol=1e-15)
    _, bottom4 = extremal_spectra(4)
    np.testing.assert_allclose(
        bottom4,
        [1.0 / sqrt(12.0)] * 3 + [-sqrt(3.0 / 4.0)],
        atol=1e-15,
    )


@pytest.mark.parametrize("dim", range(2, 9))
def test_extremal_spectra_sum_rules(dim):
    for mu in extremal_spectra(dim):
        assert abs(mu.sum()) <= 1e-14
        assert abs(mu @ mu - 1.0) <= 1e-14


def test_boundary_directional_matrix_n3_q2(basis3):
    t = directional_matrix_of_boundary(3, 2)
    np.testing.assert_allclose(
        np.diag(t).real, [sqrt(1.0 / 6.0), sqrt(1.0 / 6.0), -sqrt(2.0 / 3.0)], atol=1e-15
    )
    assert abs(t.trace()) <= 1e-15
    assert abs(np.vdot(t, t).real - 1.0) <= 1e-14
    # reconstructs R(2) at the stratum length
    rebuilt = np.eye(3) / 3 + sqrt(1.0 / 6.0) * t
    np.testing.assert_allclose(rebuilt, np.diag([0.5, 0.5, 0.0]), atol=1e-14)


def test_boundary_directional_matrix_qubit():
    t = directional_matrix_of_boundary(2, 1)
    np.testing.assert_allclose(t, np.diag([sqrt(0.5), -sqrt(0.5)]), atol=1e-15)


@pytest.mark.parametrize("dim", range(2, 7))
def test_boundary_direction_of_max_rank_matches_bottom_heavy_case(dim):
    t = directional_matrix_of_boundary(dim, dim - 1)
    _, bottom_heavy = extremal_spectra(dim)
    np.testing.assert_allclose(np.diag(t).real, bottom_heavy, atol=1e-14)


def test_boundary_directional_matrix_range():
    with pytest.raises(DomainError):
        directional_matrix_of_boundary(3, 0)
    with pytest.raises(DomainError):
        directional_matrix_of_boundary(3, 3)


def test_mu_antisymmetry_under_direction_reversal(basis3):
    for i in range(20):
        n = sample_direction(123, 8, i)
        mu_fwd = direction_report(basis3, n).mu
        mu_bwd = direction_report(basis3, -n).mu
        np.testing.assert_allclose(mu_fwd, -mu_bwd[::-1], atol=1e-10)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_random_direction_invariants(dim):
    b = build_basis(dim)
    small = stratum_radius(dim, 1)
    large = stratum_radius(dim, dim - 1)
    peak = sqrt((dim - 1) / dim)
    for i in range(50):
        n = sample_direction(7 * dim, dim * dim - 1, i)
        rep = direction_report(b, n)
        assert abs(rep.mu.sum()) <= 1e-10
        assert abs(rep.mu @ rep.mu - 1.0) <= 1e-10
        assert rep.mu[0] > 0 > rep.mu[-1]
        assert rep.mu[0] <= peak + 1e-10
        assert rep.mu[-1] >= -peak - 1e-10
        assert small - 1e-9 <= rep.max_length <= large + 1e-9
        # the cap sits exactly on the positivity boundary
        cap = state_along(b, n, rep.max_length)
        w = np.linalg.eigvalsh(cap)
        assert abs(w[0]) <= 1e-10
        assert rep.cap_state_class.kind is StateKind.BOUNDARY
        # inside the cap the state is strictly positive, beyond it is not
        inside = classify(state_along(b, n, rep.max_length * 0.9))
        assert inside.kind is StateKind.POSITIVE_INTERIOR
        outside = classify(state_along(b, n, rep.max_length + 1e-3))
        assert outside.kind is StateKind.NONPOSITIVE
