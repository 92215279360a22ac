"""Tests for state/Bloch-vector conversion, spectra, purity, and classification."""

from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blochstrata import (
    DomainError,
    NumericError,
    StateKind,
    build_basis,
    check_density,
    check_hermitian,
    classify,
    direction_report,
    directional_matrix,
    expand,
    extremal_spectra,
    from_bloch,
    maximally_mixed,
    purity,
    spectrum,
    stratum_report,
    to_bloch,
)


@pytest.fixture(scope="module")
def basis2():
    return build_basis(2)


@pytest.fixture(scope="module")
def basis3():
    return build_basis(3)


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_zero_vector_maps_to_maximally_mixed(dim):
    b = build_basis(dim)
    rho = from_bloch(b, np.zeros(dim * dim - 1))
    np.testing.assert_allclose(rho, np.eye(dim) / dim, atol=1e-15)


def test_pure_qubit_from_bloch(basis2):
    rho = from_bloch(basis2, np.array([0.0, 0.0, 1.0 / sqrt(2.0)]))
    np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-15)


def test_vector_outside_small_sphere_can_be_nonpositive(basis3):
    # along the direction whose matrix has one large negative eigenvalue,
    # length 0.9 overshoots the admissible cap
    _, bottom_heavy = extremal_spectra(3)
    n = expand(basis3, np.diag(bottom_heavy))
    rho = from_bloch(basis3, 0.9 * n)
    w = np.linalg.eigvalsh(rho)
    assert w[0] == pytest.approx(1.0 / 3.0 - 0.9 * sqrt(2.0 / 3.0), abs=1e-12)
    assert w[0] < 0


def test_to_bloch_of_maximally_mixed(basis3):
    np.testing.assert_allclose(to_bloch(basis3, maximally_mixed(3)), 0.0, atol=1e-15)


def test_to_bloch_of_pure_qubit(basis2):
    v = to_bloch(basis2, np.diag([1.0, 0.0]))
    np.testing.assert_allclose(v, [0.0, 0.0, 1.0 / sqrt(2.0)], atol=1e-15)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_round_trip_random_vectors(dim):
    rng = np.random.default_rng(11)
    b = build_basis(dim)
    for _ in range(100):
        v = rng.standard_normal(dim * dim - 1) * 0.3
        back = to_bloch(b, from_bloch(b, v))
        assert np.abs(back - v).max() <= 1e-12


@pytest.mark.parametrize("dim", range(2, 17))
def test_closed_form_from_bloch_matches_dense_contraction(dim):
    rng = np.random.default_rng(100 + dim)
    b = build_basis(dim)
    for _ in range(5):
        v = rng.uniform(-1, 1, dim * dim - 1)
        dense = maximally_mixed(dim) + np.tensordot(v, b.elements, axes=(0, 0))
        assert np.abs(from_bloch(b, v) - dense).max() <= 1e-15


@pytest.mark.parametrize("dim", [2, 3, 7])
def test_from_bloch_of_unit_vector_is_element(dim):
    b = build_basis(dim)
    for k, e in enumerate(np.eye(len(b))):
        np.testing.assert_allclose(from_bloch(b, e) - maximally_mixed(dim), b[k], atol=1e-15)


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_from_bloch_agrees_with_directional_matrix(dim):
    rng = np.random.default_rng(dim)
    b = build_basis(dim)
    for _ in range(10):
        v = rng.standard_normal(dim * dim - 1)
        v /= np.linalg.norm(v)
        shifted = from_bloch(b, v) - maximally_mixed(dim)
        assert np.abs(shifted - directional_matrix(b, v)).max() <= 1e-15


def test_round_trip_at_dim_64_never_builds_the_element_tensor():
    rng = np.random.default_rng(64)
    g = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    b = build_basis(64)
    back = from_bloch(b, to_bloch(b, rho))
    assert np.abs(back - rho).max() <= 1e-12
    assert "elements" not in vars(b)


def test_non_finite_results_are_numeric_errors():
    huge = np.array([[0.5, 1.7e308], [1.7e308, 0.5]], dtype=complex)
    with pytest.raises(NumericError, match="not finite"):
        to_bloch(build_basis(2), huge)
    with pytest.raises(NumericError, match="not finite"):
        from_bloch(build_basis(8), np.full(63, 1e308))


def test_eigenvalues_of_entries_near_float_max():
    # (m + m^H)/2 would overflow to inf and feed NaN to the eigensolver
    huge = np.array([[0.5, 1.7e308], [1.7e308, 0.5]], dtype=complex)
    np.testing.assert_allclose(spectrum(huge).values, [1.7e308, -1.7e308])
    assert classify(huge).kind is StateKind.NONPOSITIVE
    with pytest.raises(DomainError, match="positive semidefinite"):
        check_density(huge)


def test_to_bloch_rejects_non_unit_trace(basis2):
    with pytest.raises(DomainError):
        to_bloch(basis2, np.diag([1.0, 1.0]))


def test_from_bloch_rejects_wrong_length(basis3):
    with pytest.raises(DomainError):
        from_bloch(basis3, np.zeros(3))


def test_spectrum_of_diagonal():
    s = spectrum(np.diag([0.5, 0.5, 0.0]), zero_tol=1e-9)
    np.testing.assert_allclose(s.values, [0.5, 0.5, 0.0], atol=1e-15)
    assert s.zero_count == 1


def test_spectrum_of_maximally_mixed():
    s = spectrum(maximally_mixed(4), zero_tol=1e-9)
    np.testing.assert_allclose(s.values, [0.25] * 4, atol=1e-15)
    assert s.zero_count == 0


def test_spectrum_unitary_invariance():
    rng = np.random.default_rng(3)
    diag = np.array([0.7, 0.3, 0.0, 0.0])
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u, _ = np.linalg.qr(a)
    rho = u @ np.diag(diag).astype(complex) @ u.conj().T
    s = spectrum(rho, zero_tol=1e-9)
    np.testing.assert_allclose(s.values, diag, atol=1e-10)
    assert s.zero_count == 2


def test_purity_values():
    assert purity(maximally_mixed(5)) == pytest.approx(0.2, abs=1e-15)
    assert purity(np.diag([1.0, 0.0, 0.0])) == pytest.approx(1.0, abs=1e-15)
    assert purity(np.diag([0.5, 0.5, 0.0])) == pytest.approx(0.5, abs=1e-15)


def test_classify_cases():
    assert classify(maximally_mixed(3)).kind is StateKind.POSITIVE_INTERIOR
    boundary = classify(np.diag([0.5, 0.5, 0.0]))
    assert boundary.kind is StateKind.BOUNDARY and boundary.zero_count == 1
    assert boundary.label == "boundary(1)"
    bad = classify(np.diag([2.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0]))
    assert bad.kind is StateKind.NONPOSITIVE
    with pytest.raises(DomainError):
        classify(np.diag([1.0, 1.0, 0.0]))


def test_classify_rejects_non_hermitian():
    with pytest.raises(DomainError):
        classify(np.array([[0.5, 1.0], [0.0, 0.5]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
@pytest.mark.parametrize(
    "check",
    [check_hermitian, check_density, classify, lambda m: to_bloch(build_basis(2), m)],
    ids=["check_hermitian", "check_density", "classify", "to_bloch"],
)
def test_non_finite_entries_are_rejected(check, where, bad):
    m = np.diag([0.5, 0.5]).astype(complex)
    m[where] = bad
    with pytest.raises(DomainError, match="non-finite"):
        check(m)


@pytest.mark.parametrize("zero_tol", [np.nan, np.inf, 0.0, -1e-9])
@pytest.mark.parametrize(
    "entry",
    [
        spectrum,
        classify,
        stratum_report,
        lambda m, zero_tol: direction_report(build_basis(3), np.eye(8)[0], zero_tol),
    ],
    ids=["spectrum", "classify", "stratum_report", "direction_report"],
)
def test_zero_tol_must_be_positive_and_finite(entry, zero_tol):
    with pytest.raises(DomainError, match="zero_tol"):
        entry(maximally_mixed(3), zero_tol=zero_tol)


def test_from_bloch_rejects_non_finite(basis3):
    v = np.zeros(8)
    v[3] = np.nan
    with pytest.raises(DomainError, match="non-finite"):
        from_bloch(basis3, v)


@settings(deadline=None, max_examples=50)
@given(arrays(np.float64, shape=8, elements=st.floats(-0.5, 0.5)))
def test_length_identity_and_round_trip_property(coords):
    b = build_basis(3)
    rho = from_bloch(b, coords)
    # |V|^2 == Tr{rho^2} - 1/N for every unit-trace Hermitian matrix
    assert coords @ coords == pytest.approx(purity(rho) - 1.0 / 3.0, abs=1e-10)
    assert np.abs(to_bloch(b, rho) - coords).max() <= 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_density_matrices_stay_inside_large_sphere(dim):
    rng = np.random.default_rng(17)
    b = build_basis(dim)
    bound = sqrt((dim - 1) / dim)
    for _ in range(200):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        v = to_bloch(b, rho)
        assert np.linalg.norm(v) <= bound + 1e-10
