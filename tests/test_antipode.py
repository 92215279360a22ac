"""Tests for antipodal states and the boundary-to-boundary pairing."""

import tracemalloc
from math import sqrt

import numpy as np
import pytest

from blochstrata import (
    DomainError,
    NumericError,
    StateClass,
    StateKind,
    antipodal_family,
    antipodal_state,
    antipode_of_boundary,
    boundary_state,
    build_basis,
    direction_report,
    directional_matrix_of_boundary,
    expand,
    max_antipodal_length,
    maximally_mixed,
    spectrum,
    state_along,
    stratum_radius,
    stratum_report,
    to_bloch,
)
from blochstrata.antipode import SPECTRAL_MATCH_TOL
from blochstrata.states import hermitian_eigenvalues


@pytest.mark.parametrize("dim", range(2, 13))
def test_antipodal_cap_is_the_center_minus_the_scaled_direction(dim):
    # the cap is (1/N) I - r T, and antipodal_family at the cap length has its bits
    for rank in range(1, dim):
        t = directional_matrix_of_boundary(dim, rank)
        length = max_antipodal_length(dim, rank)
        cap = maximally_mixed(dim) - length * t
        assert antipode_of_boundary(dim, rank).antipodal_cap.tobytes() == cap.tobytes()
        assert antipodal_family(dim, rank, length)[0].tobytes() == cap.tobytes()


def test_antipode_of_boundary_holds_two_and_a_half_matrices_at_its_peak():
    dim = 300
    matrix = dim * dim * 16  # bytes of one complex N x N matrix
    antipode_of_boundary(dim, 1)  # imports and caches
    for rank in (1, dim // 2, dim - 1):
        tracemalloc.start()
        try:
            antipode_of_boundary(dim, rank)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the cap beside the gate's buffer and its real magnitude: the cap is built in the
        # direction matrix, the eigensolve copies nothing, R(N-q)'s spectrum is its diagonal,
        # and the gate's buffer is dropped before R(q) is built
        assert peak <= 2.75 * matrix


@pytest.mark.parametrize("dim", range(2, 81))
def test_the_complement_spectrum_is_the_eigensolvers_bit_for_bit(dim):
    # antipode_of_boundary takes R(N-q)'s ascending spectrum from its diagonal, not an eigensolve
    for rank in range(1, dim):
        closed = np.repeat((0.0, 1.0 / (dim - rank)), (rank, dim - rank))
        solved = hermitian_eigenvalues(boundary_state(dim, dim - rank))
        assert closed.view(np.uint64).tolist() == solved.view(np.uint64).tolist()
        assert antipode_of_boundary(dim, rank).matches_complement


def test_zero_length_is_maximally_mixed():
    b = build_basis(3)
    n = np.zeros(8)
    n[0] = 1.0
    np.testing.assert_allclose(antipodal_state(b, n, 0.0), maximally_mixed(3), atol=1e-15)


def test_qubit_antipode_of_pure_state():
    b = build_basis(2)
    rho = antipodal_state(b, np.array([0.0, 0.0, 1.0]), sqrt(0.5))
    np.testing.assert_allclose(rho, np.diag([0.0, 1.0]), atol=1e-15)


def test_antipode_plus_state_is_twice_center():
    b = build_basis(3)
    rng = np.random.default_rng(21)
    v = rng.standard_normal(8)
    v /= np.linalg.norm(v)
    for r in (0.1, 0.3):
        total = antipodal_state(b, v, r) + state_along(b, v, r)
        np.testing.assert_allclose(total, 2 * maximally_mixed(3), atol=1e-14)
        assert antipodal_state(b, v, r).tobytes() == state_along(b, -v, r).tobytes()


def test_max_antipodal_length_values():
    assert max_antipodal_length(3, 2) == pytest.approx(sqrt(2.0 / 3.0), abs=1e-15)
    assert max_antipodal_length(3, 1) == pytest.approx(sqrt(1.0 / 6.0), abs=1e-15)
    assert max_antipodal_length(2, 1) == pytest.approx(sqrt(0.5), abs=1e-15)
    with pytest.raises(DomainError):
        max_antipodal_length(3, 3)
    with pytest.raises(DomainError):
        max_antipodal_length(3, 0)


@pytest.mark.parametrize("dim", range(2, 9))
def test_max_antipodal_length_equals_opposite_stratum_radius(dim):
    # the cap opposite R(q) has q zero eigenvalues, so it sits on the
    # sphere indexed by q, not by N - q
    for q in range(1, dim):
        assert max_antipodal_length(dim, q) == stratum_radius(dim, q)


def test_antipode_n3_q2():
    rep = antipode_of_boundary(3, 2)
    np.testing.assert_allclose(rep.antipodal_cap, np.diag([0.0, 0.0, 1.0]), atol=1e-14)
    assert rep.matches_complement
    np.testing.assert_allclose(rep.direction_state, np.diag([0.5, 0.5, 0.0]), atol=1e-15)


def test_antipode_n4_q1():
    rep = antipode_of_boundary(4, 1)
    third = 1.0 / 3.0
    np.testing.assert_allclose(
        spectrum(rep.antipodal_cap).values, [third, third, third, 0.0], atol=1e-14
    )
    assert rep.matches_complement


def test_qubit_antipode_is_self_dual():
    rep = antipode_of_boundary(2, 1)
    np.testing.assert_allclose(rep.antipodal_cap, np.diag([0.0, 1.0]), atol=1e-15)
    assert rep.matches_complement


@pytest.mark.parametrize("dim", range(2, 9))
def test_antipodean_pairing_and_involution(dim):
    for q in range(1, dim):
        rep = antipode_of_boundary(dim, q)
        assert rep.matches_complement
        assert spectrum(rep.antipodal_cap).zero_count == q
        # applying the construction to R(N-q) lands back on R(q) spectrally
        back = antipode_of_boundary(dim, dim - q)
        np.testing.assert_allclose(
            spectrum(back.antipodal_cap).values,
            spectrum(boundary_state(dim, q)).values,
            atol=1e-12,
        )


def test_family_classification_sweep():
    rho, cls = antipodal_family(3, 2, 0.0)
    np.testing.assert_allclose(rho, maximally_mixed(3), atol=1e-15)
    assert cls.kind is StateKind.POSITIVE_INTERIOR

    top = max_antipodal_length(3, 2)
    rho, cls = antipodal_family(3, 2, top)
    np.testing.assert_allclose(rho, np.diag([0.0, 0.0, 1.0]), atol=1e-14)
    assert cls.kind is StateKind.BOUNDARY and cls.zero_count == 2

    _, cls = antipodal_family(3, 2, top + 0.01)
    assert cls.kind is StateKind.NONPOSITIVE


@pytest.mark.parametrize("dim,q", [(3, 1), (3, 2), (4, 2), (5, 3)])
def test_family_matches_basis_route(dim, q):
    # the diagonal formula and the basis-multiplication route must agree
    b = build_basis(dim)
    t = directional_matrix_of_boundary(dim, q)
    n = expand(b, t)
    for r in (0.05, 0.2, max_antipodal_length(dim, q)):
        direct, _ = antipodal_family(dim, q, r)
        via_basis = antipodal_state(b, n, r)
        np.testing.assert_allclose(direct, via_basis, atol=1e-13)


@pytest.mark.parametrize("dim,q", [(3, 1), (4, 3), (6, 2)])
def test_family_strictly_positive_inside(dim, q):
    top = max_antipodal_length(dim, q)
    for r in np.linspace(0.0, top - 1e-6, 25):
        _, cls = antipodal_family(dim, q, float(r))
        assert cls.kind is StateKind.POSITIVE_INTERIOR


def test_family_is_classified_against_the_cap_at_any_length():
    for dim, q in [(3, 2), (5, 2), (8, 4)]:
        top = max_antipodal_length(dim, q)
        _, cls = antipodal_family(dim, q, top)
        assert cls.kind is StateKind.BOUNDARY and cls.zero_count == q
        for r in (top + 1e-6, 2 * top, 1e3):
            rho, cls = antipodal_family(dim, q, r)
            assert cls.kind is StateKind.NONPOSITIVE
            assert abs(np.trace(rho).real - 1.0) <= 1e-12
        # beyond the unit-trace tolerance the entries no longer carry 1/N
        for r in (1e17, 1e300, 1.7e308):
            with pytest.raises(NumericError, match="lose 1/N to rounding"):
                antipodal_family(dim, q, r)


def _has_diagonal_bits(state, entries):
    """state is, bit for bit, np.diag of the real entries cast to complex."""
    expected = np.diag(np.array(entries, dtype=float)).astype(complex)
    return state.dtype == expected.dtype and state.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", range(2, 14))
def test_diagonal_builders_equal_their_documented_formulas_bit_for_bit(n):
    # each builder fills one complex array through its diagonal; the reference is the
    # documented entries, in the documented order
    assert _has_diagonal_bits(maximally_mixed(n), [1 / n] * n)
    for q in range(1, n + 1):
        assert _has_diagonal_bits(boundary_state(n, q), [1 / q] * q + [0.0] * (n - q))
    for q in range(1, n):
        big, small = sqrt((n - q) / (q * n)), sqrt(q / (n * (n - q)))
        t = directional_matrix_of_boundary(n, q)
        assert _has_diagonal_bits(t, [big] * q + [-small] * (n - q))
        for r in (0.0, small, 2 * small):  # the centre, the cap and beyond it
            rho, _ = antipodal_family(n, q, r)
            assert _has_diagonal_bits(rho, [1 / n - r * big] * q + [1 / n + r * small] * (n - q))
            assert rho.shape == (n, n) and rho.flags.writeable and rho.flags.c_contiguous


def test_family_rejects_bad_arguments():
    with pytest.raises(DomainError):
        antipodal_family(3, 0, 0.1)
    with pytest.raises(DomainError):
        antipodal_family(3, 2, -0.1)
    with pytest.raises(DomainError):
        antipodal_family(3, 2, float("nan"))
    with pytest.raises(DomainError, match="length must be finite, got inf"):
        antipodal_family(3, 2, float("inf"))


def _haar_unitary(rng, dim):
    """A Haar-random unitary: the Q of a complex Gaussian matrix's QR, each column
    multiplied by the phase of R's diagonal entry, so that the QR is unique."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def test_a_rotated_boundary_state_sits_antipodal_to_its_complement():
    # the antipodean claim on boundary states U R(q) U^H that no closed form builds:
    # they go through the basis path, to_bloch and then T_n, in every direction
    rng = np.random.default_rng(20260810)
    for dim in range(2, 9):
        b = build_basis(dim)
        for q in range(1, dim):
            complement = spectrum(boundary_state(dim, dim - q)).values
            for _ in range(20):
                u = _haar_unitary(rng, dim)
                rho = u @ boundary_state(dim, q) @ u.conj().T
                assert stratum_report(rho).on_sphere
                v = to_bloch(b, rho)
                n = -v / np.linalg.norm(v)
                rep = direction_report(b, n)
                assert rep.cap_zero_count == q
                assert rep.cap_state_class == StateClass(StateKind.BOUNDARY, q)
                assert rep.max_length == pytest.approx(max_antipodal_length(dim, q), abs=1e-12)
                cap = spectrum(state_along(b, n, rep.max_length)).values
                assert np.abs(cap - complement).max() <= SPECTRAL_MATCH_TOL
