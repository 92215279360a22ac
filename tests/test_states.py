"""Tests for state/Bloch-vector conversion, spectra, purity, and classification."""

import gc
import tracemalloc
from math import sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blochstrata import (
    DomainError,
    NumericError,
    StateKind,
    SamplerConfig,
    antipodal_state,
    antipode_of_boundary,
    build_basis,
    check_density,
    check_hermitian,
    classify,
    direction_report,
    direction_reports,
    directional_matrix,
    distance_to_max,
    expand,
    extremal_spectra,
    from_bloch,
    maximally_mixed,
    purity,
    sample_direction,
    sample_state,
    sample_states,
    spectrum,
    state_along,
    stratum_report,
    stratum_reports,
    to_bloch,
)
from blochstrata.basis import _center_plus, _traceless_part
from blochstrata.direction import _directional_matrices
from blochstrata.states import PSD_TOL, hermitian_eigenvalues


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


@pytest.mark.parametrize("dim", range(2, 9))
def test_from_bloch_has_the_bits_of_the_center_plus_the_traceless_part(dim):
    # from_bloch builds the state in its sum of v_j T_j; this is the sum it replaced
    d = dim * dim - 1
    rng = np.random.default_rng(dim)
    vectors = [scale * rng.standard_normal(d) for scale in (1e-300, 1e-8, 1.0, 1e150)]
    vectors += [sign * e for e in np.eye(d) for sign in (1.0, -1.0, 0.0, -0.0)]
    vectors += [np.full(d, -0.0), np.where(np.arange(d) % 2, -0.0, rng.standard_normal(d))]
    b = build_basis(dim)
    for v in vectors:
        expected = maximally_mixed(dim) + _traceless_part(v[None], dim)[0]
        assert from_bloch(b, v).tobytes() == expected.tobytes()


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
    # one rule in basis._coordinates for both callers, and no RuntimeWarning on the way
    huge_traceless = [[1.7e308, 1.7e308], [1.7e308, -1.7e308]]
    with pytest.raises(NumericError, match="^Bloch coordinates of this matrix are not finite: "):
        expand(build_basis(2), huge_traceless)
    with pytest.raises(NumericError, match="^purity of this matrix is not finite$"):
        purity([[1e200, 0], [0, 0]])
    with pytest.raises(NumericError, match="not finite"):
        from_bloch(build_basis(8), np.full(63, 1e308))


def test_eigenvalues_of_entries_near_float_max():
    # the eigensolver reads the entries as they are: no sum with m^H overflows to inf
    huge = np.array([[0.5, 1.7e308], [1.7e308, 0.5]], dtype=complex)
    np.testing.assert_allclose(spectrum(huge).values, [1.7e308, -1.7e308])
    assert classify(huge).kind is StateKind.NONPOSITIVE
    with pytest.raises(DomainError, match="positive semidefinite"):
        check_density(huge)


@pytest.mark.parametrize("dim", range(2, 7))
def test_hermitian_eigenvalues_are_eigvalsh_bit_for_bit(dim):
    # no copy is made first, of a sampled state, a T_n or a cap state alike
    stacks = [np.stack(list(sample_states(SamplerConfig(7, dim, rank, 50))))
              for rank in range(1, dim + 1)]
    directions = np.stack([sample_direction(7, dim**2 - 1, i) for i in range(50)])
    _, t = _directional_matrices(build_basis(dim), directions)
    max_length = 1.0 / (dim * np.abs(np.linalg.eigvalsh(t)[:, 0]))
    stacks += [t.copy(), _center_plus(max_length[:, None, None], t)]  # the caps built in t
    for m in stacks:
        assert hermitian_eigenvalues(m).tobytes() == np.linalg.eigvalsh(m).tobytes()


def test_spectrum_discards_dust_above_the_diagonal():
    rho = sample_state(SamplerConfig(3, 4, 4, 1), 0)
    dusty = rho.copy()
    upper = np.triu_indices(4, 1)
    rng = np.random.default_rng(0)
    dusty[upper] += 1e-13 * (rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6))
    values = spectrum(dusty).values
    assert values.tobytes() == np.linalg.eigvalsh(dusty)[::-1].tobytes()
    assert values.tobytes() == np.linalg.eigvalsh(rho)[::-1].tobytes()


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
    [
        check_hermitian, check_density, classify, purity, lambda m: to_bloch(build_basis(2), m),
        lambda m: expand(build_basis(2), m),
    ],
    ids=["check_hermitian", "check_density", "classify", "purity", "to_bloch", "expand"],
)
def test_non_finite_entries_are_rejected(check, where, bad):
    # the gate's one line, which expand, reading no unit trace, also gives
    m = np.diag([0.5, 0.5]).astype(complex)
    m[where] = bad
    with pytest.raises(DomainError, match="^matrix has non-finite entries$"):
        check(m)


@pytest.mark.parametrize("zero_tol", [np.nan, np.inf, 0.0, -1e-9, None, "1e-9"])
@pytest.mark.parametrize(
    "entry",
    [
        spectrum,
        classify,
        stratum_report,
        lambda m, zero_tol: stratum_reports(m[None], zero_tol),
        lambda m, zero_tol: direction_report(build_basis(3), np.eye(8)[0], zero_tol),
        lambda m, zero_tol: direction_reports(build_basis(3), np.eye(8)[:2], zero_tol),
    ],
    ids=[
        "spectrum", "classify", "stratum_report", "stratum_reports", "direction_report",
        "direction_reports",
    ],
)
def test_zero_tol_must_be_positive_and_finite(entry, zero_tol):
    with pytest.raises(DomainError, match="^zero_tol must be [^\n]*$"):
        entry(maximally_mixed(3), zero_tol=zero_tol)


def test_an_empty_stack_checks_no_zero_tol():
    assert stratum_reports(np.zeros((0, 3, 3)), zero_tol=None) == []


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


def test_an_eigensolver_failure_is_a_numeric_error(monkeypatch):
    def fail(h):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    for call in (spectrum, classify, check_density, stratum_report):
        with pytest.raises(NumericError, match=r"^eigensolver failed on shape \(1, 3, 3\): "):
            call(maximally_mixed(3))


@st.composite
def spectra_near_the_negative_floor(draw):
    """(rho, zero_tol): a unit-trace state whose small eigenvalues sit around
    +-PSD_TOL and +-zero_tol, diagonal or unitarily rotated."""
    zero_tol = draw(st.sampled_from([1e-12, 1e-10, 1e-9, 0.05]))
    dim = draw(st.integers(2, 5))
    small = [
        draw(st.sampled_from([-1.0, 1.0]))
        * draw(st.sampled_from([PSD_TOL, zero_tol]))
        * draw(st.sampled_from([0.0, 0.5, 0.99, 1.0, 1.01, 2.0]) | st.floats(0.0, 2.0))
        for _ in range(draw(st.integers(1, dim - 1)))
    ]
    large = (1.0 - sum(small)) / (dim - len(small))
    rho = np.diag(small + [large] * (dim - len(small))).astype(complex)
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        rho = q @ rho @ q.conj().T
    return rho, zero_tol


@settings(deadline=None, max_examples=300)
@given(spectra_near_the_negative_floor())
# default zero_tol: -5e-10 lies in [-zero_tol, -PSD_TOL), nonpositive to both entry points
@example((np.diag([0.5 + 5e-10, 0.5, -5e-10]).astype(complex), 1e-9))
# zero_tol 1e-12: -5e-11 lies in [-PSD_TOL, -zero_tol), nonpositive to both entry points
@example((np.diag([0.5 + 5e-11, 0.5, -5e-11]).astype(complex), 1e-12))
def test_one_rule_for_a_negative_eigenvalue(case):
    rho, zero_tol = case
    cls = classify(rho, zero_tol=zero_tol)
    try:
        report = stratum_report(rho, zero_tol=zero_tol)
    except DomainError as exc:
        assert "not positive semidefinite" in str(exc)
        assert cls.kind is StateKind.NONPOSITIVE
    else:
        assert cls.kind is not StateKind.NONPOSITIVE
        assert report.zero_count == cls.zero_count
    try:
        check_density(rho)
    except DomainError as exc:
        assert "not positive semidefinite" in str(exc)
        assert classify(rho).kind is StateKind.NONPOSITIVE
    else:
        assert classify(rho).kind is not StateKind.NONPOSITIVE


def test_maximally_mixed_is_a_fresh_writable_array():
    first = maximally_mixed(4)
    assert first.dtype == complex and first.flags.writeable
    np.testing.assert_array_equal(first, np.eye(4) / 4)
    first[0, 0] = 7.0
    second = maximally_mixed(4)
    assert second is not first
    np.testing.assert_array_equal(second, np.eye(4) / 4)


def test_one_item_reports_at_a_new_dimension_hold_no_array():
    centers = [maximally_mixed(n) for n in (301, 302, 303)]
    bases = [build_basis(n) for n in (13, 14, 15)]  # no report reads their dense tensors
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for rho in centers:
            distance_to_max(rho)
            stratum_report(rho)
        for basis in bases:
            direction_report(basis, np.eye(basis.dim**2 - 1)[0])
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 100_000


_PEAK_DIM = 500
# the peak of each one-item call in complex N x N matrices at N = 500, past the arrays it
# is passed: T_n and three arrays of N(N-1)/2 floats, a quarter matrix each, from the
# index formulas, the state then built in T_n (1.75); the gate's one buffer, m^H and then
# m - m^H, and its real magnitude (1.5), the eigensolve reading its input as it is; the
# coordinates from the upper and lower entries (2); T_n, then the cap built in it, beside
# the gate (2.5), as for the antipodal cap, built in the directional matrix of R(q) (2.5)
_PEAKS = {
    "state_along": (lambda basis, v, rho: state_along(basis, v, 0.1), 1.75),
    "antipodal_state": (lambda basis, v, rho: antipodal_state(basis, v, 0.1), 1.75),
    "from_bloch": (lambda basis, v, rho: from_bloch(basis, v), 1.75),
    "check_hermitian": (lambda basis, v, rho: check_hermitian(rho), 1.5),
    "spectrum": (lambda basis, v, rho: spectrum(rho), 1.5),
    "check_density": (lambda basis, v, rho: check_density(rho), 1.5),
    "stratum_report": (lambda basis, v, rho: stratum_report(rho), 1.5),
    "classify": (lambda basis, v, rho: classify(rho), 1.5),
    "to_bloch": (lambda basis, v, rho: to_bloch(basis, rho), 2.0),
    "direction_report": (lambda basis, v, rho: direction_report(basis, v), 2.5),
    "antipode_of_boundary": (lambda basis, v, rho: antipode_of_boundary(_PEAK_DIM, 1), 2.5),
}


@pytest.mark.parametrize("name", list(_PEAKS))
def test_a_one_item_call_peaks_at_its_pinned_count_of_matrices(name):
    call, count = _PEAKS[name]
    basis = build_basis(_PEAK_DIM)
    args = basis, sample_direction(1, _PEAK_DIM**2 - 1, 0), maximally_mixed(_PEAK_DIM)
    call(*args)  # imports and caches
    tracemalloc.start()
    try:
        call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (_PEAK_DIM**2 * 16) == pytest.approx(count, abs=0.1)
