"""Tests for directional matrices, mu-spectra, admissible lengths, and cap states."""

import contextlib
import io
import json
from math import sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blochstrata.cli as cli
import blochstrata.direction as direction
from blochstrata import (
    DEFAULT_ZERO_TOL,
    DomainError,
    antipodal_state,
    StateKind,
    build_basis,
    classify,
    direction_report,
    direction_reports,
    directional_matrix,
    directional_matrix_of_boundary,
    expand,
    extremal_spectra,
    maximally_mixed,
    purity,
    sample_direction,
    spectrum,
    state_along,
    stratum_radius,
)
from blochstrata.serialize import bloch_to_dict


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
        assert directional_matrix(basis3, n).tobytes() == basis3[j].tobytes()


def test_large_dimensions_build_t_n_without_the_basis_tensor():
    # the (N**2 - 1, N, N) tensor would take 14.6 TiB at N = 1000; T_n takes 15.3 MiB
    dim = 1000
    basis = build_basis(dim)
    e_0 = np.zeros(len(basis))
    e_0[0] = 1.0
    t = directional_matrix(basis, e_0)
    assert t[0, 1] == t[1, 0] == 1.0 / sqrt(2.0)
    assert np.count_nonzero(t) == 2
    rho = state_along(basis, e_0, 0.001)
    assert rho[0, 1] == 0.001 * t[0, 1] and rho[2, 2] == 1.0 / dim
    assert antipodal_state(basis, e_0, 0.001)[0, 1] == -rho[0, 1]
    assert "elements" not in vars(basis)


def _directions(dim):
    """Sampled unit directions of dimension dim and every +-e_k."""
    d = dim * dim - 1
    sampled = [sample_direction(7, d, i) for i in range(4)]
    return np.array(sampled + [sign * e for e in np.eye(d) for sign in (1.0, -1.0)])


@pytest.mark.parametrize("dim", range(2, 7))
def test_states_built_in_t_n_have_the_bits_of_the_center_plus_the_product(dim):
    # each builder scales T_n in place; these are the sums it replaced, written out
    basis = build_basis(dim)
    for v in _directions(dim):
        t = directional_matrix(basis, v)
        for r in (0.0, 1e-300, 0.3, 1.0, 7.5, 1e150):
            along = maximally_mixed(dim) + r * t
            against = maximally_mixed(dim) - r * t
            assert state_along(basis, v, r).tobytes() == along.tobytes()
            assert antipodal_state(basis, v, r).tobytes() == against.tobytes()


@pytest.mark.parametrize("dim", range(2, 7))
def test_cap_states_built_in_t_n_have_the_bits_of_the_center_plus_the_product(
    dim, monkeypatch
):
    basis = build_basis(dim)
    v = _directions(dim)
    caps = []
    spectra = direction._spectra

    def recorded(m, **gate):
        caps.append(m.copy())
        return spectra(m, **gate)

    monkeypatch.setattr(direction, "_spectra", recorded)
    reports = direction_reports(basis, v)
    t = np.array([directional_matrix(basis, row) for row in v])
    max_length = np.array([r.max_length for r in reports])
    (cap,) = caps
    assert cap.tobytes() == (np.eye(dim) / dim + max_length[:, None, None] * t).tobytes()


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
    with pytest.raises(DomainError, match="length must be finite, got inf"):
        state_along(basis3, np.eye(8)[0], float("inf"))
    with pytest.raises(DomainError, match="length must be finite, got inf"):
        antipodal_state(basis3, np.eye(8)[0], float("inf"))


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
    with pytest.raises(DomainError):
        extremal_spectra(1)


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


def _planted_direction(basis, x):
    """The unit direction n whose T_n is diag(x) centered and scaled to unit norm."""
    x = np.asarray(x, dtype=float)
    x = x - x.mean()
    return expand(basis, np.diag(x / np.linalg.norm(x)).astype(complex))


def _cli_direction(dim, n, path):
    path.write_text(json.dumps(bloch_to_dict(dim, n)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["direction", "--dim", str(dim), "--vector", str(path)]) == 0
    payload = json.loads(out.getvalue())
    return payload["cap_state_class"], payload["cap_zero_count"]


@settings(deadline=None, max_examples=60)
@given(
    others=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3),
    gap=st.floats(-13.0, -5.0).map(lambda e: 10.0**e),
    zero_tol=st.sampled_from([1e-12, 1e-9, 1e-7]),
)
# x = (2, -1 - 1e-8, -1 + 1e-8): mu_N and mu_(N-1) are 8.2e-9 apart, so the cap has one
# zero, though two mu lie within 1e-8 of mu_N
@example(others=[2.0], gap=2e-8, zero_tol=1e-9)
def test_cap_zero_count_is_the_zero_count_of_the_cap_class(
    others, gap, zero_tol, tmp_path_factory
):
    # the smallest pair of x, gap apart around -1, and the others at least 1 above it
    x = [-1.0 - gap / 2, -1.0 + gap / 2] + others
    dim = len(x)
    basis = build_basis(dim)
    n = _planted_direction(basis, x)
    rep = direction_report(basis, n, zero_tol=zero_tol)
    # the cap's eigenvalues are max_length (mu_i - mu_N): one zero, or two when the
    # pair is closer than zero_tol / max_length
    cap_gap = rep.max_length * (rep.mu[-2] - rep.mu[-1])
    assert rep.cap_state_class.kind is StateKind.BOUNDARY
    assert rep.cap_zero_count == rep.cap_state_class.zero_count
    if cap_gap > 10 * zero_tol:
        assert rep.cap_zero_count == 1
    if cap_gap < zero_tol / 10:
        assert rep.cap_zero_count == 2
    if zero_tol == DEFAULT_ZERO_TOL:  # the CLI's default --zero-tol
        path = tmp_path_factory.mktemp("planted") / "direction.json"
        label, count = _cli_direction(dim, n, path)
        assert (label, count) == (rep.cap_state_class.label, rep.cap_zero_count)


@pytest.mark.parametrize("dim", [2, 4])
def test_a_cap_zero_count_of_n_is_one_error_naming_zero_tol(dim, tmp_path, capsys):
    # the eigenvalues of a cap state lie in [0, 1], so zero_tol = 2 counts all N of them
    message = f"zero_tol = 2.0 counts all {dim} eigenvalues as zero; it must be below 1/N"
    basis, n = build_basis(dim), np.eye(dim * dim - 1)[-1]
    for call in (lambda: direction_report(basis, n, 2.0), lambda: direction_reports(basis, [n], 2.0)):
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == message
    vector = tmp_path / "direction.json"
    vector.write_text(json.dumps(bloch_to_dict(dim, n)))
    argv = ["direction", "--dim", str(dim), "--zero-tol", "2"]
    for form in (["--vector", str(vector)], ["--seed", "1"], ["--seed", "1", "--scan", "3"]):
        assert cli.main(argv + form) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
