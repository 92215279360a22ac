"""Tests for sphere radii, boundary states, the unit-sum lemma, and stratum reports."""

from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blochstrata.stratification as stratification
from blochstrata import (
    DEFAULT_ZERO_TOL,
    DomainError,
    NumericError,
    SamplerConfig,
    StateKind,
    StratumReport,
    boundary_state,
    build_basis,
    classify,
    distance_to_max,
    expand,
    extremal_spectra,
    from_bloch,
    harriman_check,
    harriman_checks,
    maximally_mixed,
    sample_state,
    spectrum,
    stratum_radius,
    stratum_report,
    stratum_reports,
)


def test_distance_examples():
    assert distance_to_max(maximally_mixed(4)) == pytest.approx(0.0, abs=1e-15)
    assert distance_to_max(np.diag([1.0, 0.0])) == pytest.approx(sqrt(0.5), abs=1e-12)
    assert distance_to_max(np.diag([0.5, 0.5, 0.0])) == pytest.approx(
        sqrt(1.0 / 6.0), abs=1e-12
    )


def test_stratum_radius_values():
    assert stratum_radius(3, 1) == pytest.approx(0.4082482904638631, abs=1e-15)
    assert stratum_radius(3, 2) == pytest.approx(0.816496580927726, abs=1e-15)
    # small and large spheres coincide at N=2
    assert stratum_radius(2, 1) == pytest.approx(sqrt(0.5), abs=1e-15)


@pytest.mark.parametrize("dim", range(2, 9))
def test_stratum_radius_monotone(dim):
    radii = [stratum_radius(dim, p) for p in range(1, dim)]
    assert all(a < b for a, b in zip(radii, radii[1:]))


@pytest.mark.parametrize("bad", [0, -1, 5])
def test_stratum_radius_range(bad):
    with pytest.raises(DomainError):
        stratum_radius(5, bad)


def test_boundary_state_examples():
    np.testing.assert_allclose(
        boundary_state(3, 2), np.diag([0.5, 0.5, 0.0]), atol=1e-15
    )
    np.testing.assert_allclose(boundary_state(4, 4), maximally_mixed(4), atol=1e-15)
    np.testing.assert_allclose(
        boundary_state(5, 1), np.diag([1.0, 0.0, 0.0, 0.0, 0.0]), atol=1e-15
    )
    with pytest.raises(DomainError):
        boundary_state(3, 0)
    with pytest.raises(DomainError):
        boundary_state(3, 4)
    with pytest.raises(DomainError):
        maximally_mixed(1)


def test_harriman_examples():
    res = harriman_check([0.5, 0.5])
    assert res.sum_of_squares == pytest.approx(0.5, abs=1e-15)
    assert res.bound == 0.5 and res.equality

    res = harriman_check([1.0, 0.0])
    assert res.sum_of_squares == 1.0 and not res.equality

    res = harriman_check([2.0, -1.0])
    assert res.sum_of_squares == pytest.approx(5.0, abs=1e-15)
    assert res.bound == 0.5 and not res.equality

    with pytest.raises(DomainError):
        harriman_check([0.4, 0.4])


@settings(deadline=None, max_examples=200)
@given(st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=10))
def test_harriman_lower_bound_property(raw):
    a = np.asarray(raw)
    a = a - a.mean() + 1.0 / a.size  # shift to unit sum; entries may be negative
    a[0] -= a.sum() - 1.0  # second pass clears the rounding residual
    res = harriman_check(a)
    assert res.sum_of_squares >= res.bound - 1e-12
    # slack is the squared deviation from the uniform tuple
    dev = a - 1.0 / a.size
    assert res.slack == pytest.approx(float(dev @ dev), rel=1e-9, abs=1e-9)


def test_harriman_equality_for_near_uniform():
    n = 5
    a = np.full(n, 1.0 / n)
    a[0] += 1e-9
    a[1] -= 1e-9
    res = harriman_check(a)
    assert res.equality and abs(res.slack) <= 1e-12


def test_stratum_report_on_sphere():
    rep = stratum_report(boundary_state(3, 2))
    assert rep.zero_count == 1
    assert rep.distance == pytest.approx(sqrt(1.0 / 6.0), abs=1e-12)
    assert rep.on_sphere and rep.satisfied


def test_stratum_report_off_sphere():
    rep = stratum_report(np.diag([0.9, 0.1, 0.0]))
    assert rep.zero_count == 1
    assert rep.distance == pytest.approx(0.697614984548545, abs=1e-12)
    assert rep.distance > rep.radius
    assert not rep.on_sphere and rep.satisfied


def test_stratum_report_interior():
    rep = stratum_report(maximally_mixed(3))
    assert rep.zero_count == 0 and rep.radius == 0.0
    assert rep.satisfied


def test_a_one_by_one_state_reports_as_the_gate_accepts_it():
    # the 1 x 1 state [[1]] is the maximally mixed state of N = 1
    assert classify(np.eye(1)).kind is StateKind.POSITIVE_INTERIOR
    assert stratum_report(np.eye(1)) == StratumReport(
        dim=1, zero_count=0, distance=0.0, radius=0.0, on_sphere=True, satisfied=True
    )
    assert distance_to_max(np.eye(1)) == 0.0


def zero_count_n_message(dim):
    return f"zero_tol = {1.0 / dim!r} counts all {dim} eigenvalues as zero; it must be below 1/N"


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_a_zero_count_of_n_is_one_error_naming_zero_tol(dim):
    # every eigenvalue of (1/N) I is 1/N, so zero_tol = 1/N counts all N of them
    center = np.eye(dim) / dim
    with pytest.raises(DomainError) as one:
        stratum_report(center, zero_tol=1.0 / dim)
    with pytest.raises(DomainError) as stack:
        stratum_reports(np.stack([center, center]), zero_tol=1.0 / dim)
    assert str(one.value) == str(stack.value) == zero_count_n_message(dim)
    with pytest.raises(DomainError) as classified:
        classify(center, zero_tol=1.0 / dim)
    assert str(classified.value) == zero_count_n_message(dim)
    # spectrum takes no unit trace, so its zero count may be N
    assert spectrum(np.zeros((dim, dim))).zero_count == dim


def test_stratum_report_rejects_nonpositive():
    with pytest.raises(DomainError):
        stratum_report(np.diag([2.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_entry_points_reject_non_finite(bad):
    m = np.diag([0.5, 0.5, 0.0]).astype(complex)
    m[1, 2] = bad
    with pytest.raises(DomainError, match="non-finite"):
        stratum_report(m)
    with pytest.raises(DomainError, match="non-finite"):
        distance_to_max(m)


def test_one_trace_tolerance_for_every_density_entry_point():
    # a trace error of 1e-11 is outside the one unit-trace tolerance, 1e-12
    m = np.diag([0.5 + 1e-11, 0.5])
    with pytest.raises(DomainError, match="unit trace"):
        stratum_report(m)
    with pytest.raises(DomainError, match="unit trace"):
        distance_to_max(m)


@pytest.mark.parametrize(
    "bad",
    [
        [np.nan, 1.0], [np.inf, -np.inf, 1.0], [np.inf], ["a", 1.0], [None, 1.0],
        ["0.5", 0.5], [True, False], [], [[0.5, 0.5]], [10**400, 1.0], [True, 0.0],
        [0.5, "0.5"],
    ],
)
def test_harriman_rejects_non_finite_and_non_numeric(bad):
    # a library call reads no JSON, so no message speaks of it
    with pytest.raises(DomainError) as one:
        harriman_check(bad)
    with pytest.raises(DomainError) as stack:
        harriman_checks([bad])
    assert "JSON" not in str(one.value) + str(stack.value)


@pytest.mark.parametrize("dim", range(2, 9))
def test_constructed_boundary_states_sit_on_their_spheres(dim):
    for q in range(1, dim):
        rep = stratum_report(boundary_state(dim, q))
        assert rep.on_sphere
        assert abs(rep.distance - stratum_radius(dim, dim - q)) <= 1e-12


@pytest.mark.parametrize("dim,rank", [(3, 2), (4, 2), (5, 3)])
def test_sampled_states_lie_on_or_outside_spheres(dim, rank):
    config = SamplerConfig(seed=99, dim=dim, rank=rank, count=200)
    for rho in (sample_state(config, i) for i in range(config.count)):
        rep = stratum_report(rho)
        assert rep.zero_count == dim - rank
        assert rep.satisfied
        # random spectra are never uniform, so never exactly on the sphere
        nonzero = spectrum(rho).values[:rank]
        if nonzero.max() - nonzero.min() > 1e-6:
            assert not rep.on_sphere


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_nonpositive_witness_just_outside_small_sphere(dim):
    b = build_basis(dim)
    _, bottom_heavy = extremal_spectra(dim)
    n = expand(b, np.diag(bottom_heavy))
    small_radius = stratum_radius(dim, 1)
    rho = from_bloch(b, (small_radius + 1e-3) * n)
    assert np.linalg.eigvalsh(rho)[0] < 0


@pytest.mark.parametrize("diag,p", [
    ([1 - 9e-10, 9e-10], 1),
    ([9e-10, (1 - 9e-10) / 2, (1 - 9e-10) / 2], 1),
])
def test_zero_eigenvalues_within_tolerance_give_no_false_counterexample(diag, p):
    rep = stratum_report(np.diag(diag))
    assert rep.zero_count == p
    # inside r_p by more than the sphere tolerance, yet a valid state of the
    # stratum: the verdict measures the distance against d_min(zero_tol)
    assert rep.distance - rep.radius < -stratification.ON_SPHERE_TOL
    assert not rep.on_sphere
    assert rep.satisfied


@pytest.mark.parametrize("dim", range(2, 9))
def test_least_distance_of_a_stratum(dim):
    for p in range(1, dim):
        assert stratification._min_distance(dim, p, 0.0) == pytest.approx(
            stratum_radius(dim, p), abs=1e-15
        )
        assert stratification._min_distance(dim, p, 1.0 / dim) == 0.0
        t = 1e-3
        # the extremal state: p eigenvalues at +t, the others equal
        extremal = np.diag([t] * p + [(1 - p * t) / (dim - p)] * (dim - p))
        assert stratification._min_distance(dim, p, t) == pytest.approx(
            distance_to_max(extremal), abs=1e-14
        )
    assert stratification._min_distance(dim, 0, DEFAULT_ZERO_TOL) == 0.0


@st.composite
def near_boundary_states(draw):
    """(state, zero_tol): p eigenvalues in (0, zero_tol], unitarily conjugated."""
    dim = draw(st.integers(2, 8))
    p = draw(st.integers(1, dim - 1))
    zero_tol = draw(st.sampled_from([DEFAULT_ZERO_TOL, 1e-6]))
    small = [draw(st.floats(0.0, zero_tol, exclude_min=True)) for _ in range(p)]
    weights = np.array([draw(st.floats(0.5, 1.0)) for _ in range(dim - p)])
    large = (1.0 - sum(small)) * weights / weights.sum()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return u @ np.diag(np.concatenate([small, large])) @ u.conj().T, zero_tol


@settings(deadline=None, max_examples=300)
@given(case=near_boundary_states())
def test_states_with_eigenvalues_within_zero_tol_are_satisfied(case):
    rho, zero_tol = case
    assert stratum_report(rho, zero_tol=zero_tol).satisfied


@pytest.mark.parametrize("size", [1, 2, 7, 8, 9, 16, 33, 130])
def test_batched_harriman_checks_equal_one_tuple_calls(size):
    rng = np.random.default_rng(size)
    x = rng.standard_normal((50, size)) * rng.choice([1e-3, 1.0, 1e4], size=(50, 1))
    stack = x - x.mean(axis=1, keepdims=True) + 1.0 / size
    stack[0] = 1.0 / size  # the equality case
    assert harriman_checks(stack) == [harriman_check(row) for row in stack]


def test_batched_harriman_checks_raise_for_the_first_failing_row():
    ok = [0.5, 0.5, 0.0]
    off_sum = [0.4, 0.4, 0.0]
    overflow = [1e200, -1e200, 1.0]
    # the unit-sum check runs over every row before the overflow check
    for rows, bad, error in [
        ([ok, overflow, ok, off_sum], off_sum, DomainError),
        ([ok, off_sum, ok, overflow], off_sum, DomainError),
        ([ok, off_sum, ok, [0.3, 0.3, 0.0]], off_sum, DomainError),
        ([ok, overflow, ok, [2e200, -2e200, 1.0]], overflow, NumericError),
    ]:
        with pytest.raises(error) as one:
            harriman_check(bad)
        with pytest.raises(error) as batched:
            harriman_checks(np.array(rows))
        assert str(batched.value) == str(one.value)
    with pytest.raises(DomainError, match=r"stack of nonempty tuples, got shape \(3,\)"):
        harriman_checks(ok)
    with pytest.raises(DomainError, match=r"got shape \(2, 0\)"):
        harriman_checks(np.zeros((2, 0)))
