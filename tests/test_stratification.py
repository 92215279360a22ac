"""Tests for sphere radii, boundary states, the unit-sum lemma, and stratum reports."""

from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochstrata import (
    DomainError,
    SamplerConfig,
    boundary_state,
    build_basis,
    distance_to_max,
    expand,
    extremal_spectra,
    from_bloch,
    harriman_check,
    maximally_mixed,
    sample_state,
    spectrum,
    stratum_radius,
    stratum_report,
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
    "bad", [[np.nan, 1.0], [np.inf, -np.inf, 1.0], [np.inf], ["a", 1.0], [None, 1.0]]
)
def test_harriman_rejects_non_finite_and_non_numeric(bad):
    with pytest.raises(DomainError):
        harriman_check(bad)


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
