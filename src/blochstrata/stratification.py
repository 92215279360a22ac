"""Stratification of boundary states by concentric spheres around (1/N) I.

A boundary state with p zero eigenvalues lies on or outside the sphere of
radius r_p = sqrt(p/(N(N-p))) centered at the maximally mixed state, with
equality exactly for the states R(q) = diag(1/q, ..., 1/q, 0, ..., 0),
q = N - p.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sqrt

import numpy as np

from .errors import DomainError, NumericError
from .serialize import require_numbers
from .states import DEFAULT_ZERO_TOL, _spectra, maximally_mixed

ON_SPHERE_TOL = 1e-9
EQUALITY_TOL = 1e-12
UNIT_SUM_TOL = 1e-10


@dataclass(frozen=True)
class StratumReport:
    """Distance of a state to (1/N) I versus the sphere of its stratum."""

    dim: int
    zero_count: int  # number of zero eigenvalues under tolerance
    distance: float
    radius: float  # 0.0 for full-rank states
    on_sphere: bool
    # distance >= d_min - tolerance, d_min the least distance of any state with
    # zero_count eigenvalues within zero_tol; false only if the theorem failed
    satisfied: bool


@dataclass(frozen=True)
class HarrimanResult:
    """Sum of squares of a unit-sum tuple against its uniform lower bound 1/n."""

    sum_of_squares: float
    bound: float
    equality: bool
    slack: float


def distance_to_max(rho) -> float:
    """Hilbert-Schmidt distance sqrt(Tr{(rho - (1/N) I)^2}) of a density matrix."""
    return stratum_report(rho).distance


def stratum_radius(dim: int, zero_count: int) -> float:
    """Radius sqrt(p/(N(N-p))) of the sphere for states with p zero eigenvalues."""
    if not 1 <= zero_count <= dim - 1:
        raise DomainError(
            f"zero eigenvalue count must be in 1..{dim - 1}, got {zero_count}"
        )
    return sqrt(zero_count / (dim * (dim - zero_count)))


def boundary_state(dim: int, rank: int) -> np.ndarray:
    """The state diag(1/q, ..., 1/q, 0, ..., 0) with q equal nonzero eigenvalues.

    rank = N gives the maximally mixed state; rank = 1 a pure state.
    """
    if not 1 <= rank <= dim:
        raise DomainError(f"rank must be in 1..{dim}, got {rank}")
    diag = np.zeros(dim, dtype=complex)
    diag[:rank] = 1.0 / rank
    return np.diag(diag)


def _reals(values) -> np.ndarray:
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"tuple entries are not numeric: {exc}") from exc


def harriman_check(values) -> HarrimanResult:
    """Check sum(a_j^2) >= 1/n for reals a_j summing to 1 (entries may be negative).

    Equality holds iff every a_j equals 1/n; the slack sum(a_j^2) - 1/n is the
    sum of squared deviations from the uniform tuple.
    """
    a = _reals(values)
    if a.ndim != 1 or a.size < 1:
        raise DomainError(f"expected a nonempty 1-d tuple of reals, got shape {a.shape}")
    require_numbers(values, "tuple entries")
    return harriman_checks(a[None])[0]


def harriman_checks(stack) -> list[HarrimanResult]:
    """harriman_check of each row of an (M, n) stack of tuples, in order.

    Each row's sum and sum of squares are the operations of a one-tuple
    call, a pairwise row sum and a BLAS dot, stack or not.  The first row
    that fails raises its error.
    """
    a = _reals(stack)
    if a.ndim != 2 or not a.shape[1]:
        raise DomainError(f"expected an (M, n) stack of nonempty tuples, got shape {a.shape}")
    # a non-finite entry, or finite ones past the float range, make the sum
    # non-finite (inf - inf is NaN), which fails its test; a row that passes
    # it is finite, so only overflow makes its sum of squares non-finite
    with np.errstate(invalid="ignore", over="ignore"):
        totals = a.sum(axis=1).tolist()
        sums_sq = np.matmul(a[:, None, :], a[:, :, None]).ravel().tolist()
    bound = 1.0 / a.shape[1]
    results = []
    for j, (total, sum_sq) in enumerate(zip(totals, sums_sq)):
        if not abs(total - 1.0) <= UNIT_SUM_TOL:
            raise DomainError(f"tuple must sum to 1, got {total!r}")
        if not isfinite(sum_sq):
            try:  # the one-tuple product again, for numpy's own overflow message
                with np.errstate(over="raise"):
                    a[j] @ a[j]
            except FloatingPointError as exc:
                raise NumericError(f"sum of squares of this tuple is not finite: {exc}") from exc
        slack = sum_sq - bound
        results.append(
            HarrimanResult(
                sum_of_squares=sum_sq, bound=bound, equality=slack <= EQUALITY_TOL, slack=slack
            )
        )
    return results


def _min_distance(dim: int, zero_count: int, zero_tol: float) -> float:
    """Least distance to (1/N) I of a unit-trace state with p eigenvalues in [-t, t].

    The p small eigenvalues sit at +t and the others are equal, which gives
    sqrt(p t^2 + (1 - p t)^2/(N - p) - 1/N); it is 0 once t >= 1/N, where
    (1/N) I itself qualifies.  At t = 0 it is the stratum radius r_p.
    """
    p, t = zero_count, zero_tol
    if not p or t >= 1.0 / dim:
        return 0.0
    return sqrt(max(p * t * t + (1.0 - p * t) ** 2 / (dim - p) - 1.0 / dim, 0.0))


def stratum_report(rho, zero_tol: float = DEFAULT_ZERO_TOL) -> StratumReport:
    """Locate a density matrix relative to the sphere of its zero-eigenvalue stratum.

    Full-rank states (p = 0) report radius 0 and satisfied = True, so one
    report pipeline covers interior and boundary samples alike.
    """
    return stratum_reports(np.asarray(rho, dtype=complex)[None], zero_tol)[0]


def stratum_reports(stack, zero_tol: float = DEFAULT_ZERO_TOL) -> list[StratumReport]:
    """stratum_report of each density matrix of an (M, N, N) stack, in order.

    One gate call validates the stack and solves every spectrum.  Each
    distance is the root of per-row BLAS dot products of the real and the
    imaginary parts, the v0.1.0 norm operation for operation, stack or not.
    The first matrix that fails validation raises its error; a zero count of
    N, which needs zero_tol >= 1/N, raises after validation of the stack.
    """
    m, _, zeros = _spectra(stack, zero_tol=zero_tol, psd=True)
    n = m.shape[-1]
    x = (m - maximally_mixed(n)).reshape(len(m), 1, n * n)
    re, im = x.real, x.imag
    sq = np.matmul(re, re.swapaxes(1, 2)) + np.matmul(im, im.swapaxes(1, 2))
    zeros = zeros.tolist()
    # one radius and one least distance per zero count present, looked up in item order
    radius = {p: stratum_radius(n, p) if p else 0.0 for p in dict.fromkeys(zeros)}
    least = {p: _min_distance(n, p, zero_tol) for p in radius}
    return [
        StratumReport(
            dim=n,
            zero_count=p,
            distance=dist,
            radius=radius[p],
            on_sphere=abs(dist - radius[p]) <= ON_SPHERE_TOL,
            satisfied=dist >= least[p] - ON_SPHERE_TOL,
        )
        for dist, p in zip(np.sqrt(sq).ravel().tolist(), zeros)
    ]
