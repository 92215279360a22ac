"""Stratification of boundary states by concentric spheres around (1/N) I.

A boundary state with p zero eigenvalues lies on or outside the sphere of
radius r_p = sqrt(p/(N(N-p))) centered at the maximally mixed state, with
equality exactly for the states R(q) = diag(1/q, ..., 1/q, 0, ..., 0),
q = N - p.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .basis import _diagonal, _row_dots
from .errors import DomainError, NumericError, _array, _first_failure, _integer
from .states import DEFAULT_ZERO_TOL, _spectra

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
    # the checked ints, so a numpy integer cannot wrap around in the product
    dim = _integer(dim, "dim", 2)
    zero_count = _integer(zero_count, "zero_count", 1, dim - 1)
    return sqrt(zero_count / (dim * (dim - zero_count)))


def boundary_state(dim: int, rank: int) -> np.ndarray:
    """The state diag(1/q, ..., 1/q, 0, ..., 0) with q equal nonzero eigenvalues.

    rank = N gives the maximally mixed state; rank = 1 a pure state.  One
    guarded complex array filled through its diagonal: a dim whose N x N
    array cannot be allocated is a NumericError naming it.
    """
    dim = _integer(dim, "dim", 2)
    rank = _integer(rank, "rank", 1, dim)
    state, diagonal = _diagonal(dim, "boundary state")
    diagonal[:rank] = 1.0 / rank
    return state


def harriman_check(values) -> HarrimanResult:
    """Check sum(a_j^2) >= 1/n for reals a_j summing to 1 (entries may be negative).

    Equality holds iff every a_j equals 1/n; the slack sum(a_j^2) - 1/n is the
    sum of squared deviations from the uniform tuple.
    """
    return _harriman_results(_tuples(values, 1)[None])[0]


# what the one tuple reader expects, by ndim: a tuple, or a stack of them
_TUPLE_SHAPES = {1: "a nonempty 1-d tuple of reals", 2: "an (M, n) stack of nonempty tuples"}


def _tuples(values, ndim: int) -> np.ndarray:
    """values as the float array of ndim 1 or 2 that harriman_check or harriman_checks
    takes, every tuple nonempty, or DomainError: the one reader of tuples, a file's too."""
    a = _array(values, "tuple entries")
    if a.ndim != ndim or not a.shape[-1]:
        raise DomainError(f"expected {_TUPLE_SHAPES[ndim]}, got shape {a.shape}")
    return a


def harriman_checks(stack) -> list[HarrimanResult]:
    """harriman_check of each row of an (M, n) stack of tuples, in order.

    Each row's sum and sum of squares are the operations of a one-tuple
    call, a pairwise row sum and a BLAS dot, stack or not.  Every row is
    read as harriman_check reads its tuple, booleans and strings rejected;
    then the unit-sum check, then the overflow check, runs over every row,
    and raises for its first failing row.
    """
    return _harriman_results(_tuples(stack, 2))


def _harriman_results(a: np.ndarray) -> list[HarrimanResult]:
    """harriman_checks of an (M, n) float stack its caller read, without the stack check."""
    _, sums_sq, bound, slack, equality = _harriman_columns(a)
    return [
        HarrimanResult(sum_of_squares=s, bound=bound, equality=eq, slack=d)
        for s, d, eq in zip(sums_sq.tolist(), slack.tolist(), equality.tolist())
    ]


def _harriman_columns(a: np.ndarray):
    """(n, sums of squares, bound 1/n, slack, equality) of an (M, n) float stack,
    one array entry per tuple; the unit-sum and overflow checks of harriman_checks."""
    # a non-finite entry, or finite ones past the float range, make the sum
    # non-finite (inf - inf is NaN), which fails its test; a row that passes
    # it is finite, so only overflow makes its sum of squares non-finite
    with np.errstate(invalid="ignore", over="ignore"):
        totals = a.sum(axis=1)
        sums_sq = _row_dots(a)
    j = _first_failure(np.abs(totals - 1.0) <= UNIT_SUM_TOL)
    if j is not None:
        raise DomainError(f"tuple must sum to 1, got {float(totals[j])!r}")
    if not np.isfinite(sums_sq).all():
        raise NumericError("sum of squares of this tuple is not finite")
    n = a.shape[1]
    bound = 1.0 / n
    slack = sums_sq - bound
    return n, sums_sq, bound, slack, slack <= EQUALITY_TOL


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
    return _stratum_reports(_array(rho, "matrix entries", complex)[None], zero_tol)[0]


def stratum_reports(stack, zero_tol: float = DEFAULT_ZERO_TOL) -> list[StratumReport]:
    """stratum_report of each density matrix of an (M, N, N) stack, in order.

    One gate call validates the stack and solves every spectrum.  Each
    distance is the root of per-row BLAS dot products of the real and the
    imaginary parts, the v0.1.0 norm operation for operation, stack or not.
    Each validation check runs over the whole stack and raises for its first
    failing matrix (see states._spectra), a zero count of N too.
    """
    m = _array(stack, "matrix entries", complex)
    if m.ndim != 3:
        raise DomainError(f"expected an (M, N, N) stack of matrices, got shape {m.shape}")
    return _stratum_reports(m, zero_tol)


def _stratum_reports(stack, zero_tol) -> list[StratumReport]:
    """stratum_reports without the stack check, which would misname stratum_report's input."""
    n, *columns = _stratum_columns(stack, zero_tol)
    return [StratumReport(n, *row) for row in zip(*(c.tolist() for c in columns))]


def _stratum_columns(stack: np.ndarray, zero_tol):
    """(N, zero counts, distances, radii, on_sphere, satisfied) of an (M, N, N)
    complex stack its caller read, one array entry per matrix: the fields of
    its stratum reports.  The gate, states._spectra, validates the stack and
    leaves every zero count below N.
    """
    t, _, zeros = _spectra(stack, zero_tol=zero_tol, psd=True)
    n = stack.shape[-1]
    x = (stack - np.eye(n) / n).reshape(len(stack), n * n)
    distance = np.sqrt(_row_dots(x.real) + _row_dots(x.imag))
    # one radius and one least distance per zero count present, indexed by the count;
    # p = 0 keeps radius 0 and least distance 0
    radius, least = np.zeros(n), np.zeros(n)
    for p in dict.fromkeys(zeros.tolist()):
        if p:
            radius[p], least[p] = stratum_radius(n, p), _min_distance(n, p, t)
    radius, least = radius[zeros], least[zeros]
    on_sphere = np.abs(distance - radius) <= ON_SPHERE_TOL
    return n, zeros, distance, radius, on_sphere, distance >= least - ON_SPHERE_TOL
