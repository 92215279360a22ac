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

from .errors import DomainError
from .states import DEFAULT_ZERO_TOL, _validate, check_density, maximally_mixed

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
    satisfied: bool  # distance >= radius - tolerance


@dataclass(frozen=True)
class HarrimanResult:
    """Sum of squares of a unit-sum tuple against its uniform lower bound 1/n."""

    sum_of_squares: float
    bound: float
    equality: bool
    slack: float


def distance_to_max(rho) -> float:
    """Hilbert-Schmidt distance sqrt(Tr{(rho - (1/N) I)^2}) of a density matrix."""
    m = check_density(rho)
    return float(np.linalg.norm(m - maximally_mixed(m.shape[0])))


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


def harriman_check(values) -> HarrimanResult:
    """Check sum(a_j^2) >= 1/n for reals a_j summing to 1 (entries may be negative).

    Equality holds iff every a_j equals 1/n; the slack sum(a_j^2) - 1/n is the
    sum of squared deviations from the uniform tuple.
    """
    try:
        a = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"tuple entries are not numeric: {exc}") from exc
    if a.ndim != 1 or a.size < 1:
        raise DomainError(f"expected a nonempty 1-d tuple of reals, got shape {a.shape}")
    # a non-finite entry makes the sum non-finite (inf - inf is NaN), which fails this test
    with np.errstate(invalid="ignore"):
        total = float(a.sum())
    if not abs(total - 1.0) <= UNIT_SUM_TOL:
        raise DomainError(f"tuple must sum to 1, got {total!r}")
    n = a.size
    sum_sq = float(a @ a)
    bound = 1.0 / n
    slack = sum_sq - bound
    return HarrimanResult(
        sum_of_squares=sum_sq,
        bound=bound,
        equality=slack <= EQUALITY_TOL,
        slack=slack,
    )


def stratum_report(rho, zero_tol: float = DEFAULT_ZERO_TOL) -> StratumReport:
    """Locate a density matrix relative to the sphere of its zero-eigenvalue stratum.

    Full-rank states (p = 0) report radius 0 and satisfied = True, so one
    report pipeline covers interior and boundary samples alike.
    """
    m, _, zeros = _validate(rho, zero_tol=zero_tol, psd=True)
    n = m.shape[0]
    dist = float(np.linalg.norm(m - maximally_mixed(n)))
    radius = stratum_radius(n, zeros) if zeros else 0.0
    return StratumReport(
        dim=n,
        zero_count=zeros,
        distance=dist,
        radius=radius,
        on_sphere=abs(dist - radius) <= ON_SPHERE_TOL,
        satisfied=dist >= radius - ON_SPHERE_TOL,
    )
