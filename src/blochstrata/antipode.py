"""Antipodal states: reversing a Bloch direction, and the boundary-to-boundary pairing.

Opposite the boundary state R(q) = diag(1/q, ..., 1/q, 0, ..., 0), the Bloch
length is capped at sqrt(q/(N(N-q))); at that cap the antipodal state is,
up to eigenvalue ordering, the boundary state R(N-q).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .basis import BasisSet
from .direction import directional_matrix_of_boundary, state_along
from .errors import DomainError, NumericError
from .states import (
    DEFAULT_ZERO_TOL,
    UNIT_TRACE_TOL,
    StateClass,
    _state_class,
    _validate,
    hermitian_eigenvalues,
    maximally_mixed,
)
from .stratification import boundary_state

SPECTRAL_MATCH_TOL = 1e-12


@dataclass(frozen=True)
class AntipodeReport:
    """The maximal-length state opposite a boundary state R(q)."""

    rank: int  # q
    direction_state: np.ndarray  # R(q)
    max_antipodal_length: float
    antipodal_cap: np.ndarray
    matches_complement: bool  # cap spectrum equals that of R(N-q)


def antipodal_state(basis: BasisSet, direction, length: float) -> np.ndarray:
    """The matrix (1/N) I - r T_n, i.e. the state at length r along -n."""
    return state_along(basis, -np.asarray(direction, dtype=float), length)


def max_antipodal_length(dim: int, rank: int) -> float:
    """Largest Bloch length sqrt(q/(N(N-q))) admissible opposite R(q)."""
    if not 1 <= rank <= dim - 1:
        raise DomainError(f"rank must be in 1..{dim - 1}, got {rank}")
    return sqrt(rank / (dim * (dim - rank)))


def antipode_of_boundary(dim: int, rank: int) -> AntipodeReport:
    """Construct the maximal antipodal state of R(q) and compare it to R(N-q).

    The comparison is spectral (sorted eigenvalues), since the construction
    places the zero eigenvalues first while R(N-q) places them last; the two
    differ only by relabeling.
    """
    length = max_antipodal_length(dim, rank)
    t = directional_matrix_of_boundary(dim, rank)
    cap, w, _ = _validate(maximally_mixed(dim) - length * t, psd=True)
    target = boundary_state(dim, dim - rank)
    dev = float(np.abs(w - hermitian_eigenvalues(target)).max())
    return AntipodeReport(
        rank=rank,
        direction_state=boundary_state(dim, rank),
        max_antipodal_length=length,
        antipodal_cap=cap,
        matches_complement=dev <= SPECTRAL_MATCH_TOL,
    )


def antipodal_family(dim: int, rank: int, length: float) -> tuple[np.ndarray, StateClass]:
    """Diagonal antipodal state at a given length, with its classification.

    Entries are 1/N - r sqrt((N-q)/(qN)) (q times) and
    1/N + r sqrt(q/(N(N-q))) (N-q times).  Interior for r strictly below the
    antipodal cap, a boundary state with q zeros at the cap, nonpositive
    beyond.  Built directly from the diagonal formula, independently of the
    basis-multiplication path, so the two routes can be cross-checked.  The
    class comes from the diagonal too: the q small entries equal
    sqrt((N-q)/(qN)) (cap - r), so they are measured against the cap and
    keep their sign at any length.  At large r the entries lose 1/N to
    rounding, and a state whose trace is then not 1 within the unit-trace
    tolerance is a NumericError.
    """
    if not 1 <= rank <= dim - 1:
        raise DomainError(f"rank must be in 1..{dim - 1}, got {rank}")
    if not length >= 0:
        raise DomainError(f"length must be >= 0, got {length}")
    if length == np.inf:
        raise DomainError(f"length must be finite, got {length}")
    cap = max_antipodal_length(dim, rank)
    shrink = sqrt((dim - rank) / (rank * dim))
    diag = np.empty(dim)
    diag[:rank] = 1.0 / dim - length * shrink
    diag[rank:] = 1.0 / dim + length * cap
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite trace fails below
        trace = float(diag.sum())
    if not abs(trace - 1.0) <= UNIT_TRACE_TOL:
        raise NumericError(
            f"at length {length!r} the entries 1/N - r c and 1/N + r c lose 1/N to rounding: "
            f"their trace is {trace!r}"
        )
    smallest = shrink * (cap - length)
    zeros = rank if abs(smallest) <= DEFAULT_ZERO_TOL else 0
    return np.diag(diag).astype(complex), _state_class(smallest, zeros, DEFAULT_ZERO_TOL)
