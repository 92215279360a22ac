"""Antipodal states: reversing a Bloch direction, and the boundary-to-boundary pairing.

Opposite the boundary state R(q) = diag(1/q, ..., 1/q, 0, ..., 0), the Bloch
length is capped at sqrt(q/(N(N-q))); at that cap the antipodal state is,
up to eigenvalue ordering, the boundary state R(N-q).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisSet, _center_plus
from .direction import directional_matrix, directional_matrix_of_boundary
from .errors import NumericError, _integer, _real
from .states import (
    DEFAULT_ZERO_TOL,
    UNIT_TRACE_TOL,
    StateClass,
    _state_class,
    _validate,
)
from .stratification import boundary_state, stratum_radius

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
    """The matrix (1/N) I - r T_n, i.e. the state at length r along -n; checks as state_along."""
    t = directional_matrix(basis, direction)
    return _center_plus(-_real(length, "length"), t)


def max_antipodal_length(dim: int, rank: int) -> float:
    """Largest Bloch length sqrt(q/(N(N-q))) admissible opposite R(q)."""
    return stratum_radius(dim, _integer(rank, "rank", 1, _integer(dim, "dim", 2) - 1))


def antipode_of_boundary(dim: int, rank: int) -> AntipodeReport:
    """Construct the maximal antipodal state of R(q) and compare it to R(N-q).

    The comparison is spectral (sorted eigenvalues), since the construction
    places the zero eigenvalues first while R(N-q) places them last; the two
    differ only by relabeling.  The cap's spectrum is the gate's eigensolve,
    R(N-q)'s its sorted diagonal: q zeros, then N-q entries 1/(N-q).
    """
    dim = _integer(dim, "dim", 2)
    rank = _integer(rank, "rank", 1, dim - 1)
    length = max_antipodal_length(dim, rank)
    cap = _center_plus(-length, directional_matrix_of_boundary(dim, rank))
    cap, _, w, _ = _validate(cap, psd=True)
    target = np.repeat((0.0, 1.0 / (dim - rank)), (rank, dim - rank))
    dev = float(np.abs(w - target).max())
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
    beyond.  The state is (1/N) I - r T, built in the diagonal T of
    directional_matrix_of_boundary as antipode_of_boundary builds its cap,
    whose bits it has at the cap; it takes no Gell-Mann coordinates, so the
    route through expand and antipodal_state cross-checks it.  The class
    comes from the closed form: the q small entries equal
    sqrt((N-q)/(qN)) (cap - r), so they are measured against the cap and
    keep their sign at any length.  At large r the entries lose 1/N to
    rounding, and a state whose trace is then not 1 within the unit-trace
    tolerance is a NumericError.  A dim whose N x N directional matrix
    cannot be allocated is a NumericError naming it.
    """
    dim = _integer(dim, "dim", 2)
    rank = _integer(rank, "rank", 1, dim - 1)
    cap = max_antipodal_length(dim, rank)
    length = _real(length, "length")
    shrink = stratum_radius(dim, dim - rank)
    state = _center_plus(-length, directional_matrix_of_boundary(dim, rank))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite trace fails below
        trace = float(state.diagonal().real.sum())
    if not abs(trace - 1.0) <= UNIT_TRACE_TOL:
        raise NumericError(
            f"at length {length!r} the entries 1/N - r c and 1/N + r c lose 1/N to rounding: "
            f"their trace is {trace!r}"
        )
    smallest = shrink * (cap - length)
    zeros = rank if abs(smallest) <= DEFAULT_ZERO_TOL else 0
    return state, _state_class(smallest, zeros, DEFAULT_ZERO_TOL)
