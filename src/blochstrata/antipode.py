"""Antipodal states: reversing a Bloch direction, and the boundary-to-boundary pairing.

Opposite the boundary state R(q) = diag(1/q, ..., 1/q, 0, ..., 0), the Bloch
length is capped at sqrt(q/(N(N-q))); at that cap the antipodal state is,
up to eigenvalue ordering, the boundary state R(N-q).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisSet, _diagonal
from .direction import directional_matrix, directional_matrix_of_boundary
from .errors import NumericError, _integer, _real
from .states import (
    DEFAULT_ZERO_TOL,
    UNIT_TRACE_TOL,
    StateClass,
    _state_class,
    _validate,
    hermitian_eigenvalues,
    maximally_mixed,
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
    length = _real(length, "length")
    return maximally_mixed(basis.dim) - length * t


def max_antipodal_length(dim: int, rank: int) -> float:
    """Largest Bloch length sqrt(q/(N(N-q))) admissible opposite R(q)."""
    return stratum_radius(dim, _integer(rank, "rank", 1, _integer(dim, "dim", 2) - 1))


def antipode_of_boundary(dim: int, rank: int) -> AntipodeReport:
    """Construct the maximal antipodal state of R(q) and compare it to R(N-q).

    The comparison is spectral (sorted eigenvalues), since the construction
    places the zero eigenvalues first while R(N-q) places them last; the two
    differ only by relabeling.
    """
    dim = _integer(dim, "dim", 2)
    rank = _integer(rank, "rank", 1, dim - 1)
    length = max_antipodal_length(dim, rank)
    t = directional_matrix_of_boundary(dim, rank)
    cap, _, w, _ = _validate(maximally_mixed(dim) - length * t, psd=True)
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
    tolerance is a NumericError.  The state is one guarded complex array
    filled through its diagonal: a dim whose N x N array cannot be allocated
    is a NumericError naming it.
    """
    dim = _integer(dim, "dim", 2)
    rank = _integer(rank, "rank", 1, dim - 1)
    cap = max_antipodal_length(dim, rank)
    length = _real(length, "length")
    shrink = stratum_radius(dim, dim - rank)
    state, diagonal = _diagonal(dim, "antipodal state")
    diagonal[:rank] = 1.0 / dim - length * shrink
    diagonal[rank:] = 1.0 / dim + length * cap
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite trace fails below
        trace = float(diagonal.real.sum())
    if not abs(trace - 1.0) <= UNIT_TRACE_TOL:
        raise NumericError(
            f"at length {length!r} the entries 1/N - r c and 1/N + r c lose 1/N to rounding: "
            f"their trace is {trace!r}"
        )
    smallest = shrink * (cap - length)
    zeros = rank if abs(smallest) <= DEFAULT_ZERO_TOL else 0
    return state, _state_class(smallest, zeros, DEFAULT_ZERO_TOL)
