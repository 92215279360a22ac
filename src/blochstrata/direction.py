"""Directional representation: unit directions, their matrices, and admissible lengths.

A unit vector n in R^(N^2-1) determines the traceless Hermitian matrix
T_n = sum_j n_j T_j with Tr{T_n^2} = 1.  Its eigenvalues mu_1 >= ... >= mu_N
(always of both signs) cap the admissible Bloch length along n at
1/(N |mu_N|): the state (1/N) I + r T_n stays positive semidefinite exactly
up to that length and touches the boundary there.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .basis import BasisSet, _center_plus, _check_basis, _diagonal, _row_dots, _traceless_part
from .errors import DomainError, _array, _first_failure, _integer, _real, _zeros
from .states import (
    DEFAULT_ZERO_TOL,
    StateClass,
    _spectra,
    _state_class,
    hermitian_eigenvalues,
)
from .stratification import stratum_radius

UNIT_NORM_TOL = 1e-10


@dataclass(frozen=True)
class DirectionReport:
    """Eigenvalue profile of T_n and the state at the maximal admissible length."""

    direction: np.ndarray
    mu: np.ndarray  # eigenvalues of T_n, descending
    max_length: float  # 1/(N |mu_N|)
    cap_state_class: StateClass
    cap_zero_count: int  # the cap's zeros under zero_tol: the multiplicity of mu_N, or 0


def directional_matrix(basis: BasisSet, direction) -> np.ndarray:
    """T_n = sum_j n_j T_j for a unit vector n.

    Rejects non-unit input rather than renormalizing silently.
    """
    _check_basis(basis)
    _, t = _directional_matrices(basis, _array(direction, "direction entries")[None])
    return t[0]


def _directional_matrices(basis: BasisSet, directions):
    """(v, t): the rows as floats and their T_n; DomainError for the first
    non-unit row.  The norms are per-row BLAS dots, the v0.1.0 norm operation
    for operation; T_n comes from the index formulas of basis._traceless_part,
    so no (N**2 - 1, N, N) basis tensor is built."""
    v = np.ascontiguousarray(directions, dtype=float)
    n = basis.dim
    d = n * n - 1
    if v.shape[1:] != (d,):
        raise DomainError(
            f"expected a direction of length {d} for dimension {n}, got shape {v.shape[1:]}"
        )
    with np.errstate(over="ignore"):  # entries past 1e154 give |n| = inf, which fails below
        norms = np.sqrt(_row_dots(v))
    j = _first_failure(np.abs(norms - 1.0) <= UNIT_NORM_TOL)
    if j is not None:
        raise DomainError(f"direction must have unit norm, got |n| = {float(norms[j])!r}")
    return v, _traceless_part(v, n)


def state_along(basis: BasisSet, direction, length: float) -> np.ndarray:
    """The matrix (1/N) I + r T_n; Hermitian and unit trace, positivity not guaranteed."""
    t = directional_matrix(basis, direction)
    return _center_plus(_real(length, "length"), t)


def direction_report(
    basis: BasisSet, direction, zero_tol: float = DEFAULT_ZERO_TOL
) -> DirectionReport:
    """Analyze one direction: mu-spectrum, maximal length, and the cap state.

    The cap state (1/N) I + max_length * T_n has smallest eigenvalue zero in
    exact arithmetic; computed, that eigenvalue is eigensolver noise (about
    1e-16).  So the cap classifies as a boundary state when zero_tol is above
    that noise, as the default is, and cap_zero_count, the count of its
    eigenvalues within zero_tol of 0, is the multiplicity of the most negative
    eigenvalue of T_n.  At a zero_tol below the noise, such as 1e-16 or 1e-17
    at N = 4, the count can be 0 and the cap may classify as
    positive_interior or nonpositive, and nothing fails.
    """
    _check_basis(basis)
    return _direction_reports(basis, _array(direction, "direction entries")[None], zero_tol)[0]


def direction_reports(
    basis: BasisSet, directions, zero_tol: float = DEFAULT_ZERO_TOL
) -> list[DirectionReport]:
    """direction_report of each row of an (M, N**2 - 1) array of unit directions.

    One pass of the basis index formulas forms every T_n, as in
    directional_matrix, one eigensolve gives every mu-spectrum, and one gate
    call validates and classifies every cap state, so every report equals
    direction_report of its row bit for bit.  The norm check runs over every row before any cap
    is checked, and each check raises for its first failing row.
    """
    _check_basis(basis)
    v = _array(directions, "direction entries")
    if v.ndim != 2:
        raise DomainError(f"expected an (M, {len(basis)}) stack of directions, got shape {v.shape}")
    return _direction_reports(basis, v, zero_tol)


def _direction_reports(basis: BasisSet, directions, zero_tol) -> list[DirectionReport]:
    """direction_reports without the stack check, which would misname direction_report's input."""
    v, mu, max_length, smallest, zeros, t = _direction_columns(basis, directions, zero_tol)
    columns = zip(v, mu, max_length.tolist(), smallest.tolist(), zeros.tolist())
    return [
        DirectionReport(row, row_mu, length, _state_class(least, count, t), count)
        for row, row_mu, length, least, count in columns
    ]


def _direction_columns(basis: BasisSet, directions, zero_tol):
    """(directions, mu descending, max_length, the cap state's smallest eigenvalue
    and zero count) of an (M, N**2 - 1) stack, one row per direction, then the
    zero_tol the gate checked, as a float.

    The cap states (1/N) I + max_length T_n go through the validation gate and
    their own eigensolve: the evidence, independent of mu, that each is a
    boundary state, and the one source of its class and cap_zero_count.
    """
    v, t = _directional_matrices(basis, directions)
    n = basis.dim
    mu = hermitian_eigenvalues(t)[:, ::-1]
    max_length = 1.0 / (n * np.abs(mu[:, -1]))
    # t is not read again, so the cap states are built in it
    tol, w, zeros = _spectra(_center_plus(max_length[:, None, None], t), zero_tol=zero_tol)
    return v, mu, max_length, w[:, 0], zeros, tol


def extremal_spectra(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The two eigenvalue profiles of T_n with extremal entries.

    First: one maximal positive eigenvalue sqrt((N-1)/N), the rest equal
    -1/sqrt(N(N-1)); the admissible length along such a direction reaches the
    large-sphere radius and the cap state is pure.  Second: the mirror
    profile with one minimal negative eigenvalue; the admissible length
    shrinks to the small-sphere radius and the cap has N - 1 equal nonzero
    eigenvalues.  Both profiles sum to 0 with squares summing to 1.
    """
    dim = _integer(dim, "dim", 2)
    # allocated first, so a dimension numpy refuses fails there, not in sqrt
    top_heavy = _zeros(dim, "eigenvalue profile")
    top_heavy[0] = sqrt((dim - 1) / dim)
    top_heavy[1:] = -1.0 / sqrt(dim * (dim - 1))
    return top_heavy, -top_heavy[::-1]


def directional_matrix_of_boundary(dim: int, rank: int) -> np.ndarray:
    """The diagonal directional matrix pointing at the boundary state R(q).

    diag(sqrt((N-q)/(qN)) x q, -sqrt(q/(N(N-q))) x (N-q)): traceless, unit
    Hilbert-Schmidt norm, and (1/N) I + sqrt((N-q)/(qN)) * T reconstructs
    diag(1/q, ..., 1/q, 0, ..., 0).  One guarded complex array filled through
    its diagonal: a dim whose N x N array cannot be allocated is a
    NumericError naming it.
    """
    dim = _integer(dim, "dim", 2)
    rank = _integer(rank, "rank", 1, dim - 1)
    t, diagonal = _diagonal(dim, "directional matrix")
    diagonal[:rank] = stratum_radius(dim, dim - rank)
    diagonal[rank:] = -stratum_radius(dim, rank)
    return t
