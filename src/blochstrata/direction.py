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

from .basis import BasisSet
from .errors import DomainError
from .states import (
    DEFAULT_ZERO_TOL,
    StateClass,
    classify,
    hermitian_eigenvalues,
    maximally_mixed,
)

UNIT_NORM_TOL = 1e-10
MU_CLUSTER_TOL = 1e-8


@dataclass(frozen=True)
class DirectionReport:
    """Eigenvalue profile of T_n and the state at the maximal admissible length."""

    direction: np.ndarray
    mu: np.ndarray  # eigenvalues of T_n, descending
    max_length: float  # 1/(N |mu_N|)
    cap_state_class: StateClass
    cap_zero_count: int  # multiplicity of the most negative eigenvalue


def directional_matrix(basis: BasisSet, direction) -> np.ndarray:
    """T_n = sum_j n_j T_j for a unit vector n.

    Rejects non-unit input rather than renormalizing silently.
    """
    v = np.asarray(direction, dtype=float)
    n = basis.dim
    if v.shape != (n * n - 1,):
        raise DomainError(
            f"expected a direction of length {n * n - 1} for dimension {n}, "
            f"got shape {v.shape}"
        )
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= UNIT_NORM_TOL:
        raise DomainError(f"direction must have unit norm, got |n| = {norm!r}")
    return np.tensordot(v, basis.elements, axes=(0, 0))


def state_along(basis: BasisSet, direction, length: float) -> np.ndarray:
    """The matrix (1/N) I + r T_n; Hermitian and unit trace, positivity not guaranteed."""
    if not length >= 0:
        raise DomainError(f"length must be >= 0, got {length}")
    return maximally_mixed(basis.dim) + length * directional_matrix(basis, direction)


def direction_report(
    basis: BasisSet, direction, zero_tol: float = DEFAULT_ZERO_TOL
) -> DirectionReport:
    """Analyze one direction: mu-spectrum, maximal length, and the cap state.

    The cap state (1/N) I + max_length * T_n has smallest eigenvalue exactly
    zero, so it always classifies as a boundary state; its zero multiplicity
    equals the multiplicity of the most negative eigenvalue of T_n (clustered
    within 1e-8).
    """
    v = np.asarray(direction, dtype=float)
    t = directional_matrix(basis, v)
    mu = hermitian_eigenvalues(t)[::-1]
    n = basis.dim
    max_length = 1.0 / (n * abs(mu[-1]))
    cap = maximally_mixed(n) + max_length * t
    return DirectionReport(
        direction=v,
        mu=mu,
        max_length=max_length,
        cap_state_class=classify(cap, zero_tol),
        cap_zero_count=int(np.count_nonzero(mu <= mu[-1] + MU_CLUSTER_TOL)),
    )


def extremal_spectra(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The two eigenvalue profiles of T_n with extremal entries.

    First: one maximal positive eigenvalue sqrt((N-1)/N), the rest equal
    -1/sqrt(N(N-1)); the admissible length along such a direction reaches the
    large-sphere radius and the cap state is pure.  Second: the mirror
    profile with one minimal negative eigenvalue; the admissible length
    shrinks to the small-sphere radius and the cap has N - 1 equal nonzero
    eigenvalues.  Both profiles sum to 0 with squares summing to 1.
    """
    if dim < 2:
        raise DomainError(f"dimension must be >= 2, got {dim}")
    big = sqrt((dim - 1) / dim)
    small = 1.0 / sqrt(dim * (dim - 1))
    top_heavy = np.array([big] + [-small] * (dim - 1))
    bottom_heavy = np.array([small] * (dim - 1) + [-big])
    return top_heavy, bottom_heavy


def directional_matrix_of_boundary(dim: int, rank: int) -> np.ndarray:
    """The diagonal directional matrix pointing at the boundary state R(q).

    diag(sqrt((N-q)/(qN)) x q, -sqrt(q/(N(N-q))) x (N-q)): traceless, unit
    Hilbert-Schmidt norm, and (1/N) I + sqrt((N-q)/(qN)) * T reconstructs
    diag(1/q, ..., 1/q, 0, ..., 0).
    """
    if not 1 <= rank <= dim - 1:
        raise DomainError(f"rank must be in 1..{dim - 1}, got {rank}")
    diag = np.empty(dim)
    diag[:rank] = sqrt((dim - rank) / (rank * dim))
    diag[rank:] = -sqrt(rank / (dim * (dim - rank)))
    return np.diag(diag).astype(complex)
