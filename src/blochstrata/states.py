"""Density matrices, Bloch vectors, spectra, and positivity classification.

States are plain complex numpy arrays.  A density matrix is Hermitian with
unit trace and eigenvalues >= -1e-10; its Bloch vector is the real coordinate
vector V_j = Tr{rho T_j} in a :class:`~blochstrata.basis.BasisSet`, so that
rho = (1/N) I + sum_j V_j T_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .basis import BasisSet, _traceless_part, expand
from .errors import DomainError, NumericError

DEFAULT_ZERO_TOL = 1e-9
HERMITICITY_TOL = 1e-12
UNIT_TRACE_TOL = 1e-12
PSD_TOL = 1e-10


class StateKind(str, Enum):
    POSITIVE_INTERIOR = "positive_interior"
    BOUNDARY = "boundary"
    NONPOSITIVE = "nonpositive"


@dataclass(frozen=True)
class StateClass:
    """Positivity classification of a unit-trace Hermitian matrix."""

    kind: StateKind
    zero_count: int = 0

    @property
    def label(self) -> str:
        if self.kind is StateKind.BOUNDARY:
            return f"boundary({self.zero_count})"
        return self.kind.value


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues sorted descending plus the count of zeros under tolerance."""

    values: np.ndarray
    zero_count: int


def maximally_mixed(dim: int) -> np.ndarray:
    """The state (1/N) I, center of the state space."""
    if dim < 2:
        raise DomainError(f"dimension must be >= 2, got {dim}")
    return np.eye(dim, dtype=complex) / dim


# inf - inf is NaN, which the deviation test rejects; numpy need not warn about
# it.  The decorator form costs about half of a with-block on this hot path.
@np.errstate(invalid="ignore")
def check_hermitian(matrix, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate and return a square, finite, Hermitian complex matrix."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    dev = float(np.abs(m - m.conj().T).max())
    # written so that NaN fails: a non-finite entry always makes dev non-finite
    if not dev <= tol:
        if not np.isfinite(dev):
            raise DomainError("matrix has non-finite entries")
        raise DomainError(f"matrix is not Hermitian: max |m - m^H| = {dev:.3e}")
    return m


def check_density(matrix) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, eigenvalues >= -1e-10."""
    return _validate(matrix, psd=True)[0]


def hermitian_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix in ascending order.

    The input is symmetrized as (m + m^H)/2 first, so solver-dependent
    complex dust on nearly-Hermitian inputs is discarded.
    """
    # halving first cannot overflow, and gives the bits of (m + m^H)/2
    # wherever that is finite and not subnormal
    half = matrix / 2.0
    h = half + half.conj().T
    try:
        return np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed on shape {h.shape}: {exc}") from exc


def _validate(
    matrix, *, zero_tol: float | None = None, psd: bool = False, unit_trace: bool = True
):
    """The one validation gate: returns (m, ascending eigenvalues, zero count).

    m is square, finite, Hermitian and, with unit_trace, of trace 1.  The
    eigensolve runs only for psd (smallest eigenvalue >= -PSD_TOL) or for
    zero_tol (count of |w| <= zero_tol); otherwise w and zeros are None.
    """
    if zero_tol is not None and not 0.0 < zero_tol < np.inf:
        raise DomainError(f"zero_tol must be positive and finite, got {zero_tol}")
    m = check_hermitian(matrix)
    if unit_trace:
        tr = float(m.trace().real)
        if not abs(tr - 1.0) <= UNIT_TRACE_TOL:
            raise DomainError(f"matrix must have unit trace, got {tr!r}")
    if not psd and zero_tol is None:
        return m, None, None
    w = hermitian_eigenvalues(m)
    if psd and not w[0] >= -PSD_TOL:
        raise DomainError(
            f"matrix is not positive semidefinite: smallest eigenvalue {w[0]:.3e}"
        )
    zeros = None if zero_tol is None else int(np.count_nonzero(np.abs(w) <= zero_tol))
    return m, w, zeros


def spectrum(matrix, zero_tol: float = DEFAULT_ZERO_TOL) -> Spectrum:
    """Descending eigenvalues of a Hermitian matrix with the zero count.

    ``zero_count`` is the number of eigenvalues with |w| <= zero_tol.
    """
    _, w, zeros = _validate(matrix, zero_tol=zero_tol, unit_trace=False)
    return Spectrum(values=w[::-1], zero_count=zeros)


def purity(matrix) -> float:
    """Tr{m^2} of a Hermitian matrix, computed as the squared Frobenius norm."""
    m = np.asarray(matrix, dtype=complex)
    return float(np.vdot(m, m).real)


def classify(matrix, zero_tol: float = DEFAULT_ZERO_TOL) -> StateClass:
    """Classify a unit-trace Hermitian matrix by its eigenvalue signs.

    NONPOSITIVE if some eigenvalue < -zero_tol; BOUNDARY(p) if p >= 1
    eigenvalues lie in [-zero_tol, zero_tol] and the rest are positive;
    POSITIVE_INTERIOR otherwise.  Inputs with trace away from 1 are a
    precondition violation, not silently renormalized.
    """
    _, w, zeros = _validate(matrix, zero_tol=zero_tol)
    if w[0] < -zero_tol:
        return StateClass(StateKind.NONPOSITIVE)
    if zeros >= 1:
        return StateClass(StateKind.BOUNDARY, zero_count=zeros)
    return StateClass(StateKind.POSITIVE_INTERIOR)


def from_bloch(basis: BasisSet, vector) -> np.ndarray:
    """Map a Bloch vector to (1/N) I + sum_j v_j T_j.

    The result always has unit trace and is Hermitian; positivity is NOT
    guaranteed (vectors outside the admissible region give nonpositive
    matrices).  Raises NumericError if an entry overflows.
    """
    v = np.asarray(vector, dtype=float)
    n = basis.dim
    if v.shape != (n * n - 1,):
        raise DomainError(
            f"expected a vector of length {n * n - 1} for dimension {n}, "
            f"got shape {v.shape}"
        )
    if not np.isfinite(v).all():
        raise DomainError("Bloch vector has non-finite entries")
    try:
        with np.errstate(over="raise", invalid="raise"):
            return maximally_mixed(n) + _traceless_part(v, n)
    except FloatingPointError as exc:
        raise NumericError(f"matrix of this Bloch vector is not finite: {exc}") from exc


def to_bloch(basis: BasisSet, matrix) -> np.ndarray:
    """Bloch coordinates V_j = Tr{m T_j} of a unit-trace Hermitian matrix.

    Raises NumericError if a coordinate overflows.
    """
    m = _validate(matrix)[0]
    if m.shape != (basis.dim, basis.dim):
        raise DomainError(
            f"matrix shape {m.shape} does not match basis dimension {basis.dim}"
        )
    try:
        with np.errstate(over="raise", invalid="raise"):
            return expand(basis, m)
    except FloatingPointError as exc:
        raise NumericError(f"Bloch coordinates of this matrix are not finite: {exc}") from exc
