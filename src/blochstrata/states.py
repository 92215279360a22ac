"""Density matrices, Bloch vectors, spectra, and positivity classification.

States are plain complex numpy arrays.  A density matrix is Hermitian with
unit trace and no negative eigenvalue; its Bloch vector is the real coordinate
vector V_j = Tr{rho T_j} in a :class:`~blochstrata.basis.BasisSet`, so that
rho = (1/N) I + sum_j V_j T_j.

One rule, _negative_floor, says an eigenvalue is negative, for the validation
gate and classify alike: below -min(PSD_TOL, zero_tol), or below -PSD_TOL
where no zero_tol is passed.  So the gate rejects a state exactly when
classify calls it NONPOSITIVE, and every eigenvalue neither negative nor
above zero_tol counts as zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .basis import BasisSet, _check_basis, _coordinates, _diagonal, _traceless_part
from .errors import DomainError, NumericError, _array, _first_failure, _integer, _real

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
    """The state (1/N) I, center of the state space.

    Like every diagonal state of this package, one guarded complex array filled
    through its diagonal: a dim whose N x N array cannot be allocated is a
    NumericError naming it.
    """
    dim = _integer(dim, "dim", 2)
    # allocated before 1.0 / dim, which overflows for a dim numpy refuses anyway
    center, diagonal = _diagonal(dim, "maximally mixed state")
    diagonal[:] = 1.0 / dim
    return center


def check_hermitian(matrix) -> np.ndarray:
    """Validate and return a square, finite, Hermitian complex matrix."""
    return _validate(matrix, unit_trace=False)[0]


def check_density(matrix) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, eigenvalues >= -PSD_TOL."""
    return _validate(matrix, psd=True)[0]


def hermitian_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, or of each matrix of a stack, ascending.

    The input is symmetrized as (m + m^H)/2 first, so solver-dependent
    complex dust on nearly-Hermitian inputs is discarded.
    """
    # halving first cannot overflow, and gives the bits of (m + m^H)/2
    # wherever that is finite and not subnormal
    half = matrix / 2.0
    h = half + half.conj().swapaxes(-1, -2)
    try:
        return np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed on shape {h.shape}: {exc}") from exc


# _spectra's zero_tol when no zeros are counted; a caller's None is a bad tolerance
_UNCOUNTED = object()


def _negative_floor(zero_tol: float) -> float:
    """The one rule for a negative eigenvalue: it is below -min(PSD_TOL, zero_tol)."""
    return -min(PSD_TOL, zero_tol)


def _spectra(m: np.ndarray, *, zero_tol=_UNCOUNTED, psd: bool = False, unit_trace: bool = True):
    """The one validation gate, over the (M, N, N) array its caller read: returns (t, w, zeros).

    Every matrix of m is square with N >= 1, finite, Hermitian and, with
    unit_trace, of trace 1.  One eigensolve covers the stack, and runs only
    for psd (no eigenvalue negative by _negative_floor of zero_tol, or of
    PSD_TOL where no zero_tol is passed) or for a zero_tol passed: w is then
    (M, N) ascending and zeros the (M,) counts of |w| <= zero_tol, below N
    with unit_trace; otherwise w and zeros are None.  Each check runs over
    the whole stack, in this order: shape, zero_tol, the entries (finite,
    Hermitian, unit trace), PSD, then with unit_trace a zero count of N,
    which needs zero_tol >= 1/N; the first failing check raises the
    DomainError of its first failing matrix.  An empty stack checks
    nothing, not even zero_tol.  t is the checked zero_tol as a float, the
    one every later use takes; where nothing was checked it is zero_tol as
    passed, and no caller uses it.
    """
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise DomainError(f"expected a square matrix, got shape {m.shape[1:]}")
    if not m.shape[1]:
        raise DomainError("expected a matrix of at least 1 x 1, got shape (0, 0)")
    counted = zero_tol is not _UNCOUNTED
    if len(m) and counted:
        zero_tol = _real(zero_tol, "zero_tol", positive=True)
    # inf - inf is NaN, finite entries may overflow to inf; both fail the checks
    with np.errstate(invalid="ignore", over="ignore"):
        dev = np.abs(m - m.conj().swapaxes(1, 2)).max(axis=(1, 2))
        ok = dev <= HERMITICITY_TOL
        if unit_trace:
            tr = m.trace(axis1=1, axis2=2).real
            ok &= np.abs(tr - 1.0) <= UNIT_TRACE_TOL
    j = _first_failure(ok)
    if j is not None:
        if not np.isfinite(m[j]).all():
            raise DomainError("matrix has non-finite entries")
        if not dev[j] <= HERMITICITY_TOL:
            raise DomainError(f"matrix is not Hermitian: max |m - m^H| = {float(dev[j]):.3e}")
        raise DomainError(f"matrix must have unit trace, got {float(tr[j])!r}")
    w = zeros = None
    if psd or counted:
        w = hermitian_eigenvalues(m)
        if psd and len(m):  # an empty stack has nothing to check, and an unchecked zero_tol
            floor = _negative_floor(zero_tol if counted else PSD_TOL)
            j = _first_failure(w[:, 0] >= floor)
            if j is not None:
                raise DomainError(
                    f"matrix is not positive semidefinite: smallest eigenvalue {w[j, 0]:.3e}"
                )
        if counted:
            zeros = np.count_nonzero(np.abs(w) <= zero_tol, axis=1)
            if unit_trace and (zeros == m.shape[1]).any():
                raise DomainError(
                    f"zero_tol = {zero_tol!r} counts all {m.shape[1]} eigenvalues as zero; "
                    "it must be below 1/N"
                )
    return zero_tol, w, zeros


def _validate(matrix, **gate):
    """_spectra of one matrix: returns (m, t, ascending eigenvalues, zero count)."""
    m = _array(matrix, "matrix entries", complex)[None]
    t, w, zeros = _spectra(m, **gate)
    return m[0], t, None if w is None else w[0], None if zeros is None else int(zeros[0])


def spectrum(matrix, zero_tol: float = DEFAULT_ZERO_TOL) -> Spectrum:
    """Descending eigenvalues of a Hermitian matrix with the zero count.

    ``zero_count`` is the number of eigenvalues with |w| <= zero_tol.
    """
    _, _, w, zeros = _validate(matrix, zero_tol=zero_tol, unit_trace=False)
    return Spectrum(values=w[::-1], zero_count=zeros)


def purity(matrix) -> float:
    """Tr{m^2} of a Hermitian matrix, computed as the squared Frobenius norm."""
    m = check_hermitian(matrix)
    return float(np.vdot(m, m).real)


def classify(matrix, zero_tol: float = DEFAULT_ZERO_TOL) -> StateClass:
    """Classify a unit-trace Hermitian matrix by its eigenvalue signs.

    NONPOSITIVE if some eigenvalue < -min(PSD_TOL, zero_tol), the one rule
    by which check_density and stratum_report(matrix, zero_tol) reject a
    matrix as not positive semidefinite; BOUNDARY(p) if p >= 1 eigenvalues
    lie in [-zero_tol, zero_tol] and the rest are above zero_tol;
    POSITIVE_INTERIOR otherwise.  Inputs with trace away from 1 are a
    precondition violation, not silently renormalized.
    """
    _, t, w, zeros = _validate(matrix, zero_tol=zero_tol)
    return _state_class(w[0], zeros, t)


def _state_class(smallest: float, zeros: int, zero_tol: float) -> StateClass:
    """classify from the smallest eigenvalue and the zero count."""
    if smallest < _negative_floor(zero_tol):
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
    _check_basis(basis)
    v = _array(vector, "Bloch coordinates")
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
            rho = maximally_mixed(n)
            rho += _traceless_part(v, n)  # in place: no third N x N array
            return rho
    except FloatingPointError as exc:
        raise NumericError(f"matrix of this Bloch vector is not finite: {exc}") from exc


def to_bloch(basis: BasisSet, matrix) -> np.ndarray:
    """Bloch coordinates V_j = Tr{m T_j} of a unit-trace Hermitian matrix.

    Raises NumericError if a coordinate overflows.
    """
    _check_basis(basis)
    m = _validate(matrix)[0]
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _coordinates(m, basis.dim)
    except FloatingPointError as exc:
        raise NumericError(f"Bloch coordinates of this matrix are not finite: {exc}") from exc
