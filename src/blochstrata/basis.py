"""Orthonormal traceless Hermitian operator bases (generalized Gell-Mann matrices).

The basis of the space of traceless Hermitian N x N matrices used throughout
this package consists of the N**2 - 1 generalized Gell-Mann matrices, rescaled
so that Tr{T_j T_k} = delta_jk.  For N = 2 these are the Pauli matrices over
sqrt(2); for N = 3 the standard Gell-Mann matrices over sqrt(2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import sqrt

import numpy as np

from .errors import DomainError, NumericError, _array, _integer, _shown, _zeros

ELEMENT_HERMITICITY_TOL = 1e-14
ELEMENT_TRACE_TOL = 1e-14
GRAM_TOL = 1e-12


@dataclass(frozen=True)
class BasisSet:
    """The generalized Gell-Mann basis of N x N traceless Hermitian matrices:
    N**2 - 1 matrices, orthonormal in the trace inner product Tr{A B}.

    ``BasisSet(dim)`` (or :func:`build_basis`) stores only ``dim``;
    :func:`expand`, :func:`~blochstrata.states.from_bloch` and every
    directional matrix T_n use the closed-form index formulas of this basis.
    ``elements``, the read-only complex array of shape (N**2 - 1, N, N), is
    built on first read, by iteration, indexing, :func:`verify_basis` or the
    ``basis`` command, and cached on the instance.  Instances are immutable
    and safe to share between threads; threads that race on the first read
    build equal arrays.
    """

    dim: int

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer(self.dim, "dim", 2))

    @cached_property
    def elements(self) -> np.ndarray:
        return _gell_mann_tensor(self.dim)

    def __len__(self) -> int:
        return self.dim * self.dim - 1

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, index) -> np.ndarray:
        return self.elements[index]


def _check_basis(basis) -> None:
    """DomainError unless basis is a BasisSet."""
    if not isinstance(basis, BasisSet):
        raise DomainError(f"basis must be a BasisSet, got {_shown(basis)}")


@dataclass(frozen=True)
class Violation:
    """One violated basis invariant with its magnitude (absolute deviation)."""

    invariant: str  # "hermiticity" | "trace" | "gram"
    location: tuple
    magnitude: float


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def build_basis(dim: int) -> BasisSet:
    """The generalized Gell-Mann basis for N x N Hermitian matrices.

    Element order is fixed: all symmetric off-diagonal pairs
    (E_jk + E_kj)/sqrt(2) in lexicographic (j, k) order, then all
    antisymmetric pairs -i(E_jk - E_kj)/sqrt(2), then the N - 1 diagonal
    traceless matrices diag(1, ..., 1, -l, 0, ..., 0)/sqrt(l(l+1)) with
    growing leading block.  Each element has unit Hilbert-Schmidt norm.
    The construction is pure and bit-deterministic; the dense tensor is
    built only when ``elements`` is read.
    """
    return BasisSet(dim)


def _gell_mann_tensor(n: int) -> np.ndarray:
    """The (N**2 - 1, N, N) element tensor in build_basis order, read-only.

    Written entry by entry from the definition, independently of the closed
    forms in _coordinates and _traceless_part, which the tests check against
    it; no computation of the package reads it.
    """
    mats = _zeros((n * n - 1, n, n), f"basis tensor of dimension {n}", complex)
    inv_sqrt2 = 1.0 / sqrt(2.0)
    idx = 0
    for j in range(n):
        for k in range(j + 1, n):
            mats[idx, j, k] = inv_sqrt2
            mats[idx, k, j] = inv_sqrt2
            idx += 1
    for j in range(n):
        for k in range(j + 1, n):
            mats[idx, j, k] = -1j * inv_sqrt2
            mats[idx, k, j] = 1j * inv_sqrt2
            idx += 1
    for l in range(1, n):
        scale = 1.0 / sqrt(l * (l + 1))
        for m in range(l):
            mats[idx, m, m] = scale
        mats[idx, l, l] = -l * scale
        idx += 1
    mats.setflags(write=False)
    return mats


def _diagonal(n: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """A complex n x n zero matrix and a writable view of its diagonal, for a builder to
    fill; the one allocation is guarded, a NumericError naming what if it fails."""
    m = _zeros((n, n), what, complex)
    return m, m.reshape(-1)[:: n + 1]


def _center_plus(scale, t: np.ndarray) -> np.ndarray:
    """(1/N) I + scale * t built in t, an N x N matrix or an (M, N, N) stack: the one builder
    of the center plus a traceless part (from_bloch, state_along, antipodal_state, the cap
    states of a direction scan, the cap of antipode_of_boundary and the state of
    antipodal_family), with the bits of that sum: the product first, in that
    operand order, then + 0.0, which turns each -0.0 into the +0.0 that adding (1/N) I
    gives, then 1/N on the diagonal.  scale is a real, or an (M, 1, 1) array of them; no
    N x N array is allocated."""
    np.multiply(scale, t, out=t)
    t += 0.0
    n = t.shape[-1]
    t.reshape(-1, n * n)[:, :: n + 1] += 1.0 / n
    return t


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _row_dots(a: np.ndarray) -> np.ndarray:
    """np.dot(a[j], a[j]) for each row j of an (M, K) real array, each row with its own stride,
    so the real and imaginary views of a complex stack give np.linalg.norm's bits; the dot
    of a contiguous copy of a strided row may differ in the last bit."""
    return np.matmul(a[:, None, :], a[:, :, None]).ravel()


# Both tables depend on N alone and every call of a conversion reads them; they
# are cached read-only, so a caller cannot change what the next one reads.
@lru_cache(maxsize=64)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The row and column indices j < k of the upper triangle, as np.triu_indices(n, 1)."""
    return _read_only(*np.triu_indices(n, 1))


@lru_cache(maxsize=64)
def _diagonal_scales(n: int) -> tuple[np.ndarray, np.ndarray]:
    """For l = 1..N-1: the diagonal element's entries 1/sqrt(l(l+1)) and l/sqrt(l(l+1))."""
    l = np.arange(1, n)
    scale = 1.0 / np.sqrt(l * (l + 1))
    return _read_only(scale, l * scale)


def _coordinates(m: np.ndarray, n: int) -> np.ndarray:
    """Tr{m T_j} for every element of a finite m, from the index formulas; DomainError unless
    m is n x n, NumericError if a coordinate overflows (the one rule of expand and to_bloch).

    Each product is taken before the sum, in the order the dense contraction
    takes them, so the off-diagonal coordinates equal it bit for bit and stay
    finite wherever it does.  The diagonal ones are a scaled cumulative sum of
    the diagonal and may differ from it in the last bit.
    """
    if m.shape != (n, n):
        raise DomainError(f"matrix shape {m.shape} does not match basis dimension {n}")
    j, k = _pairs(n)
    upper, lower = m[j, k], m[k, j]
    c = 1.0 / sqrt(2.0)
    d = m.diagonal().real
    scale, top = _diagonal_scales(n)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return np.concatenate(
                (
                    c * upper.real + c * lower.real,
                    c * lower.imag - c * upper.imag,
                    scale * np.cumsum(d[:-1]) - top * d[1:],
                )
            )
    except FloatingPointError as exc:
        raise NumericError(f"Bloch coordinates of this matrix are not finite: {exc}") from exc


def _traceless_part(v: np.ndarray, n: int) -> np.ndarray:
    """sum_j v[m, j] T_j for each row m of an (M, N**2 - 1) real stack, as an
    (M, N, N) complex stack, from the index formulas; the one builder of T_n.

    Each off-diagonal entry is one coordinate over sqrt(2): the bits of the
    dense contraction with ``BasisSet.elements``, a zero coordinate giving
    +0.0 as its sum does (only a -0.0 coordinate gives -0.0).  Each diagonal
    entry is a scaled cumulative sum and may differ from it in the last bits.
    """
    out = _zeros((len(v), n, n), "matrix of this Bloch vector", complex)
    diagonal = out.reshape(len(v), n * n)[:, :: n + 1]
    pairs = n * (n - 1) // 2
    scale, top = _diagonal_scales(n)
    d = v[:, 2 * pairs :]
    # diagonal entry m: sum over l > m of v_l/sqrt(l(l+1)), minus m v_m/sqrt(m(m+1))
    diagonal.real[:, :-1] = np.cumsum((scale * d)[:, ::-1], axis=1)[:, ::-1]
    diagonal.real[:, 1:] -= top * d
    j, k = _pairs(n)
    c = 1.0 / sqrt(2.0)
    sym, anti = c * v[:, :pairs], c * v[:, pairs : 2 * pairs]
    out.real[:, j, k] = out.real[:, k, j] = sym
    out.imag[:, j, k] = 0.0 - anti  # not -anti, which is -0.0 for a zero coordinate
    out.imag[:, k, j] = anti
    return out


def expand(basis: BasisSet, matrix: np.ndarray) -> np.ndarray:
    """Coordinates Tr{M T_j} of a Hermitian matrix in the basis.

    The identity component of ``matrix`` does not contribute; for a traceless
    Hermitian input the expansion reconstructs it exactly.  A non-finite entry is a
    DomainError, as in the validation gate, and a coordinate that overflows a NumericError.
    """
    _check_basis(basis)
    m = _array(matrix, "matrix entries", complex)
    if not np.isfinite(m).all():
        raise DomainError("matrix has non-finite entries")
    return _coordinates(m, basis.dim)


def verify_basis(basis: BasisSet) -> ValidationReport:
    """Check every BasisSet invariant; report violations instead of raising.

    Returns an empty report iff all elements are Hermitian within 1e-14,
    traceless within 1e-14, and the Gram matrix Tr{T_j T_k} equals the
    identity within 1e-12 entrywise.
    """
    _check_basis(basis)
    violations = []
    elems = basis.elements
    for j, e in enumerate(elems):
        herm_dev = float(np.abs(e - e.conj().T).max())
        if herm_dev > ELEMENT_HERMITICITY_TOL:
            violations.append(Violation("hermiticity", (j,), herm_dev))
        trace_dev = float(abs(e.trace()))
        if trace_dev > ELEMENT_TRACE_TOL:
            violations.append(Violation("trace", (j,), trace_dev))
    gram = np.einsum("aij,bji->ab", elems, elems)
    gram_dev = np.abs(gram - np.eye(len(elems)))
    for j, k in zip(*np.nonzero(gram_dev > GRAM_TOL)):
        violations.append(Violation("gram", (int(j), int(k)), float(gram_dev[j, k])))
    return ValidationReport(tuple(violations))
