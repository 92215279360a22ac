"""Tests for the generalized Gell-Mann basis construction and validation."""

import hashlib
from math import sqrt

import numpy as np
import pytest

from blochstrata import DomainError, build_basis, expand, verify_basis

SQ2 = sqrt(2.0)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# standard Gell-Mann matrices, written out by hand
GM = [
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
    np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex),
    np.array([[1, 0, 0], [0, 1, 0], [0, 0, -2]], dtype=complex) / sqrt(3.0),
]


def brute_force_gram(mats):
    """Gram matrix Tr{A B} by explicit entry sums, independent of einsum."""
    n = len(mats)
    gram = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            prod = mats[i] @ mats[j]
            gram[i, j] = sum(prod[k, k] for k in range(prod.shape[0]))
    return gram


def test_dim2_is_pauli_over_sqrt2():
    b = build_basis(2)
    expected = np.array([PAULI_X, PAULI_Y, PAULI_Z]) / SQ2
    np.testing.assert_allclose(b.elements, expected, atol=1e-15)
    for e in b.elements:
        assert abs(np.trace(e @ e) - 1.0) < 1e-14


def test_dim3_is_gellmann_over_sqrt2():
    # canonical order: symmetric pairs, antisymmetric pairs, then diagonal
    expected = [GM[0], GM[3], GM[5], GM[1], GM[4], GM[6], GM[2], GM[7]]
    b = build_basis(3)
    for ours, ref in zip(b.elements, expected):
        np.testing.assert_allclose(ours, ref / SQ2, atol=1e-15)
    # oracle: Gram of the hand-written set over sqrt(2) is the identity
    gram = brute_force_gram([g / SQ2 for g in GM])
    np.testing.assert_allclose(gram, np.eye(8), atol=1e-12)


def test_dim4_gram_identity_brute_force():
    b = build_basis(4)
    gram = brute_force_gram(list(b.elements))
    assert gram.shape == (15, 15)
    np.testing.assert_allclose(gram, np.eye(15), atol=1e-12)


@pytest.mark.parametrize("dim", range(2, 9))
def test_element_count_and_invariants(dim):
    b = build_basis(dim)
    assert len(b) == dim * dim - 1
    for e in b:
        assert np.abs(e - e.conj().T).max() <= 1e-14
        assert abs(e.trace()) <= 1e-14
    assert verify_basis(b).ok


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_reconstruction_of_traceless_hermitian(dim):
    rng = np.random.default_rng(7)
    b = build_basis(dim)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (a + a.conj().T) / 2
    h -= np.trace(h) / dim * np.eye(dim)
    coords = expand(b, h)
    rebuilt = np.tensordot(coords, b.elements, axes=(0, 0))
    assert np.abs(rebuilt - h).max() <= 1e-12


def test_determinism_bit_identical():
    for dim in (2, 3, 6):
        a = build_basis(dim)
        b = build_basis(dim)
        assert a.elements.tobytes() == b.elements.tobytes()


def test_verify_flags_scaled_element():
    b = build_basis(3)
    elems = b.elements.copy()
    elems[0] = 2.0 * elems[0]
    corrupted = build_basis(3)
    vars(corrupted)["elements"] = elems
    report = verify_basis(corrupted)
    gram_violations = [v for v in report.violations if v.invariant == "gram"]
    assert gram_violations
    diag = next(v for v in gram_violations if v.location == (0, 0))
    assert diag.magnitude == pytest.approx(3.0, abs=1e-12)


def test_verify_flags_identity_substitution():
    dim = 4
    b = build_basis(dim)
    elems = b.elements.copy()
    elems[0] = np.eye(dim)
    corrupted = build_basis(dim)
    vars(corrupted)["elements"] = elems
    report = verify_basis(corrupted)
    trace_violations = [v for v in report.violations if v.invariant == "trace"]
    assert trace_violations and trace_violations[0].location == (0,)
    assert trace_violations[0].magnitude == pytest.approx(dim, abs=1e-12)


def test_basis_is_read_only():
    b = build_basis(2)
    with pytest.raises(ValueError):
        b.elements[0, 0, 0] = 1.0


@pytest.mark.parametrize("dim", [1, 0, -3])
def test_rejects_bad_dimension(dim):
    with pytest.raises(DomainError):
        build_basis(dim)


# SHA-256 over build_basis(n).elements.view(np.uint64) for n = 2..16, as
# built by the dense construction of blochstrata 0.1.0
ELEMENTS_SHA256_2_TO_16 = "457d453aec45951dd644a255d77b3d635526c9d801069256bf4cadd98788839a"


def test_elements_bitwise_equal_to_dense_construction_of_v0_1_0():
    digest = hashlib.sha256()
    for dim in range(2, 17):
        digest.update(build_basis(dim).elements.view(np.uint64).tobytes())
    assert digest.hexdigest() == ELEMENTS_SHA256_2_TO_16


def test_elements_built_only_when_read():
    b = build_basis(64)
    assert len(b) == 64 * 64 - 1
    assert "elements" not in vars(b)
    assert b.elements is b.elements  # built once, then cached
    assert b.elements.shape == (4095, 64, 64)


@pytest.mark.parametrize("dim", range(2, 17))
def test_closed_form_expand_matches_dense_contraction(dim):
    rng = np.random.default_rng(dim)
    b = build_basis(dim)
    pairs = dim * (dim - 1)
    for _ in range(5):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        general = rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))
        for m in (rho, general):
            dense = np.einsum("ij,kji->k", m, b.elements).real
            fast = expand(b, m)
            assert np.abs(fast - dense).max() <= 1e-15
            # off-diagonal coordinates take the products in the dense order
            assert fast[:pairs].tobytes() == dense[:pairs].tobytes()


@pytest.mark.parametrize("dim", [2, 3, 7])
def test_expand_of_element_is_unit_vector(dim):
    b = build_basis(dim)
    for k, e in enumerate(b.elements):
        np.testing.assert_allclose(expand(b, e), np.eye(len(b))[k], atol=1e-15)


def test_expand_rejects_wrong_shape():
    b = build_basis(3)
    with pytest.raises(DomainError):
        expand(b, np.eye(4))
