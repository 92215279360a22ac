"""Tests for the one argument contract: integers, lengths and arrays.

Every closed form takes its integers as operator.index does, but for bools
(numpy integers yes; True, 2.5, "3" and None no), and its lengths as finite
numbers.Real >= 0, bools not; a bad argument is a one-line DomainError that
names it, and a good one is used as the Python int or float its check
returned.  Each call reads each argument once.  Every array argument
is read by errors._array, so input numpy cannot read as numbers is a
one-line DomainError too.
"""

import sys
import types
import warnings
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction
from math import inf, nan

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blochstrata
from blochstrata import (
    BasisSet,
    DomainError,
    NumericError,
    SamplerConfig,
    StateClass,
    StateKind,
    antipodal_family,
    antipodal_state,
    antipode_of_boundary,
    boundary_state,
    build_basis,
    check_density,
    check_hermitian,
    classify,
    direction_report,
    direction_reports,
    directional_matrix,
    directional_matrix_of_boundary,
    distance_to_max,
    expand,
    extremal_spectra,
    from_bloch,
    harriman_check,
    harriman_checks,
    max_antipodal_length,
    maximally_mixed,
    purity,
    sample_bloch_in_ball,
    sample_direction,
    sample_state,
    sample_states,
    sample_unit_sum_tuple,
    spectrum,
    state_along,
    stratum_radius,
    stratum_report,
    stratum_reports,
    to_bloch,
    verify_basis,
)
from blochstrata.basis import _check_basis, _traceless_part
from blochstrata.errors import _array, _real, _shown
from blochstrata.serialize import bloch_from_dict, matrix_from_dict


def _raises_naming(call, name):
    with pytest.raises(DomainError) as exc:
        call()
    message = str(exc.value)
    assert message.startswith(f"{name} must be ") and "\n" not in message


@pytest.mark.parametrize("bad", [2.5, "3", None, np.eye(2)], ids=["2.5", "3", "None", "eye"])
@pytest.mark.parametrize(
    "call,name",
    [
        (build_basis, "dim"),
        (lambda x: stratum_radius(4, x), "zero_count"),
        (lambda x: stratum_radius(x, 1), "dim"),
        (lambda x: boundary_state(4, x), "rank"),
        (lambda x: directional_matrix_of_boundary(4, x), "rank"),
        (lambda x: max_antipodal_length(4, x), "rank"),
        (lambda x: antipode_of_boundary(4, x), "rank"),
        (lambda x: antipodal_family(4, x, 0.1), "rank"),
        (lambda x: antipodal_family(x, 1, 0.1), "dim"),
        (lambda x: extremal_spectra(x), "dim"),
        (lambda x: maximally_mixed(x), "dim"),
    ],
    ids=[
        "build_basis", "stratum_radius", "stratum_radius-dim", "boundary_state",
        "directional_matrix_of_boundary", "max_antipodal_length", "antipode_of_boundary",
        "antipodal_family", "antipodal_family-dim", "extremal_spectra", "maximally_mixed",
    ],
)
def test_non_integer_arguments_are_domain_errors(call, name, bad):
    _raises_naming(lambda: call(bad), name)


@pytest.mark.parametrize(
    "value,shown",
    [
        ("3", "'3'"),
        (np.eye(2), "array([[1., 0.], [0., 1.]])"),
        (
            np.zeros((40, 40)),
            "array([[0., 0., 0., ..., 0., 0., 0.], [0., 0., 0., ..., 0., 0., 0.], [0., 0.,...",
        ),
        # an int too long to show is shown by its bit length: str() refuses more than 4300 digits
        pytest.param(10**79, "1" + "0" * 79, id="80-digits"),
        pytest.param(-(10**78), "-1" + "0" * 78, id="79-digits-negative"),
        pytest.param(10**80, "an integer of 266 bits", id="81-digits"),
        pytest.param(-(10**79), "a negative integer of 263 bits", id="80-digits-negative"),
        pytest.param(10**5000, "an integer of 16610 bits", id="5001-digits"),
    ],
)
def test_a_value_is_shown_on_one_line_of_at_most_80_characters(value, shown):
    assert _shown(value) == shown and len(shown) <= 80


@pytest.mark.parametrize(
    "call,message",
    [
        (
            lambda: boundary_state(4, 10**5000),
            "rank must be in 1..4, got an integer of 16610 bits",
        ),
        (
            lambda: stratum_radius(4, -(10**5000)),
            "zero_count must be in 1..3, got a negative integer of 16610 bits",
        ),
        (
            lambda: sample_direction(10**5000, 3, 0),
            "seed must be a 64-bit unsigned integer, got an integer of 16610 bits",
        ),
    ],
    ids=["boundary_state", "stratum_radius", "sample_direction"],
)
def test_integers_past_the_string_digit_limit_are_one_line_domain_errors(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("bad", ["1", None])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: state_along(build_basis(3), np.eye(8)[0], x),
        lambda x: antipodal_state(build_basis(3), np.eye(8)[0], x),
        lambda x: antipodal_family(3, 1, x),
    ],
    ids=["state_along", "antipodal_state", "antipodal_family"],
)
def test_non_real_lengths_are_domain_errors(call, bad):
    _raises_naming(lambda: call(bad), "length")


_HUGE = 10**400  # an int past the float range


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda: state_along(build_basis(3), np.eye(8)[0], _HUGE), "length"),
        (lambda: antipodal_state(build_basis(3), np.eye(8)[0], _HUGE), "length"),
        (lambda: antipodal_family(3, 1, _HUGE), "length"),
        (lambda: sample_bloch_in_ball(1, 3, _HUGE, 0), "radius"),
        (lambda: stratum_report(np.eye(2) / 2, zero_tol=_HUGE), "zero_tol"),
        (lambda: classify(np.eye(2) / 2, zero_tol=_HUGE), "zero_tol"),
    ],
    ids=["state_along", "antipodal_state", "antipodal_family", "sample_bloch_in_ball",
         "stratum_report", "classify"],
)
def test_reals_past_the_float_range_are_domain_errors(call, name):
    message = f"^{name} must be finite, got a number past the float range$"
    with pytest.raises(DomainError, match=message):
        call()


def test_a_ball_draw_that_overflows_is_a_numeric_error_and_a_finite_one_keeps_its_bits():
    # at radius 1e308, index 0's scaling radius * u / |z| passes the float range
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericError) as exc:
            sample_bloch_in_ball(1, 1, 1e308, 0)
    assert str(exc.value) == (
        "ball vector of radius 1e+308 is not finite: overflow encountered in divide"
    )
    assert caught == []
    # index 3 of the same call stays finite, with the bits it had before the check
    v = sample_bloch_in_ball(1, 1, 1e308, 3)
    assert v.tolist() == [-float.fromhex("0x1.1414b3b4c24e3p+1021")]


@pytest.mark.parametrize(
    "call",
    [
        lambda: maximally_mixed(_HUGE),
        lambda: antipode_of_boundary(_HUGE, 1),
        lambda: boundary_state(_HUGE, 1),
        lambda: directional_matrix_of_boundary(_HUGE, 1),
        lambda: antipodal_family(_HUGE, 1, 0.1),
        lambda: extremal_spectra(_HUGE),
    ],
    ids=["maximally_mixed", "antipode_of_boundary", "boundary_state",
         "directional_matrix_of_boundary", "antipodal_family", "extremal_spectra"],
)
def test_dimensions_numpy_cannot_allocate_are_numeric_errors(call):
    # numpy refuses the size before it allocates anything
    with pytest.raises(NumericError, match="Maximum allowed dimension exceeded$") as exc:
        call()
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize(
    "call,what",
    [
        (lambda: maximally_mixed(3), "maximally mixed state"),
        (lambda: extremal_spectra(4), "eigenvalue profile"),
        (lambda: build_basis(3).elements, "basis tensor of dimension 3"),
        (lambda: _traceless_part(np.full((1, 8), 0.01), 3), "matrix of this Bloch vector"),
        (lambda: check_hermitian(np.eye(3)), "Hermitian check of matrices of dimension 3"),
    ],
    ids=["maximally_mixed", "extremal_spectra", "basis_elements", "from_bloch_traceless_part",
         "check_hermitian"],
)
def test_an_allocation_that_fails_is_a_numeric_error(call, what, monkeypatch):
    # a MemoryError stands in for a size numpy accepts but cannot get; nothing large is allocated
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(np, "zeros", no_memory)
    with pytest.raises(NumericError) as exc:
        call()
    assert str(exc.value) == f"{what}: Unable to allocate 7.28 TiB for an array"


# a sampler whose (1, N, N) Gram stack is 233 TiB, from draws of 64 MB
_WIDE = SamplerConfig(1, 4 * 10**6, 1, 1)


@pytest.mark.parametrize(
    "call,what",
    [
        (lambda: boundary_state(10**7, 1), "boundary state"),
        (lambda: directional_matrix_of_boundary(10**7, 1), "directional matrix"),
        (lambda: antipodal_family(10**7, 1, 0.1), "directional matrix"),
        (lambda: antipode_of_boundary(10**7, 1), "directional matrix"),
        (lambda: sample_state(_WIDE, 0), "Gram matrices of dimension 4000000"),
        (lambda: next(sample_states(_WIDE)), "Gram matrices of dimension 4000000"),
    ],
    ids=["boundary_state", "directional_matrix_of_boundary", "antipodal_family",
         "antipode_of_boundary", "sample_state", "sample_states"],
)
def test_an_n_by_n_array_past_the_address_space_is_one_numeric_error_line(call, what):
    # 1.42 PiB at N = 10**7 and 233 TiB, past the 128 TiB an x86-64 process can map:
    # refused at once, so no host commits memory to it, whatever its overcommit policy
    with pytest.raises(NumericError, match=f"^{what}: Unable to allocate ") as exc:
        call()
    assert "\n" not in str(exc.value)


def test_numpy_integers_are_integers():
    assert stratum_radius(np.int64(4), np.uint8(2)) == stratum_radius(4, 2)
    # the product of a numpy integer would wrap around: N(N - p) is taken on Python ints
    assert stratum_radius(np.uint64(2**63), np.uint64(1)) == stratum_radius(2**63, 1) > 0
    assert stratum_radius(np.int64(2**62), 1) == stratum_radius(2**62, 1) > 0
    assert np.array_equal(boundary_state(np.int32(3), np.int64(2)), boundary_state(3, 2))
    with pytest.raises(DomainError, match="rank must be in 1..3, got 4"):
        max_antipodal_length(np.int64(4), np.int64(4))
    # the checked int is what is kept and computed with: N**2 - 1 of a uint8 20 would wrap to 143
    wide, b20 = BasisSet(np.uint8(20)), BasisSet(20)
    assert type(BasisSet(np.int64(3)).dim) is int
    assert repr(BasisSet(np.int64(3))) == "BasisSet(dim=3)"
    assert len(wide) == 399
    v = sample_direction(1, 399, 0)
    rho = from_bloch(b20, 0.01 * v)
    assert np.array_equal(from_bloch(wide, 0.01 * v), rho)
    assert np.array_equal(to_bloch(wide, rho), to_bloch(b20, rho))
    ours, theirs = direction_report(wide, v), direction_report(b20, v)
    assert np.array_equal(ours.mu, theirs.mu) and ours.max_length == theirs.max_length
    assert ours.cap_state_class == theirs.cap_state_class
    config = SamplerConfig(np.uint64(7), np.int8(3), np.int16(2), np.int32(4))
    assert [type(getattr(config, f)) for f in ("seed", "dim", "rank", "count")] == [int] * 4
    assert config == SamplerConfig(7, 3, 2, 4)
    assert np.array_equal(sample_state(config, np.uint8(1)), sample_state(config, 1))
    report = antipode_of_boundary(np.int64(4), np.uint8(1))
    assert type(report.rank) is int
    _, cls = antipodal_family(np.uint8(4), np.int64(1), max_antipodal_length(4, 1))
    assert type(cls.zero_count) is int and cls == StateClass(StateKind.BOUNDARY, 1)


def test_numpy_and_fraction_reals_compute_as_their_floats():
    # a checked real is used as its Python float: numpy float32 arithmetic, Fraction
    # object arrays and a float32 least distance below the stratum radius cannot happen
    assert type(_real(np.float32(0.5), "x")) is float and _real(Fraction(1, 4), "x") == 0.25
    tol = np.float32(1e-9)
    for n in range(2, 9):
        for q in range(1, n + 1):
            rho = boundary_state(n, q)
            report = stratum_report(rho, zero_tol=tol)
            assert report == stratum_report(rho, zero_tol=float(tol)) and report.satisfied
            assert classify(rho, tol) == classify(rho, float(tol))
    b3 = build_basis(3)
    direction = sample_direction(2, 8, 0)
    assert direction_report(b3, direction, tol).cap_state_class == direction_report(
        b3, direction, float(tol)
    ).cap_state_class
    ours, theirs = antipodal_family(4, 1, np.float32(0.25)), antipodal_family(4, 1, 0.25)
    assert np.array_equal(ours[0], theirs[0]) and ours[1] == theirs[1]
    assert np.array_equal(sample_bloch_in_ball(1, 3, np.float32(0.5), 0),
                          sample_bloch_in_ball(1, 3, 0.5, 0))
    b2 = build_basis(2)
    for call in (state_along, antipodal_state):
        state = call(b2, [0.0, 0.0, 1.0], Fraction(1, 3))
        assert state.dtype == np.complex128
        assert np.array_equal(state, call(b2, [0.0, 0.0, 1.0], 1 / 3))
    # a message written after the check shows the float
    with pytest.raises(NumericError, match=r"^at length 1e\+20 the entries "):
        antipodal_family(3, 1, 10**20)


# the comparisons run on the float: a positive Fraction that rounds to 0.0 is not positive
@pytest.mark.parametrize(
    "call,name,value,rule",
    [
        (lambda x: classify(np.eye(2) / 2, x), "zero_tol", Fraction(1, 10**400),
         "positive and finite"),
        (lambda x: state_along(build_basis(2), [0.0, 0.0, 1.0], x), "length",
         Fraction(-1, 3**400), ">= 0"),
        (lambda x: antipodal_family(3, 1, x), "length", Fraction(-(10**100), 3), ">= 0"),
    ],
    ids=["zero_tol", "state_along", "antipodal_family"],
)
def test_a_real_is_shown_cut_to_80_characters(call, name, value, rule):
    with pytest.raises(DomainError) as exc:
        call(value)
    shown = _shown(value)
    assert str(exc.value) == f"{name} must be {rule}, got {shown}" and len(shown) == 80


_INTEGER, _REAL = "an integer", "a real number"


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize(
    "call,name,kind",
    [
        pytest.param(lambda x: SamplerConfig(x, 3, 2, 2), "seed", _INTEGER, id="config-seed"),
        pytest.param(lambda x: SamplerConfig(1, x, 1, 2), "dim", _INTEGER, id="config-dim"),
        pytest.param(lambda x: SamplerConfig(1, 3, x, 2), "rank", _INTEGER, id="config-rank"),
        pytest.param(lambda x: SamplerConfig(1, 3, 2, x), "count", _INTEGER, id="config-count"),
        pytest.param(lambda x: sample_state(SamplerConfig(1, 3, 2, 2), x), "index", _INTEGER,
                     id="sample_state-index"),
        pytest.param(lambda x: sample_direction(x, 3, 0), "seed", _INTEGER, id="direction-seed"),
        pytest.param(lambda x: sample_direction(1, x, 0), "num_coords", _INTEGER,
                     id="direction-num_coords"),
        pytest.param(lambda x: sample_direction(1, 3, x), "index", _INTEGER, id="direction-index"),
        pytest.param(lambda x: sample_bloch_in_ball(x, 3, 0.5, 0), "seed", _INTEGER,
                     id="ball-seed"),
        pytest.param(lambda x: sample_bloch_in_ball(1, x, 0.5, 0), "num_coords", _INTEGER,
                     id="ball-num_coords"),
        pytest.param(lambda x: sample_bloch_in_ball(1, 3, x, 0), "radius", _REAL,
                     id="ball-radius"),
        pytest.param(lambda x: sample_bloch_in_ball(1, 3, 0.5, x), "index", _INTEGER,
                     id="ball-index"),
        pytest.param(lambda x: sample_unit_sum_tuple(x, 3, 0), "seed", _INTEGER, id="tuple-seed"),
        pytest.param(lambda x: sample_unit_sum_tuple(1, x, 0), "size", _INTEGER, id="tuple-size"),
        pytest.param(lambda x: sample_unit_sum_tuple(1, 3, x), "index", _INTEGER,
                     id="tuple-index"),
        pytest.param(lambda x: stratum_radius(x, 1), "dim", _INTEGER, id="stratum_radius-dim"),
        pytest.param(lambda x: stratum_radius(3, x), "zero_count", _INTEGER,
                     id="stratum_radius-zero_count"),
        pytest.param(lambda x: boundary_state(x, 1), "dim", _INTEGER, id="boundary_state-dim"),
        pytest.param(lambda x: boundary_state(3, x), "rank", _INTEGER, id="boundary_state-rank"),
        pytest.param(lambda x: maximally_mixed(x), "dim", _INTEGER, id="maximally_mixed"),
        pytest.param(lambda x: classify(np.eye(2) / 2, x), "zero_tol", _REAL, id="classify"),
        pytest.param(lambda x: stratum_report(np.eye(2) / 2, x), "zero_tol", _REAL,
                     id="stratum_report"),
        pytest.param(lambda x: direction_report(build_basis(2), [0.0, 0.0, 1.0], x), "zero_tol",
                     _REAL, id="direction_report"),
        pytest.param(lambda x: state_along(build_basis(2), [0.0, 0.0, 1.0], x), "length", _REAL,
                     id="state_along"),
        pytest.param(lambda x: antipodal_state(build_basis(2), [0.0, 0.0, 1.0], x), "length",
                     _REAL, id="antipodal_state"),
        pytest.param(lambda x: antipodal_family(3, 1, x), "length", _REAL, id="antipodal_family"),
    ],
)
def test_a_bool_is_not_a_number(call, name, kind, flag):
    # operator.index and numbers.Real take True as 1; errors._array and JSON do not
    with pytest.raises(DomainError) as exc:
        call(flag)
    assert str(exc.value) == f"{name} must be {kind}, got {flag}"


# every public call that reads an array argument, given that array
ARRAY_CALLS = {
    "check_hermitian": check_hermitian,
    "check_density": check_density,
    "spectrum": spectrum,
    "purity": purity,
    "classify": classify,
    "distance_to_max": distance_to_max,
    "stratum_report": stratum_report,
    "stratum_reports": stratum_reports,
    "to_bloch": lambda x: to_bloch(build_basis(2), x),
    "expand": lambda x: expand(build_basis(2), x),
    "from_bloch": lambda x: from_bloch(build_basis(2), x),
    "directional_matrix": lambda x: directional_matrix(build_basis(2), x),
    "direction_report": lambda x: direction_report(build_basis(2), x),
    "direction_reports": lambda x: direction_reports(build_basis(2), x),
    "state_along": lambda x: state_along(build_basis(2), x, 0.5),
    "antipodal_state": lambda x: antipodal_state(build_basis(2), x, 0.5),
    "harriman_check": harriman_check,
    "harriman_checks": harriman_checks,
}


@pytest.mark.parametrize("bad", [[[1, 0], [0]], {"re": 1}, 10**400, [[0.5, 0.5], 1]],
                         ids=["ragged", "dict", "huge-int", "mixed-depths"])
@pytest.mark.parametrize("call", list(ARRAY_CALLS.values()), ids=list(ARRAY_CALLS))
def test_arrays_numpy_cannot_read_are_domain_errors(call, bad):
    with pytest.raises(DomainError, match=" are not numeric: ") as exc:
        call(bad)
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize(
    "bad,kind",
    [
        ([True, False], "boolean"),
        (np.array([True, False]), "boolean"),
        ([np.True_, 0.5], "boolean"),
        (["0.5", 0.5], "string"),
        (np.array(["0.5", "0.5"]), "string"),
        ([b"0.5", 0.5], "string"),
        (np.array([b"0.5", b"0.5"]), "string"),
        ([np.array(True), np.array(False)], "boolean"),
        ([np.array("0.5"), 0.5], "string"),
        ("x", "string"),
        (["0.5", True], "boolean"),
        ([True, "x"], "boolean"),
        ([None, b"0.5"], "string"),
        ([[1, "x"], [2]], "string"),
    ],
    ids=[
        "bools", "bool-array", "numpy-bool", "str", "str-array", "bytes", "bytes-array",
        "0d-bools", "0d-string", "bare-string", "string-and-bool", "bool-and-string",
        "null-and-bytes", "ragged-with-string",
    ],
)
@pytest.mark.parametrize("call", list(ARRAY_CALLS.values()), ids=list(ARRAY_CALLS))
def test_boolean_and_string_entries_numpy_reads_as_numbers_are_domain_errors(call, bad, kind):
    # numpy reads True as 1.0 and "0.5" as 0.5; errors._array rejects both for every caller,
    # before the cast: a bare or ragged string is named too, and a boolean before a string
    with pytest.raises(DomainError) as exc:
        call(bad)
    assert str(exc.value).endswith(f" must be numbers, got a {kind}")
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("bad", [[None, 0.5], [[None]], None, [[None, 1], [2]]],
                         ids=["list", "nested", "bare", "ragged"])
@pytest.mark.parametrize("call", list(ARRAY_CALLS.values()), ids=list(ARRAY_CALLS))
def test_null_entries_numpy_reads_as_nan_are_domain_errors(call, bad):
    with pytest.raises(DomainError) as exc:
        call(bad)
    assert str(exc.value).endswith(" must be numbers, got a null")


@pytest.mark.parametrize(
    "read,payload,what",
    [
        (matrix_from_dict, {"dim": 1, "re": [[None]], "im": [[0]]}, "matrix entries"),
        (bloch_from_dict, {"dim": 2, "coords": [None, 0, 0]}, "Bloch coordinates"),
    ],
    ids=["matrix", "bloch"],
)
def test_a_json_null_is_not_read_as_nan(read, payload, what):
    with pytest.raises(DomainError) as exc:
        read(payload)
    assert str(exc.value) == f"{what} must be numbers, got a null"


def test_a_boolean_stack_is_not_a_stack_of_tuples():
    with pytest.raises(DomainError, match="^tuple entries must be numbers, got a boolean$"):
        harriman_checks(np.array([[True, False]]))
    with pytest.raises(DomainError, match="^tuple entries must be numbers, got a string$"):
        harriman_checks(np.array([[0.5, "0.5"]], dtype=object))


@pytest.mark.parametrize("bad", ["x", None, 3, np.eye(2)], ids=["string", "None", "int", "eye"])
@pytest.mark.parametrize(
    "call,message",
    [
        (lambda b: expand(b, np.eye(2)), "basis must be a BasisSet"),
        (lambda b: to_bloch(b, np.eye(2) / 2), "basis must be a BasisSet"),
        (lambda b: from_bloch(b, [0.0, 0.0, 0.5]), "basis must be a BasisSet"),
        (verify_basis, "basis must be a BasisSet"),
        (lambda b: directional_matrix(b, [0.0, 0.0, 1.0]), "basis must be a BasisSet"),
        (lambda b: state_along(b, [0.0, 0.0, 1.0], 0.5), "basis must be a BasisSet"),
        (lambda b: antipodal_state(b, [0.0, 0.0, 1.0], 0.5), "basis must be a BasisSet"),
        (lambda b: direction_report(b, [0.0, 0.0, 1.0]), "basis must be a BasisSet"),
        (lambda b: direction_reports(b, [[0.0, 0.0, 1.0]]), "basis must be a BasisSet"),
        (lambda c: sample_state(c, 0), "config must be a SamplerConfig"),
        (lambda c: list(sample_states(c)), "config must be a SamplerConfig"),
    ],
    ids=[
        "expand", "to_bloch", "from_bloch", "verify_basis", "directional_matrix", "state_along",
        "antipodal_state", "direction_report", "direction_reports", "sample_state",
        "sample_states",
    ],
)
def test_a_basis_or_config_of_another_type_is_a_domain_error(call, message, bad):
    with pytest.raises(DomainError) as exc:
        call(bad)
    assert str(exc.value) == f"{message}, got {_shown(bad)}"


@pytest.mark.parametrize(
    "bad",
    [
        np.array([0.5 + 1j, 0.5]), [np.complex128(0.5 + 1j), 0.5], [np.array(1j), 1.0],
        [[np.complex64(1j)], [0.5]], [1j, 0.5],
    ],
    ids=["complex-array", "numpy-complex", "0d-complex", "nested-complex64", "python-complex"],
)
def test_a_numpy_complex_entry_of_a_real_array_is_a_domain_error(bad):
    # numpy would drop the imaginary part, with a ComplexWarning; recorded here, as
    # pytest's filter would turn that warning into an exception
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DomainError) as exc:
            harriman_check(bad)
    assert str(exc.value) == "tuple entries must be real numbers, got a complex number"
    assert [str(w.message) for w in caught] == []


def test_a_complex_entry_is_read_for_a_complex_dtype():
    # and, as for a real dtype, a boolean entry is not
    values = [[0.5, np.complex128(0.5j)], [-0.5j, np.complex64(0.5)]]
    assert _array(values, "matrix entries", complex).tolist() == [[0.5, 0.5j], [-0.5j, 0.5]]
    with pytest.raises(DomainError, match="^matrix entries must be numbers, got a boolean$"):
        _array([1j, True], "matrix entries", complex)


@pytest.mark.parametrize(
    "bad,shown",
    [
        pytest.param("foo", "'foo'", id="unknown-name"),
        pytest.param("BOUNDARY", "'BOUNDARY'", id="member-name-not-value"),
        pytest.param(None, "None", id="none"),
        pytest.param([], "[]", id="unhashable"),
        # Enum's member search compares the array and asks for its truth value
        pytest.param(np.eye(2), "array([[1., 0.], [0., 1.]])", id="2x2-array"),
        pytest.param(np.array(["boundary", "x"]), "array(['boundary', 'x'], dtype='<U8')",
                     id="array-holding-a-kind"),
    ],
)
def test_a_value_that_names_no_kind_is_a_domain_error(bad, shown):
    with pytest.raises(DomainError) as exc:
        StateKind(bad)
    assert str(exc.value) == (
        f"kind must be one of positive_interior, boundary, nonpositive, got {shown}"
    )


def test_a_kind_is_found_by_its_value_or_itself():
    assert StateKind("boundary") is StateKind.BOUNDARY
    assert StateKind(StateKind.NONPOSITIVE) is StateKind.NONPOSITIVE
    assert StateKind(np.str_("positive_interior")) is StateKind.POSITIVE_INTERIOR


def test_a_0d_array_of_a_number_is_a_number():
    assert harriman_check([np.array(0.25), np.array(0.75)]) == harriman_check([0.25, 0.75])
    assert harriman_check([np.float64(0.5), np.array(0.5, dtype=object)]).equality


# One good call of each callable of blochstrata.__all__, as its positional arguments;
# the contract test sets each slot in turn to a bad value.
_B2 = build_basis(2)
_HALF = np.eye(2) / 2
_Z = [0.0, 0.0, 1.0]
_CONFIG = SamplerConfig(seed=1, dim=3, rank=2, count=2)
GOOD_CALLS = {
    "AntipodeReport": (1, _HALF, 0.5, _HALF, True),
    "BasisSet": (2,),
    "BlochGeometryError": ("x",),
    "DirectionReport": (np.array(_Z), np.zeros(2), 0.5, StateClass(StateKind.BOUNDARY, 1), 1),
    "DomainError": ("x",),
    "HarrimanResult": (0.5, 0.5, True, 0.0),
    "NumericError": ("x",),
    "SamplerConfig": (1, 3, 2, 2),
    "Spectrum": (np.zeros(2), 0),
    "StateClass": (StateKind.BOUNDARY, 1),
    "StateKind": ("boundary",),
    "StratumReport": (2, 0, 0.0, 0.0, True, True),
    "ValidationReport": ((),),
    "Violation": ("x", (0,), 0.0),
    "antipodal_family": (3, 1, 0.1),
    "antipodal_state": (_B2, _Z, 0.5),
    "antipode_of_boundary": (3, 1),
    "boundary_state": (3, 1),
    "build_basis": (2,),
    "check_density": (_HALF,),
    "check_hermitian": (_HALF,),
    "classify": (_HALF, 1e-9),
    "direction_report": (_B2, _Z, 1e-9),
    "direction_reports": (_B2, [_Z], 1e-9),
    "directional_matrix": (_B2, _Z),
    "directional_matrix_of_boundary": (3, 1),
    "distance_to_max": (_HALF,),
    "expand": (_B2, _HALF),
    "extremal_spectra": (3,),
    "from_bloch": (_B2, [0.0, 0.0, 0.5]),
    "harriman_check": ([0.5, 0.5],),
    "harriman_checks": ([[0.5, 0.5]],),
    "max_antipodal_length": (3, 1),
    "maximally_mixed": (3,),
    "purity": (_HALF,),
    "sample_bloch_in_ball": (1, 3, 0.5, 0),
    "sample_direction": (1, 3, 0),
    "sample_state": (_CONFIG, 0),
    "sample_states": (_CONFIG,),
    "sample_unit_sum_tuple": (1, 3, 0),
    "spectrum": (_HALF, 1e-9),
    "state_along": (_B2, _Z, 0.5),
    "stratum_radius": (3, 1),
    "stratum_report": (_HALF, 1e-9),
    "stratum_reports": ([_HALF], 1e-9),
    "to_bloch": (_B2, _HALF),
    "verify_basis": (_B2,),
}
# (name, slot) of every argument of every good call
SLOTS = [(name, slot) for name, args in GOOD_CALLS.items() for slot in range(len(args))]
BAD_VALUES = [
    None, True, "x", "0.5", b"1", 2.5, -1, 0, 1, 10**400, nan, inf, -inf, 1j, object(),
    np.eye(2), np.zeros((0, 0)), [], [[1, 0], [0]], {"re": 1}, build_basis(3),
    SamplerConfig(seed=1, dim=2, rank=1, count=1), np.full(3, nan),
    np.array(True), np.array("0.5"), [np.array(True), np.array(False)],
    [np.array("0.5"), 0.5], [None, 1.0], [[None, 0], [0, 1.0]],
    np.uint64(2**63), np.int64(2**62), np.array([1j, 0, 0]), [np.complex128(0.5 + 1j), 0.5],
    [1e308, 1e308, 0.0],
]
# small integers only: a dimension in the thousands would allocate gigabytes
_BAD = st.one_of(
    st.sampled_from(BAD_VALUES),
    st.integers(-3, 12),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.one_of(st.none(), st.booleans(), st.floats(), st.integers(-3, 3)), max_size=4),
)


def _call(name, args):
    """Call blochstrata.name(*args), running an iterator it returns to its end."""
    result = getattr(blochstrata, name)(*args)
    if isinstance(result, Iterator):
        list(result)


def test_the_good_calls_cover_every_public_callable_and_return():
    public = {name for name in blochstrata.__all__ if callable(getattr(blochstrata, name))}
    assert set(GOOD_CALLS) == public
    for name, args in GOOD_CALLS.items():
        _call(name, args)


@settings(deadline=None, max_examples=500)
@given(case=st.sampled_from(SLOTS), bad=_BAD)
@example(case=("harriman_check", 0), bad=[np.array(True), np.array(False)])
@example(case=("harriman_check", 0), bad=[np.array("0.5"), 0.5])
@example(case=("harriman_check", 0), bad=[None, 1.0])
@example(case=("direction_report", 1), bad=[None, 0.0, 1.0])
@example(case=("stratum_report", 0), bad=[[None, 0], [0, 1.0]])
# a numpy integer product that wrapped around, a norm that overflowed, numpy complex entries
@example(case=("stratum_radius", 0), bad=np.uint64(2**63))
@example(case=("max_antipodal_length", 0), bad=np.int64(2**62))
@example(case=("direction_report", 1), bad=[1e308, 1e308, 0.0])
@example(case=("direction_reports", 1), bad=build_basis(3))
@example(case=("harriman_check", 0), bad=[np.complex128(0.5 + 1j), 0.5])
# a Fraction whose repr runs to hundreds of characters, and whose float is -0.0
@example(case=("state_along", 2), bad=Fraction(-1, 10**400))
def test_every_public_call_returns_or_raises_one_line(case, bad):
    # any exception other than these two, a RuntimeWarning too, fails the test
    name, slot = case
    args = list(GOOD_CALLS[name])
    args[slot] = bad
    try:
        _call(name, args)
    except (DomainError, NumericError) as exc:
        assert "\n" not in str(exc)


# (_array calls, _check_basis calls) of one call with a good argument of each kind
_READS = {
    "to_bloch": ((_B2, _HALF), 1, 1),
    "classify": ((_HALF,), 1, 0),
    "stratum_report": ((_HALF,), 1, 0),
    "direction_report": ((_B2, _Z), 1, 1),
    "antipodal_state": ((_B2, _Z, 0.5), 1, 1),
    "harriman_check": (([0.5, 0.5],), 1, 0),
}


@pytest.mark.parametrize("name", list(_READS))
def test_each_argument_is_read_once(name, monkeypatch):
    args, arrays, bases = _READS[name]
    reads = Counter()

    def counted(check):
        def wrapper(*a, **kw):
            reads[check.__name__] += 1
            return check(*a, **kw)

        return wrapper

    # every module that holds a reference gets the wrapper, as bench/tracing.py does
    wrappers = {_array: counted(_array), _check_basis: counted(_check_basis)}
    for module in [m for key, m in sys.modules.items() if key.startswith("blochstrata")]:
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                monkeypatch.setattr(module, attr, wrappers[value])
    getattr(blochstrata, name)(*args)
    assert (reads["_array"], reads["_check_basis"]) == (arrays, bases)
