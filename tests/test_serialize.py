"""Tests for the JSON wire formats and CSV float rendering."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from blochstrata import DomainError
from blochstrata.cli import _CSV_BOOL
from blochstrata.serialize import (
    _bloch_payload,
    _matrix_payload,
    bloch_from_dict,
    bloch_to_dict,
    format_float,
    matrix_from_dict,
    matrix_to_dict,
)


def test_format_float_full_precision():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(1.0) == "1"
    assert float(format_float(np.pi)) == np.pi


@given(x=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(x=0.0)
@example(x=-0.0)
@example(x=float("nan"))
@example(x=-float("nan"))
@example(x=float("inf"))
@example(x=-float("inf"))
@example(x=5e-324)
@example(x=-2.2250738585072009e-308)
def test_row_template_writes_floats_as_format_float(x):
    # the CLI's CSV row templates write floats, Python or numpy, with %.17g
    assert "%.17g" % x == format_float(x)
    assert "%.17g" % np.float64(x) == format_float(x)


def test_format_bool():
    assert _CSV_BOOL[True] == "true"
    assert _CSV_BOOL[False] == "false"


def test_matrix_round_trip():
    m = np.array([[0.5, 0.1 + 0.2j], [0.1 - 0.2j, 0.5]])
    d = matrix_to_dict(m)
    assert d["dim"] == 2
    back = matrix_from_dict(d)
    np.testing.assert_array_equal(back, m)


def test_bloch_round_trip():
    coords = np.array([0.1, -0.2, 0.3])
    dim, back = bloch_from_dict(bloch_to_dict(2, coords))
    assert dim == 2
    np.testing.assert_array_equal(back, coords)


def test_public_dicts_hold_lists_and_payloads_hold_read_only_views():
    m = np.array([[0.5, 0.1 + 0.2j], [0.1 - 0.2j, 0.5]])
    coords = np.array([0.1, -0.0, 0.3])
    d, b = matrix_to_dict(m), bloch_to_dict(2, coords)
    assert d == {"dim": 2, "re": m.real.tolist(), "im": m.imag.tolist()}
    assert b == {"dim": 2, "coords": coords.tolist()}
    entries = [x for row in d["re"] + d["im"] for x in row] + b["coords"]
    assert {type(x) for x in entries} == {float}
    payload, bloch = _matrix_payload(m), _bloch_payload(2, coords)
    assert payload["dim"] == 2 and bloch["dim"] == 2
    views = (payload["re"], payload["im"], bloch["coords"])
    for view, whole in zip(views, (m, m, coords)):
        assert view.dtype == np.float64 and not view.flags.writeable
        assert view is not whole and np.shares_memory(view, whole)  # a view, not a copy
    np.testing.assert_array_equal(payload["re"], m.real)
    np.testing.assert_array_equal(payload["im"], m.imag)
    assert bloch["coords"].tobytes() == coords.tobytes()
    assert m.flags.writeable and coords.flags.writeable  # the caller's arrays stay writable
    m[0, 0] = 0.25  # and a write shows through the views
    assert payload["re"][0, 0] == 0.25


@pytest.mark.parametrize(
    "payload",
    [
        {"dim": 2, "re": [[0, 0], [0, 0]]},
        {"dim": 2, "re": [[0, 0]], "im": [[0, 0], [0, 0]]},
        {"dim": "two", "re": [[0, 0], [0, 0]], "im": [[0, 0], [0, 0]]},
        {"dim": 2, "re": [["x", 0], [0, 0]], "im": [[0, 0], [0, 0]]},
        [1, 2, 3],
    ],
)
def test_matrix_from_dict_rejects_malformed(payload):
    with pytest.raises(DomainError):
        matrix_from_dict(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {"dim": 2, "coords": [0.0, 0.0]},
        {"dim": 1, "coords": []},
        {"coords": [0.0, 0.0, 0.0]},
        {"dim": 2, "coords": ["a", "b", "c"]},
    ],
)
def test_bloch_from_dict_rejects_malformed(payload):
    with pytest.raises(DomainError):
        bloch_from_dict(payload)
