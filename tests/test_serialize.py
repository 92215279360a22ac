"""Tests for the JSON wire formats and CSV float rendering."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from blochstrata import DomainError
from blochstrata.cli import _CSV_BOOL
from blochstrata.serialize import (
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
