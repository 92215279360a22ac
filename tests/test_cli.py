"""End-to-end tests of the command-line interface."""

import contextlib
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from itertools import product
from math import inf, nan, sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blochstrata.cli as cli
from blochstrata import (
    NumericError,
    SamplerConfig,
    boundary_state,
    maximally_mixed,
    sample_state,
    stratum_radius,
)
from blochstrata.cli import _CSV_BOOL
from blochstrata.errors import _shown
from blochstrata.serialize import matrix_to_dict


def run(args, capsys):
    rc = cli.main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def data_lines(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


def write_matrix(path, m):
    path.write_text(json.dumps(matrix_to_dict(m)))
    return str(path)


def test_basis_json_is_pauli(capsys):
    rc, out, _ = run(["basis", "--dim", "2", "--format", "json"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["manifest"]["command"] == "basis"
    assert payload["dim"] == 2
    assert len(payload["elements"]) == 3
    # third element: sigma_z / sqrt(2), flattened row-major as [re, im] pairs
    z = payload["elements"][2]
    assert z[0] == pytest.approx([sqrt(0.5), 0.0])
    assert z[3] == pytest.approx([-sqrt(0.5), 0.0])


def test_basis_csv_shape(capsys):
    rc, out, _ = run(["basis", "--dim", "3", "--format", "csv"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("# manifest ")
    assert lines[1].startswith("element,re_0_0,im_0_0,")
    assert len(lines) == 2 + 8  # manifest + header + 8 elements


def test_basis_bad_dim_exits_2(capsys):
    rc, out, err = run(["basis", "--dim", "1"], capsys)
    assert rc == 2
    assert not out
    assert "error" in err


def test_convert_round_trip(tmp_path, capsys):
    rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
    matrix_file = write_matrix(tmp_path / "state.json", rho)
    rc, out, _ = run(["convert", "--in", matrix_file], capsys)
    assert rc == 0
    bloch = json.loads(out)
    assert bloch["dim"] == 3 and len(bloch["coords"]) == 8

    bloch_file = tmp_path / "vector.json"
    bloch_file.write_text(json.dumps({"dim": 3, "coords": bloch["coords"]}))
    rc, out, _ = run(["convert", "--in", str(bloch_file)], capsys)
    assert rc == 0
    back = json.loads(out)
    rebuilt = np.asarray(back["re"]) + 1j * np.asarray(back["im"])
    np.testing.assert_allclose(rebuilt, rho, atol=1e-12)


def test_classify_maximally_mixed(tmp_path, capsys):
    matrix_file = write_matrix(tmp_path / "max.json", maximally_mixed(3))
    rc, out, _ = run(["classify", "--in", matrix_file], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["p"] == 0
    assert payload["distance"] == pytest.approx(0.0, abs=1e-12)
    assert payload["satisfied"] is True


def test_classify_boundary_state(tmp_path, capsys):
    matrix_file = write_matrix(tmp_path / "r2.json", boundary_state(3, 2))
    rc, out, _ = run(["classify", "--in", matrix_file], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["p"] == 1 and payload["on_sphere"] is True


def test_classify_csv_format(tmp_path, capsys):
    matrix_file = write_matrix(tmp_path / "r2.json", boundary_state(3, 2))
    rc, out, _ = run(["classify", "--in", matrix_file, "--format", "csv"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[1] == "N,p,distance,radius_p,on_sphere,satisfied"
    assert lines[2].startswith("3,1,") and lines[2].endswith(",true,true")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("dim", [1, 2, 4])
def test_classify_with_every_eigenvalue_zero_is_one_error_line(dim, fmt, tmp_path, capsys):
    matrix_file = write_matrix(tmp_path / "center.json", np.eye(dim) / dim)
    args = ["classify", "--in", matrix_file, "--format", fmt, "--zero-tol", repr(1.0 / dim)]
    rc, out, err = run(args, capsys)
    assert (rc, out) == (2, "")
    message = f"zero_tol = {1.0 / dim!r} counts all {dim} eigenvalues as zero; it must be below 1/N"
    assert err == f"error: {message}\n"


def test_classify_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run(["classify", "--in", str(bad)], capsys)
    assert rc == 2 and "error" in err


def test_classify_missing_file_exits_2(tmp_path, capsys):
    rc, _, err = run(["classify", "--in", str(tmp_path / "nope.json")], capsys)
    assert rc == 2 and "error" in err


def test_strata_scan_small(capsys):
    rc, out, _ = run(["strata-scan", "--dim", "3", "--count", "20", "--seed", "5"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[1] == "N,p,distance,radius_p,on_sphere,satisfied"
    rows = [l for l in lines[2:] if not l.startswith("#")]
    assert len(rows) == 3 * 20
    for row in rows:
        fields = row.split(",")
        assert fields[0] == "3"
        assert fields[5] == "true"
    assert any(l.startswith("# min_slack rank=1 ") for l in lines)


def test_strata_scan_zero_count(capsys):
    rc, out, _ = run(["strata-scan", "--dim", "3", "--count", "0", "--seed", "5"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 2  # manifest + header only
    assert lines[1] == "N,p,distance,radius_p,on_sphere,satisfied"


@pytest.mark.parametrize("dim", range(2, 10))
def test_strata_rows_equal_the_strata_row_template(dim):
    # every zero count and (on_sphere, satisfied) pair, those the theorem never gives too
    flags, distances = (False, True), (0.0, 5e-324, 0.1, 1 / 3, 1e17)
    cases = list(product(range(dim), flags, flags, distances))
    radii = [stratum_radius(dim, p) if p else 0.0 for p, *_ in cases]
    expected = "".join(
        cli._STRATA_ROW % (dim, p, d, r, _CSV_BOOL[on], _CSV_BOOL[ok]) + "\n"
        for (p, on, ok, d), r in zip(cases, radii)
    )
    zeros, on_sphere, satisfied, distance = map(np.array, zip(*cases))
    rows = cli._strata_rows(dim, zeros, distance, np.array(radii), on_sphere, satisfied)
    assert rows == expected


def test_strata_row_cells_are_cached_read_only():
    cells = cli._strata_cells(4)
    assert cli._strata_cells(4) is cells
    for a in cells:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = "x"


def test_direction_report_from_vector_file(tmp_path, capsys):
    vec = tmp_path / "dir.json"
    vec.write_text(json.dumps({"dim": 2, "coords": [0.0, 0.0, 1.0]}))
    rc, out, _ = run(["direction", "--dim", "2", "--vector", str(vec)], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["max_length"] == pytest.approx(sqrt(0.5), abs=1e-12)
    assert payload["cap_state_class"] == "boundary(1)"
    assert payload["mu"] == pytest.approx([sqrt(0.5), -sqrt(0.5)])


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"dim": 2, "coords": [null, 0, 0]}', "Bloch coordinates must be numbers, got a null"),
        ('{"dim": 1, "re": [[null]], "im": [[0]]}', "matrix entries must be numbers, got a null"),
    ],
    ids=["bloch", "matrix"],
)
def test_a_json_null_entry_is_one_error_line(text, message, tmp_path, capsys):
    # json reads null as None, which numpy would read as NaN
    path = tmp_path / "null.json"
    path.write_text(text)
    assert run(["convert", "--in", str(path)], capsys) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "command,text,message",
    [
        ("convert", '{"dim": true, "coords": [0, 0, 0]}', 'Bloch "dim" must be an integer, got True'),
        ("convert", '{"dim": true, "re": [[1]], "im": [[0]]}',
         'matrix "dim" must be an integer, got True'),
        ("classify", '{"dim": true, "re": [[1]], "im": [[0]]}',
         'matrix "dim" must be an integer, got True'),
        ("classify", '{"dim": 0, "re": [], "im": []}', 'matrix "dim" must be >= 1, got 0'),
        ("convert", '{"dim": 1, "coords": []}', 'Bloch "dim" must be >= 2, got 1'),
    ],
    ids=["convert-bloch-true", "convert-matrix-true", "classify-true", "classify-0", "convert-1"],
)
def test_a_json_dim_is_read_by_the_integer_rule(command, text, message, tmp_path, capsys):
    # json reads true as True, which operator.index would read as 1
    path = tmp_path / "dim.json"
    path.write_text(text)
    assert run([command, "--in", str(path)], capsys) == (2, "", f"error: {message}\n")


def test_direction_vector_dim_mismatch_exits_2(tmp_path, capsys):
    vec = tmp_path / "dir.json"
    vec.write_text(json.dumps({"dim": 2, "coords": [0.0, 0.0, 1.0]}))
    rc, _, err = run(["direction", "--dim", "3", "--vector", str(vec)], capsys)
    assert rc == 2 and "error" in err


def test_direction_scan(capsys):
    rc, out, _ = run(
        ["direction", "--dim", "3", "--seed", "9", "--scan", "15"], capsys
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[1] == "N,mu_min,mu_max,max_length,cap_zero_count"
    assert len(lines) == 2 + 15
    for row in lines[2:]:
        fields = row.split(",")
        assert fields[0] == "3"
        assert float(fields[1]) < 0 < float(fields[2])


def test_direction_requires_vector_or_seed(capsys):
    rc, _, err = run(["direction", "--dim", "3"], capsys)
    assert rc == 2 and "error" in err


def test_antipode_json(capsys):
    rc, out, _ = run(["antipode", "--dim", "3", "--q", "2"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["matches_R_p"] is True
    assert payload["max_antipodal_length"] == pytest.approx(sqrt(2.0 / 3.0), abs=1e-12)
    cap = np.asarray(payload["antipodal_cap"]["re"])
    np.testing.assert_allclose(sorted(np.diag(cap)), [0.0, 0.0, 1.0], atol=1e-12)


def test_antipode_with_length(capsys):
    rc, out, _ = run(
        ["antipode", "--dim", "3", "--q", "2", "--length", "0.1"], capsys
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["family_class"] == "positive_interior"


def test_antipode_table(capsys):
    rc, out, _ = run(["antipode", "--table", "--max-dim", "5"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[1] == "N,q,max_len,match"
    rows = lines[2:]
    assert len(rows) == sum(n - 1 for n in range(2, 6))
    assert all(row.endswith(",true") for row in rows)


def test_lemma_from_file(tmp_path, capsys):
    tuples = tmp_path / "tuples.json"
    tuples.write_text(json.dumps([[0.5, 0.5], [1.0, 0.0], [2.0, -1.0]]))
    rc, out, _ = run(["lemma", "--tuples", str(tuples)], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[1] == "size,sum_of_squares,bound,slack,equality"
    assert lines[2].endswith(",true")
    assert lines[3].endswith(",false")
    assert lines[4].split(",")[1] == "5"


def test_lemma_random(capsys):
    rc, out, _ = run(
        ["lemma", "--count", "10", "--size", "4", "--seed", "3"], capsys
    )
    assert rc == 0
    assert len(out.splitlines()) == 2 + 10


def test_lemma_requires_inputs(capsys):
    rc, _, err = run(["lemma"], capsys)
    assert rc == 2 and "error" in err


def test_zero_tol_only_on_commands_that_read_it():
    with pytest.raises(SystemExit) as exc:
        cli.main(["basis", "--dim", "2", "--zero-tol", "1e-3"])
    assert exc.value.code == 2


def _bad_matrix(tmp_path, value, where=(0, 0)):
    m = matrix_to_dict(maximally_mixed(2))
    j, k = where
    m["re"][j][k] = m["re"][k][j] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(m))
    return str(path)


def _nan_bloch(tmp_path):
    path = tmp_path / "nan_bloch.json"
    path.write_text(json.dumps({"dim": 2, "coords": [0.0, float("nan"), 0.0]}))
    return str(path)


def _json_file(tmp_path, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _text_tuples(tmp_path):
    path = tmp_path / "tuples.json"
    path.write_text(json.dumps([[0.5, "half"]]))
    return str(path)


# a JSON integer outside the float range: numpy's float conversion overflows
_HUGE = 10**400


def _inf_tuples(tmp_path):
    path = tmp_path / "tuples.json"
    path.write_text(json.dumps([[float("inf"), float("-inf"), 1.0]]))
    return str(path)


@pytest.mark.parametrize(
    "make_args,message",
    [
        pytest.param(
            lambda tmp: ["direction", "--dim", "3", "--seed", "1", "--scan", "-5"],
            "--scan", id="direction-negative-scan",
        ),
        pytest.param(
            lambda tmp: ["lemma", "--count", "-3", "--size", "4", "--seed", "1"],
            "count", id="lemma-negative-count",
        ),
        pytest.param(
            lambda tmp: ["antipode", "--table", "--max-dim", "1"],
            "--max-dim", id="antipode-table-max-dim-1",
        ),
        pytest.param(
            lambda tmp: ["lemma", "--tuples", _text_tuples(tmp)],
            "not numeric", id="lemma-non-numeric-tuple",
        ),
        pytest.param(
            lambda tmp: ["lemma", "--tuples", _inf_tuples(tmp)],
            "sum to 1", id="lemma-inf-tuple",
        ),
        pytest.param(
            lambda tmp: ["classify", "--in", _bad_matrix(tmp, float("nan"))],
            "non-finite", id="classify-nan-matrix",
        ),
        pytest.param(
            lambda tmp: ["classify", "--in", _bad_matrix(tmp, float("inf"))],
            "non-finite", id="classify-inf-matrix",
        ),
        pytest.param(
            lambda tmp: ["convert", "--in", _bad_matrix(tmp, float("nan"))],
            "non-finite", id="convert-nan-matrix",
        ),
        pytest.param(
            lambda tmp: ["convert", "--in", _nan_bloch(tmp)],
            "non-finite", id="convert-nan-bloch",
        ),
        pytest.param(
            lambda tmp: ["strata-scan", "--dim", "2", "--count", "1", "--seed", "1",
                         "--zero-tol", "nan"],
            "zero_tol", id="strata-scan-nan-zero-tol",
        ),
        pytest.param(
            lambda tmp: ["convert", "--in", _json_file(tmp, {"dim": 2, "coords": [0.1, 0.2, True]})],
            "boolean", id="convert-bool-coordinate",
        ),
        pytest.param(
            lambda tmp: ["classify", "--in", _json_file(tmp, {"dim": True, "re": [[1]], "im": [[0]]})],
            "dim", id="classify-bool-dim",
        ),
        pytest.param(
            lambda tmp: ["classify", "--in", _bad_matrix(tmp, 1.7e308, where=(0, 1))],
            "positive semidefinite", id="classify-entries-near-float-max",
        ),
        pytest.param(
            lambda tmp: ["classify", "--in", _json_file(
                tmp, {"dim": 2, "re": [[0.5, 1.7e308], [-1.7e308, 0.5]], "im": [[0, 0], [0, 0]]}
            )],
            "not Hermitian", id="classify-antisymmetric-entries-near-float-max",
        ),
        pytest.param(
            lambda tmp: ["classify", "--in", _json_file(
                tmp, {"dim": 2, "re": [[1.7e308, 0], [0, 1.7e308]], "im": [[0, 0], [0, 0]]}
            )],
            "unit trace", id="classify-trace-past-float-max",
        ),
        pytest.param(
            lambda tmp: ["classify", "--in", _json_file(
                tmp, {"dim": 2, "re": [["0.5", 0], [0, "0.5"]], "im": [[0, 0], [0, 0]]}
            )],
            "string", id="classify-numeric-string",
        ),
        pytest.param(
            lambda tmp: ["convert", "--in", _json_file(tmp, {"dim": 2, "coords": ["0.1", 0, 0]})],
            "string", id="convert-numeric-string",
        ),
        pytest.param(
            lambda tmp: ["lemma", "--tuples", _json_file(tmp, [["0.5", 0.5]])],
            "string", id="lemma-numeric-string",
        ),
        pytest.param(
            lambda tmp: ["lemma", "--tuples", _json_file(tmp, [[True, False]])],
            "boolean", id="lemma-boolean-tuple",
        ),
        pytest.param(
            lambda tmp: ["convert", "--in", _json_file(tmp, {"dim": 2})],
            "neither a matrix nor a Bloch vector", id="convert-neither",
        ),
        pytest.param(
            lambda tmp: ["classify", "--in", _bad_matrix(tmp, _HUGE)],
            "matrix entries are not numeric", id="classify-huge-integer",
        ),
        pytest.param(
            lambda tmp: ["convert", "--in", _bad_matrix(tmp, _HUGE)],
            "matrix entries are not numeric", id="convert-matrix-huge-integer",
        ),
        pytest.param(
            lambda tmp: ["convert", "--in", _json_file(tmp, {"dim": 2, "coords": [_HUGE, 0, 0]})],
            "Bloch coordinates are not numeric", id="convert-bloch-huge-integer",
        ),
        pytest.param(
            lambda tmp: ["lemma", "--tuples", _json_file(tmp, [[_HUGE, 1 - _HUGE]])],
            "tuple entries are not numeric", id="lemma-huge-integer",
        ),
        pytest.param(
            lambda tmp: ["direction", "--dim", "2",
                         "--vector", _json_file(tmp, {"dim": 2, "coords": [0, 0, _HUGE]})],
            "Bloch coordinates are not numeric", id="direction-vector-huge-integer",
        ),
        pytest.param(
            lambda tmp: ["strata-scan", "--dim", "3", "--count", "0", "--seed", "1",
                         "--zero-tol", "nan"],
            "zero_tol", id="strata-scan-count-0-nan-zero-tol",
        ),
        pytest.param(
            lambda tmp: ["direction", "--dim", "3", "--scan", "0", "--seed", "1",
                         "--zero-tol", "inf"],
            "zero_tol", id="direction-scan-0-inf-zero-tol",
        ),
        pytest.param(
            lambda tmp: ["sample", "--dim", "3", "--rank", "1", "--count", "0", "--seed", "1",
                         "--format", "csv", "--zero-tol", "-1"],
            "zero_tol", id="sample-csv-count-0-negative-zero-tol",
        ),
        pytest.param(
            lambda tmp: ["sample", "--dim", "3", "--rank", "1", "--count", "0", "--seed", "1",
                         "--format", "json", "--zero-tol", "nan"],
            "zero_tol", id="sample-json-count-0-nan-zero-tol",
        ),
        pytest.param(
            lambda tmp: ["sample", "--dim", "3", "--rank", "1", "--count", "2", "--seed", "1",
                         "--format", "json", "--zero-tol", "nan"],
            "zero_tol", id="sample-json-count-2-nan-zero-tol",
        ),
        pytest.param(
            lambda tmp: ["antipode", "--table", "--max-dim", "3", "--length", "nan"],
            "--table does not take --length", id="antipode-table-with-length",
        ),
        pytest.param(
            lambda tmp: ["antipode", "--table", "--max-dim", "3", "--dim", "3", "--q", "1"],
            "--table does not take --dim, --q", id="antipode-table-with-dim-and-q",
        ),
        pytest.param(
            lambda tmp: ["antipode", "--dim", "3", "--q", "1", "--max-dim", "4"],
            "--max-dim requires --table", id="antipode-max-dim-without-table",
        ),
        pytest.param(
            lambda tmp: ["antipode", "--table"],
            "--table requires --max-dim M", id="antipode-table-without-max-dim",
        ),
        # a path is shown by its repr when it would not print on one line
        pytest.param(
            lambda tmp: ["convert", "--in", "no\nfile.json"],
            "cannot read 'no\\nfile.json': ", id="convert-in-path-with-line-break",
        ),
        pytest.param(
            lambda tmp: ["basis", "--dim", "2", "--out", "/missing\ndir/x"],
            "cannot write '/missing\\ndir/x': ", id="basis-out-path-with-line-break",
        ),
        pytest.param(
            lambda tmp: ["antipode", "--dim", "3", "--q", "2", "--length", "inf"],
            "length must be finite, got inf", id="antipode-infinite-length",
        ),
        pytest.param(
            lambda tmp: ["lemma", "--count", "0", "--size", "0", "--seed", "1"],
            "size must be >= 1, got 0", id="lemma-count-0-size-0",
        ),
        pytest.param(
            lambda tmp: ["lemma", "--count", "0", "--size", "3", "--seed", "-1"],
            "seed must be a 64-bit unsigned integer, got -1", id="lemma-count-0-negative-seed",
        ),
        pytest.param(
            lambda tmp: ["direction", "--dim", "3", "--scan", "0", "--seed", "-1"],
            "seed must be a 64-bit unsigned integer, got -1", id="direction-scan-0-negative-seed",
        ),
        pytest.param(
            lambda tmp: ["lemma", "--tuples", _json_file(tmp, [[0.5, 0.5]]),
                         "--count", "5", "--size", "3", "--seed", "1"],
            "--tuples does not take --count, --size, --seed", id="lemma-tuples-with-count",
        ),
        pytest.param(
            lambda tmp: ["lemma", "--tuples", _json_file(tmp, {"a": 1})],
            "tuple file must contain a JSON list of lists of reals", id="lemma-tuples-not-a-list",
        ),
        pytest.param(
            lambda tmp: ["direction", "--dim", "2",
                         "--vector", _json_file(tmp, {"dim": 2, "coords": [0, 0, 1]}),
                         "--scan", "5", "--seed", "3"],
            "--vector does not take --seed, --scan", id="direction-vector-with-scan",
        ),
    ],
)
@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
def test_bad_input_is_one_error_line(make_args, message, tmp_path, capsys):
    rc, out, err = run(make_args(tmp_path), capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "command,payload,message",
    [
        pytest.param(
            "convert", {"dim": 2, "re": [[0.5, 1.7e308], [1.7e308, 0.5]], "im": [[0, 0], [0, 0]]},
            "Bloch coordinates", id="convert-matrix-overflow",
        ),
        pytest.param(
            "convert", {"dim": 8, "coords": [1e308] * 63}, "matrix", id="convert-bloch-overflow",
        ),
    ],
)
def test_finite_input_with_non_finite_result_is_one_numeric_error_line(
    command, payload, message, tmp_path, capsys
):
    rc, out, err = run([command, "--in", _json_file(tmp_path, payload)], capsys)
    assert rc == 3
    assert out == ""
    assert err.startswith("numeric error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("length", ["1e17", "1e300"])
@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
def test_antipode_length_that_rounds_away_1_over_n_is_one_numeric_error_line(length, capsys):
    rc, out, err = run(["antipode", "--dim", "3", "--q", "2", "--length", length], capsys)
    assert rc == 3
    assert out == ""
    assert err.startswith("numeric error: ") and err.count("\n") == 1
    assert f"at length {float(length)!r}" in err and "lose 1/N to rounding" in err


def test_antipode_far_beyond_the_cap_is_nonpositive(capsys):
    rc, out, _ = run(["antipode", "--dim", "3", "--q", "2", "--length", "1e6"], capsys)
    assert rc == 0
    assert json.loads(out)["family_class"] == "nonpositive"


def _valid_document(n, bloch):
    if bloch:
        return {"dim": n, "coords": [0.0] * (n * n - 1)}
    return matrix_to_dict(maximally_mixed(n))


def _entries(doc):
    """(list, index) of every numeric entry of a document."""
    if "coords" in doc:
        return [(doc["coords"], i) for i in range(len(doc["coords"]))]
    return [(row, i) for key in ("re", "im") for row in doc[key] for i in range(len(row))]


@st.composite
def invalid_inputs(draw):
    """JSON text that convert and classify must reject: (text, kind)."""
    n = draw(st.integers(2, 4))
    bloch = draw(st.booleans())
    doc = _valid_document(n, bloch)
    kind = draw(
        st.sampled_from(
            ["malformed", "non-finite", "beyond-float", "overflow", "shape", "dim", "boolean",
             "string"]
        )
    )
    if kind == "malformed":
        # every proper prefix of a JSON object is malformed
        text = json.dumps(doc)
        return text[: draw(st.integers(0, len(text) - 1))], kind
    if kind == "non-finite":
        row, i = draw(st.sampled_from(_entries(doc)))
        row[i] = draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    elif kind == "beyond-float":
        row, i = draw(st.sampled_from(_entries(doc)))
        row[i] = "BEYOND"
        literal = draw(st.sampled_from(["1e400", "-1e400"]))
        return json.dumps(doc).replace('"BEYOND"', literal), kind
    elif kind == "overflow":
        # finite entries near the float maximum: coordinates or matrix overflow,
        # or the eigenvalues show the matrix is not positive semidefinite
        x = draw(st.floats(1.65e308, 1.7976931348623157e308)) * draw(st.sampled_from([1, -1]))
        if bloch:
            doc = _valid_document(max(n, 3), bloch)
            doc["coords"][-(doc["dim"] - 1):] = [abs(x)] * (doc["dim"] - 1)
        else:
            doc["re"][0][1] = doc["re"][1][0] = x
    elif kind == "shape":
        key = "coords" if bloch else draw(st.sampled_from(["re", "im"]))
        target = doc[key] if bloch or draw(st.booleans()) else doc[key][-1]
        if draw(st.booleans()):
            target.pop()
        else:
            target.append(0.0 if bloch or target is not doc[key] else [0.0] * n)
    elif kind == "dim":
        doc["dim"] = draw(
            st.one_of(st.integers(-3, 1), st.sampled_from([2.0, "2", None, [2]]))
        )
    elif kind == "boolean":
        if draw(st.booleans()):
            doc["dim"] = draw(st.booleans())
        else:
            row, i = draw(st.sampled_from(_entries(doc)))
            row[i] = draw(st.booleans())
    else:
        row, i = draw(st.sampled_from(_entries(doc)))
        row[i] = repr(row[i])  # a numeric string, such as "0.5"
    return json.dumps(doc), kind


# a "dim" json cannot read, or one whose full text would fill a message
_LONG_INT = "1" * 5000
_BIG_DIM = int("1" * 4000)
_LIST_DIM = [0] * 30_000


@settings(deadline=None, max_examples=150)
@given(command=st.sampled_from(["convert", "classify"]), case=invalid_inputs())
@example(command="convert", case=('{"dim": %s, "coords": []}' % _LONG_INT, "long-integer"))
@example(command="convert", case=(json.dumps({"dim": _BIG_DIM, "coords": []}), "big-dim"))
@example(command="classify", case=(json.dumps({"dim": _BIG_DIM, "re": [], "im": []}), "big-dim"))
@example(command="convert", case=(json.dumps({"dim": _LIST_DIM, "coords": []}), "list-dim"))
@example(command="classify", case=(json.dumps({"dim": _LIST_DIM, "re": [], "im": []}), "list-dim"))
def test_convert_and_classify_reject_bad_input_with_one_line(command, case, tmp_path_factory):
    text, kind = case
    path = tmp_path_factory.mktemp("contract") / "input.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    # a numpy warning would raise here (RuntimeWarning is an error in the test suite)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([command, "--in", str(path)])
    assert rc in (2, 3), kind
    prefix = "error: " if rc == 2 else "numeric error: "
    assert out.getvalue() == ""
    assert err.getvalue().startswith(prefix) and err.getvalue().count("\n") == 1
    assert len(err.getvalue()) < 200, kind


@pytest.mark.parametrize(
    "data,message",
    [
        pytest.param(b"\xff\xfe{}", "is not UTF-8 text", id="not-utf8"),
        pytest.param(b"[" * 100_000, "is nested too deeply", id="too-deep"),
    ],
)
@pytest.mark.parametrize(
    "make_args",
    [
        lambda path: ["convert", "--in", path],
        lambda path: ["classify", "--in", path],
        lambda path: ["direction", "--dim", "2", "--vector", path],
        lambda path: ["lemma", "--tuples", path],
    ],
    ids=["convert", "classify", "direction", "lemma"],
)
def test_a_file_json_cannot_read_is_one_error_line(make_args, data, message, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_bytes(data)
    rc, out, err = run(make_args(str(path)), capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err and message in err


_NOT_INTS = ["true", "x", "2.5", "", "1e3", "nan", "--1"]
_ZERO_TOLS = ["1e-9", "1e-300", "0.3", "1", "0", "-1e-9", "nan", "inf", "-inf", "true", "x"]
_TUPLE_TEXTS = [
    "[[0.5, 0.5]]", "[[1]]", "[]", "[[]]", '{"a": 1}', "3", "[1, 2]", "[[[0.5, 0.5]]]", "[",
    "NaN", "[[NaN, 1]]", '[["0.5", "0.5"]]', '[["half", 0.5]]', "[[true, false]]",
    "[[null, 1]]", "[[1e400, -1e400, 1]]", "[[1e308, -1e308, 1]]", "[[1.7e308, 1.7e308]]",
]


_LENGTHS = ["0", "0.1", "0.5", "1", "1e308", "-1", "nan", "inf", "-inf", "true", "x"]


@st.composite
def scan_commands(draw):
    """argv of a command that takes no input file, often invalid, plus a tuple file's text."""
    command = draw(
        st.sampled_from(["strata-scan", "direction", "sample", "lemma", "basis", "antipode"])
    )
    argv, tuples = [command], None

    def option(flag, low, high, bad=_NOT_INTS):
        """The flag four times in five; its value in range three times in four."""
        if draw(st.integers(0, 4)):
            good = draw(st.integers(0, 3))
            value = str(draw(st.integers(low, high))) if good else draw(st.sampled_from(bad))
            argv.extend([flag, value])

    seeds = [str(2**64 - 1), str(2**64), "-1", "true", "1.5"]
    if command == "lemma":
        if draw(st.booleans()):
            tuples = draw(st.sampled_from(_TUPLE_TEXTS))
            argv.extend(["--tuples", "TUPLES"])
        option("--count", -3, 50)
        option("--size", -2, 20)
        option("--seed", 0, 3, seeds)
        return argv, tuples
    if command == "basis":
        option("--dim", -1, 8)
        if draw(st.booleans()):
            argv.extend(["--format", draw(st.sampled_from(["csv", "json", "xml"]))])
        return argv, tuples
    if command == "antipode":
        if draw(st.booleans()):
            argv.append("--table")
        option("--max-dim", -1, 8)
        option("--dim", -1, 8)
        option("--q", -1, 8)
        if draw(st.booleans()):
            argv.extend(["--length", draw(st.sampled_from(_LENGTHS))])
        return argv, tuples
    option("--dim", -1, 6)
    option("--seed", 0, 3, seeds)
    if draw(st.booleans()):
        argv.extend(["--zero-tol", draw(st.sampled_from(_ZERO_TOLS))])
    option("--scan" if command == "direction" else "--count", -3, 50)
    if command == "sample":
        option("--rank", -1, 7)
        if draw(st.booleans()):
            argv.extend(["--format", draw(st.sampled_from(["csv", "json", "xml"]))])
    return argv, tuples


def _no_constants(name):
    raise ValueError(f"{name} is not JSON")


@settings(deadline=None, max_examples=300)
@given(case=scan_commands())
# manifests that once carried NaN or Infinity with exit 0
@example(case=(["strata-scan", "--dim", "3", "--count", "0", "--seed", "1", "--zero-tol", "nan"],
               None))
@example(case=(["sample", "--dim", "3", "--rank", "1", "--count", "2", "--seed", "1",
                "--format", "json", "--zero-tol", "inf"], None))
@example(case=(["antipode", "--table", "--max-dim", "2", "--length", "nan"], None))
def test_scan_commands_accept_or_reject_with_one_line(case, tmp_path_factory):
    argv, tuples = case
    if tuples is not None:
        path = tmp_path_factory.mktemp("contract") / "tuples.json"
        path.write_text(tuples)
        argv = [str(path) if a == "TUPLES" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    # a numpy warning would raise here (RuntimeWarning is an error in the test suite)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse: usage, then one "error:" line
            rc = exc.code
    assert rc in (0, 2, 3)
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert len(errors) == (rc != 0)
    if rc == 0:
        text = out.getvalue()
        assert err.getvalue() == "" and text.startswith(("# manifest ", "{"))
        # the manifest is strict JSON: NaN or Infinity in it would fail here
        if text.startswith("#"):
            text = text.splitlines()[0][len("# manifest "):]
        json.loads(text, parse_constant=_no_constants)

def test_sample_json(capsys):
    rc, out, _ = run(
        ["sample", "--dim", "3", "--rank", "2", "--count", "2", "--seed", "1"], capsys
    )
    assert rc == 0
    payload = json.loads(out)
    assert len(payload["states"]) == 2
    m = np.asarray(payload["states"][0]["re"]) + 1j * np.asarray(payload["states"][0]["im"])
    assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)


def test_sample_csv(capsys):
    rc, out, _ = run(
        ["sample", "--dim", "3", "--rank", "1", "--count", "4", "--seed", "1",
         "--format", "csv"],
        capsys,
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[1] == "N,p,distance,radius_p,on_sphere,satisfied"
    assert len(lines) == 2 + 4


def test_scan_reproducibility_bytes(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["strata-scan", "--dim", "3", "--count", "50", "--seed", "77"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [["basis", "--dim", "2"], ["strata-scan", "--dim", "2", "--count", "3", "--seed", "1"]],
    ids=["json", "scan"],
)
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_an_out_path_that_cannot_be_opened_is_one_error_line(argv, where, tmp_path, capsys):
    out = tmp_path / "missing" / "x.out" if where == "missing-directory" else tmp_path
    rc, stdout, err = run([*argv, "--out", str(out)], capsys)
    assert (rc, stdout) == (2, "")
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.floats().map(np.float64),
    st.text(),
)


def _hermitian_parts(n, upper):
    """re and im of the Hermitian matrix whose upper triangle and diagonal are upper, row-major."""
    re = [[0.0] * n for _ in range(n)]
    im = [[0.0] * n for _ in range(n)]
    values = iter(upper)
    for j in range(n):
        for k in range(j, n):
            x = next(values)
            re[j][k] = re[k][j] = x
            if k > j:  # -x of 0.0 is -0.0
                im[j][k], im[k][j] = x, -x
    return {"re": re, "im": im}


# both parts of a Hermitian matrix: each magnitude off the diagonal is in two rows
_HERMITIAN = st.integers(1, 10).flatmap(
    lambda n: st.lists(
        st.floats(allow_nan=False, allow_infinity=False),
        min_size=n * (n + 1) // 2,
        max_size=n * (n + 1) // 2,
    ).map(lambda upper: _hermitian_parts(n, upper))
)


@settings(deadline=None, max_examples=300)
@given(
    st.recursive(
        _JSON_LEAVES,
        lambda children: st.one_of(
            st.lists(children),
            st.lists(children).map(tuple),
            st.lists(st.floats()),
            st.dictionaries(st.text(), children),
            st.dictionaries(st.one_of(st.integers(), st.booleans(), st.none()), children),
            _HERMITIAN,
        ),
        max_leaves=40,
    )
)
@example(nan)
@example([nan, inf, -inf, -0.0, 5e-324, 1e308])
@example([-0.0, 5e-324, 1e308, 0.1])
@example({"a": [np.float64(0.5), 1.0], "é\n\"\\": [[], {}, ()], "b": [True, None, 3]})
@example({"x": {1: [1.0]}, "y": ((0.5, 2.0), [inf])})
@example([[0.0, -0.0] * 16, [-0.0, 0.0] * 16])
@example([[5e-324, -5e-324] * 32])
@example([[1.0] * 30, (2.0, -1.0, 0.5) * 10, [-2.0, 1e308] * 2])
@example([[1.0] * 63, [1]])
@example([[nan] * 64])
@example([[]])
@example([[0.5] * 64, []])
@example([[np.float64(0.5)] + [0.5] * 63])
@example(_hermitian_parts(8, [0.5, -0.25, 0.0, 0.25, -0.0, 1e-300] * 6))
def test_json_text_is_json_dumps_with_indent_2(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


def test_matrices_of_at_least_64_entries_take_the_table():
    assert cli._float_rows([[0.5] * 8] * 8, "\n") is not None
    assert cli._float_rows([[0.5] * 9] * 7, "\n") is None  # 63 entries: row by row


# SHA-256 of JSON matrix outputs at SOURCE_DATE_EPOCH=0, recorded when every entry
# was formatted on its own; the 12 x 12 matrix of the second convert is large
# enough for cli._float_rows' table of magnitudes, the other matrices are not
PINNED_JSON_MATRICES = [
    (["convert", "--in", "matrix.json", "--out", "bloch.json"],
     "3db2adfb52ab19738c10d9a89c1440ec32a0ebb33a1b955a62d31d16f162891c"),
    (["convert", "--in", "bloch.json", "--out", "back.json"],
     "583d092a00a081b7cb2d57892581dca23e245e018c8e6617b62604efa0e128fa"),
    (["basis", "--dim", "3", "--format", "json", "--out", "basis.json"],
     "20a11896879ad9bea7a5be824d4b2850c399ed8d5ad270b7b10c6dcbf80e5f70"),
    (["antipode", "--dim", "4", "--q", "2", "--length", "0.1", "--out", "antipode.json"],
     "475cdbee0f20e603adbe95c88e32a2280d7389f153f86f118d7e6ba4b8319c03"),
]


def test_json_matrix_outputs_are_pinned(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    monkeypatch.chdir(tmp_path)  # the manifest records the relative --in path
    rho = sample_state(SamplerConfig(seed=7, dim=12, rank=5, count=1), 0)
    write_matrix(tmp_path / "matrix.json", rho)
    for argv, digest in PINNED_JSON_MATRICES:
        assert cli.main(argv) == 0
        assert hashlib.sha256((tmp_path / argv[-1]).read_bytes()).hexdigest() == digest, argv


def test_one_parser_serves_every_call_of_a_process(capsys, monkeypatch):
    # usage text wraps at the terminal width, so both sides read the same one
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    monkeypatch.setenv("PYTHONPATH", str(Path(cli.__file__).parents[1]))
    calls = [
        ["sample", "--dim", "3", "--rank", "2", "--count", "2", "--seed", "1"],
        ["sample", "--dim", "3", "--rank", "9"],  # a failing parse: --count and --seed missing
        ["direction", "--dim", "3", "--seed", "4", "--scan", "3"],
    ]

    def in_process(argv):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    def fresh(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "blochstrata.cli", *argv], capture_output=True, text=True
        )
        return proc.returncode, proc.stdout, proc.stderr

    results = [in_process(argv) for argv in calls]
    assert [rc for rc, _, _ in results] == [0, 2, 0]
    assert results == [fresh(argv) for argv in calls]
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize(
    "epoch", ["abc", "1e3", "99999999999999999999", pytest.param("x" * 3000, id="x*3000")]
)
def test_a_malformed_source_date_epoch_is_a_domain_error(epoch, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    rc, out, err = run(["basis", "--dim", "2"], capsys)
    assert rc == 2
    assert out == ""
    assert err == (
        "error: SOURCE_DATE_EPOCH must be integer seconds since 1970 in the date range, "
        f"got {_shown(epoch)}\n"
    )
    assert len(err) < 200


@pytest.mark.parametrize("argv", [
    "basis --dim 1",
    "convert --in missing.json",
    "classify --in missing.json",
    "direction --dim 2 --vector missing.json",
    "antipode --dim 3 --q 7",
    "antipode --table --max-dim 1",
    "lemma --tuples missing.json",
    "strata-scan --dim 1 --count 1 --seed 1",
    "sample --dim 3 --rank 4 --count 1 --seed 1",
])
def test_a_malformed_source_date_epoch_fails_before_the_input_is_read(
    argv, tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)  # where missing.json is missing
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    rc, out, err = run(argv.split(), capsys)
    assert rc == 2 and out == "" and "SOURCE_DATE_EPOCH" not in err  # the input is bad
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "abc")
    assert run(argv.split(), capsys) == (
        2, "", "error: SOURCE_DATE_EPOCH must be integer seconds since 1970 in the date range, "
        "got 'abc'\n",
    )


_NO_SPACE = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
_needs_dev_full = pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")


class _FullFile(io.StringIO):
    """A file on a full disk: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_a_failed_write_to_a_file_is_one_line(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "basis.json")
    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: _FullFile(), raising=False)
    rc, stdout, err = run(["basis", "--dim", "2", "--out", out], capsys)
    assert (rc, stdout, err) == (2, "", f"error: cannot write {out}: {_NO_SPACE}\n")


@_needs_dev_full
def test_a_write_to_a_full_device_is_one_line_and_leaves_it(capsys):
    rc, out, err = run(["basis", "--dim", "2", "--out", "/dev/full"], capsys)
    assert (rc, out, err) == (2, "", f"error: cannot write /dev/full: {_NO_SPACE}\n")
    assert Path("/dev/full").is_char_device()


def _cli_process(argv, unbuffered=False, **kwargs):
    """A blochstrata CLI process with stdio buffered, or unbuffered as PYTHONUNBUFFERED makes it."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    command = [sys.executable, "-m", "blochstrata.cli", *argv]
    return subprocess.Popen(command, env=env, stderr=subprocess.PIPE, **kwargs)


# Buffered, the output of basis --dim 2 is still held when the write fails; the
# exit's flush of it must not fail again.
@_needs_dev_full
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_standard_output_on_a_full_device_is_one_line(unbuffered):
    with open("/dev/full", "w") as full:
        proc = _cli_process(["basis", "--dim", "2"], unbuffered, stdout=full)
        _, err = proc.communicate()
    assert (proc.returncode, err.decode()) == (
        2, f"error: cannot write standard output: {_NO_SPACE}\n"
    )


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_reader_that_closes_the_pipe_early_gets_one_line(unbuffered):
    # about 1 MB of output, far more than a pipe holds, so the write outlasts the reader;
    # unbuffered, a write to the pipe may be short, which the text layer would ignore
    argv = ["strata-scan", "--dim", "5", "--count", "4000", "--seed", "1"]
    with _cli_process(argv, unbuffered, stdout=subprocess.PIPE) as proc:
        proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read().decode()
    broken = f"[Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}"
    assert (proc.returncode, err) == (2, f"error: cannot write standard output: {broken}\n")


def test_scan_data_reproducible_without_pinned_timestamp(tmp_path, monkeypatch):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["direction", "--dim", "3", "--seed", "8", "--scan", "40"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert data_lines(a.read_text()) == data_lines(b.read_text())


def test_manifest_embedded_everywhere(tmp_path, capsys):
    rc, out, _ = run(["antipode", "--dim", "2", "--q", "1"], capsys)
    manifest = json.loads(out)["manifest"]
    assert manifest["version"]
    assert manifest["timestamp"].endswith("Z")
    assert manifest["params"]["dim"] == 2

    rc, out, _ = run(["antipode", "--table", "--max-dim", "3"], capsys)
    first = out.splitlines()[0]
    assert first.startswith("# manifest ")
    embedded = json.loads(first[len("# manifest "):])
    assert embedded["command"] == "antipode"


# Each argument fault of each scan command, with {count} for the count: a
# count of 0 or -1 must fail with the line a count of 1 gives.
_SCAN_FAULTS = [
    "strata-scan --dim 2 --seed -1 --count {count}",
    "strata-scan --dim 1 --seed 1 --count {count}",
    "direction --dim 3 --seed -1 --scan {count}",
    "direction --dim 3 --seed 18446744073709551616 --scan {count}",
    "sample --dim 3 --rank 4 --seed 1 --count {count} --format csv",
    "sample --dim 3 --rank 4 --seed 1 --count {count} --format json",
    "lemma --size 0 --seed 1 --count {count}",
    "lemma --size 3 --seed -1 --count {count}",
]


@pytest.mark.parametrize("command", _SCAN_FAULTS)
def test_a_count_of_0_or_less_fails_as_a_count_of_1(command, capsys):
    expected = run(command.format(count=1).split(), capsys)
    assert expected[0] == 2 and expected[1] == "" and expected[2].count("\n") == 1
    for count in (0, -1):
        assert run(command.format(count=count).split(), capsys) == expected


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["basis", "--dim", "100000"], id="basis-tensor-too-big"),
        pytest.param(["direction", "--dim", "2000000000", "--seed", "1"], id="draw-too-big"),
    ],
)
def test_an_array_numpy_refuses_is_one_numeric_error_line(args, capsys):
    # numpy rejects these sizes before it allocates anything
    rc, out, err = run(args, capsys)
    assert rc == 3
    assert out == ""
    assert err.startswith("numeric error: ") and err.count("\n") == 1
    assert "array is too big" in err


def test_an_allocation_failure_is_one_numeric_error_line(capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 58.2 TiB for an array")

    monkeypatch.setattr(cli, "_state_block", no_memory)
    rc, out, err = run(["strata-scan", "--dim", "2", "--count", "1", "--seed", "1"], capsys)
    assert (rc, out) == (3, "")
    assert err == "numeric error: Unable to allocate 58.2 TiB for an array\n"


def test_a_strata_scan_of_count_0_draws_nothing(capsys, monkeypatch):
    # the arguments are checked before the rank loop, which no rank could add a row to
    calls = []
    monkeypatch.setattr(cli, "_state_block", lambda *args: calls.append(args))
    rc, out, err = run(["strata-scan", "--dim", "5", "--count", "0", "--seed", "1"], capsys)
    assert (rc, err) == (0, "")
    assert data_lines(out) == ["N,p,distance,radius_p,on_sphere,satisfied"]
    assert calls == []


def test_numeric_error_maps_to_exit_3(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise NumericError("synthetic failure")

    monkeypatch.setattr(cli, "stratum_report", boom)
    matrix_file = write_matrix(tmp_path / "max.json", maximally_mixed(2))
    rc, _, err = run(["classify", "--in", str(matrix_file)], capsys)
    assert rc == 3 and "numeric error" in err


def test_an_eigensolver_failure_maps_to_exit_3(tmp_path, capsys, monkeypatch):
    def fail(h):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    matrix_file = write_matrix(tmp_path / "max.json", maximally_mixed(2))
    rc, out, err = run(["classify", "--in", matrix_file], capsys)
    assert (rc, out) == (3, "")
    assert err.startswith("numeric error: eigensolver failed on shape (1, 2, 2): ")
    assert err.count("\n") == 1


def test_csv_floats_have_full_precision(capsys):
    rc, out, _ = run(["antipode", "--table", "--max-dim", "3"], capsys)
    # sqrt(1/2) rendered with 17 significant digits
    assert "0.70710678118654757" in out
