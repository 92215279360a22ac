"""End-to-end tests of the command-line interface."""

import json
from math import sqrt

import numpy as np
import pytest

import blochstrata.cli as cli
from blochstrata import NumericError, boundary_state, maximally_mixed
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


def test_direction_report_from_vector_file(tmp_path, capsys):
    vec = tmp_path / "dir.json"
    vec.write_text(json.dumps({"dim": 2, "coords": [0.0, 0.0, 1.0]}))
    rc, out, _ = run(["direction", "--dim", "2", "--vector", str(vec)], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["max_length"] == pytest.approx(sqrt(0.5), abs=1e-12)
    assert payload["cap_state_class"] == "boundary(1)"
    assert payload["mu"] == pytest.approx([sqrt(0.5), -sqrt(0.5)])


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


def _bad_matrix(tmp_path, value):
    m = matrix_to_dict(maximally_mixed(2))
    m["re"][0][0] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(m))
    return str(path)


def _nan_bloch(tmp_path):
    path = tmp_path / "nan_bloch.json"
    path.write_text(json.dumps({"dim": 2, "coords": [0.0, float("nan"), 0.0]}))
    return str(path)


def _text_tuples(tmp_path):
    path = tmp_path / "tuples.json"
    path.write_text(json.dumps([[0.5, "half"]]))
    return str(path)


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
    ],
)
@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
def test_bad_input_is_one_error_line(make_args, message, tmp_path, capsys):
    rc, out, err = run(make_args(tmp_path), capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


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


def test_numeric_error_maps_to_exit_3(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise NumericError("synthetic failure")

    monkeypatch.setattr(cli, "stratum_report", boom)
    matrix_file = write_matrix(tmp_path / "max.json", maximally_mixed(2))
    rc, _, err = run(["classify", "--in", str(matrix_file)], capsys)
    assert rc == 3 and "numeric error" in err


def test_csv_floats_have_full_precision(capsys):
    rc, out, _ = run(["antipode", "--table", "--max-dim", "3"], capsys)
    # sqrt(1/2) rendered with 17 significant digits
    assert "0.70710678118654757" in out
