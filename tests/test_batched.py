"""Batched reports against per-item formulas, bit for bit.

The reference rows below are computed here, one item at a time, with the
formulas of v0.1.0: ``eigvalsh`` of (m + m^H)/2 per matrix and
``np.linalg.norm`` per matrix.  T_n is written entry by entry from the
basis index formulas, each diagonal entry summed in the order the library
sums it (since 0.2.0; v0.1.0 took ``tensordot`` with the dense basis
tensor).  The CLI scans and the batched library calls must reproduce them
exactly, for every block boundary.
"""

import json
from math import sqrt
from time import perf_counter

import numpy as np
import pytest

import blochstrata.cli as cli
import blochstrata.direction as direction
import blochstrata.sampling as sampling
import blochstrata.states as states
from blochstrata import (
    DomainError,
    NumericError,
    SamplerConfig,
    StateClass,
    StateKind,
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
    harriman_checks,
    sample_direction,
    sample_state,
    sample_unit_sum_tuple,
    spectrum,
    stratum_report,
    stratum_reports,
    to_bloch,
)
from blochstrata.cli import _CSV_BOOL

ZERO_TOL = 1e-9
BLOCK = sampling.SCAN_BLOCK
COUNTS = [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]


def eigvals(m):
    return np.linalg.eigvalsh((m + m.conj().T) / 2.0)


def reference_stratum(rho):
    """(N, p, distance, radius, on_sphere, satisfied) as v0.1.0 computed them."""
    n = rho.shape[0]
    p = int(np.count_nonzero(np.abs(eigvals(rho)) <= ZERO_TOL))
    dist = float(np.linalg.norm(rho - np.eye(n, dtype=complex) / n))
    radius = sqrt(p / (n * (n - p))) if p else 0.0
    return n, p, dist, radius, abs(dist - radius) <= 1e-9, dist >= radius - 1e-9


def reference_t(v, n):
    """T_n = sum_j v_j T_j, one entry at a time from the index formulas.

    An off-diagonal pair takes one symmetric and one antisymmetric coordinate
    over sqrt(2).  Diagonal entry m adds v_l/sqrt(l(l+1)) over the diagonal
    elements l = N-1 down to m+1, then subtracts m v_m/sqrt(m(m+1)).
    """
    c = 1.0 / sqrt(2.0)
    pairs = n * (n - 1) // 2
    t = np.zeros((n, n), dtype=complex)
    for p, (j, k) in enumerate(zip(*np.triu_indices(n, 1))):
        t[j, k] = complex(c * v[p], 0.0 - c * v[pairs + p])
        t[k, j] = complex(c * v[p], c * v[pairs + p])
    scale = [0.0] + [1.0 / sqrt(l * (l + 1)) for l in range(1, n)]
    d = [0.0] + list(v[2 * pairs :])  # d[l]: the coordinate of diagonal element l
    for m in range(n):
        terms = [scale[l] * d[l] for l in range(n - 1, m, -1)]
        entry = sum(terms[1:], terms[0]) if terms else 0.0
        if m:
            entry -= (m * scale[m]) * d[m]
        t[m, m] = entry
    return t


def reference_direction(v):
    """(mu descending, max_length, cap zero count, cap class) by the per-item formulas."""
    n = round(sqrt(len(v) + 1))
    t = reference_t(v, n)
    mu = eigvals(t)[::-1]
    max_length = 1.0 / (n * abs(mu[-1]))
    w = eigvals(np.eye(n, dtype=complex) / n + max_length * t)
    zeros = int(np.count_nonzero(np.abs(w) <= ZERO_TOL))
    if w[0] < -ZERO_TOL:
        cap_class = StateClass(StateKind.NONPOSITIVE)
    elif zeros:
        cap_class = StateClass(StateKind.BOUNDARY, zero_count=zeros)
    else:
        cap_class = StateClass(StateKind.POSITIVE_INTERIOR)
    return mu, max_length, int(np.count_nonzero(mu <= mu[-1] + 1e-8)), cap_class


def fmt(x):
    return f"{x:.17g}"


def stratum_row(report):
    n, p, dist, radius, on_sphere, satisfied = report
    return ",".join(
        [str(n), str(p), fmt(dist), fmt(radius), str(on_sphere).lower(), str(satisfied).lower()]
    )


def cli_data(args, tmp_path):
    out = tmp_path / "out.csv"
    assert cli.main([*args, "--out", str(out)]) == 0
    return out.read_text().splitlines()[2:]  # after the manifest and the header


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("dim", range(2, 7))
def test_strata_scan_rows_match_per_item_formulas(dim, count, tmp_path):
    expected, comments = [], []
    for rank in range(1, dim + 1):
        config = SamplerConfig(seed=20260810, dim=dim, rank=rank, count=count)
        reports = [reference_stratum(sample_state(config, i)) for i in range(count)]
        expected += [stratum_row(r) for r in reports]
        comments.append(f"# min_slack rank={rank} {fmt(min(r[2] - r[3] for r in reports))}")
    got = cli_data(
        ["strata-scan", "--dim", str(dim), "--count", str(count), "--seed", "20260810"], tmp_path
    )
    assert got == expected + comments


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("dim", range(2, 7))
def test_direction_scan_rows_match_per_item_formulas(dim, count, tmp_path):
    expected = []
    for i in range(count):
        mu, max_length, cap_zeros, _ = reference_direction(
            sample_direction(20260810, dim * dim - 1, i)
        )
        expected.append(
            ",".join([str(dim), fmt(mu[-1]), fmt(mu[0]), fmt(max_length), str(cap_zeros)])
        )
    got = cli_data(
        ["direction", "--dim", str(dim), "--scan", str(count), "--seed", "20260810"], tmp_path
    )
    assert got == expected


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("dim", range(2, 7))
def test_sample_csv_rows_match_per_item_formulas(dim, count, tmp_path):
    rank = 1 + count % dim
    config = SamplerConfig(seed=20260810, dim=dim, rank=rank, count=count)
    expected = [stratum_row(reference_stratum(sample_state(config, i))) for i in range(count)]
    got = cli_data(
        ["sample", "--dim", str(dim), "--rank", str(rank), "--count", str(count),
         "--seed", "20260810", "--format", "csv"],
        tmp_path,
    )
    assert got == expected


def rank_deficient_stack(dim):
    """Sampled states of every rank, then the exact boundary states R(q)."""
    states = [
        sample_state(SamplerConfig(seed=dim, dim=dim, rank=rank, count=4), i)
        for rank in range(1, dim + 1)
        for i in range(4)
    ]
    states += [boundary_state(dim, q) for q in range(1, dim + 1)]
    return np.stack(states)


@pytest.mark.parametrize("dim", range(2, 9))
def test_stratum_reports_match_per_item_formulas(dim):
    stack = rank_deficient_stack(dim)
    reports = stratum_reports(stack, ZERO_TOL)
    got = [
        (r.dim, r.zero_count, r.distance, r.radius, r.on_sphere, r.satisfied) for r in reports
    ]
    assert got == [reference_stratum(m) for m in stack]
    assert {r.zero_count for r in reports} == set(range(dim))  # every stratum is present
    assert reports == [stratum_report(m) for m in stack]


@pytest.mark.parametrize("dim", range(2, 9))
def test_direction_reports_match_per_item_formulas(dim):
    basis = build_basis(dim)
    # sampled directions, and the directions of every R(q), whose mu-spectra are degenerate
    rows = [sample_direction(dim, dim * dim - 1, i) for i in range(20)]
    rows += [expand(basis, directional_matrix_of_boundary(dim, q)) for q in range(1, dim)]
    directions = np.stack(rows)
    reports = direction_reports(basis, directions, ZERO_TOL)
    for v, r in zip(directions, reports):
        mu, max_length, cap_zeros, cap_class = reference_direction(v)
        assert r.mu.tobytes() == mu.tobytes()
        assert r.max_length == max_length
        assert (r.cap_zero_count, r.cap_state_class) == (cap_zeros, cap_class)
        assert r.direction.tobytes() == v.tobytes()
    assert max(r.cap_zero_count for r in reports) == dim - 1


def sample_stack(dim):
    config = SamplerConfig(seed=dim, dim=dim, rank=1 + dim // 2, count=20)
    return np.stack([sample_state(config, i) for i in range(20)])


@pytest.mark.parametrize("dim", range(2, 9))
def test_scalar_calls_match_per_item_formulas(dim):
    basis = build_basis(dim)
    d = dim * dim - 1
    for i in range(30):
        v = sample_direction(dim, d, i)
        assert directional_matrix(basis, v).tobytes() == reference_t(v, dim).tobytes()
        long = 1.5 * v
        with pytest.raises(DomainError) as bad:
            directional_matrix(basis, long)
        assert str(bad.value).endswith(f"|n| = {float(np.linalg.norm(long))!r}")
    for stack in (rank_deficient_stack(dim), sample_stack(dim)):
        for m in stack:
            assert distance_to_max(m) == reference_stratum(m)[2]


def test_empty_stacks_give_no_reports():
    assert stratum_reports(np.empty((0, 3, 3))) == []
    assert direction_reports(build_basis(3), np.empty((0, 8))) == []


@pytest.mark.parametrize("args", [
    ["direction", "--dim", "3", "--scan", "0", "--seed", "5"],
    ["sample", "--dim", "3", "--rank", "2", "--count", "0", "--seed", "5", "--format", "csv"],
])
def test_zero_count_scans_print_the_header_only(args, capsys):
    assert cli.main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0].startswith("# manifest ")


def bad_stack(failures):
    """Eight valid qubit states, with the items named in failures replaced."""
    stack = np.stack([np.diag([0.5, 0.5]).astype(complex)] * 8)
    for index, kind in failures.items():
        stack[index] = {
            "non-hermitian": [[0.5, 0.1], [0.0, 0.5]],
            "non-psd": np.diag([1.5, -0.5]),
            "trace": np.diag([0.5, 0.6]),
            "non-finite": [[0.5, np.inf], [np.inf, 0.5]],
        }[kind]
    return stack


@pytest.mark.parametrize("failures", [
    {3: "non-hermitian", 7: "non-psd"},
    {3: "non-psd", 7: "non-hermitian"},
    {3: "trace", 5: "non-finite"},
    {3: "non-finite", 4: "non-psd"},
    {6: "non-psd"},
])
def test_a_failing_stack_raises_the_error_of_its_first_failing_item(failures):
    # the entry check (finite, Hermitian, unit trace) runs over the stack before the PSD check
    stack = bad_stack(failures)
    entries = [i for i, kind in failures.items() if kind != "non-psd"]
    first = min(entries or failures)
    with pytest.raises(DomainError) as single:
        stratum_report(stack[first])
    with pytest.raises(DomainError) as batched:
        stratum_reports(stack)
    assert str(batched.value) == str(single.value)


@pytest.mark.parametrize("first", ["unit", "long"])
def test_direction_errors_come_in_item_order(first):
    # a bad zero_tol fails a unit direction's cap; a long direction fails its norm check,
    # which runs over every row first and names its first failing row
    unit, long, longer = (np.array([0.0, 0.0, x]) for x in (1.0, 2.0, 3.0))
    rows = [unit, long, longer] if first == "unit" else [long, unit, longer]
    basis = build_basis(2)
    with pytest.raises(DomainError) as one:
        direction_report(basis, long, zero_tol=-1.0)
    with pytest.raises(DomainError) as batched:
        direction_reports(basis, np.stack(rows), zero_tol=-1.0)
    assert str(batched.value) == str(one.value) == "direction must have unit norm, got |n| = 2.0"


def test_a_stack_of_non_square_matrices_is_rejected():
    with pytest.raises(DomainError, match=r"square matrix, got shape \(2, 3\)"):
        stratum_reports(np.zeros((4, 2, 3)))
    with pytest.raises(DomainError, match=r"length 3 .* got shape \(4,\)"):
        direction_reports(build_basis(2), np.zeros((2, 4)))
    # one matrix or direction where a stack is expected names the stack form
    with pytest.raises(DomainError, match=r"^expected an \(M, N, N\) stack .* shape \(2, 2\)$"):
        stratum_reports(np.eye(2) / 2)
    with pytest.raises(DomainError, match=r"^expected an \(M, 3\) stack .* shape \(3,\)$"):
        direction_reports(build_basis(2), np.eye(3)[0])
    with pytest.raises(DomainError, match=r"^expected an \(M, 3\) stack .* shape \(1, 1, 3\)$"):
        direction_reports(build_basis(2), np.eye(3)[None, :1])
    # a one-item call names the shape of its own input
    with pytest.raises(DomainError, match=r"square matrix, got shape \(4,\)$"):
        stratum_report(np.zeros(4))
    with pytest.raises(DomainError, match=r"length 3 .* got shape \(1, 3\)$"):
        direction_report(build_basis(2), np.eye(3)[:1])
    with pytest.raises(DomainError, match=r"at least 1 x 1, got shape \(0, 0\)"):
        stratum_reports(np.zeros((4, 0, 0)))
    for check in (
        check_hermitian, check_density, classify, spectrum, stratum_report,
        lambda m: to_bloch(build_basis(2), m),
    ):
        with pytest.raises(DomainError, match=r"at least 1 x 1, got shape \(0, 0\)"):
            check(np.zeros((0, 0)))


def scripted_sampler(fail_at, bad_at=None):
    """Block state sampler that raises at index fail_at and, at bad_at, gives a non-PSD matrix."""
    def sampler(config, indices):
        rows = []
        for index in indices:
            if index == fail_at:
                raise NumericError(f"synthetic failure at {index}")
            if index == bad_at:
                rows.append(np.diag([1.5] + [-0.5] + [0.0] * (config.dim - 2)).astype(complex))
            else:
                rows.append(sample_state(config, index))
        return np.stack(rows)
    return sampler


@pytest.mark.parametrize("command", ["strata-scan", "sample"])
@pytest.mark.parametrize("fail_at,bad_at,code,message", [
    (BLOCK + 5, None, 3, "synthetic failure"),
    (BLOCK + 5, 2, 2, "positive semidefinite"),  # a bad item of an earlier block fails first
    (BLOCK + 5, BLOCK + 2, 3, "synthetic failure"),  # the failing block reports none of its items
    (BLOCK + 5, BLOCK + 9, 3, "synthetic failure"),
    (0, None, 3, "synthetic failure"),
])
def test_a_sampler_error_comes_after_the_reports_before_it(
    command, fail_at, bad_at, code, message, monkeypatch, capsys
):
    monkeypatch.setattr(cli, "_state_block", scripted_sampler(fail_at, bad_at))
    extra = ["--rank", "2", "--format", "csv"] if command == "sample" else []
    rc = cli.main([command, "--dim", "3", "--count", str(2 * BLOCK), "--seed", "1", *extra])
    captured = capsys.readouterr()
    assert rc == code and captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


def test_direction_scan_stops_drawing_at_a_sampler_error(monkeypatch, capsys):
    calls = []

    def sampler(seed, num_coords, indices):
        rows = []
        for index in indices:
            calls.append(index)
            if index == BLOCK + 5:
                raise NumericError("synthetic failure")
            rows.append(sample_direction(seed, num_coords, index))
        return np.stack(rows)

    monkeypatch.setattr(cli, "_direction_block", sampler)
    rc = cli.main(["direction", "--dim", "3", "--scan", str(2 * BLOCK), "--seed", "1"])
    assert rc == 3 and "synthetic failure" in capsys.readouterr().err
    # each block is drawn once, and nothing after the failing block
    assert calls == [*range(BLOCK + 6)]



# The scans format a block from the columns of its reports; these tests check
# each CSV row against the same template filled from the report dataclasses.


def scan_lines(args, capsys):
    """The lines after the header of a CLI scan's CSV output."""
    assert cli.main(args) == 0
    return capsys.readouterr().out.splitlines()[2:]


def stratum_report_row(r):
    flags = _CSV_BOOL[r.on_sphere], _CSV_BOOL[r.satisfied]
    return cli._STRATA_ROW % (r.dim, r.zero_count, r.distance, r.radius, *flags)


@pytest.mark.parametrize("zero_tol", [ZERO_TOL, 0.05])
@pytest.mark.parametrize("dim", range(2, 7))
def test_strata_rows_are_the_stratum_reports(dim, zero_tol, monkeypatch, capsys):
    stack = rank_deficient_stack(dim)  # full-rank and rank-k < N states
    reports = stratum_reports(stack, zero_tol)
    assert {r.zero_count for r in reports} == set(range(dim))
    rows = [stratum_report_row(r) for r in reports]
    slack = min(r.distance - r.radius for r in reports)
    monkeypatch.setattr(cli, "_state_block", lambda config, idx: stack[list(idx)])
    args = ["--dim", str(dim), "--count", str(len(stack)), "--seed", "1"]
    args += ["--zero-tol", repr(zero_tol)]
    # every rank draws the same stack here, and notes its least slack
    comments = ["# min_slack rank=%d %.17g" % (rank, slack) for rank in range(1, dim + 1)]
    assert scan_lines(["strata-scan", *args], capsys) == rows * dim + comments
    assert scan_lines(["sample", *args, "--rank", "1", "--format", "csv"], capsys) == rows


def test_a_strata_sample_of_rank_n_counts_an_eigenvalue_within_zero_tol(capsys):
    # p counts the eigenvalues within zero_tol, not N - rank: this rank-5 state's least
    # eigenvalue is 5.99e-10, so its row reports p = 1, off the sphere and satisfied
    seed = 11700668258643392032
    rho = sample_state(SamplerConfig(seed=seed, dim=5, rank=5, count=400), 277)
    assert 0 < np.linalg.eigvalsh(rho)[0] < ZERO_TOL
    r = stratum_report(rho)
    assert (r.zero_count, r.on_sphere, r.satisfied) == (1, False, True)
    row = "5,1,0.45365234713927427,0.22360679774997896,false,true"
    assert stratum_report_row(r) == row
    # rank 5 is the last of five ranks of 400 rows each
    rows = scan_lines(["strata-scan", "--dim", "5", "--count", "400", "--seed", str(seed)], capsys)
    assert rows[4 * 400 + 277] == row


@pytest.mark.parametrize("dim", range(2, 7))
def test_direction_rows_are_the_direction_reports(dim, monkeypatch, capsys):
    basis = build_basis(dim)
    # sampled directions, and the degenerate directions of every R(q), both signs
    rows = [sample_direction(dim, dim * dim - 1, i) for i in range(20)]
    for q in range(1, dim):
        v = expand(basis, directional_matrix_of_boundary(dim, q))
        rows += [v, -v]
    directions = np.stack(rows)
    reports = direction_reports(basis, directions, ZERO_TOL)
    assert {r.cap_zero_count for r in reports} == set(range(1, dim))
    monkeypatch.setattr(cli, "_direction_block", lambda seed, d, idx: directions[list(idx)])
    args = ["direction", "--dim", str(dim), "--scan", str(len(directions)), "--seed", "1"]
    assert scan_lines(args, capsys) == [
        cli._DIRECTION_ROW % (dim, r.mu[-1], r.mu[0], r.max_length, r.cap_zero_count)
        for r in reports
    ]


@pytest.mark.parametrize("size", [1, 2, 7])
def test_lemma_rows_are_the_harriman_checks(size, monkeypatch, capsys):
    tuples = [sample_unit_sum_tuple(size, size, i) for i in range(30)]
    stack = np.stack(tuples + [np.full(size, 1.0 / size)])
    results = harriman_checks(stack)
    assert results[-1].equality  # the uniform tuple
    monkeypatch.setattr(cli, "_tuple_block", lambda seed, n, idx: stack[list(idx)])
    args = ["lemma", "--count", str(len(stack)), "--size", str(size), "--seed", "1"]
    assert scan_lines(args, capsys) == [
        cli._LEMMA_ROW % (size, r.sum_of_squares, r.bound, r.slack, _CSV_BOOL[r.equality])
        for r in results
    ]


def test_a_direction_scan_solves_the_mu_and_the_cap_spectra_of_each_block(monkeypatch, capsys):
    # the cap state's own eigensolve is the scan's evidence that it is a boundary state
    sizes = []
    solve = states.hermitian_eigenvalues

    def counted(m):
        sizes.append(len(m))
        return solve(m)

    monkeypatch.setattr(states, "hermitian_eigenvalues", counted)
    monkeypatch.setattr(direction, "hermitian_eigenvalues", counted)
    count = 2 * BLOCK + 3
    args = ["direction", "--dim", "3", "--scan", str(count), "--seed", "1"]
    assert len(scan_lines(args, capsys)) == count
    assert sizes == [BLOCK, BLOCK, BLOCK, BLOCK, 3, 3]


@pytest.fixture
def scans(monkeypatch):
    """The _Scan of each cli._scan call, in order."""
    made = []
    scan = cli._scan

    def recorded(*args, **kwargs):
        made.append(scan(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(cli, "_scan", recorded)
    return made


# the record of each part of a scan below: its items and its blocks
SCAN_PARTS = {
    "strata-scan --dim 3 --count 5 --seed 1": [(5, 1)] * 3,  # each rank a part
    "direction --dim 3 --scan 5 --seed 1": [(5, 1)],
    "sample --dim 3 --rank 2 --count 5 --seed 1 --format csv": [(5, 1)],
    "lemma --count 5 --size 3 --seed 1": [(5, 1)],
    "lemma --tuples TUPLES": [(1, 1)] * 3,  # each run of equal-length tuples a part
    "basis --dim 3 --format csv": [(8, 1)],
    "classify --in MATRIX --format csv": [(1, 1)],
    "antipode --table --max-dim 4": [(1, 1), (2, 1), (3, 1)],  # each N a part, of q = 1..N-1
    "sample --dim 3 --rank 2 --count 5 --seed 1 --format json": [(5, 1)],
    "sample --dim 3 --rank 2 --count 0 --seed 1 --format json": [(0, 0)],
    "basis --dim 3": [(8, 1)],
}


# a JSON scan is the list of a payload key, whose items are counted instead of CSV lines
@pytest.mark.parametrize("argv,count,key", [
    ("strata-scan --dim 3 --count 5 --seed 1", 3 * 5 + 3, None),  # 5 rows and a note per rank
    ("direction --dim 3 --scan 5 --seed 1", 5, None),
    ("sample --dim 3 --rank 2 --count 5 --seed 1 --format csv", 5, None),
    ("lemma --count 5 --size 3 --seed 1", 5, None),
    ("lemma --tuples TUPLES", 3, None),
    ("basis --dim 3 --format csv", 8, None),
    ("classify --in MATRIX --format csv", 1, None),
    ("antipode --table --max-dim 4", 6, None),
    ("sample --dim 3 --rank 2 --count 5 --seed 1 --format json", 5, "states"),
    ("sample --dim 3 --rank 2 --count 0 --seed 1 --format json", 0, "states"),
    ("basis --dim 3", 8, "elements"),
])
def test_every_scan_runs_through_the_one_scan_loop(argv, count, key, tmp_path, scans, capsys):
    files = {"TUPLES": tmp_path / "tuples.json", "MATRIX": tmp_path / "matrix.json"}
    files["TUPLES"].write_text("[[0.5, 0.5], [1.0], [0.2, 0.3, 0.5]]")
    files["MATRIX"].write_text('{"dim": 2, "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}')
    assert cli.main([str(files.get(a, a)) for a in argv.split()]) == 0
    out = capsys.readouterr().out
    items = out.splitlines()[2:] if key is None else json.loads(out)[key]
    assert len(scans) == 1 and len(items) == count
    assert [(r.items, r.blocks) for r in scans[0].records] == SCAN_PARTS[argv]
    if key is not None and not count:
        assert f'"{key}": []' in out  # as json.dumps writes an empty list


def test_the_records_of_a_strata_scan_hold_its_counts_times_and_least_slacks(scans, capsys):
    start = perf_counter()
    lines = scan_lines(["strata-scan", "--dim", "3", "--count", "300", "--seed", "1"], capsys)
    wall = perf_counter() - start
    records = scans[0].records
    assert [(r.items, r.blocks) for r in records] == [(300, 2)] * 3  # 256 + 44 per rank
    notes = [line.split() for line in lines if line.startswith("#")]
    assert [note[:2] for note in notes] == [["#", "min_slack"]] * 3
    cells = [line.split(",")[2:4] for line in lines if not line.startswith("#")]
    for rank, (note, record) in enumerate(zip(notes, records), 1):
        assert note[2] == f"rank={rank}"
        # the line's %.17g text reads back as the record's summary, bit for bit, and that is
        # the least distance - radius_p of the rank's rows
        assert np.float64(note[3]).tobytes() == np.float64(record.summary).tobytes()
        rows = cells[300 * (rank - 1) : 300 * rank]
        assert record.summary == min(float(d) - float(r) for d, r in rows)
    stages = [s for r in records for s in (r.draw_s, r.columns_s, r.rows_s)]
    assert min(stages) >= 0 and sum(stages) <= wall


def test_a_scan_summary_is_the_least_of_its_blocks_values():
    def draw(indices):
        return np.array(indices, dtype=float)

    def rows(column):
        return "".join(f"{x:g}\n" for x in column)

    # blocks of 256, 256 and 88 items: the block maxima rise in the first part, so its first
    # block's value is kept, and fall in the second, so its last block's value is taken
    parts = [(600, draw, 8), (600, lambda indices: 1000 - draw(indices), 8), (0, draw, 8)]
    scan = cli._scan(parts, lambda s: (s,), rows, np.max)
    assert "".join(scan) == "".join(f"{i}\n" for i in [*range(600), *range(1000, 400, -1)])
    assert [(r.items, r.blocks, r.summary) for r in scan.records] == [
        (600, 3, 255), (600, 3, 488), (0, 0, None)
    ]
