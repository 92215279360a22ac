"""Acceptance suite: every guaranteed property at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion.  The heavy Monte-Carlo scans run through the CLI so the same
artifacts double as the determinism check.
"""

import hashlib
import os
import time
from math import sqrt
from types import SimpleNamespace

import numpy as np
import pytest

import blochstrata as bs
from blochstrata.cli import main as cli_main

SEED = 20260810

STRATA_DIMS = (2, 3, 4, 5, 6)
STRATA_COUNT = 10_000
DIRECTION_DIMS = (2, 3, 4, 5)
DIRECTION_COUNT = 1_000


def check(num, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} ({name}) failed {suffix}"


def parse_csv(path):
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or line.startswith("N,"):
            continue
        rows.append(line.split(","))
    return rows


@pytest.fixture(scope="module")
def scans(tmp_path_factory):
    """Run the criterion-3 and criterion-7 CLI scans once, timestamp pinned."""
    root = tmp_path_factory.mktemp("acceptance_scans")
    previous = os.environ.get("SOURCE_DATE_EPOCH")
    os.environ["SOURCE_DATE_EPOCH"] = "0"
    try:
        strata = {}
        start = time.perf_counter()
        for n in STRATA_DIMS:
            out = root / f"strata_{n}.csv"
            rc = cli_main(
                ["strata-scan", "--dim", str(n), "--count", str(STRATA_COUNT),
                 "--seed", str(SEED), "--out", str(out)]
            )
            assert rc == 0
            strata[n] = out
        strata_elapsed = time.perf_counter() - start

        directions = {}
        for n in DIRECTION_DIMS:
            out = root / f"direction_{n}.csv"
            rc = cli_main(
                ["direction", "--dim", str(n), "--seed", str(SEED),
                 "--scan", str(DIRECTION_COUNT), "--out", str(out)]
            )
            assert rc == 0
            directions[n] = out

        yield SimpleNamespace(
            root=root,
            strata=strata,
            directions=directions,
            strata_elapsed=strata_elapsed,
        )
    finally:
        if previous is None:
            os.environ.pop("SOURCE_DATE_EPOCH", None)
        else:
            os.environ["SOURCE_DATE_EPOCH"] = previous


def test_criterion_01_basis_correctness():
    start = time.perf_counter()
    worst_trace = 0.0
    worst_gram = 0.0
    ok = True
    for n in range(2, 9):
        b = bs.build_basis(n)
        ok &= len(b) == n * n - 1
        worst_trace = max(worst_trace, max(abs(e.trace()) for e in b))
        gram = np.einsum("aij,bji->ab", b.elements, b.elements)
        worst_gram = max(worst_gram, float(np.abs(gram - np.eye(len(b))).max()))
    elapsed = time.perf_counter() - start
    ok &= worst_trace <= 1e-14 and worst_gram <= 1e-12 and elapsed < 1.0
    check(1, "basis construction", ok,
          f"trace residue {worst_trace:.2e}, gram dev {worst_gram:.2e}, {elapsed:.2f}s")


def test_criterion_02_round_trip_and_length_identity():
    worst_rt = 0.0
    worst_len = 0.0
    for n in (2, 3, 4, 6, 8):
        b = bs.build_basis(n)
        large = bs.stratum_radius(n, n - 1)
        for i in range(1000):
            v = bs.sample_bloch_in_ball(SEED, n * n - 1, large, i)
            rho = bs.from_bloch(b, v)
            back = bs.to_bloch(b, rho)
            worst_rt = max(worst_rt, float(np.abs(back - v).max()))
            worst_len = max(worst_len, abs(float(v @ v) - (bs.purity(rho) - 1.0 / n)))
    ok = worst_rt <= 1e-12 and worst_len <= 1e-10
    check(2, "round trip and length identity", ok,
          f"round-trip err {worst_rt:.2e}, identity err {worst_len:.2e}")


def test_criterion_03_stratification_inequality(scans):
    min_slack = float("inf")
    ok = True
    for n in STRATA_DIMS:
        rows = parse_csv(scans.strata[n])
        ok &= len(rows) == n * STRATA_COUNT
        for j, fields in enumerate(rows):
            rank = j // STRATA_COUNT + 1
            p = int(fields[1])
            ok &= p == n - rank
            distance, radius = float(fields[2]), float(fields[3])
            ok &= fields[5] == "true"
            min_slack = min(min_slack, distance - radius)
    ok &= min_slack >= -1e-9 and scans.strata_elapsed < 60.0
    check(3, "stratification inequality", ok,
          f"min slack {min_slack:.3e}, scan time {scans.strata_elapsed:.1f}s")


def test_criterion_04_equality_characterization():
    ok = True
    worst = 0.0
    for n in range(2, 9):
        for q in range(1, n):
            rep = bs.stratum_report(bs.boundary_state(n, q))
            ok &= rep.on_sphere
            worst = max(worst, abs(rep.distance - rep.radius))
    ok &= worst <= 1e-12
    # sampled states with visibly unequal nonzero eigenvalues never sit on the sphere
    false_hits = 0
    for n in range(2, 7):
        for rank in range(1, n + 1):
            config = bs.SamplerConfig(seed=SEED, dim=n, rank=rank, count=1000)
            for i in range(config.count):
                rho = bs.sample_state(config, i)
                rep = bs.stratum_report(rho)
                nonzero = bs.spectrum(rho).values[:rank]
                if nonzero.max() - nonzero.min() > 1e-6 and rep.on_sphere:
                    false_hits += 1
    ok &= false_hits == 0
    check(4, "sphere equality only for uniform spectra", ok,
          f"constructed dev {worst:.2e}, false on-sphere hits {false_hits}")


def test_criterion_05_pure_states_on_large_sphere():
    worst = 0.0
    for n in range(2, 7):
        config = bs.SamplerConfig(seed=SEED, dim=n, rank=1, count=1000)
        target = sqrt((n - 1) / n)
        for i in range(config.count):
            rep = bs.stratum_report(bs.sample_state(config, i))
            worst = max(worst, abs(rep.distance - target))
    ok = worst <= 1e-10
    check(5, "pure states on the large sphere", ok, f"max deviation {worst:.2e}")


def test_criterion_06_small_ball_positivity():
    worst = float("inf")
    for n in (3, 4, 5):
        b = bs.build_basis(n)
        small = bs.stratum_radius(n, 1)
        for i in range(10_000):
            v = bs.sample_bloch_in_ball(SEED, n * n - 1, small, i)
            w = np.linalg.eigvalsh(bs.from_bloch(b, v))
            worst = min(worst, float(w[0]))
    ok = worst >= -1e-10
    # witness: just outside the small sphere a nonpositive matrix exists
    witnesses = []
    for n in (3, 4, 5):
        b = bs.build_basis(n)
        _, bottom_heavy = bs.extremal_spectra(n)
        direction = bs.expand(b, np.diag(bottom_heavy))
        rho = bs.from_bloch(b, (bs.stratum_radius(n, 1) + 1e-3) * direction)
        witnesses.append(float(np.linalg.eigvalsh(rho)[0]))
    ok &= all(w < 0 for w in witnesses)
    check(6, "small-ball positivity", ok,
          f"min eigenvalue inside {worst:.2e}, witness eigenvalues "
          + ",".join(f"{w:.1e}" for w in witnesses))


def test_criterion_07_direction_caps():
    start = time.perf_counter()
    ok = True
    worst_cap = 0.0
    for n in DIRECTION_DIMS:
        b = bs.build_basis(n)
        small = bs.stratum_radius(n, 1)
        large = bs.stratum_radius(n, n - 1)
        peak = sqrt((n - 1) / n)
        for i in range(DIRECTION_COUNT):
            v = bs.sample_direction(SEED, n * n - 1, i)
            rep = bs.direction_report(b, v)
            ok &= small - 1e-9 <= rep.max_length <= large + 1e-9
            ok &= rep.mu[0] <= peak + 1e-10 and rep.mu[-1] >= -peak - 1e-10
            cap = bs.state_along(b, v, rep.max_length)
            lam_min = abs(float(np.linalg.eigvalsh(cap)[0]))
            worst_cap = max(worst_cap, lam_min)
    elapsed = time.perf_counter() - start
    ok &= worst_cap <= 1e-10 and elapsed < 30.0
    check(7, "directional length caps", ok,
          f"max |cap eigenvalue| {worst_cap:.2e}, {elapsed:.1f}s")


def test_criterion_08_extremal_directions():
    ok = True
    worst_pure = 0.0
    worst_flat = 0.0
    for n in range(2, 9):
        b = bs.build_basis(n)
        top_heavy, bottom_heavy = bs.extremal_spectra(n)

        v = bs.expand(b, np.diag(top_heavy))
        rep = bs.direction_report(b, v)
        cap = bs.state_along(b, v, rep.max_length)
        worst_pure = max(worst_pure, abs(bs.purity(cap) - 1.0))

        v = bs.expand(b, np.diag(bottom_heavy))
        rep = bs.direction_report(b, v)
        cap = bs.state_along(b, v, rep.max_length)
        expected = np.array([1.0 / (n - 1)] * (n - 1) + [0.0])
        worst_flat = max(
            worst_flat, float(np.abs(bs.spectrum(cap).values - expected).max())
        )
    ok &= worst_pure <= 1e-10 and worst_flat <= 1e-10
    check(8, "extremal direction caps", ok,
          f"purity dev {worst_pure:.2e}, flat-cap dev {worst_flat:.2e}")


def test_criterion_09_antipodean_theorem():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    pairs = 0
    for n in range(2, 9):
        for q in range(1, n):
            rep = bs.antipode_of_boundary(n, q)
            ok &= rep.matches_complement
            dev = np.abs(
                bs.spectrum(rep.antipodal_cap).values
                - bs.spectrum(bs.boundary_state(n, n - q)).values
            ).max()
            worst = max(worst, float(dev))
            # involution: the antipode of R(N-q) lands back on R(q)
            back = bs.antipode_of_boundary(n, n - q)
            dev = np.abs(
                bs.spectrum(back.antipodal_cap).values
                - bs.spectrum(bs.boundary_state(n, q)).values
            ).max()
            worst = max(worst, float(dev))
            pairs += 1
    elapsed = time.perf_counter() - start
    ok &= pairs == 28 and worst <= 1e-12 and elapsed < 1.0
    check(9, "antipodean boundary pairing", ok,
          f"{pairs} pairs, spectral dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_10_unit_sum_lemma():
    ok = True
    min_slack = float("inf")
    for n in range(2, 11):
        for i in range(10_000):
            t = bs.sample_unit_sum_tuple(SEED, n, i)
            res = bs.harriman_check(t)
            min_slack = min(min_slack, res.sum_of_squares - res.bound)
            ok &= res.sum_of_squares >= res.bound - 1e-12
            near_uniform = float(np.abs(t - 1.0 / n).max()) <= 1e-6
            ok &= res.equality == near_uniform
    check(10, "sum-of-squares lower bound", ok, f"min slack {min_slack:.3e}")


def test_criterion_11_scan_determinism(scans, tmp_path):
    ok = True
    for n in STRATA_DIMS:
        rerun = tmp_path / f"strata_{n}.csv"
        rc = cli_main(
            ["strata-scan", "--dim", str(n), "--count", str(STRATA_COUNT),
             "--seed", str(SEED), "--out", str(rerun)]
        )
        ok &= rc == 0 and rerun.read_bytes() == scans.strata[n].read_bytes()
    for n in DIRECTION_DIMS:
        rerun = tmp_path / f"direction_{n}.csv"
        rc = cli_main(
            ["direction", "--dim", str(n), "--seed", str(SEED),
             "--scan", str(DIRECTION_COUNT), "--out", str(rerun)]
        )
        ok &= rc == 0 and rerun.read_bytes() == scans.directions[n].read_bytes()
    check(11, "byte-identical repeat scans", ok,
          f"{len(STRATA_DIMS)} strata + {len(DIRECTION_DIMS)} direction scans")


# SHA-256 of the fixed-seed outputs (seed 20260810, SOURCE_DATE_EPOCH=0) of 0.2.0, by the
# OpenBLAS core that ran them (see conftest.py).  Under each core every output, with 0.1.0
# written back into its manifest's version, has the bytes of v0.1.0 (git archive e8b4500
# src) run under that core, but for lemma and antipode, whose manifest line no longer
# carries a zero_tol, and the direction scans at N >= 3: since 0.2.0 their T_n comes from
# the basis index formulas, whose diagonal sums may differ from v0.1.0's dense products in
# the last bit, and so may a mu or max_length in its last digits.
PINNED_SCANS = {
    "SkylakeX": {
        "strata": {
            2: "7a6d6ea26172367ea058974bcb2de97879d6aa59e8dd80e06bce139adcc1db3f",
            3: "07d055ccdaf5c7f4017f9c4ac47014f36efa8993fb31a8ae11e3c530a5e4a742",
            4: "1b9d8bf5eaed7d57d5acd2ac665451287834b916d6d82783e034fddb3aece433",
            5: "e66785ed22d4d1589550432cc2930f1915d28c5ab5b920bfcd029c891c752834",
            6: "07c013bbdcb0e4d11054fe606d339d93eac0749ec5dd87372d40ad81ddafc9ef",
        },
        "directions": {
            2: "bf4c5916a88738a0980c1a7d395f91ec1048d09da8ca916e8e839a66d03afef2",
            3: "5a2b0e91d55631870014b14914a36ac8bd6a2487d9ca40283a06333396afe1a2",
            4: "d09290a62dc84150be7ef940552447cb105b88d1671d3ab72e8fe3a0888de676",
            5: "52f74b1cd89db3a8a27d418186a01fe20325106bf3ec308f9ab8946a7b9ee4e2",
        },
    },
    "Haswell": {
        "strata": {
            2: "a8e38d83b1f2be287a5e342815742ec2a6f32add05af1969a329bf517f3fb9e8",
            3: "c1cee7e6bcf346e73dcc129891ffcde62a9c7c498ebe04d5ed009c80585d4302",
            4: "1b9d8bf5eaed7d57d5acd2ac665451287834b916d6d82783e034fddb3aece433",
            5: "99248d355418474cdfff0ab093e73ecd1bd90d8dcca2ae7fc2ea5a361f84be16",
            6: "1ef885dc00daf5f09b609065f551d52f0b02243ceba3c121c3337d78681f0278",
        },
        "directions": {
            2: "d0da27f54e2c3e46d582ddeccb7031bc0202ada38cd8d03bb97d1237cb972edf",
            3: "c20bfbd6eb3a0012f6e3f46a5f3fdeef6cd0342b566039043d4894bd78b512e0",
            4: "cb12a9a1796c37a31cc4c8e09ee888da030dcf0254e79ca7bcb8f606a8d2ed49",
            5: "d37f0a72130c12a1a40f8a51546480cfd330095bb8daed266b327d8a470c54e3",
        },
    },
    "Sandybridge": {
        "strata": {
            2: "bd59e5edc052308a7a35ff49c72f9d0058a488d66ed1f5c8beb166b702ec0415",
            3: "ee29173a2ce29d2bcb570ac566bbf5962054cf870f17e0bc4453098e7efe88f6",
            4: "786d3ee5367f686e058980bdf9071290e0f0c9ca902c52631c6fa132b1007ede",
            5: "336df687a17f29cc46b44c2c205451eb6cd52ff3ec5b20aee46074e6c7997be2",
            6: "74fb98421c9cfdf83dd2af117cac1911496e46d5763acd051d2a87759a0469f1",
        },
        "directions": {
            2: "d0da27f54e2c3e46d582ddeccb7031bc0202ada38cd8d03bb97d1237cb972edf",
            3: "c20bfbd6eb3a0012f6e3f46a5f3fdeef6cd0342b566039043d4894bd78b512e0",
            4: "cb12a9a1796c37a31cc4c8e09ee888da030dcf0254e79ca7bcb8f606a8d2ed49",
            5: "d37f0a72130c12a1a40f8a51546480cfd330095bb8daed266b327d8a470c54e3",
        },
    },
}
COMMANDS = [
    ["sample", "--dim", "4", "--rank", "2", "--count", "50", "--seed", str(SEED),
     "--format", "csv"],
    ["sample", "--dim", "4", "--rank", "2", "--count", "50", "--seed", str(SEED),
     "--format", "json"],
    ["lemma", "--count", "500", "--size", "7", "--seed", str(SEED)],
    ["antipode", "--table", "--max-dim", "8"],
]
# one digest per command of COMMANDS, in its order
PINNED_COMMANDS = {
    "SkylakeX": (
        "3293b011ab374e23db8567e652adbff955b92727f8ae76f3b26b7dc698f08af4",
        "8f3e4769626497369910fb7d0f65536c6f816a16fd5643eae6efe465b4cdb667",
        "e07b277815c9b3de218b9d920bab88585defb8ca0d13f1b052e98c5c32a6b836",
        "35e5efe0ff87f5c68989080718e7d1e8d8710848eecc48b9530fedc597c87402",
    ),
    "Haswell": (
        "3293b011ab374e23db8567e652adbff955b92727f8ae76f3b26b7dc698f08af4",
        "8f3e4769626497369910fb7d0f65536c6f816a16fd5643eae6efe465b4cdb667",
        "c3852992b9ad9b3a3dc7d02e264f987b7383ee73fad556dec633eb6f53a35836",
        "35e5efe0ff87f5c68989080718e7d1e8d8710848eecc48b9530fedc597c87402",
    ),
    "Sandybridge": (
        "22fef2fa52f7eddeb5dafa3515ec39ec9fbc9c2cbc286a3b9dbc2d5e95c1223d",
        "e708611de3025f4398e427c59911805670b397d9c92ed4ca2ff66d648749a249",
        "c3852992b9ad9b3a3dc7d02e264f987b7383ee73fad556dec633eb6f53a35836",
        "35e5efe0ff87f5c68989080718e7d1e8d8710848eecc48b9530fedc597c87402",
    ),
}
# the concatenated bytes of draws 0..1199 of each sampler
DRAWS = {
    "state": lambda i: bs.sample_state(bs.SamplerConfig(SEED, 4, 2, 1200), i),
    "direction": lambda i: bs.sample_direction(SEED, 15, i),
    "ball": lambda i: bs.sample_bloch_in_ball(SEED, 15, bs.stratum_radius(4, 1), i),
    "tuple": lambda i: bs.sample_unit_sum_tuple(SEED, 7, i),
}
PINNED_DRAWS = {
    "SkylakeX": {
        "state": "a61391019a709d9445eb0c7cd25f5135b56002cdd1aa6eafb8a902bc7773b8b9",
        "direction": "0059bdde2e6ca9237b5144e2743dea71e0eba04c141c6e1029ab15c53f09955c",
        "ball": "d7ef3725d1bad8c9cd81a382c3b173eea7af570c9003f875bfd88e3b76714cc2",
        "tuple": "227e2b1039bf5bd880c07a6a7beb88fd26c266150f14d0e02b236f1448a409b1",
    },
    "Haswell": {
        "state": "a61391019a709d9445eb0c7cd25f5135b56002cdd1aa6eafb8a902bc7773b8b9",
        "direction": "0dd6c477efe5e2526003eceeaf5f574381003748b174928a299c17a7aec9f711",
        "ball": "f65afc2a3f955e81ec8f0bc17dc097d06cb9b026e4242089192bfb487f548f5e",
        "tuple": "227e2b1039bf5bd880c07a6a7beb88fd26c266150f14d0e02b236f1448a409b1",
    },
    "Sandybridge": {
        "state": "397b255c0149bccabd109aabde4e2df1ce2e4eeff7a829d254c7622ce427a087",
        "direction": "0dd6c477efe5e2526003eceeaf5f574381003748b174928a299c17a7aec9f711",
        "ball": "f65afc2a3f955e81ec8f0bc17dc097d06cb9b026e4242089192bfb487f548f5e",
        "tuple": "227e2b1039bf5bd880c07a6a7beb88fd26c266150f14d0e02b236f1448a409b1",
    },
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_criterion_12_fixed_seed_outputs_are_pinned(scans, tmp_path, monkeypatch, blas_core):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    got_scans = {
        kind: {n: sha256(path.read_bytes()) for n, path in getattr(scans, kind).items()}
        for kind in ("strata", "directions")
    }
    got_commands = []
    for j, argv in enumerate(COMMANDS):
        out = tmp_path / f"pinned_{j}"
        assert cli_main([*argv, "--out", str(out)]) == 0
        got_commands.append(sha256(out.read_bytes()))
    got_draws = {
        name: sha256(b"".join(draw(i).tobytes() for i in range(1200)))
        for name, draw in DRAWS.items()
    }
    if blas_core not in PINNED_SCANS:
        # this core's digests, to add under its name once they match v0.1.0's under it
        # as the comment on PINNED_SCANS says
        print(f"PINNED_SCANS[{blas_core!r}] = {got_scans}")
        print(f"PINNED_COMMANDS[{blas_core!r}] = {tuple(got_commands)}")
        print(f"PINNED_DRAWS[{blas_core!r}] = {got_draws}")
        pytest.fail(
            f"no pinned set for OpenBLAS core {blas_core!r}: add the digests printed above "
            "under its name once v0.1.0 (git archive e8b4500 src) gives the same outputs "
            f"under OPENBLAS_CORETYPE={blas_core}, but for the manifest version and the "
            "direction scans at N >= 3"
        )
    wrong = [
        f"{kind} N={n}"
        for kind, pinned in PINNED_SCANS[blas_core].items()
        for n, digest in pinned.items()
        if got_scans[kind][n] != digest
    ]
    wrong += [
        argv[0]
        for argv, got, digest in zip(COMMANDS, got_commands, PINNED_COMMANDS[blas_core])
        if got != digest
    ]
    wrong += [f"{name} draws" for name, digest in PINNED_DRAWS[blas_core].items()
              if got_draws[name] != digest]
    check(12, "fixed-seed outputs equal their pins", not wrong,
          f"{len(wrong)} of 17 differ on OpenBLAS core {blas_core}"
          + (": " + ", ".join(wrong) if wrong else ""))
