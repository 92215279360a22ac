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


# SHA-256 of the fixed-seed outputs (seed 20260810, SOURCE_DATE_EPOCH=0), by the OpenBLAS
# core that ran them (see conftest.py).  Under each core every output has the bytes of
# v0.1.0 (git archive e8b4500 src) run under that core, but for lemma and antipode, whose
# manifest line no longer carries a zero_tol.
PINNED_SCANS = {
    "SkylakeX": {
        "strata": {
            2: "24eb54a8e1c38136a313c11375b4c7f1a3ba29841dd06c796e19275ed6cfae64",
            3: "6763deb9b0ddb34e12657e41234729c3c9e6de0c5c2ebdf0c42f76dc493461c7",
            4: "db900e8f06aec053222b3d0de3a7a2b9596300693febe02f4a0ab9049a2e252e",
            5: "3ad7b4df2fb5a3a6ecee94e47c19ad04a8b4c697bf395d84a183d2e698d4737d",
            6: "9d74dcc61a69c21e83e1eee45b411a374b4cc29fcd5fa357f8e75a749958a0e9",
        },
        "directions": {
            2: "ab54dd1ff6c9485a950cb689fe0a4181a9b119f9b372fbcf7dcd956e9b1c5020",
            3: "313b58b393c4878e382dbf10b2874dfc943c5a921b4f254dd1c240c605ac89f2",
            4: "5d296a6f391ec356855274b7976c66d079c342d40964f5e0cf503feb70ac2daa",
            5: "ad1756eda8554c9a7323005c5270c934d4fa0bae112a54883cfcc949c01a33c9",
        },
    },
    "Haswell": {
        "strata": {
            2: "f1ecfccec70f37d6ce1180f845375246ad9afeb4abb6b74482aa8caaafbe49d6",
            3: "9079c814f1953a87acc4864cc3076c56fd30d9c8e4f90191715419c728ff36e5",
            4: "db900e8f06aec053222b3d0de3a7a2b9596300693febe02f4a0ab9049a2e252e",
            5: "d39fc95bfc68f6e4ed4452d2033435c8b7780a25e9a5595fe3910d7974fa0bcf",
            6: "984ef8a18cad77901a6f7e2d90f3f7047b5c6c58c99ba5d530afa1d09717a403",
        },
        "directions": {
            2: "071cf4b9fff03cb27aee030bb104fc75b214e522cb1fd28394813a7612a2eb49",
            3: "d8a52d8b0589e8c7e7e846a689bf455b824e694ba6a600333eed810216c5d19d",
            4: "c83810bb3b97d777f75b8853d9c87c99bf5ff1974a3ae85b0344cca527ae0734",
            5: "6e6ef5ebf7d7f2a56c8be8ae816d0fcffa511c976ed5778f101068fa1c9c23b7",
        },
    },
    "Sandybridge": {
        "strata": {
            2: "3c6c5007d115a9dea82d6fed9cda6608c1265b658f81efecdc14fd9e870d56df",
            3: "c8c19f48dc3d06976c5bbb6adb8673dc86a6dc26c0f0ac3665f5538d08d5ddaa",
            4: "4baa52f5bcf357abbbbee9a69efd60556c95703e81d0fb2da6b1c9e7d20f5fdc",
            5: "ffd2dfc6d5db4760f86348a4d74393d18d646f5815e5f9646ff13824bf8e77d3",
            6: "783634a0a7602b4632086265c5772c4395f600cced755e5d51811e919d6897b4",
        },
        "directions": {
            2: "071cf4b9fff03cb27aee030bb104fc75b214e522cb1fd28394813a7612a2eb49",
            3: "d66c66fe80a5155c0447be9c97396586c2a8415147bdee4b4b9bb6b01f8a4279",
            4: "95ec4095e8ff13b311876ce959d807586570114b4d8a62fd12ada2513cbcd123",
            5: "398cb4028b480cb30b7ac333d6672a63bede8ede07d8b771c39940ae7fc0a704",
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
        "85beab62baa7dcca90bc2c5d24f6235aec2be8a27d0671108554e302b88dcef9",
        "26d48d6782ee2a2034b150d1a6acf16dd945118e340cc0489aacfffe6e763bdc",
        "f229c74784085bc358c3a08e60904a871f23fbbdcee2f5fd84e79c5eb4b12cda",
        "7ce304cdf1d3bd892d6a49e4cec8b1508b0e2f2537eb7290ea2e957ee2dfa513",
    ),
    "Haswell": (
        "85beab62baa7dcca90bc2c5d24f6235aec2be8a27d0671108554e302b88dcef9",
        "26d48d6782ee2a2034b150d1a6acf16dd945118e340cc0489aacfffe6e763bdc",
        "a4c16df6b111c909490378af661c13d3b60a4b743bc39946bcc7324a146fab63",
        "7ce304cdf1d3bd892d6a49e4cec8b1508b0e2f2537eb7290ea2e957ee2dfa513",
    ),
    "Sandybridge": (
        "8cedb22e23ef1475b407b332d6b8e0730e0454b2c366a570f2902ef918f4f3a0",
        "6e85d86c7d2e355f83059a8f374788adf8a960b536ce619ecb175ec754531bf0",
        "a4c16df6b111c909490378af661c13d3b60a4b743bc39946bcc7324a146fab63",
        "7ce304cdf1d3bd892d6a49e4cec8b1508b0e2f2537eb7290ea2e957ee2dfa513",
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
        print(f"PINNED_SCANS[{blas_core!r}] = {got_scans}")
        print(f"PINNED_COMMANDS[{blas_core!r}] = {tuple(got_commands)}")
        print(f"PINNED_DRAWS[{blas_core!r}] = {got_draws}")
        pytest.fail(
            f"no pinned set for OpenBLAS core {blas_core!r}: add the digests printed above "
            "under its name once v0.1.0 (git archive e8b4500 src) gives the same outputs "
            f"under OPENBLAS_CORETYPE={blas_core}"
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
    check(12, "fixed-seed outputs equal v0.1.0", not wrong,
          f"{len(wrong)} of 17 differ on OpenBLAS core {blas_core}"
          + (": " + ", ".join(wrong) if wrong else ""))
