"""The benchmark's workloads: the CLI commands of one round, their inputs and their checks.

A workload runs as a sequence of rounds.  A round is a fixed list of CLI
commands whose inputs are a pure function of (benchmark seed, round index),
so a round repeats byte for byte.  Each command writes to a file in the
current directory, which the runner reads back and checks outside the timed
region.  README.md says why each workload is in the benchmark.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from math import sqrt
from time import perf_counter
from typing import Callable

import numpy as np

import checks


@dataclass(frozen=True)
class Op:
    """One CLI command: its argv, the file it writes, the items it completes, its check."""

    argv: tuple[str, ...]
    out: str
    items: int
    check: Callable[[str], list[str]]


def derive_seed(seed: int, *key) -> int:
    """A 64-bit seed for one command, fixed by the benchmark seed and the key."""
    digest = hashlib.sha256(":".join(map(str, (seed, *key))).encode()).digest()
    return int.from_bytes(digest[:8], "little")


# Reference computations.  Each repeats, with numpy and json alone, the kind of
# work its workload does.  The machine's changing speed (other tenants, clock
# changes) slows it about as much as it slows the CLI, so CLI time divided by
# reference time is steadier than CLI time alone.  Each takes 10 to 15 ms on a
# 2-core x86-64 VM.  They never change with blochstrata, so a change to the
# package moves time in reference units as it moves time in seconds.


def sampler_reference(reps: int = 100) -> float:
    """Seconds to build Philox generators, draw Gaussians, eigensolve 4 x 4 states, format floats."""
    total = 0.0
    start = perf_counter()
    for i in range(reps):
        seq = np.random.SeedSequence(entropy=12345, spawn_key=(0, 4, 2, i))
        z = np.random.Generator(np.random.Philox(seq)).standard_normal((2, 4, 2))
        g = (z[0] + 1j * z[1]) / sqrt(2.0)
        h = g @ g.conj().T
        h = h / float(h.trace().real)
        w = np.linalg.eigvalsh((h + h.conj().T) / 2.0)
        total += float(np.linalg.norm(h - np.eye(4) / 4))
        f"{total:.17g},{w[0]:.17g}"
    return perf_counter() - start


_FLOATS = [0.1 + i / 7000 for i in range(1500)]


def convert_reference(n: int = 24) -> float:
    """Seconds to fill and copy a dense (N^2 - 1, N, N) tensor, contract it, write and read JSON."""
    start = perf_counter()
    tensor = np.zeros((n * n - 1, n, n), dtype=complex)
    index = 0
    for j in range(n):
        for k in range(j + 1, n):
            tensor[index, j, k] = tensor[index, k, j] = 0.5
            index += 1
    tensor = np.array(tensor)
    np.einsum("ij,kji->k", np.eye(n, dtype=complex) / n, tensor)
    json.loads(json.dumps({"coords": _FLOATS}, indent=2))
    return perf_counter() - start


class StrataScan:
    """strata-scan at N = 2..6, every rank; per-state sampling, one eigensolve, one CSV row."""

    name = "strata-scan"
    item_root = "sampling.sample_state"
    layers = (
        "sampling.sample_state",
        "stratification.stratum_report",
        "states.check_hermitian",
        "states.hermitian_eigenvalues",
        "cli.main",
    )
    controls = ("basis.build_basis",)
    counted = ("serialize.format_float",)
    reference = staticmethod(sampler_reference)
    round_seconds = 1.0  # untraced, on a 2-core x86-64 VM; sizes the traced run

    def __init__(self, tiny: bool = False):
        self.dims = (2, 3) if tiny else (2, 3, 4, 5, 6)
        self.count = 3 if tiny else 400

    def round_ops(self, seed: int, r: int) -> list[Op]:
        ops = []
        for n in self.dims:
            out = f"strata-{n}.csv"
            argv = (
                "strata-scan", "--dim", str(n), "--count", str(self.count),
                "--seed", str(derive_seed(seed, self.name, r, n)), "--out", out,
            )
            check = functools.partial(checks.check_strata, dim=n, count=self.count)
            ops.append(Op(argv, out, n * self.count, check))
        return ops

    def expected_calls(self, rounds: int) -> dict[str, int]:
        states = rounds * self.count * sum(self.dims)
        return {
            "sampling.sample_state": states,
            "stratification.stratum_report": states,
            "states.check_hermitian": states,
            "states.hermitian_eigenvalues": states,
            "cli.main": rounds * len(self.dims),
            "basis.build_basis": 0,
            "serialize.format_float": 2 * states + rounds * sum(self.dims),
        }


class DirectionScan:
    """direction --scan at N = 2..5; two eigensolves and a small basis contraction per direction."""

    name = "direction-scan"
    item_root = "sampling.sample_direction"
    layers = (
        "sampling.sample_direction",
        "direction.direction_report",
        "direction.directional_matrix",
        "states.classify",
        "states.check_hermitian",
        "states.hermitian_eigenvalues",
        "basis.build_basis",
        "cli.main",
    )
    controls = ("stratification.stratum_report",)
    counted = ("serialize.format_float",)
    reference = staticmethod(sampler_reference)
    round_seconds = 1.0

    def __init__(self, tiny: bool = False):
        self.dims = (2, 3) if tiny else (2, 3, 4, 5)
        self.count = 3 if tiny else 1500

    def round_ops(self, seed: int, r: int) -> list[Op]:
        ops = []
        for n in self.dims:
            out = f"direction-{n}.csv"
            argv = (
                "direction", "--dim", str(n), "--scan", str(self.count),
                "--seed", str(derive_seed(seed, self.name, r, n)), "--out", out,
            )
            check = functools.partial(checks.check_direction, dim=n, count=self.count)
            ops.append(Op(argv, out, self.count, check))
        return ops

    def expected_calls(self, rounds: int) -> dict[str, int]:
        directions = rounds * self.count * len(self.dims)
        return {
            "sampling.sample_direction": directions,
            "direction.direction_report": directions,
            "direction.directional_matrix": directions,
            "states.classify": directions,
            "states.check_hermitian": directions,
            "states.hermitian_eigenvalues": 2 * directions,
            "basis.build_basis": rounds * len(self.dims),
            "cli.main": rounds * len(self.dims),
            "stratification.stratum_report": 0,
            "serialize.format_float": 3 * directions,
        }


class BlochConvert:
    """convert round trips matrix JSON -> Bloch JSON -> matrix JSON at N up to 48."""

    name = "bloch-convert"
    item_root = "serialize.matrix_from_dict"
    layers = (
        "basis.build_basis",
        "basis.expand",
        "states.to_bloch",
        "states.from_bloch",
        "states.check_hermitian",
        "serialize.load_json",
        "serialize.matrix_from_dict",
        "serialize.matrix_to_dict",
        "serialize.bloch_from_dict",
        "serialize.bloch_to_dict",
        "cli.main",
    )
    controls = ("sampling.sample_state", "states.hermitian_eigenvalues")
    counted = ()
    reference = staticmethod(convert_reference)
    round_seconds = 0.4

    def __init__(self, tiny: bool = False):
        self.dims = (3, 5) if tiny else (12, 24, 36, 48)

    def round_ops(self, seed: int, r: int) -> list[Op]:
        """Writes this round's input matrices, then lists the two conversions of each."""
        ops = []
        for n in self.dims:
            rho = random_density_matrix(n, derive_seed(seed, self.name, r, n))
            matrix_in, bloch, matrix_out = f"matrix-{n}.json", f"bloch-{n}.json", f"back-{n}.json"
            with open(matrix_in, "w", encoding="utf-8") as fh:
                json.dump({"dim": n, "re": rho.real.tolist(), "im": rho.imag.tolist()}, fh)
            ops.append(Op(
                ("convert", "--in", matrix_in, "--out", bloch), bloch, 0,
                functools.partial(checks.check_bloch, rho=rho),
            ))
            ops.append(Op(
                ("convert", "--in", bloch, "--out", matrix_out), matrix_out, 1,
                functools.partial(checks.check_round_trip, rho=rho),
            ))
        return ops

    def expected_calls(self, rounds: int) -> dict[str, int]:
        trips = rounds * len(self.dims)
        return {
            "basis.build_basis": 2 * trips,
            "basis.expand": trips,
            "states.to_bloch": trips,
            "states.from_bloch": trips,
            "states.check_hermitian": trips,
            "serialize.load_json": 2 * trips,
            "serialize.matrix_from_dict": trips,
            "serialize.matrix_to_dict": trips,
            "serialize.bloch_from_dict": trips,
            "serialize.bloch_to_dict": trips,
            "cli.main": 2 * trips,
            "sampling.sample_state": 0,
            "states.hermitian_eigenvalues": 0,
        }



def random_density_matrix(n: int, seed: int) -> np.ndarray:
    """Full-rank G G^H / Tr{G G^H} for a complex Gaussian N x N matrix G, exactly Hermitian."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = g @ g.conj().T
    h = (h + h.conj().T) / 2.0
    return h / h.trace().real


WORKLOADS = {w.name: w for w in (StrataScan, DirectionScan, BlochConvert)}
