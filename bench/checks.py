"""Checks of the CLI's outputs; every check returns a list of problems, empty if the output is correct.

The bounds hold for any seed: they are the paper's inequalities and the
library's documented round-trip precision, not properties of one sample.
"""

from __future__ import annotations

import json
from math import sqrt

import numpy as np

STRATA_HEADER = "N,p,distance,radius_p,on_sphere,satisfied"
DIRECTION_HEADER = "N,mu_min,mu_max,max_length,cap_zero_count"

SPHERE_TOL = 1e-9  # slack allowed below a stratum or cap radius
CAP_REL_TOL = 1e-12  # max_length against 1/(N |mu_min|), relative
ROUND_TRIP_TOL = 1e-12  # max |rho - from_bloch(to_bloch(rho))| entrywise
LENGTH_TOL = 1e-12  # | |V|^2 - (Tr{rho^2} - 1/N) |


def data_text(text: str) -> str:
    """The output without its run manifest, so it can be compared across versions.

    CSV outputs lose their ``# manifest`` line; JSON outputs lose their
    ``manifest`` key and are re-serialized with sorted keys (floats keep
    their repr, so the data stay exact).
    """
    if text.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            return text
        if isinstance(payload, dict):
            payload.pop("manifest", None)
        return json.dumps(payload, sort_keys=True)
    return "".join(
        line for line in text.splitlines(keepends=True) if not line.startswith("# manifest ")
    )


def _csv_rows(text: str, header: str) -> tuple[list[str], list[str], list[str]]:
    """Split a CSV output into (data rows, trailing comment lines, problems)."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    else:
        return [], [], ["output does not end with a newline"]
    if len(lines) < 2 or not lines[0].startswith("# manifest "):
        return [], [], ["missing '# manifest' line"]
    if lines[1] != header:
        return [], [], [f"header is {lines[1]!r}, expected {header!r}"]
    body = lines[2:]
    rows = [line for line in body if not line.startswith("#")]
    comments = [line for line in body if line.startswith("#")]
    if body[: len(rows)] != rows:
        return [], [], ["comment line among the data rows"]
    return rows, comments, []


def check_strata(text: str, dim: int, count: int) -> list[str]:
    """strata-scan --dim dim --count count: rank-ordered rows, each on or outside its sphere."""
    rows, comments, problems = _csv_rows(text, STRATA_HEADER)
    if problems:
        return problems
    if len(rows) != dim * count:
        return [f"{len(rows)} rows, expected {dim * count}"]
    slack_by_rank: dict[int, float] = {}
    for i, row in enumerate(rows):
        rank = i // count + 1
        try:
            n, p, distance, radius, _, satisfied = row.split(",")
            n, p, distance, radius = int(n), int(p), float(distance), float(radius)
        except ValueError:
            problems.append(f"row {i} is malformed: {row!r}")
            continue
        if n != dim:
            problems.append(f"row {i}: N={n}, expected {dim}")
        if p != dim - rank:
            problems.append(f"row {i}: p={p}, expected N - rank = {dim - rank}")
        if satisfied != "true":
            problems.append(f"row {i}: satisfied={satisfied}")
        if not distance >= radius - SPHERE_TOL:
            problems.append(f"row {i}: distance {distance!r} below radius {radius!r}")
        slack = distance - radius
        if rank not in slack_by_rank or slack < slack_by_rank[rank]:
            slack_by_rank[rank] = slack
    expected = [f"# min_slack rank={k} " for k in range(1, dim + 1)] if count else []
    if len(comments) != len(expected):
        problems.append(f"{len(comments)} '# min_slack' lines, expected {len(expected)}")
    for rank, (line, prefix) in enumerate(zip(comments, expected), start=1):
        if not line.startswith(prefix):
            problems.append(f"comment {line!r} does not start with {prefix!r}")
            continue
        try:
            value = float(line[len(prefix):])
        except ValueError:
            problems.append(f"comment {line!r} has no number")
            continue
        if rank in slack_by_rank and value != slack_by_rank[rank]:
            problems.append(f"{line!r}: smallest row slack is {slack_by_rank[rank]!r}")
    return problems


def check_direction(text: str, dim: int, count: int) -> list[str]:
    """direction --scan count: mu of both signs, length cap 1/(N|mu_min|) between r_1 and r_{N-1}."""
    rows, comments, problems = _csv_rows(text, DIRECTION_HEADER)
    if problems:
        return problems
    if comments:
        problems.append(f"unexpected comment lines: {comments[:2]}")
    if len(rows) != count:
        return problems + [f"{len(rows)} rows, expected {count}"]
    r_small = sqrt(1.0 / (dim * (dim - 1)))
    r_large = sqrt((dim - 1) / dim)
    for i, row in enumerate(rows):
        try:
            n, mu_min, mu_max, max_length, zeros = row.split(",")
            n, zeros = int(n), int(zeros)
            mu_min, mu_max, max_length = float(mu_min), float(mu_max), float(max_length)
        except ValueError:
            problems.append(f"row {i} is malformed: {row!r}")
            continue
        if n != dim:
            problems.append(f"row {i}: N={n}, expected {dim}")
        if not mu_min < 0.0 < mu_max:
            problems.append(f"row {i}: mu_min={mu_min!r}, mu_max={mu_max!r} not of both signs")
            continue
        cap = 1.0 / (dim * abs(mu_min))
        if not abs(max_length - cap) <= CAP_REL_TOL * cap:
            problems.append(f"row {i}: max_length {max_length!r} != 1/(N|mu_min|) = {cap!r}")
        if not r_small - SPHERE_TOL <= max_length <= r_large + SPHERE_TOL:
            problems.append(f"row {i}: max_length {max_length!r} outside [r_1, r_(N-1)]")
        if zeros < 1:
            problems.append(f"row {i}: cap_zero_count={zeros}")
    return problems


def _load(text: str, keys: tuple[str, ...]) -> tuple[dict | None, list[str]]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]
    if not isinstance(payload, dict) or not set(keys) <= set(payload):
        return None, [f"output lacks one of the keys {keys}"]
    if "manifest" not in payload:
        return None, ["output lacks its manifest"]
    return payload, []


def check_bloch(text: str, rho: np.ndarray) -> list[str]:
    """convert matrix -> Bloch: N^2 - 1 coordinates with |V|^2 = Tr{rho^2} - 1/N."""
    payload, problems = _load(text, ("dim", "coords"))
    if problems:
        return problems
    n = rho.shape[0]
    coords = np.asarray(payload["coords"], dtype=float)
    if payload["dim"] != n or coords.shape != (n * n - 1,):
        return [f"dim {payload['dim']} with {coords.shape} coordinates, expected {n}"]
    length_sq = float(coords @ coords)
    purity = float(np.vdot(rho, rho).real)
    if not abs(length_sq - (purity - 1.0 / n)) <= LENGTH_TOL:
        return [f"|V|^2 = {length_sq!r} but Tr(rho^2) - 1/N = {purity - 1.0 / n!r}"]
    return []


def check_round_trip(text: str, rho: np.ndarray) -> list[str]:
    """convert Bloch -> matrix: the starting matrix again, entrywise within 1e-12."""
    payload, problems = _load(text, ("dim", "re", "im"))
    if problems:
        return problems
    n = rho.shape[0]
    re = np.asarray(payload["re"], dtype=float)
    im = np.asarray(payload["im"], dtype=float)
    if payload["dim"] != n or re.shape != (n, n) or im.shape != (n, n):
        return [f"matrix of dim {payload['dim']}, expected {n}"]
    error = float(np.abs(re + 1j * im - rho).max())
    if not error <= ROUND_TRIP_TOL:
        return [f"round-trip error {error!r} above {ROUND_TRIP_TOL}"]
    return []
