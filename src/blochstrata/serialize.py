"""JSON wire formats for matrices and Bloch vectors, and CSV float formatting.

Matrix schema: {"dim": N, "re": [[...]], "im": [[...]]}, row-major.
Bloch vector schema: {"dim": N, "coords": [...]} with N**2 - 1 coordinates.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DomainError


def format_float(x: float) -> str:
    """Render with 17 significant digits (full round-trip precision)."""
    return f"{x:.17g}"


def format_bool(b: bool) -> str:
    return "true" if b else "false"


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int; numpy reads them as 1.0/0.0
    return isinstance(value, int) and not isinstance(value, bool)


def matrix_to_dict(matrix: np.ndarray) -> dict:
    m = np.asarray(matrix, dtype=complex)
    return {
        "dim": m.shape[0],
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def matrix_from_dict(data) -> np.ndarray:
    if not isinstance(data, dict) or not {"dim", "re", "im"} <= set(data):
        raise DomainError('matrix JSON must have keys "dim", "re", "im"')
    n = data["dim"]
    if not _is_int(n) or n < 1:
        raise DomainError(f'matrix "dim" must be a positive integer, got {n!r}')
    try:
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"matrix entries are not numeric: {exc}") from exc
    if re.shape != (n, n) or im.shape != (n, n):
        raise DomainError(
            f'matrix "re"/"im" must be {n}x{n} arrays, got {re.shape} and {im.shape}'
        )
    if any(bool in map(type, row) for row in (*data["re"], *data["im"])):
        raise DomainError("matrix entries must be numbers, got a JSON boolean")
    # 1j * inf has a NaN real part; the validation gate rejects it as non-finite
    with np.errstate(invalid="ignore"):
        return re + 1j * im


def bloch_to_dict(dim: int, coords: np.ndarray) -> dict:
    return {"dim": dim, "coords": np.asarray(coords, dtype=float).tolist()}


def bloch_from_dict(data) -> tuple[int, np.ndarray]:
    if not isinstance(data, dict) or not {"dim", "coords"} <= set(data):
        raise DomainError('Bloch vector JSON must have keys "dim", "coords"')
    n = data["dim"]
    if not _is_int(n) or n < 2:
        raise DomainError(f'Bloch "dim" must be an integer >= 2, got {n!r}')
    try:
        coords = np.asarray(data["coords"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"Bloch coordinates are not numeric: {exc}") from exc
    if coords.shape != (n * n - 1,):
        raise DomainError(
            f"expected {n * n - 1} coordinates for dimension {n}, got shape {coords.shape}"
        )
    if bool in map(type, data["coords"]):
        raise DomainError("Bloch coordinates must be numbers, got a JSON boolean")
    return n, coords


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed JSON in {path}: {exc}") from exc
