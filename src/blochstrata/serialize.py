"""JSON wire formats for matrices and Bloch vectors, and CSV cell formatting.

Matrix schema: {"dim": N, "re": [[...]], "im": [[...]]}, row-major.
Bloch vector schema: {"dim": N, "coords": [...]} with N**2 - 1 coordinates.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .errors import DomainError, _array, _shown


def format_float(x: float) -> str:
    """Render with 17 significant digits (full round-trip precision)."""
    return f"{x:.17g}"


# CSV text of a bool, looked up by it: _CSV_BOOL[flag]
_CSV_BOOL = ("false", "true")


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int; numpy reads them as 1.0/0.0
    return isinstance(value, int) and not isinstance(value, bool)


def require_numbers(values, what: str) -> None:
    """Reject booleans and strings, which numpy reads as numbers (true as 1.0, "0.5" as 0.5)."""
    kinds = set(map(type, values))
    for kind, name in ((bool, "boolean"), (str, "string")):
        if kind in kinds:
            raise DomainError(f"{what} must be numbers, got a JSON {name}")


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
    re = _array(data["re"], "matrix entries")
    im = _array(data["im"], "matrix entries")
    if re.shape != (n, n) or im.shape != (n, n):
        raise DomainError(
            f'matrix "re"/"im" must be {n}x{n} arrays, got {re.shape} and {im.shape}'
        )
    require_numbers(chain.from_iterable((*data["re"], *data["im"])), "matrix entries")
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
    coords = _array(data["coords"], "Bloch coordinates")
    if coords.shape != (n * n - 1,):
        raise DomainError(
            f"expected {n * n - 1} coordinates for dimension {n}, got shape {coords.shape}"
        )
    require_numbers(data["coords"], "Bloch coordinates")
    return n, coords


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read {_shown(path, path=True)}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"{_shown(path, path=True)} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed JSON in {_shown(path, path=True)}: {exc}") from exc
    except RecursionError:
        shown = _shown(path, path=True)
        raise DomainError(f"JSON in {shown} is nested too deeply to read") from None
