"""JSON wire formats for matrices and Bloch vectors.

Matrix schema: {"dim": N, "re": [[...]], "im": [[...]]}, row-major.
Bloch vector schema: {"dim": N, "coords": [...]} with N**2 - 1 coordinates.

_matrix_payload and _bloch_payload define the two schemas once, holding each
array as a read-only float64 view, which the CLI's JSON writer (cli._json_text)
takes as it is; matrix_to_dict and bloch_to_dict return the same dicts with
each array as nested lists.

format_float, the CSV rows' %.17g float text, has no caller in the package;
it stays while the benchmark's tracer counts its calls by name.
"""

from __future__ import annotations

import json

import numpy as np

from .basis import _read_only
from .errors import DomainError, _array, _integer, _shown


def format_float(x: float) -> str:
    """Render with 17 significant digits (full round-trip precision)."""
    return f"{x:.17g}"


def _listed(payload: dict) -> dict:
    """payload with each array as its nested lists: the dict that json.dumps writes."""
    return {key: v.tolist() if isinstance(v, np.ndarray) else v for key, v in payload.items()}


def _matrix_payload(matrix) -> dict:
    """The matrix schema, its "re" and "im" read-only float64 views of the complex matrix."""
    m = np.asarray(matrix, dtype=complex)
    re, im = _read_only(m.real, m.imag)  # new view objects: the caller's flags stay
    return {"dim": m.shape[0], "re": re, "im": im}


def matrix_to_dict(matrix: np.ndarray) -> dict:
    return _listed(_matrix_payload(matrix))


def matrix_from_dict(data) -> np.ndarray:
    if not isinstance(data, dict) or not {"dim", "re", "im"} <= set(data):
        raise DomainError('matrix JSON must have keys "dim", "re", "im"')
    n = _integer(data["dim"], 'matrix "dim"', 1)
    re = _array(data["re"], "matrix entries")
    im = _array(data["im"], "matrix entries")
    if re.shape != (n, n) or im.shape != (n, n):
        raise DomainError(
            f'matrix "re"/"im" must be {_shown(n)}x{_shown(n)} arrays, '
            f"got {re.shape} and {im.shape}"
        )
    # 1j * inf has a NaN real part; the validation gate rejects it as non-finite
    with np.errstate(invalid="ignore"):
        return re + 1j * im


def _bloch_payload(dim: int, coords) -> dict:
    """The Bloch vector schema, its "coords" a read-only float64 view of coords."""
    (view,) = _read_only(np.asarray(coords, dtype=float).view())
    return {"dim": dim, "coords": view}


def bloch_to_dict(dim: int, coords: np.ndarray) -> dict:
    return _listed(_bloch_payload(dim, coords))


def bloch_from_dict(data) -> tuple[int, np.ndarray]:
    if not isinstance(data, dict) or not {"dim", "coords"} <= set(data):
        raise DomainError('Bloch vector JSON must have keys "dim", "coords"')
    n = _integer(data["dim"], 'Bloch "dim"', 2)
    coords = _array(data["coords"], "Bloch coordinates")
    if coords.shape != (n * n - 1,):
        raise DomainError(
            f"expected {_shown(n * n - 1)} coordinates for dimension {_shown(n)}, "
            f"got shape {coords.shape}"
        )
    return n, coords


def load_json(path: str):
    shown = _shown(path, path=True)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read {shown}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"{shown} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed JSON in {shown}: {exc}") from exc
    except ValueError as exc:  # json's other ValueError: an int past sys.get_int_max_str_digits()
        raise DomainError(f"JSON in {shown} holds an integer too long to read") from exc
    except RecursionError:
        raise DomainError(f"JSON in {shown} is nested too deeply to read") from None
