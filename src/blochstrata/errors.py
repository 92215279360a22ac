"""Exception types shared across the package, and the one check of scalar and array arguments."""

import operator
from itertools import chain
from math import inf
from numbers import Real

import numpy as np


class BlochGeometryError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(BlochGeometryError, ValueError):
    """Invalid argument or violated precondition (CLI exit code 2)."""


class NumericError(BlochGeometryError, ArithmeticError):
    """Numerical failure, e.g. eigensolver non-convergence (CLI exit code 3)."""


def _integer(value, name: str, low=None, high=None) -> int:
    """operator.index(value); DomainError unless it is an integer in low..high (None: unbounded)."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {_shown(value)}") from None
    if high is not None and not low <= value <= high:
        raise DomainError(f"{name} must be in {low}..{high}, got {_shown(value)}")
    if low is not None and value < low:
        raise DomainError(f"{name} must be >= {low}, got {_shown(value)}")
    return value


def _real(value, name: str, positive: bool = False) -> None:
    """DomainError unless value is a numbers.Real in the float range, > 0 if positive, else >= 0."""
    if not isinstance(value, Real):
        raise DomainError(f"{name} must be a real number, got {_shown(value)}")
    try:
        float(value)  # an int such as 10**400 would pass the comparisons below
    except OverflowError:
        raise DomainError(f"{name} must be finite, got a number past the float range") from None
    if positive and not 0 < value < inf:
        raise DomainError(f"{name} must be positive and finite, got {value}")
    if not value >= 0:
        raise DomainError(f"{name} must be >= 0, got {value}")
    if value == inf:
        raise DomainError(f"{name} must be finite, got {value}")


# the most characters of a value's repr that a message shows
_SHOWN_CHARS = 80


def _shown(value, path: bool = False) -> str:
    """value as a one-line error message shows it.

    A path is shown in full: as it is, or by its repr if it is not printable on
    one line.  An int too long for _SHOWN_CHARS characters is shown by its
    sign and bit length: str() refuses one of more than 4300 digits.  Any
    other value is shown by its repr, its lines joined by one space (a 2-D
    array's repr spans lines), cut to _SHOWN_CHARS characters.
    """
    if path:
        return value if value.isprintable() else repr(value)
    if isinstance(value, int) and not -(10 ** (_SHOWN_CHARS - 1)) < value < 10**_SHOWN_CHARS:
        sign = "a negative" if value < 0 else "an"
        return f"{sign} integer of {value.bit_length()} bits"
    text = " ".join(map(str.strip, repr(value).splitlines()))
    return text if len(text) <= _SHOWN_CHARS else text[: _SHOWN_CHARS - 3] + "..."


def _zeros(shape, what: str, dtype=float) -> np.ndarray:
    """np.zeros(shape, dtype); NumericError naming what if numpy refuses the size or cannot get it."""
    try:
        return np.zeros(shape, dtype)
    except (ValueError, MemoryError) as exc:
        raise NumericError(f"{what}: {exc}") from exc


def _array(values, what: str, dtype=float) -> np.ndarray:
    """values as an array of dtype; DomainError if numpy cannot read them as numbers, or if
    it would read a boolean or string entry as one (True as 1.0, "0.5" as 0.5)."""
    try:
        a = np.asarray(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged, not numbers, or 10**400
        raise DomainError(f"{what} are not numeric: {exc}") from exc
    kind = values.dtype.kind if isinstance(values, np.ndarray) else "O"
    if kind == "O":  # not an ndarray of one type: judged by the types of its entries
        entries = (values,)
        for _ in range(a.ndim):
            entries = chain.from_iterable(entries)
        types = set(map(type, entries))
        kind = "b" if types & {bool, np.bool_} else "U" if types & {str, np.str_, bytes} else "O"
    if kind in "bUS":
        raise DomainError(f"{what} must be numbers, got a {'boolean' if kind == 'b' else 'string'}")
    return a
