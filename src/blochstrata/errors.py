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
    """operator.index(value); DomainError unless a non-bool integer in low..high (None: no bound)."""
    try:
        if isinstance(value, bool):  # operator.index reads True as 1; _array rejects it too
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {_shown(value)}") from None
    if high is not None and not low <= value <= high:
        raise DomainError(f"{name} must be in {low}..{high}, got {_shown(value)}")
    if low is not None and value < low:
        raise DomainError(f"{name} must be >= {low}, got {_shown(value)}")
    return value


def _real(value, name: str, positive: bool = False) -> float:
    """float(value); DomainError unless value is a non-bool Real whose float is finite,
    > 0 if positive, else >= 0.  The comparisons run on the float, so a Fraction
    that rounds to 0.0 is not positive."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise DomainError(f"{name} must be a real number, got {_shown(value)}")
    try:
        x = float(value)
    except OverflowError:
        raise DomainError(f"{name} must be finite, got a number past the float range") from None
    if positive and not 0 < x < inf:
        raise DomainError(f"{name} must be positive and finite, got {_shown(value)}")
    if not x >= 0:
        raise DomainError(f"{name} must be >= 0, got {_shown(value)}")
    if x == inf:
        raise DomainError(f"{name} must be finite, got {_shown(value)}")
    return x


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


# what numpy reads as a number that is not one, by numpy dtype kind: a boolean (True as
# 1.0), a string ("0.5" as 0.5) or a null (None as NaN; "z" here, as numpy has no kind for
# it); in a real array also a complex number, whose imaginary part a cast would drop
_NOT_NUMBERS = {
    "b": "numbers, got a boolean",
    "U": "numbers, got a string",
    "S": "numbers, got a string",
    "z": "numbers, got a null",
}
_NOT_REAL_NUMBERS = {**_NOT_NUMBERS, "c": "real numbers, got a complex number"}
# the kind of an entry of a list or object array, by its type
_ENTRY_KINDS = (
    ("b", {bool, np.bool_}),
    ("U", {str, np.str_, bytes, np.bytes_}),
    ("z", {type(None)}),
    ("c", {complex, np.complex64, np.complex128, np.clongdouble}),
)
# all of those types: the entries of a list of plain numbers meet this one test
_ENTRY_TYPES = frozenset().union(*(named for _, named in _ENTRY_KINDS))


def _depth(values) -> int:
    """The ndim of the array numpy would make of values, found along its first entries."""
    depth, first = 0, values
    while isinstance(first, (list, tuple)) and first:
        depth, first = depth + 1, first[0]
    if isinstance(first, (float, int, complex, str, bytes)) or first is None:
        return depth
    return depth + np.ndim(first)  # an array's ndim, or numpy's reading of [] or another object


def _entries(values, depth: int):
    """The entries of values, depth levels of nesting down."""
    entries = values if depth else (values,)
    for _ in range(depth - 1):
        entries = chain.from_iterable(entries)
    return entries


def _array(values, what: str, dtype=float) -> np.ndarray:
    """values as an array of dtype; DomainError if numpy cannot read them as numbers, or if
    it would read an entry that is not one as a number (True as 1.0, "0.5" as 0.5, None as
    NaN, and for a real dtype 1j as 0.0)."""
    rules = _NOT_NUMBERS if dtype is complex else _NOT_REAL_NUMBERS
    kind = values.dtype.kind if isinstance(values, np.ndarray) else "O"
    if kind in rules:  # an ndarray is judged by its dtype, before numpy casts it
        raise DomainError(f"{what} must be {rules[kind]}")
    types = set()
    if kind == "O":  # judged by the types of its entries; a 0-d array entry by its item's
        try:
            depth = _depth(values)
            types = set(map(type, _entries(values, depth)))
        except (TypeError, ValueError):  # ragged: numpy's cast below says how
            pass
        if np.ndarray in types:
            types.update(type(e[()]) for e in _entries(values, depth) if type(e) is np.ndarray)
    if "c" in rules and not types.isdisjoint(_ENTRY_KINDS[-1][1]):  # before the cast drops 1j
        raise DomainError(f"{what} must be {rules['c']}")
    try:
        a = np.asarray(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged, not numbers, or 10**400
        raise DomainError(f"{what} are not numeric: {exc}") from exc
    if not types.isdisjoint(_ENTRY_TYPES):
        for kind, named in _ENTRY_KINDS:
            if kind in rules and not types.isdisjoint(named):
                raise DomainError(f"{what} must be {rules[kind]}")
    return a
