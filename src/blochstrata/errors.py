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


def _first_failure(ok: np.ndarray) -> int | None:
    """The index of the first False of a batched check's (M,) pass mask, the item
    its error reports; None, after one .all() and no search, if every item passes."""
    return None if ok.all() else int(ok.argmin())


def _zeros(shape, what: str, dtype=float) -> np.ndarray:
    """np.zeros(shape, dtype); NumericError naming what if numpy refuses the size or cannot get it."""
    try:
        return np.zeros(shape, dtype)
    except (ValueError, MemoryError) as exc:
        raise NumericError(f"{what}: {exc}") from exc


# what numpy reads as a number that is not one, in the order an argument is judged: the
# types of such an entry and its message.  For a real dtype first a complex number, whose
# imaginary part a cast would drop (1j as 0.0); then, for any dtype, a boolean (True as 1.0),
# a string ("0.5" as 0.5) and a null (None as NaN)
_NOT_NUMBERS = (
    ({complex, np.complex64, np.complex128, np.clongdouble}, "real numbers, got a complex number"),
    ({bool, np.bool_}, "numbers, got a boolean"),
    ({str, np.str_, bytes, np.bytes_}, "numbers, got a string"),
    ({type(None)}, "numbers, got a null"),
)
# the rows each dtype is judged by: a complex dtype takes complex numbers
_JUDGED_BY = {float: _NOT_NUMBERS, complex: _NOT_NUMBERS[1:]}


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
    """values as an array of dtype; DomainError if an entry is not a number that numpy would
    read as one (for a real dtype 1j as 0.0, and True as 1.0, "0.5" as 0.5, None as NaN), or
    if numpy cannot read values as numbers.

    Every argument is judged once, before the cast, against _NOT_NUMBERS in its order: an
    ndarray that holds no objects by its dtype, a list or an object array by the types
    of its entries, and a 0-d array entry by its item's.
    """
    if isinstance(values, np.ndarray) and not values.dtype.hasobject:
        types = {values.dtype.type}
    else:
        types = set()
        try:
            depth = _depth(values)
            types = set(map(type, _entries(values, depth)))
        except (TypeError, ValueError):  # ragged: numpy's cast below says how
            pass
        if np.ndarray in types:
            types.update(type(e[()]) for e in _entries(values, depth) if type(e) is np.ndarray)
    for named, message in _JUDGED_BY[dtype]:
        if not types.isdisjoint(named):
            raise DomainError(f"{what} must be {message}")
    try:
        return np.asarray(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged, not numbers, or 10**400
        raise DomainError(f"{what} are not numeric: {exc}") from exc
