"""Exception types shared across the toolkit, with one, InvalidInputError,
for bad input of every kind (argument, config, device table, trace), and
the base of the named options (``unknown <kind> <value>``); the two doors of
numbers, :func:`real`/:func:`reals` (to float) and :func:`integer` (counts,
to int), which convert once or refuse showing the value, and which a number
read from a file reaches as JSON holds it or as :func:`real_text` reads its
CSV cell; and the one place that opens files: UTF-8 readers and writers
that keep line endings, name a file that cannot be read, written or decoded
in an :class:`InvalidInputError`, and fail typed on text the JSON and CSV
parsers cannot take (a cell over the limit, or JSON nested deeper than 16
levels, where the documents read nest at most 3)."""

import csv
import io
import json
import math
import numbers
import re
from enum import Enum, EnumMeta
from itertools import accumulate

import numpy as np

#: Deepest nesting of arrays and objects that a JSON reader decodes; it
#: decodes with 40 frames to spare below the default recursion limit.
MAX_JSON_DEPTH = 16
#: A JSON string (to the text's end if it is not closed) or a bracket; a
#: bracket inside a string does not nest.
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"?|([\[\]{}])', re.DOTALL)
_NESTING = {"[": 1, "{": 1, "]": -1, "}": -1, "": 0}


def is_finite(value) -> bool:
    """True when a real number is neither NaN nor infinite.

    A real number is a :class:`numbers.Real` other than a bool, as a float,
    an int or a numpy scalar is; a str, None, a ``Decimal`` or a bool is
    not.  Unlike :func:`math.isfinite` it answers False, instead of raising,
    for an int beyond the float range (``OverflowError``), so an input check
    can report any value with its own typed error.
    """
    # a float is a real number; the numbers.Real test is the slow one
    if not isinstance(value, float) and (
            isinstance(value, bool) or not isinstance(value, numbers.Real)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def shown(value) -> str:
    """A checked value as an error message shows it: ``str(value)``, except
    for a value that is not a real number, shown by its repr so that ``'3'``
    reads apart from ``3`` and ``Decimal('3')`` from both (a str's repr over
    60 characters cut to its first 57 and ``...``; any other repr over 60
    characters, or one that fails, as a solution's and a list's holding the
    int below do, by the value's type), and an int too long for Python's
    int-to-str conversion (over 4300 digits by default), shown by its number
    of digits."""
    if not isinstance(value, numbers.Real):
        try:
            if len(text := repr(value)) <= 60:
                return text
            if isinstance(value, str):  # a quoted prefix still names it
                return text[:57] + "..."
        except ValueError:  # it holds an int over the digit limit
            pass
        return f"an object of type {type(value).__name__}"
    try:
        return str(value)
    except ValueError:
        magnitude = abs(value)
        # the bit length puts the digit count at this or one less
        digits = int(magnitude.bit_length() * math.log10(2.0)) + 1
        if 10 ** (digits - 1) > magnitude:
            digits -= 1
        return f"an int of {digits} digits"


def real(value, message: str, ok=None) -> float:
    """``value`` as a float, if it is a finite real number and, given
    ``ok``, that float satisfies it; otherwise
    ``InvalidInputError(f"{message}, got {shown(value)}")``."""
    if is_finite(value):
        number = float(value)
        if ok is None or ok(number):
            return number
    raise InvalidInputError(f"{message}, got {shown(value)}")


def integer(value, message: str, ok=None) -> int:
    """``value`` as an int, if it is a non-bool :class:`numbers.Integral` in
    the float range and, given ``ok``, satisfies it; else :func:`real`'s error.
    The int is Python's, so a ``np.uint8`` count cannot wrap in a product."""
    if isinstance(value, numbers.Integral) and is_finite(value):
        number = int(value)
        if ok is None or ok(number):
            return number
    raise InvalidInputError(f"{message}, got {shown(value)}")


def real_text(text: str) -> float:
    """``float(text)``, except that text holding ``_`` or any non-ASCII
    character (``4_2``, Arabic-Indic digits) raises float's ValueError."""
    number = float(text)
    if "_" in text or not text.isascii():
        raise ValueError(f"could not convert string to float: {text!r}")
    return number


def reals(values, message: str) -> np.ndarray:
    """``values`` as a float64 array, if every entry is a finite real
    number; otherwise the error of :func:`real`, showing all of ``values``.
    An int or float ndarray is converted whole; a list, tuple or range entry
    by entry, so that a bool, a str or an int beyond the float range is
    refused, not cast as numpy would; any other value is one number (0-d)."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "fiu":
        array = np.asarray(values, dtype=float)
    elif isinstance(values, (list, tuple, range)):
        array = np.array([float(v) if is_finite(v) else math.nan for v in values],
                         dtype=float)
    else:
        return np.array(real(values, message))
    if not np.isfinite(array).all():
        raise InvalidInputError(f"{message}, got {shown(values)}")
    return array


class QSurfLossError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(QSurfLossError, ValueError):
    """An argument or data record violates a documented precondition."""


class _OptionType(EnumMeta):
    def __call__(cls, value):  # Enum's refusal reprs the value, failing on a long int
        try:
            return cls._value2member_map_[value]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            raise InvalidInputError(f"unknown {cls.__name__} {shown(value)}") from None


class _Option(str, Enum, metaclass=_OptionType):
    """A str enum refusing an unknown value as ``unknown <class> <value>``."""


class NumericalFailureError(QSurfLossError, RuntimeError):
    """A linear solve or quadrature did not reach the required residual."""


class ConvergenceError(QSurfLossError, RuntimeError):
    """Refinement exhausted its budget before meeting the tolerance."""


class DegenerateFitError(QSurfLossError, RuntimeError):
    """The fit design matrix is rank deficient or nearly collinear."""


class FitFailureError(QSurfLossError, RuntimeError):
    """A nonlinear fit failed to converge or produced an unphysical result."""


def read_text(path) -> str:
    """The UTF-8 text of ``path``, line endings kept.  A file that cannot be
    read or is not UTF-8 raises :class:`InvalidInputError`."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc.strerror or exc}") from exc


def read_json(path, prefix: str):
    """The JSON document in ``path``, read by :func:`read_text`.  Text that
    is not JSON, nests deeper than :data:`MAX_JSON_DEPTH` (16; the documents
    the toolkit reads nest at most 3), or holds an integer over Python's
    int-to-str digit limit (4300 digits by default) raises
    ``InvalidInputError(f"{prefix}: <reason>")``.

    The depth is counted before decoding.  The decoder recurses once per
    level on the caller's stack; a caller too near the recursion limit for
    that gets the :class:`InvalidInputError`, not a raw RecursionError.
    """
    text = read_text(path)
    # more brackets than the bound is the only way to nest deeper than it
    if text.count("[") + text.count("{") > MAX_JSON_DEPTH and max(accumulate(
            _NESTING[b] for b in _JSON_TOKEN.findall(text))) > MAX_JSON_DEPTH:
        raise InvalidInputError(
            f"{prefix}: nested deeper than {MAX_JSON_DEPTH} arrays and objects")
    try:
        return json.loads(text)
    # a JSONDecodeError is a ValueError, as is an overlong integer's error
    except (RecursionError, ValueError) as exc:
        raise InvalidInputError(f"{prefix}: {exc}") from exc


def parse_csv(text: str, source: str):
    """The header and the rows of CSV ``text``, as :class:`csv.DictReader`
    reads them.  A line the csv module refuses (a cell over its field limit)
    raises :class:`InvalidInputError` naming ``source`` and the line."""
    reader = csv.DictReader(io.StringIO(text, newline=""))
    try:
        return reader.fieldnames, list(reader)
    except csv.Error as exc:
        # DictReader.line_num lags a row that fails; its csv.reader's does not
        raise InvalidInputError(
            f"{source}: unreadable row {reader.reader.line_num}: {exc}") from exc


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, line endings as given; a file
    that cannot be written raises :class:`InvalidInputError`."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_csv(path, header, rows) -> None:
    """Write a header row and ``rows`` as :func:`csv.writer` does (a cell
    with a comma, quote or line break quoted, lines ended by CRLF)."""
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    write_text(path, buf.getvalue())
