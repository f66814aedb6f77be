"""Exception types shared across the toolkit, the finiteness test of the
input checks that raise them, and the one place that opens files: UTF-8
readers and writers that keep line endings and turn a file that cannot be
read, written or decoded into an :class:`InvalidInputError` naming it.
JSON documents and CSV text that the standard parsers cannot take (nested
too deep, a cell over the field limit) fail typed here as well."""

import csv
import io
import json
import math
import numbers


def is_finite(value) -> bool:
    """True when a real number is neither NaN nor infinite.

    Unlike :func:`math.isfinite` it answers False, instead of raising, for
    an int beyond the float range (``OverflowError``) and for a value that
    is not a real number, such as a str or None (``TypeError``), so an input
    check can report such a value with its own typed error.
    """
    try:
        return math.isfinite(value)
    except (OverflowError, TypeError):
        return False


def shown(value) -> str:
    """A checked value as an error message shows it: ``str(value)``, except
    for a non-number, shown by its repr so that ``'3'`` reads apart from
    ``3``, and an int too long for Python's int-to-str conversion (over
    4300 digits by default), shown by its number of digits."""
    if not isinstance(value, numbers.Number):
        return repr(value)
    try:
        return str(value)
    except ValueError:
        magnitude = abs(value)
        # the bit length puts the digit count at this or one less
        digits = int(magnitude.bit_length() * math.log10(2.0)) + 1
        if 10 ** (digits - 1) > magnitude:
            digits -= 1
        return f"an int of {digits} digits"


class QSurfLossError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(QSurfLossError, ValueError):
    """An argument or data record violates a documented precondition."""


class TableFormatError(InvalidInputError):
    """A device-table file is malformed (bad header, unparseable row)."""


class RecordValidationError(InvalidInputError):
    """A parsed device record violates a field invariant."""


class NumericalFailureError(QSurfLossError, RuntimeError):
    """A linear solve or quadrature did not reach the required residual."""


class ConvergenceError(QSurfLossError, RuntimeError):
    """Refinement exhausted its budget before meeting the tolerance."""


class DegenerateFitError(QSurfLossError, RuntimeError):
    """The fit design matrix is rank deficient or nearly collinear."""


class FitFailureError(QSurfLossError, RuntimeError):
    """A nonlinear fit failed to converge or produced an unphysical result."""


def read_text(path, malformed: type = InvalidInputError) -> str:
    """The UTF-8 text of ``path``, line endings kept.  A file that cannot be
    read raises :class:`InvalidInputError`; one that is not UTF-8 raises
    ``malformed`` (a device table's is a :class:`TableFormatError`)."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise malformed(f"{path}: not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc.strerror or exc}") from exc


def read_json(path, prefix: str):
    """The JSON document in ``path``, read by :func:`read_text`.  Text that
    is not JSON, or nests deeper than the decoder can recurse, raises
    ``InvalidInputError(f"{prefix}: <reason>")``."""
    text = read_text(path)
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidInputError(f"{prefix}: {exc}") from exc


def parse_csv(text: str, source: str, malformed: type = InvalidInputError):
    """The header and the rows of CSV ``text``, as :class:`csv.DictReader`
    reads them.  A line the csv module refuses (a cell over its field
    limit) raises ``malformed`` naming ``source`` and the line."""
    reader = csv.DictReader(io.StringIO(text, newline=""))
    try:
        return reader.fieldnames, list(reader)
    except csv.Error as exc:
        # DictReader.line_num lags a row that fails; its csv.reader's does not
        raise malformed(
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
