"""Report tables, the one reader and writer of files, and the bundled
reference datasets by name.

A file is a UTF-8 path (``str``, ``bytes`` or ``os.PathLike``) or a text
stream, which stays open; text read loses a leading byte-order mark.
Reports are CSV with LF line endings (or, from the CLI, JSON), so identical
inputs always produce byte-identical output; a cell is its ``str``, quoted if
it holds a comma, a quote or a line break.  Each dataset is built by the
function of its name in :mod:`ecal.figures`, which is imported only to
reproduce one.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from io import BufferedIOBase, RawIOBase, TextIOBase
from itertools import chain
from operator import attrgetter

from . import _all_of
from .units import FieldError, FieldTypeError, _checked_items, _checked_types, _unknown, _Value

__all__ = _all_of(__name__)

REPRODUCE_TARGETS = ("table1", "table2", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8",
                     "fig9ab", "fig11", "fig12", "table3", "fig13")


class ReportTable(_Value):
    """A rectangular, CSV-renderable table of results."""

    __slots__ = __match_args__ = ("columns", "rows")

    def __init__(self, columns: tuple[str, ...], rows: tuple[tuple, ...]) -> None:
        try:
            columns, rows = tuple(columns), tuple(rows)
            rows = tuple(map(tuple, rows))
            "".join(columns)  # raises unless every column name is a str
        except TypeError:  # name the argument, the column or the row that is wrong
            columns = _checked_items(columns, "columns")
            _checked_types(*[(name, f"columns[{i}]", str) for i, name in enumerate(columns)])
            _checked_items(rows, "rows", _checked_items)
            raise
        width = len(columns)
        if set(map(len, rows)) - {width}:
            i, row = next((i, row) for i, row in enumerate(rows) if len(row) != width)
            raise FieldError(f"rows[{i}]", f"must have {width} cells, got {len(row)}: {row!r}")
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "rows", rows)

    def to_csv(self) -> str:
        """Render as CSV: header first, LF endings, each cell its ``str`` (a float's
        round-trips), quoted with quotes doubled if it holds a comma, a quote or a
        line break, or is a row's one cell and empty.  A bool cell is a TypeError."""
        width, lines = len(self.columns), len(self.rows) + 1
        template = ",".join(["%s"] * width)
        text = "\n".join([",".join(self.columns), *[template % row for row in self.rows]]) + "\n"
        # A bool cell renders as True or False, so only such text needs the scan.
        if ("True" in text or "False" in text) and bool in set(
                map(type, chain.from_iterable(self.rows))):
            raise TypeError("boolean cells are not supported in reports")
        # Only a cell to quote adds a comma, a line break, a quote or (one column) an empty line.
        if (text.count(",") != (width - 1) * lines or text.count("\n") != lines
                or '"' in text or "\r" in text
                or width == 1 and ("\n\n" in text or text[0] == "\n")):
            text = "".join(map(_csv_line, (self.columns, *self.rows)))
        return text


def _csv_line(row: tuple) -> str:
    """``row`` as a line of :meth:`ReportTable.to_csv`, each cell quoted as it says."""
    cells = [str(cell) for cell in row]
    return ",".join(['"%s"' % cell.replace('"', '""') if cells == [""] or set(',"\r\n') & set(cell)
                     else cell for cell in cells]) + "\n"


def _project(records: Iterable, spec: dict[str, str]) -> ReportTable:
    """A row of each record: ``spec`` maps each of two or more column names to the
    attribute it reads, a dotted path such as ``"ecal_abs.joules"``."""
    return ReportTable(tuple(spec), map(attrgetter(*spec.values()), records))


def reproduce(target: str) -> ReportTable:
    """Compute the named reference dataset from the model.

    Every value is produced by the library (the carbon-intensity inputs are
    the bundled snapshot); nothing is hard-coded.
    """
    if target not in REPRODUCE_TARGETS:
        raise _unknown("reproduce target", target, REPRODUCE_TARGETS)
    from . import figures

    return getattr(figures, target)()


def _json(table: ReportTable) -> str:
    """``table`` as a JSON object of its columns and its rows, each an array."""
    import json

    return json.dumps({"columns": table.columns, "rows": table.rows}, indent=2) + "\n"


def _is_stream(target: object, field: str, method: str) -> bool:
    """True for a text stream with ``method``, False for a path; anything else
    raises naming ``field`` (an int would be a file descriptor, closed by open()),
    as does a path with a NUL character, which open() rejects naming nothing."""
    if isinstance(target, (str, bytes, os.PathLike)):
        if "\0" in os.fsdecode(target):
            raise FieldError(field, f"must be a path without a NUL character, got {target!r}")
        return False
    if hasattr(target, method) and not isinstance(target, (BufferedIOBase, RawIOBase)):
        return True
    raise FieldTypeError(field, f"must be a path or a text stream, got {type(target).__name__}")


def _read(source: str | os.PathLike | TextIOBase, field: str, error: type[ValueError]) -> str:
    """The text of a path or a text stream, less a leading byte-order mark.  Text
    that does not decode is an ``error``, the reading loader's own class, naming
    the path, or ``field`` for a stream, with the line and the value of its first
    bad byte."""
    if not _is_stream(source, field, "read"):
        with open(source, encoding="utf-8", newline="") as handle:
            return _read(handle, os.fsdecode(source), error)
    try:
        return source.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise error(f"{field}: line {line}: not {exc.encoding.upper()} "
                    f"(byte 0x{exc.object[exc.start]:02x})") from None


def _write(destination: str | os.PathLike | TextIOBase, text: str) -> int | None:
    """Write ``text``; returns what a stream's ``write`` returns, or a path's bytes."""
    if _is_stream(destination, "destination", "write"):
        return destination.write(text)
    try:
        with open(destination, "wb") as handle:
            return handle.write(text.encode("utf-8"))
    except OSError as exc:
        raise OSError(f"cannot write report to {os.fspath(destination)!r}: {exc}") from exc


def write_report(table: ReportTable, destination: str | os.PathLike | TextIOBase) -> int | None:
    """Write a table as CSV to a path or a text stream; returns the bytes written
    to a path, or what the stream's ``write`` returns."""
    if not isinstance(table, ReportTable):
        _checked_types((table, "table", ReportTable))
    return _write(destination, table.to_csv())
