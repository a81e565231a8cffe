"""Report tables, and the bundled reference datasets by name.

Reports are plain CSV with LF line endings, so identical inputs always
produce byte-identical output.  Each dataset is built by the function of
its name in :mod:`ecal.figures`, which is imported only to reproduce one.
"""

from __future__ import annotations

import os
from itertools import chain

from . import _all_of
from .units import _Value

__all__ = _all_of(__name__)

REPRODUCE_TARGETS = ("table1", "table2", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8",
                     "fig9ab", "fig11", "fig12", "table3", "fig13")


class UnknownTargetError(ValueError):
    """An unknown reproduce target was requested; the message lists valid ones."""


class ReportTable(_Value):
    """A rectangular, CSV-renderable table of results."""

    __slots__ = __match_args__ = ("columns", "rows")

    def __init__(self, columns: tuple[str, ...], rows: tuple[tuple, ...]) -> None:
        columns = tuple(columns)
        rows = tuple(map(tuple, rows))
        width = len(columns)
        if set(map(len, rows)) - {width}:
            row = next(row for row in rows if len(row) != width)
            raise ValueError(f"row {row!r} has {len(row)} cells, expected {width}")
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "rows", rows)

    def to_csv(self) -> str:
        """Render as CSV: header first, LF endings, full-precision numbers
        (``%s`` formats with ``str``, and a float's ``str`` round-trips)."""
        template = ",".join(["%s"] * len(self.columns))
        text = "\n".join([",".join(self.columns), *[template % row for row in self.rows]]) + "\n"
        # A bool cell renders as True or False, so only such text needs the scan.
        if ("True" in text or "False" in text) and bool in set(
                map(type, chain.from_iterable(self.rows))):
            raise TypeError("boolean cells are not supported in reports")
        return text


def reproduce(target: str) -> ReportTable:
    """Compute the named reference dataset from the model.

    Every value is produced by the library (the carbon-intensity inputs are
    the bundled snapshot); nothing is hard-coded.
    """
    if target not in REPRODUCE_TARGETS:
        known = ", ".join(REPRODUCE_TARGETS)
        raise UnknownTargetError(f"unknown target {target!r}; known targets: {known}")
    from . import figures

    return getattr(figures, target)()


def _write(path: str | os.PathLike, text: str) -> int:
    """Write ``text`` to ``path`` as UTF-8; returns the bytes written."""
    data = text.encode("utf-8")
    try:
        with open(path, "wb") as handle:
            handle.write(data)
    except OSError as exc:
        raise OSError(f"cannot write report to {os.fspath(path)!r}: {exc}") from exc
    return len(data)
