"""Deterministic CSV emission.

RFC-4180-style: comma separated, '.' decimal separator, one header row.
A single leading comment line records the artifact version, the preset
(or command) that produced the file, and the seed, so every artifact is
self-describing and byte-identical across reruns.
"""

from __future__ import annotations

from . import __version__

__all__ = ["format_cell", "write_csv"]


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.16e}"  # 17 significant digits, scientific
    text = str(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _column_format(cells) -> str:
    """One %-format for a whole column; ``format_cell`` strings when its
    cells are not all plain floats or all plain ints (bool is not int)."""
    kinds = set(map(type, cells))
    if kinds == {float}:
        return "%.16e"  # the same text as format_cell gives a float
    if kinds == {int}:
        return "%d"
    return "%s"


def write_csv(path: str, columns, rows, *, meta: dict) -> None:
    """Write rows with a comment line carrying ``meta`` key=value pairs.

    Each column gets one format from the types of its cells, and each
    row is one ``%`` of the row format; the text is what ``format_cell``
    gives cell by cell.
    """
    tags = ", ".join(f"{k}={v}" for k, v in meta.items())
    lines = [f"# zenosim {__version__}, {tags}", ",".join(columns)]
    cells = list(zip(*rows, strict=True))  # columns; rows must be equally long
    if cells:
        if len(cells) != len(columns):
            raise ValueError(f"{len(columns)} columns but rows of {len(cells)} cells")
        formats = [_column_format(column) for column in cells]
        cells = [column if fmt != "%s" else list(map(format_cell, column))
                 for column, fmt in zip(cells, formats)]
        row_format = ",".join(formats)
        lines.extend(row_format % row for row in zip(*cells))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")
