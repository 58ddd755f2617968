"""Deterministic CSV emission.

RFC-4180-style: comma separated, '.' decimal separator, one header row.
A single leading comment line records the artifact version, the preset
(or command) that produced the file, and the seed, so every artifact is
self-describing and byte-identical across reruns.
"""

from __future__ import annotations

import numpy as np

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


def _float_texts(column) -> list[str]:
    """The ``%.16e`` text of each float, formatting each distinct bit
    pattern once: keyed on bits, -0.0 stays apart from 0.0 and NaNs match."""
    bits = np.array(column, dtype=np.float64).view(np.int64)
    keys, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(["%.16e" % x for x in keys.view(np.float64).tolist()], dtype=object)
    return texts[inverse].tolist()


def _column_cells(column) -> tuple[str, list]:
    """A column's format and its cells: ``%d`` over all plain ints (bool
    is not int), else ``%s`` over texts, from ``_float_texts`` for all
    plain floats and from ``format_cell`` for any other mix."""
    kinds = set(map(type, column))
    if kinds == {float}:
        return "%s", _float_texts(column)
    if kinds == {int}:
        return "%d", column
    return "%s", list(map(format_cell, column))


def write_csv(path: str, columns, rows, *, meta: dict) -> None:
    """Write rows with a comment line carrying ``meta`` key=value pairs.

    Each column gets one format from the types of its cells, and each
    row is one ``%`` of the row format; the text is what ``format_cell``
    gives cell by cell. Each distinct float of a column is formatted
    once, keyed on its bit pattern, so a column of few distinct values
    costs little more than its rows' join.
    """
    tags = ", ".join(f"{k}={v}" for k, v in meta.items())
    lines = [f"# zenosim {__version__}, {tags}", ",".join(columns)]
    cells = list(zip(*rows, strict=True))  # columns; rows must be equally long
    if cells:
        if len(cells) != len(columns):
            raise ValueError(f"{len(columns)} columns but rows of {len(cells)} cells")
        formats, cells = zip(*map(_column_cells, cells))
        row_format = ",".join(formats)
        lines.extend(row_format % row for row in zip(*cells))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")
