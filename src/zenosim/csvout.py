"""Deterministic CSV emission.

RFC-4180-style: comma separated, '.' decimal separator, one header row.
A single leading comment line records the artifact version, the preset
(or command) that produced the file, and the seed, so every artifact is
self-describing and byte-identical across reruns.

Emission is in blocks of ``_BLOCK_ROWS`` rows, column-first within a
block: each column's texts for the block are made in one pass, each
distinct number of a numeric array or of a column of floats once, and the
block's rows, the joins of the columns' texts, are written before the
next block's texts are made. So the text held at a time does not grow
with the row count, and as every cell's text is ``format_cell``'s, where
the blocks are cut moves no byte.
"""

from __future__ import annotations

import numpy as np

from . import __version__

__all__ = ["format_cell", "write_csv"]

#: rows whose text is made and written at a time
_BLOCK_ROWS = 4096


def format_cell(value) -> str:
    if isinstance(value, np.generic):
        value = value.item()  # a numpy scalar writes as its Python value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.16e}"  # 17 significant digits, scientific
    text = str(value)
    if any(ch in text for ch in ',"\r\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _texts_by_key(keys: np.ndarray, texts_of) -> list[str]:
    """The text of each key, ``texts_of`` making those of the distinct
    keys: each distinct value is formatted once."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    return np.array(texts_of(distinct), dtype=object)[inverse].tolist()


def _float_texts(column) -> list[str]:
    """The ``%.16e`` text of each float, keyed on its bit pattern: -0.0
    stays apart from 0.0 and NaNs match."""
    bits = np.asarray(column, dtype=np.float64).view(np.int64)
    return _texts_by_key(bits, lambda keys: ["%.16e" % x for x in keys.view(np.float64).tolist()])


def _column_texts(column) -> list[str]:
    """The text of each cell of one column, as ``format_cell`` gives it.

    A float64 or integer array is keyed on its values without
    ``tolist()``; any other array is read as its ``tolist()``. A ``range``,
    whose cells are all ints, goes through ``str`` with no scan of their
    types. Any other sequence of cells that are all plain floats goes to
    ``_float_texts``, all plain ints (bool is not int) through ``str``, and
    any other mix through ``format_cell`` cell by cell.
    """
    if isinstance(column, range):
        return list(map(str, column))
    if isinstance(column, np.ndarray):
        if column.dtype == np.float64:
            return _float_texts(column)
        if column.dtype.kind in "iu":
            return _texts_by_key(column, lambda keys: list(map(str, keys.tolist())))
        column = column.tolist()
    kinds = set(map(type, column))
    if kinds == {float}:
        return _float_texts(column)
    if kinds == {int}:
        return list(map(str, column))
    return list(map(format_cell, column))


def write_csv(path: str, names, columns, *, meta: dict) -> None:
    """Write one column of cells per name, under a comment line carrying
    ``meta`` key=value pairs.

    Each entry of ``columns`` is a 1-D numpy array, a ``range`` or any
    sequence of cells; all must be equally long, which is checked before
    the file is opened. The text is what ``format_cell`` gives cell by
    cell, made one block of ``_BLOCK_ROWS`` rows at a time, column by
    column (see ``_column_texts`` of each column's slice), and each row is
    the join of its columns' texts.
    """
    if len(columns) != len(names):
        raise ValueError(f"{len(names)} names but {len(columns)} columns")
    lengths = sorted({len(column) for column in columns})
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal lengths {lengths}")
    tags = ", ".join(f"{k}={v}" for k, v in meta.items())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# zenosim {__version__}, {tags}\r\n{','.join(names)}\r\n")
        for a in range(0, lengths[0] if lengths else 0, _BLOCK_ROWS):
            texts = [_column_texts(column[a:a + _BLOCK_ROWS]) for column in columns]
            fh.write("\r\n".join(map(",".join, zip(*texts))) + "\r\n")
