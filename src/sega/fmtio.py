"""Deterministic text output: fixed float formatting, canonical JSON, CSV tables.

Every float this package writes is rendered by the one rule in ``_FLOAT``
(9 significant digits, '.' decimal separator, no locale) once it is checked
finite: :func:`fmt` applies it to one number, :func:`csv_text` to whole
columns, so repeated runs with the same config produce byte-identical files.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Any, Iterable

import numpy as np

_FLOAT = "%.9g"
_CELL = {"f": _FLOAT, "i": "%d", "u": "%d", "U": "%s"}  # by numpy dtype kind


def _finite(values) -> np.ndarray:
    """values as float64, refusing NaN and infinities."""
    values = np.asarray(values, dtype=np.float64)
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValueError(f"refusing to serialize non-finite value {float(values[bad][0])!r}")
    return values


def fmt(value: Any) -> str:
    """One number: an integer in full, anything else as a finite float at 9 significant digits."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _FLOAT % float(_finite(value))


def csv_text(header: Iterable[str], columns: Iterable[Any]) -> str:
    """A whole CSV document: the header line, one line per row of the columns, a final newline.

    The columns are equal-length 1-D arrays. A float column is printed like fmt()
    after one finiteness check, an integer column in full and a str column as is;
    any other dtype raises TypeError. All rows are rendered by one %-format call.
    """
    columns = [np.asarray(col) for col in columns]
    rows = columns[0].size if columns else 0
    cells = []
    for j, col in enumerate(columns):
        if col.shape != (rows,):
            raise ValueError(f"column {j} has shape {col.shape}, not ({rows},)")
        if col.dtype.kind not in _CELL:
            raise TypeError(f"cannot write a {col.dtype} column as CSV")
        cells.append(_CELL[col.dtype.kind])
        if col.dtype.kind == "f":
            columns[j] = _finite(col)
    line = ",".join(cells) + "\n"
    values = tuple(chain.from_iterable(zip(*(col.tolist() for col in columns))))
    return ",".join(header) + "\n" + (line * rows) % values


def write_csv(path, header: Iterable[str], columns: Iterable[Any]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(csv_text(header, columns))


def canonical_json(obj: Any, indent: int = 0) -> str:
    """Serialize dicts/lists/arrays/scalars with fmt() numbers; key order is insertion order."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {canonical_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        return canonical_json(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{inner}{canonical_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return fmt(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def write_json(path, obj: Any) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(canonical_json(obj) + "\n")
