"""Deterministic text output: fixed float formatting, canonical JSON, CSV rows.

Every number this package writes goes through :func:`fmt` (9 significant
digits, '.' decimal separator, no locale) so repeated runs with the same
config produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable

import numpy as np


def fmt(value: Any) -> str:
    """Render one cell: floats at 9 significant digits, everything else as str."""
    if type(value) in (str, int):  # the common table cells; bool is not an exact int
        return str(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, np.integer):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"refusing to serialize non-finite value {value!r}")
        return f"{value:.9g}"
    return str(value)


def fmt_floats(values) -> list[str]:
    """fmt() of every element of a float array (flattened in C order).

    Finiteness is checked once for the whole array, so a long column costs one
    format call per element.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValueError(f"refusing to serialize non-finite value {float(values[bad][0])!r}")
    return [f"{v:.9g}" for v in values.tolist()]


def csv_line(cells: Iterable[Any]) -> str:
    return ",".join(map(fmt, cells))


def csv_text(header: Iterable[Any], rows: Iterable[Iterable[Any]]) -> str:
    """A whole CSV document: the header line, one line per row, a final newline."""
    lines = [csv_line(header)]
    lines.extend(csv_line(row) for row in rows)
    return "\n".join(lines) + "\n"


def write_csv(path, header: Iterable[Any], rows: Iterable[Iterable[Any]]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(csv_text(header, rows))


def canonical_json(obj: Any, indent: int = 0) -> str:
    """Serialize dicts/lists/arrays/scalars with fmt() floats; key order is insertion order."""
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
