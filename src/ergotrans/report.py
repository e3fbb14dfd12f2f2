"""Deterministic report rendering.

Reports are JSON key-value trees with fixed key ordering (insertion
order) and every float printed with 17 significant digits, so repeated
runs on identical inputs are byte-identical.  Lists of at most eight
scalars stay on one line; anything longer or nested takes one item per
line.  The text is collected as a flat list of short pieces and joined
once, so it is never copied level by level.  Float arrays are converted
with ``tolist()`` one row at a time and their rows are cut into pieces
of ``_PIECE_ITEMS`` items: pieces that small stay in Python's
small-object allocator, whose arenas are returned whole, so rendering an
``n x n`` chain leaves no large holes in the C heap and the process's
peak memory does not depend on where earlier allocations happened to sit.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["render_report"]

_INLINE_MAX = 8
_CONTAINERS = (dict, list, tuple, np.ndarray)
# items per piece of a long float row: about 512 bytes at the usual depths
_PIECE_ITEMS = 16


def _format_float(v):
    if v == 0.0:
        return "-0" if math.copysign(1.0, v) < 0.0 else "0"
    if v != v:
        return '"nan"'
    if v in (math.inf, -math.inf):
        return '"inf"' if v > 0 else '"-inf"'
    return format(v, ".17g")


def _format_scalar(value):
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot render {type(value)!r} in a report")


def _emit_float_rows(parts, arr, indent):
    """A float array, converted with ``tolist()`` one row at a time."""
    pad = "  " * indent
    inner = pad + "  "
    if not len(arr):
        parts.append("[]")
    elif arr.ndim == 1 and len(arr) <= _INLINE_MAX:
        parts.append("[" + ", ".join(map(_format_float, arr.tolist())) + "]")
    elif arr.ndim == 1:
        sep = ",\n" + inner
        items = list(map(_format_float, arr.tolist()))
        parts.append("[\n" + inner)
        for start in range(0, len(items), _PIECE_ITEMS):
            if start:
                parts.append(sep)
            parts.append(sep.join(items[start:start + _PIECE_ITEMS]))
        parts.append("\n" + pad + "]")
    else:
        sep = "[\n" + inner
        for row in arr:
            parts.append(sep)
            _emit_float_rows(parts, row, indent + 1)
            sep = ",\n" + inner
        parts.append("\n" + pad + "]")


def _emit(parts, value, indent):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        sep = "{\n" + inner
        for key, val in value.items():
            parts.append(f"{sep}{json.dumps(str(key))}: ")
            _emit(parts, val, indent + 1)
            sep = ",\n" + inner
        parts.append("\n" + pad + "}")
        return
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and value.ndim:
            _emit_float_rows(parts, value, indent)
            return
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
        elif len(value) <= _INLINE_MAX and not any(isinstance(v, _CONTAINERS) for v in value):
            parts.append("[" + ", ".join(_format_scalar(v) for v in value) + "]")
        else:
            sep = "[\n" + inner
            for v in value:
                parts.append(sep)
                _emit(parts, v, indent + 1)
                sep = ",\n" + inner
            parts.append("\n" + pad + "]")
        return
    parts.append(_format_scalar(value))


def render_report(report):
    """Serialize a report tree to deterministic JSON text."""
    parts = []
    _emit(parts, report, 0)
    parts.append("\n")
    return "".join(parts)
