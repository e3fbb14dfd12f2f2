"""Deterministic report rendering.

Reports are JSON key-value trees with fixed key ordering (insertion
order) and every float printed with 17 significant digits, so repeated
runs on identical inputs are byte-identical.  Lists of at most eight
scalars stay on one line; anything longer or nested takes one item per
line.  The text is collected as a flat list of pieces and joined once,
so it is never copied level by level.

Long float rows have one path, ``_emit_row``, which takes a row as its
length plus the positions and values of the entries that do not print as
``0`` (nonzeros, ``-0.0`` and ``nan``).  Only those entries are
formatted.  A run of zeros is emitted as the binary decomposition of its
length into shared, cached pieces, each holding ``2**j`` zeros behind the
row separator of its indent, so a row costs ``O(nnz + log n)`` appends
and allocates no text for its zeros.  Rows that are mostly nonzero are
cut into pieces of ``_PIECE_ITEMS`` items instead.  Every piece is
either that small, and so served by Python's small-object allocator,
whose arenas are returned whole, or shared for the life of the process,
so rendering a large chain leaves no large holes in the C heap and the
process's peak memory does not depend on where earlier allocations
happened to sit; the one large allocation is the final join.

A matrix with a known sparsity pattern can be handed over as
``SparseRows``, which renders byte for byte as its dense form without
that form ever being built.  A table of cylinder masses is handed over as
``CylinderTable``: its word digits and its ``(#X, words)`` masses.  It
renders byte for byte as the list of ``[x, word, mass]`` triples it
stands for; each word's text is built once and each mass formatted once,
and each triple is one piece.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

__all__ = ["render_report", "SparseRows", "CylinderTable"]

_INLINE_MAX = 8
# items per piece of a long, mostly nonzero row: about 512 bytes at the
# usual depths
_PIECE_ITEMS = 16
# floats per formatting call of a cylinder table: a few kilobytes of text
_FORMAT_BATCH = 256


@dataclass(frozen=True)
class SparseRows:
    """A float matrix of ``n_cols`` columns given by its entries.

    Row ``i`` holds ``values[i, k]`` at column ``cols[i, k]``, with the
    columns of a row distinct and ascending along ``k``, and ``0``
    everywhere else.  It renders exactly as the dense array would.
    """

    n_cols: int
    cols: np.ndarray
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class CylinderTable:
    """Cylinder masses ``masses[x, w]`` of the words ``digits[w]``.

    ``digits`` has one row of symbols per word and ``masses`` one row per
    x.  It stands for the list of triples ``[x, word, mass]``, x outer and
    words in row order, and renders exactly as that list; ``len()`` is the
    number of triples.
    """

    digits: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        digits = np.asarray(self.digits)
        masses = np.asarray(self.masses, dtype=float)
        if digits.ndim != 2 or digits.dtype.kind not in "iu" or (digits < 0).any():
            raise ValueError("digits must be a 2-d array of nonnegative integers")
        if masses.ndim != 2 or masses.shape[1] != digits.shape[0]:
            raise ValueError(f"masses of shape {masses.shape} do not match "
                             f"{digits.shape[0]} words")
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "masses", masses)

    def __len__(self):
        return self.masses.size


_CONTAINERS = (dict, list, tuple, np.ndarray, SparseRows, CylinderTable)


def _format_float(v):
    if v == 0.0:
        return "-0" if math.copysign(1.0, v) < 0.0 else "0"
    if v != v:
        return '"nan"'
    if v in (math.inf, -math.inf):
        return '"inf"' if v > 0 else '"-inf"'
    return format(v, ".17g")


def _format_scalar(value):
    kind = type(value)
    if kind is float:
        return _format_float(value)
    if kind is int:
        return str(value)
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


def _prints_nonzero(arr):
    """Mask of the entries that do not print as ``0``: nonzeros, -0.0, nan."""
    return (arr != 0.0) | np.signbit(arr)


@functools.lru_cache(maxsize=None)
def _zero_run(indent, j):
    """``2**j`` zeros, each behind the row separator of items at ``indent``."""
    return (",\n" + "  " * indent + "0") * (1 << j)


def _emit_items(parts, items, indent):
    """A list of more than ``_INLINE_MAX`` formatted items, one per line."""
    pad = "  " * indent
    sep = ",\n" + pad + "  "
    parts.append("[\n" + pad + "  ")
    for start in range(0, len(items), _PIECE_ITEMS):
        if start:
            parts.append(sep)
        parts.append(sep.join(items[start:start + _PIECE_ITEMS]))
    parts.append("\n" + pad + "]")


def _emit_row(parts, length, pos, vals, indent):
    """A float row of ``length`` entries: ``vals`` at the ascending ``pos``, zeros elsewhere."""
    if not length:
        parts.append("[]")
        return
    if length <= _INLINE_MAX or 2 * len(pos) > length:
        items = ["0"] * length
        for i, v in zip(pos, vals):
            items[i] = _format_float(v)
        if length <= _INLINE_MAX:
            parts.append("[" + ", ".join(items) + "]")
        else:
            _emit_items(parts, items, indent)
        return
    pad = "  " * indent
    inner = pad + "  "
    sep = ",\n" + inner
    if pos and pos[0] == 0:
        parts.append("[\n" + inner + _format_float(vals[0]))
        pos, vals = pos[1:], vals[1:]
    else:
        parts.append("[\n" + inner + "0")
    done = 1
    for i, v in zip(pos, vals):
        _emit_zeros(parts, i - done, indent + 1)
        parts.append(sep + _format_float(v))
        done = i + 1
    _emit_zeros(parts, length - done, indent + 1)
    parts.append("\n" + pad + "]")


def _emit_zeros(parts, count, indent):
    j = 0
    while count > 0:
        if count & 1:
            parts.append(_zero_run(indent, j))
        count >>= 1
        j += 1


def _emit_sparse_rows(parts, matrix, indent):
    if not len(matrix.cols):
        parts.append("[]")
        return
    keep = _prints_nonzero(matrix.values).tolist()
    sep = "[\n" + "  " * (indent + 1)
    for cols, vals, mask in zip(matrix.cols.tolist(), matrix.values.tolist(), keep):
        parts.append(sep)
        pos = [c for c, k in zip(cols, mask) if k]
        nz = [v for v, k in zip(vals, mask) if k]
        _emit_row(parts, matrix.n_cols, pos, nz, indent + 1)
        sep = ",\n" + "  " * (indent + 1)
    parts.append("\n" + "  " * indent + "]")


def _format_floats(values):
    """``_format_float`` of each entry of a 1-d float array.

    ``%`` formats ``_FORMAT_BATCH`` entries per call, which keeps its
    strings a few kilobytes long.
    """
    flat = values.tolist()
    texts = []
    for start in range(0, len(flat), _FORMAT_BATCH):
        batch = tuple(flat[start:start + _FORMAT_BATCH])
        texts += ("%.17g\0" * len(batch) % batch).split("\0")[:-1]
    # "%.17g" prints 0 and -0 as "0" and "-0" already; only nan and inf differ
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[i] = _format_float(flat[i])
    return texts


def _word_texts(digits, indent):
    """Each row of symbols as the list rendering of that word at ``indent``."""
    names = [str(v) for v in range(int(digits.max(initial=0)) + 1)]
    if digits.shape[1] <= _INLINE_MAX:
        opening, sep, closing = "[", ", ", "]"
    else:
        pad = "  " * indent
        opening, sep, closing = "[\n" + pad + "  ", ",\n" + pad + "  ", "\n" + pad + "]"
    return [opening + sep.join([names[v] for v in word]) + closing for word in digits.tolist()]


def _emit_cylinder_table(parts, table, indent):
    if not len(table):
        parts.append("[]")
        return
    pad = "  " * (indent + 1)
    inner = pad + "  "
    words = _word_texts(table.digits, indent + 2)
    mid = ",\n" + inner
    tail = "\n" + pad + "]"
    lead = "[\n" + pad
    for x, row in enumerate(table.masses):
        head = f"[\n{inner}{x}{mid}"
        for word, mass in zip(words, _format_floats(row)):
            parts.append(f"{lead}{head}{word}{mid}{mass}{tail}")
            lead = ",\n" + pad
    parts.append("\n" + "  " * indent + "]")


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
    if isinstance(value, SparseRows):
        _emit_sparse_rows(parts, value, indent)
        return
    if isinstance(value, CylinderTable):
        _emit_cylinder_table(parts, value, indent)
        return
    if isinstance(value, np.ndarray):
        if value.dtype.kind != "f" or not value.ndim:
            value = value.tolist()
        elif value.ndim > 1:
            value = list(value)  # rows stay float arrays
        else:
            pos = np.flatnonzero(_prints_nonzero(value))
            _emit_row(parts, len(value), pos.tolist(), value[pos].tolist(), indent)
            return
    if isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
        elif any(map(isinstance, value, repeat(_CONTAINERS))):
            sep = "[\n" + inner
            for v in value:
                if isinstance(v, _CONTAINERS):
                    parts.append(sep)
                    _emit(parts, v, indent + 1)
                else:
                    parts.append(sep + _format_scalar(v))
                sep = ",\n" + inner
            parts.append("\n" + pad + "]")
        elif len(value) <= _INLINE_MAX:
            parts.append("[" + ", ".join(map(_format_scalar, value)) + "]")
        else:
            _emit_items(parts, list(map(_format_scalar, value)), indent)
        return
    parts.append(_format_scalar(value))


def render_report(report):
    """Serialize a report tree to deterministic JSON text."""
    parts = []
    _emit(parts, report, 0)
    parts.append("\n")
    return "".join(parts)
