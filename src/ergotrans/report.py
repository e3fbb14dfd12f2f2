"""Deterministic report rendering through the standard ``json`` encoder.

Reports are JSON key-value trees with fixed key ordering (insertion
order).  A dict takes one key per line, two spaces deeper per level;
every other value is one call of the module's C encoder on one line, so
floats print as Python's shortest round-trip ``repr`` and repeated runs
on identical inputs are byte-identical.  numpy arrays and scalars print
as the lists and numbers they hold.  A non-finite number anywhere is
refused with ``ValueError``: a report holds no ``NaN`` or ``Infinity``.

Two records, at dict values, print as the nested lists they stand for
without those lists being built.  ``SparseRows`` is a matrix given by the
entries on its sparsity pattern; it prints as its dense rows, with an int
``0`` off the pattern.  ``CylinderTable`` is a table of cylinder masses; it
prints as its list of ``[x, word, mass]`` triples, each word's text built
once.  The text is collected as a flat list of pieces and joined once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = ["render_report", "SparseRows", "CylinderTable"]


@dataclass(frozen=True)
class SparseRows:
    """A float matrix of ``n_cols`` columns given by its entries.

    Row ``i`` holds ``values[i, k]`` at column ``cols[i, k]``, with the
    columns of a row distinct and ascending along ``k``, and ``0``
    everywhere else.  It renders exactly as the encoder renders the dense
    rows as lists, with an int ``0`` off the pattern.
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


def _plain(value):
    """A numpy array or scalar as the Python lists and numbers it holds."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"cannot render {type(value)!r} in a report")


# one encoder for every call: ``json.dumps`` with arguments builds a new one
_ENCODER = json.JSONEncoder(allow_nan=False, default=_plain)


def _item_texts(values):
    """The encoder's text of each number of a flat list or array."""
    # a number's text holds no ", ", so the encoded list splits into its items
    return _ENCODER.encode(values)[1:-1].split(", ")


def _emit_sparse_rows(parts, matrix):
    # a row's items each followed by ", ": off the pattern, item k is "0, " at 3k
    zeros = "0, " * matrix.n_cols
    sep = "["
    for cols, vals in zip(matrix.cols.tolist(), matrix.values.tolist()):
        pieces, start = [], 0
        for col, text in zip(cols, _item_texts(vals)):
            pieces += (zeros[start:3 * col], text, ", ")
            start = 3 * col + 3
        pieces.append(zeros[start:])
        parts.append(f"{sep}[{''.join(pieces)[:-2]}]")
        sep = ", "
    parts.append("]" if len(matrix.cols) else "[]")


def _emit_cylinder_table(parts, table):
    words = [_ENCODER.encode(word) for word in table.digits.tolist()]
    triples = [f"[{x}, {w}, {m}]" for x, row in enumerate(table.masses)
               for w, m in zip(words, _item_texts(row))]
    parts.append(f"[{', '.join(triples)}]")


def _emit(parts, value, pad):
    if isinstance(value, dict) and value:
        inner = pad + "  "
        sep = "{\n"
        for key, val in value.items():
            parts.append(f"{sep}{inner}{_ENCODER.encode(str(key))}: ")
            _emit(parts, val, inner)
            sep = ",\n"
        parts.append(f"\n{pad}}}")
    elif isinstance(value, SparseRows):
        _emit_sparse_rows(parts, value)
    elif isinstance(value, CylinderTable):
        _emit_cylinder_table(parts, value)
    else:
        parts.append(_ENCODER.encode(value))


def render_report(report):
    """Serialize a report tree to deterministic JSON text.

    Raises ``ValueError`` on a non-finite number anywhere in the tree.
    """
    parts = []
    _emit(parts, report, "")
    parts.append("\n")
    return "".join(parts)
