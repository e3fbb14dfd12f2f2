"""Alphabets, words, finite-memory cost tensors and problem documents.

Conventions used by every module in this package:

* symbols are 0-based integers in ``{0, ..., d-1}``,
* a word ``(y0, ..., y_{k-1})`` is encoded little-endian with ``y0`` least
  significant: ``index = y0 + y1*d + ... + y_{k-1} * d**(k-1)``,
* costs are stored in log scale; the weight attached to ``(x, w)`` is
  ``exp(c(x, w))``.

The little-endian choice makes sequence operations integer arithmetic:
dropping the first symbol of a word is ``index // d`` and prepending a
symbol is ``a + d * index``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import SpecValidationError

__all__ = [
    "CostTensor",
    "Marginal",
    "ProblemSpec",
    "decode_word",
    "lift_depth",
    "build_problem",
    "load_problem",
]

# No cost of two or more symbols reaches this depth (2**64 words), so it bounds
# one-symbol costs, which match every depth and whose reports list words of it.
MAX_DEPTH = 64


def decode_word(index, length, alphabet_size):
    """The word of a canonical index in ``{0, ..., d**length - 1}``."""
    index = int(index)
    if not 0 <= index < alphabet_size**length:
        raise SpecValidationError(
            f"word index {index} outside range for length {length}, alphabet {alphabet_size}"
        )
    out = []
    for _ in range(length):
        out.append(index % alphabet_size)
        index //= alphabet_size
    return tuple(out)


@dataclass(frozen=True)
class CostTensor:
    """Locally constant cost ``c(x, w)`` on ``X x A**depth``, log scale.

    ``values[x, i]`` holds ``c(x, w)`` for the word ``w`` with canonical
    index ``i``.  Every entry must be finite: that is what encodes the
    locally-constant (finite Lipschitz) hypothesis.
    """

    values: np.ndarray
    alphabet_size: int
    depth: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if self.alphabet_size < 1:
            raise SpecValidationError("alphabet_size must be >= 1")
        if self.depth < 1:
            raise SpecValidationError("depth must be >= 1")
        expected = self.alphabet_size**self.depth
        if vals.ndim != 2 or vals.shape[1] != expected:
            raise SpecValidationError(
                f"cost tensor has shape {vals.shape}, expected (num_x, {expected})"
            )
        bad = ~np.isfinite(vals)
        if bad.any():
            x, w = np.argwhere(bad)[0]
            raise SpecValidationError(
                f"non-finite cost entry at x={x}, word_index={w}"
            )
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def num_x(self):
        return self.values.shape[0]


def lift_depth(cost, m_target):
    """Re-index a cost at a larger depth without changing any evaluation.

    The lifted tensor reads ``m_target`` coordinates but ignores the extra
    ones; since the encoding is little-endian this is a plain tile along
    the word axis.
    """
    if m_target < cost.depth:
        raise SpecValidationError(
            f"cannot lift depth {cost.depth} cost down to {m_target}"
        )
    if m_target == cost.depth:
        return cost
    reps = cost.alphabet_size ** (m_target - cost.depth)
    vals = np.tile(cost.values, (1, reps))
    return CostTensor(vals, cost.alphabet_size, m_target)


@dataclass(frozen=True)
class Marginal:
    """Fully supported probability vector on X (weights in (0, 1], sum 1)."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise SpecValidationError("marginal must be a non-empty vector")
        for i, v in enumerate(w):
            if v == 0.0:
                raise SpecValidationError(f"zero marginal mass at x={i}")
            if not np.isfinite(v) or v < 0.0:
                raise SpecValidationError(f"invalid marginal mass at x={i}")
        total = w.sum()
        if abs(total - 1.0) > 1e-12:
            raise SpecValidationError(
                f"marginal weights sum to {total!r}, expected 1"
            )
        w = w / total
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def size(self):
        return self.weights.size


@dataclass(frozen=True)
class ProblemSpec:
    """Problem instance from ``build_problem``; its dimensions are the cost's."""

    cost: CostTensor
    mu: Marginal | None = None
    beta_grid: tuple[float, ...] | None = None
    extras: dict = field(default_factory=dict)

    @property
    def num_x(self):
        return self.cost.num_x

    @property
    def alphabet_size(self):
        return self.cost.alphabet_size

    @property
    def depth(self):
        return self.cost.depth


_REQUIRED_FIELDS = ("num_x", "alphabet_size", "depth", "cost")


def _numbers(doc, name):
    """``doc[name]`` as a float vector; it must be a list of numbers (not bools)."""
    entries = doc[name]
    if not (isinstance(entries, list) and set(map(type, entries)) <= {int, float}):
        raise SpecValidationError(f"'{name}' must be a list of numbers")
    try:
        return np.array(entries, dtype=float)
    except OverflowError as exc:
        raise SpecValidationError(f"'{name}' has an entry beyond the float range") from exc


def build_problem(raw_spec):
    """Parse and validate a problem document.

    Parameters
    ----------
    raw_spec : str, bytes or dict
        JSON text (UTF-8 if bytes; or an already parsed key-value tree) with fields
        ``num_x``, ``alphabet_size``, ``depth``, ``cost`` (flat array in
        canonical index order, x-major, log scale), optional ``mu`` and
        optional ``beta_grid``.

    Returns
    -------
    ProblemSpec
    """
    if isinstance(raw_spec, (str, bytes)):
        try:
            doc = json.loads(raw_spec.decode("utf-8") if isinstance(raw_spec, bytes) else raw_spec)
        except UnicodeDecodeError as exc:
            raise SpecValidationError(f"spec document is not UTF-8: {exc}") from exc
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise SpecValidationError(f"spec document does not parse: {exc}") from exc
    else:
        doc = raw_spec
    if not isinstance(doc, dict):
        raise SpecValidationError("spec document must be a key-value tree")

    for name in _REQUIRED_FIELDS:
        if name not in doc:
            raise SpecValidationError(f"missing required field '{name}'")

    num_x, d, m = (doc[name] for name in _REQUIRED_FIELDS[:3])
    if not all(type(v) is int for v in (num_x, d, m)):  # not "2", 2.5 or true
        raise SpecValidationError("num_x, alphabet_size and depth must be integers")
    if num_x < 1 or d < 1 or m < 1:
        raise SpecValidationError("num_x, alphabet_size and depth must all be >= 1")

    flat = _numbers(doc, "cost")
    # d**m is only formed for a depth the entry count can match
    n_words = flat.size // num_x
    if flat.size % num_x or (d > 1 and m > n_words.bit_length()) or d**m != n_words:
        raise SpecValidationError(
            f"cost has {flat.size} entries, expected num_x * alphabet_size**depth = "
            f"{num_x} * {d}**{m}"
        )
    if m > MAX_DEPTH:
        raise SpecValidationError(f"depth must be at most {MAX_DEPTH}")
    cost = CostTensor(flat.reshape(num_x, n_words), d, m)

    mu = None
    if doc.get("mu") is not None:
        mu_w = _numbers(doc, "mu")
        if mu_w.size != num_x:
            raise SpecValidationError(
                f"mu has {mu_w.size} entries, expected num_x={num_x}"
            )
        mu = Marginal(mu_w)

    beta_grid = None
    if doc.get("beta_grid") is not None:
        beta_grid = tuple(_numbers(doc, "beta_grid").tolist())
        for b in beta_grid:
            if not (np.isfinite(b) and b > 0):
                raise SpecValidationError(f"beta grid entry {b!r} is not a positive real")
    if doc.get("plan") is not None and not isinstance(doc["plan"], dict):
        raise SpecValidationError("plan must be a key-value tree")

    extras = {k: v for k, v in doc.items() if k not in set(_REQUIRED_FIELDS) | {"mu", "beta_grid"}}
    return ProblemSpec(cost, mu, beta_grid, extras)


def load_problem(path):
    """Read a problem document from disk. Returns (spec, raw_bytes)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    return build_problem(raw), raw
