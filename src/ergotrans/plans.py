"""Finite-memory plans: Gibbs plans, cylinder masses, entropy, export.

A plan on ``X x Omega`` with shift-invariant y-marginal is one record:
its local transition law ``J(x, a | b)`` (the Jacobian on the marginal's
support) and the y-marginal's block chain ``(q, p)``.  The cylinder law

    pi([x, a.w]) = J(x, a | head(w)) * nu([w]),   len(w) >= m - 1,

determines every cylinder mass, with ``nu([a.w]) = q[head(w), a] *
nu([w])`` and ``nu`` of an ``(m-1)``-block its entry of ``p``; shorter
cylinders are sums over completions.  Entries of ``J`` and rows of ``q``
on unsupported blocks are conventional placeholders, never consulted
through the measure.  A Gibbs plan is read off one ``transfer.gibbs_chain``
result: ``J = exp(cbar)``, ``q`` its chain and ``p`` that chain's
stationary vector.

``J`` is stored as ``J[x, b, a]`` and ``q`` as ``q[b, a]``, the action
layout of the cost: ``a`` leads from block ``b`` to ``succ(b, a)``, and the
word ``a.w`` has index ``a + d*w``, the C order of ``(w, a)``, so every
cylinder table is a reshape.  Reports and problem documents keep the
``(x, a, block)`` order of ``J``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpecValidationError
from .report import CylinderTable
from .symbolic import lift_depth
from .transfer import _push, successor_table

__all__ = [
    "FiniteMemoryPlan",
    "gibbs_plan",
    "nu_cylinder_table",
    "plan_mass_table",
    "entropy",
    "integrate_cost",
    "marginal_x",
    "export_plan",
]


@dataclass(frozen=True)
class FiniteMemoryPlan:
    """Plan of memory ``m``: ``jacobian[x, b, a] = J(x, a | b)`` and its y-marginal ``(q, p)``.

    The y-marginal is the shift-invariant block-Markov measure of the
    ``(m-1)``-block chain: ``q[b, a]`` is the probability of prepending
    ``a`` to block ``b``, which leads to block ``succ(b, a)``, and ``p`` is
    its stationary vector.  Deterministic 0/1 rows of ``q`` encode measures
    supported on periodic orbits.  Invariants, enforced at 1e-12 on the
    support ``p > 0``:

    * ``sum_a q[b, a] = 1`` and ``sum_{succ(b, a) = b'} q[b, a] p[b] = p[b']``,
      with ``sum(p) = 1``;
    * ``sum_{x,a} J(x, a | b) = 1`` (local mass law);
    * ``sum_x J(x, a | b) = q[b, a]`` (the y-marginal is exactly the block
      chain induced by the plan).
    """

    jacobian: np.ndarray
    q: np.ndarray
    p: np.ndarray
    memory: int

    def __post_init__(self):
        jac = np.asarray(self.jacobian, dtype=float)
        q = np.asarray(self.q, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if self.memory < 2:
            raise SpecValidationError("plan memory must be >= 2 (lift depth-1 problems)")
        block_len = self.memory - 1
        if q.ndim != 2 or q.shape[0] != q.shape[1] ** block_len or p.shape != q.shape[:1]:
            raise SpecValidationError(
                f"q has shape {q.shape} and p {p.shape}, expected "
                f"(d**{block_len}, d) and (d**{block_len},) at memory {self.memory}"
            )
        n_blocks, d = q.shape
        if not np.isfinite(q).all() or (q < -1e-15).any():
            raise SpecValidationError("q entries must be finite and nonnegative")
        q = np.clip(q, 0.0, None)
        if not np.isfinite(p).all() or (p < -1e-15).any():
            raise SpecValidationError("stationary vector entries must be finite and nonnegative")
        p = np.clip(p, 0.0, None)
        if abs(p.sum() - 1.0) > 1e-12:
            raise SpecValidationError(f"stationary vector sums to {p.sum()!r}")
        p = p / p.sum()
        support = p > 0.0
        row_defect = np.abs(q.sum(axis=1)[support] - 1.0)
        if row_defect.size and row_defect.max() > 1e-12:
            raise SpecValidationError(
                f"row sums deviate from 1 by {row_defect.max():.3e} on supported states"
            )
        if np.abs(_push(q, successor_table(d, n_blocks), p) - p).max() > 1e-12:
            raise SpecValidationError("stationary vector fails stationarity at 1e-12")
        if jac.ndim != 3 or jac.shape[1:] != (n_blocks, d):
            raise SpecValidationError(
                f"jacobian has shape {jac.shape}, expected (num_x, {n_blocks}, {d})"
            )
        if not np.isfinite(jac).all() or (jac < -1e-15).any():
            raise SpecValidationError("jacobian entries must be finite and nonnegative")
        jac = np.clip(jac, 0.0, None)
        row = jac[:, support].sum(axis=(0, 2))
        if row.size and np.abs(row - 1.0).max() > 1e-12:
            raise SpecValidationError(
                f"jacobian mass law violated by {np.abs(row - 1.0).max():.3e}"
            )
        defect = np.abs(jac.sum(axis=0) - q)[support]
        if defect.size and defect.max() > 1e-12:
            raise SpecValidationError(
                f"jacobian x-sum disagrees with y-marginal chain by {defect.max():.3e}"
            )
        for name, value in (("jacobian", jac), ("q", q), ("p", p)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def num_x(self):
        return self.jacobian.shape[0]

    @property
    def n_blocks(self):
        return self.p.size

    @property
    def alphabet_size(self):
        return self.q.shape[1]


def gibbs_plan(chain, memory):
    """The Gibbs plan of one normalization, ``chain = transfer.gibbs_chain(c)``.

    Its Jacobian is exactly ``exp(cbar)`` and its y-marginal is the
    invariant measure of the normalized block chain; the support is every
    cylinder.  ``memory`` is the depth of the effective cost.
    """
    return FiniteMemoryPlan(chain.jac, chain.weights, chain.p, memory)


def nu_cylinder_table(plan, length):
    """y-marginal masses ``nu([w])`` of all words of a given length, indexed canonically.

    Up to the block length ``m - 1`` they are sums of ``p``; a level up,
    ``nu([a.w]) = q[head(w), a] * nu([w])`` is a ``(w, a)`` table.
    """
    block_len = plan.memory - 1
    if length == 0:
        return np.array([1.0])
    if length <= block_len:
        return plan.p.reshape(-1, plan.alphabet_size**length).sum(axis=0)
    table = plan.p
    for _ in range(block_len, length):
        table = (plan.q[np.arange(table.size) % plan.n_blocks] * table[:, None]).ravel()
    return table


def plan_mass_table(plan, length):
    """All cylinder masses ``pi([x, w])`` for words of a given length.

    Returns an array of shape ``(num_x, d**length)`` in canonical word
    order; each row set sums to the x-marginal and the whole table to 1.
    From the memory on it is ``J[x, head(w), a] * nu([w])`` over ``(x, w, a)``.
    """
    if length < 1:
        raise SpecValidationError("cylinder length must be >= 1")
    m = plan.memory
    if length >= m:
        tail = nu_cylinder_table(plan, length - 1)
        jac = plan.jacobian[:, np.arange(tail.size) % plan.n_blocks]
        return (jac * tail[None, :, None]).reshape(plan.num_x, -1)
    full = plan_mass_table(plan, m)
    return full.reshape(plan.num_x, -1, plan.alphabet_size**length).sum(axis=1)


def entropy(plan):
    """Entropy ``-integral(log J)`` of a finite-memory plan, with 0 log 0 = 0."""
    jac = plan.jacobian
    terms = np.where(jac > 0.0, jac * np.log(np.where(jac > 0.0, jac, 1.0)), 0.0)
    return float(-(terms.sum(axis=(0, 2)) * plan.p).sum())


def integrate_cost(plan, cost):
    """Integral of a finite-memory cost against the plan."""
    depth = max(cost.depth, plan.memory)
    vals = lift_depth(cost, depth).values
    masses = plan_mass_table(plan, depth)
    return float((masses * vals).sum())


def marginal_x(plan):
    """x-marginal of the plan (sums of level-1 cylinder masses)."""
    return (plan.jacobian * plan.p[None, :, None]).sum(axis=(1, 2))


def export_plan(plan, depth):
    """Deterministic plan export: the depth, the masses and the Jacobian.

    ``masses`` is a ``CylinderTable``, the table of ``[x, word, mass]``
    triples over every word of length ``depth`` in canonical order, x
    outer; ``jacobian`` is the plan's Jacobian in the ``(x, a, block)``
    order of reports, a transposed view of ``J[x, b, a]``.  Both render
    exactly as the nested lists they stand for.
    """
    d = plan.alphabet_size
    # the digits of every word index, little-endian as in decode_word
    digits = np.arange(d**depth)[:, None] // d ** np.arange(depth) % d
    return {
        "depth": int(depth),
        "masses": CylinderTable(digits, plan_mass_table(plan, depth)),
        "jacobian": plan.jacobian.transpose(0, 2, 1),
    }
