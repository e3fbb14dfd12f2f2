"""Finite-memory plans: Gibbs plans, cylinder masses, entropy, export.

A plan on ``X x Omega`` with shift-invariant y-marginal is stored through
its local transition law ``J(x, a | b)`` (the Jacobian on the marginal's
support) together with the block-Markov y-marginal.  The cylinder law

    pi([x, a.w]) = J(x, a | head(w)) * nu([w]),   len(w) >= m - 1,

determines every cylinder mass; shorter cylinders are sums over
completions.  Entries of ``J`` on unsupported blocks are conventional
placeholders, never consulted through the measure.  A Gibbs plan is read
off one ``transfer.gibbs_chain`` result: ``J = exp(cbar)`` and the
y-marginal is that chain with its stationary vector.

``J`` is stored as ``J[x, b, a]``, the action layout of the cost and of
``q[b, a]``; the word ``a.w`` has index ``a + d*w``, the C order of
``(w, a)``, so every cylinder table is a reshape.  Reports and problem
documents keep the ``(x, a, block)`` order of ``J``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpecValidationError
from .report import CylinderTable
from .symbolic import lift_depth
from .transfer import MarkovMeasure, nu_cylinder_table

__all__ = [
    "FiniteMemoryPlan",
    "gibbs_plan",
    "plan_mass_table",
    "entropy",
    "integrate_cost",
    "marginal_x",
    "export_plan",
]


@dataclass(frozen=True)
class FiniteMemoryPlan:
    """Plan encoded by a Jacobian tensor ``jacobian[x, b, a] = J(x, a | b)`` and its y-marginal.

    The Jacobian is in the action layout of ``nu.q[b, a]``.  Invariants,
    enforced on the marginal's support:

    * ``sum_{x,a} J(x, a | b) = 1`` (local mass law),
    * ``sum_x J(x, a | b) = q[b, a]`` (the y-marginal is exactly the block
      chain induced by the plan).
    """

    jacobian: np.ndarray
    nu: MarkovMeasure
    memory: int

    def __post_init__(self):
        jac = np.asarray(self.jacobian, dtype=float)
        d = self.nu.alphabet_size
        n_blocks = self.nu.n_blocks
        if self.memory < 2:
            raise SpecValidationError("plan memory must be >= 2 (lift depth-1 problems)")
        if d ** (self.memory - 1) != n_blocks:
            raise SpecValidationError(
                f"marginal has {n_blocks} blocks, expected {d ** (self.memory - 1)}"
            )
        if jac.ndim != 3 or jac.shape[1:] != (n_blocks, d):
            raise SpecValidationError(
                f"jacobian has shape {jac.shape}, expected (num_x, {n_blocks}, {d})"
            )
        if not np.isfinite(jac).all() or (jac < -1e-15).any():
            raise SpecValidationError("jacobian entries must be finite and nonnegative")
        jac = np.clip(jac, 0.0, None)
        sup = self.nu.support
        row = jac[:, sup].sum(axis=(0, 2))
        if row.size and np.abs(row - 1.0).max() > 1e-12:
            raise SpecValidationError(
                f"jacobian mass law violated by {np.abs(row - 1.0).max():.3e}"
            )
        defect = np.abs(jac.sum(axis=0) - self.nu.q)[sup]
        if defect.size and defect.max() > 1e-12:
            raise SpecValidationError(
                f"jacobian x-sum disagrees with y-marginal chain by {defect.max():.3e}"
            )
        jac.setflags(write=False)
        object.__setattr__(self, "jacobian", jac)

    @property
    def num_x(self):
        return self.jacobian.shape[0]

    @property
    def alphabet_size(self):
        return self.nu.alphabet_size


def gibbs_plan(chain, memory):
    """The Gibbs plan of one normalization, ``chain = transfer.gibbs_chain(c)``.

    Its Jacobian is exactly ``exp(cbar)`` and its y-marginal is the
    invariant measure of the normalized block chain; the support is every
    cylinder.  ``memory`` is the depth of the effective cost.
    """
    nu = MarkovMeasure(chain.weights, chain.p, chain.weights.shape[1])
    return FiniteMemoryPlan(chain.jac, nu, memory)


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
        tail = nu_cylinder_table(plan.nu, length - 1)
        jac = plan.jacobian[:, np.arange(tail.size) % plan.nu.n_blocks]
        return (jac * tail[None, :, None]).reshape(plan.num_x, -1)
    full = plan_mass_table(plan, m)
    return full.reshape(plan.num_x, -1, plan.alphabet_size**length).sum(axis=1)


def entropy(plan):
    """Entropy ``-integral(log J)`` of a finite-memory plan, with 0 log 0 = 0."""
    jac = plan.jacobian
    terms = np.where(jac > 0.0, jac * np.log(np.where(jac > 0.0, jac, 1.0)), 0.0)
    return float(-(terms.sum(axis=(0, 2)) * plan.nu.p).sum())


def integrate_cost(plan, cost):
    """Integral of a finite-memory cost against the plan."""
    depth = max(cost.depth, plan.memory)
    vals = lift_depth(cost, depth).values
    masses = plan_mass_table(plan, depth)
    return float((masses * vals).sum())


def marginal_x(plan):
    """x-marginal of the plan (sums of level-1 cylinder masses)."""
    return (plan.jacobian * plan.nu.p[None, :, None]).sum(axis=(1, 2))


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
