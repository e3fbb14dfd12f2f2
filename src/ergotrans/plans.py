"""Finite-memory plans: construction, cylinder masses, Jacobians, entropy.

A plan on ``X x Omega`` with shift-invariant y-marginal is stored through
its local transition law ``J(x, a | b)`` (the Jacobian on the marginal's
support) together with the block-Markov y-marginal.  The cylinder law

    pi([x, a.w]) = J(x, a | head(w)) * nu([w]),   len(w) >= m - 1,

determines every cylinder mass; shorter cylinders are sums over
completions.  Entries of ``J`` on unsupported blocks are conventional
placeholders, never consulted through the measure.

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
from .symbolic import CostTensor, Marginal, encode_word, lift_depth
from .transfer import (
    MarkovMeasure,
    NormalizedCost,
    effective_cost,
    gibbs_chain,
    normalize_cost,
    nu_cylinder,
    nu_cylinder_table,
)

__all__ = [
    "FiniteMemoryPlan",
    "gibbs_plan",
    "equilibrium_plan",
    "product_plan",
    "plan_cylinder",
    "plan_mass_table",
    "jacobian_n",
    "entropy",
    "integrate_cost",
    "integral_log_jacobian",
    "smoothed_log_jacobian",
    "marginal_x",
    "marginal_y",
    "uniform_bernoulli_measure",
    "periodic_orbit_measure",
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


def gibbs_plan(normalized):
    """The plan fixed by the extended dual operator of a normalized cost.

    Its Jacobian is exactly ``exp(cbar)`` and its y-marginal is the
    invariant measure of the normalized block chain (both from
    ``gibbs_chain``); the support is every cylinder.
    """
    jac, weights, _, p = gibbs_chain(normalized)
    return FiniteMemoryPlan(jac, MarkovMeasure(weights, p, normalized.alphabet_size),
                            normalized.depth)


def equilibrium_plan(cost):
    """Unique maximizer of ``integral(c) + entropy`` with its value.

    Returns ``(plan, value)`` where ``value = log(dominant eigenvalue)``
    and the plan is the Gibbs plan of the normalized cost.
    """
    cost = effective_cost(cost)
    normalized = normalize_cost(cost)
    return gibbs_plan(normalized), normalized.log_lambda


def product_plan(mu, nu):
    """Independent coupling of an x-marginal and an invariant y-marginal."""
    if not isinstance(mu, Marginal):
        mu = Marginal(mu)
    jac = mu.weights[:, None, None] * nu.q[None, :, :]
    memory = nu.block_len + 1
    return FiniteMemoryPlan(jac, nu, memory)


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


def plan_cylinder(plan, x, word):
    """Mass of the cylinder ``[x, w0 ... w_{n-1}]``."""
    if not 0 <= x < plan.num_x:
        raise SpecValidationError(f"x={x} outside X of size {plan.num_x}")
    d = plan.alphabet_size
    m = plan.memory
    n = len(word)
    if n < 1:
        raise SpecValidationError("cylinder word must have length >= 1")
    idx = encode_word(word, d)
    if n >= m:
        head = (idx // d) % plan.nu.n_blocks
        return float(plan.jacobian[x, head, idx % d] * nu_cylinder(plan.nu, word[1:]))
    table = plan_mass_table(plan, n)
    return float(table[x, idx])


def jacobian_n(plan, n):
    """Finite-depth Jacobian ``pi([x, y0..yn]) / nu([y1..yn])``.

    Returns an array over ``(x, words of length n+1)``; entries over
    nu-null cylinders are NaN (undefined, never zero).  For
    ``n >= memory - 1`` the values equal the stored Jacobian exactly.
    """
    if n < 0:
        raise SpecValidationError("jacobian depth must be >= 0")
    num_x = plan.num_x
    masses = plan_mass_table(plan, n + 1).reshape(num_x, -1, plan.alphabet_size)  # [x, tail, a]
    tails = nu_cylinder_table(plan.nu, n)
    out = np.full(masses.shape, np.nan)
    ok = tails > 0.0
    out[:, ok] = masses[:, ok] / tails[ok][None, :, None]
    return out.reshape(num_x, -1)


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


def integral_log_jacobian(plan, n):
    """``integral(log J^n)`` over the plan's support."""
    masses = plan_mass_table(plan, n + 1)
    ratios = jacobian_n(plan, n)
    pos = masses > 0.0
    return float((masses[pos] * np.log(ratios[pos])).sum())


def smoothed_log_jacobian(plan, eps, n):
    """Normalized cost approximating ``log J^n`` with eps-mass on null entries.

    On each nu-positive tail cylinder the plan-null entries receive
    ``log(#B * eps)`` and the positive ones ``log(J^n - #A * eps)``, which
    keeps the weights summing to one; nu-null tails get the uniform value.
    The integral against the plan converges to ``integral(log J^n)`` as
    ``eps -> 0``.
    """
    if eps <= 0.0:
        raise SpecValidationError("eps must be positive")
    if n < 1:
        raise SpecValidationError("depth n must be >= 1")
    d = plan.alphabet_size
    num_x = plan.num_x
    masses = plan_mass_table(plan, n + 1).reshape(num_x, d**n, d)  # [x, tail, a]
    tails = nu_cylinder_table(plan.nu, n)
    out = np.empty((num_x, d**n, d))
    uniform = -np.log(num_x * d)
    for v in range(d**n):
        if tails[v] <= 0.0:
            out[:, v, :] = uniform
            continue
        ratios = masses[:, v, :] / tails[v]
        null = masses[:, v, :] == 0.0
        n_null = int(null.sum())
        n_pos = num_x * d - n_null
        if n_null:
            floor = float(ratios[~null].min()) - n_null * eps
            if floor <= 0.0:
                raise SpecValidationError(
                    f"eps={eps} too large: smallest positive ratio {ratios[~null].min():.3e} "
                    f"cannot absorb {n_null} * eps"
                )
            out[:, v, :][null] = np.log(n_pos * eps)
            out[:, v, :][~null] = np.log(ratios[~null] - n_null * eps)
        else:
            out[:, v, :] = np.log(ratios)
    # word index of a.v is a + d*v, the C order of (v, a)
    tensor = CostTensor(out.reshape(num_x, -1), d, n + 1)
    return NormalizedCost(tensor, 0.0, np.zeros(d**n))


def marginal_x(plan):
    """x-marginal of the plan (sums of level-1 cylinder masses)."""
    return (plan.jacobian * plan.nu.p[None, :, None]).sum(axis=(1, 2))


def marginal_y(plan):
    """y-marginal of the plan, verified against cylinder sums."""
    level1 = plan_mass_table(plan, 1).sum(axis=0)
    direct = nu_cylinder_table(plan.nu, 1)
    if np.abs(level1 - direct).max() > 1e-12:
        raise SpecValidationError(
            "stored y-marginal disagrees with plan cylinder sums"
        )
    if np.abs(plan.nu.push(plan.nu.p) - plan.nu.p).max() > 1e-12:
        raise SpecValidationError("y-marginal stationarity residual above 1e-12")
    return plan.nu


def uniform_bernoulli_measure(alphabet_size, block_len=1):
    """Uniform Bernoulli measure as a block-Markov measure."""
    d = alphabet_size
    n_blocks = d**block_len
    q = np.full((n_blocks, d), 1.0 / d)
    p = np.full(n_blocks, 1.0 / n_blocks)
    return MarkovMeasure(q, p, d)


def periodic_orbit_measure(word, alphabet_size, block_len=1):
    """Invariant measure supported on the periodic orbit of a word.

    Encoded as a deterministic (0/1) block chain; rows of unsupported
    blocks are filled uniformly so the chain stays stochastic.  Every
    ``block_len``-block of the orbit must determine the symbol that comes
    next; a block that recurs in the period with a different next symbol
    raises ``SpecValidationError``, since only longer blocks encode the
    orbit.
    """
    d = alphabet_size
    period = len(word)
    n_blocks = d**block_len
    blocks = []
    for i in range(period):
        blocks.append(encode_word([word[(i + j) % period] for j in range(block_len)], d))
    p = np.zeros(n_blocks)
    q = np.full((n_blocks, d), 1.0 / d)
    for i in range(period):
        p[blocks[i]] += 1.0 / period
    follows = {}
    for i in range(period):
        # the block starting at i+1 is followed by prepending word[i]
        cur = blocks[(i + 1) % period]
        if follows.setdefault(cur, word[i]) != word[i]:
            raise SpecValidationError(
                f"the orbit of {list(word)} needs blocks longer than {block_len}: "
                f"block {cur} recurs with different next symbols"
            )
        q[cur, :] = 0.0
        q[cur, word[i]] = 1.0
    return MarkovMeasure(q, p, d)


def export_plan(plan, depth=None):
    """Deterministic plan export: the depth, the masses and the Jacobian.

    ``masses`` is a ``CylinderTable``, the sequence of ``[x, word, mass]``
    triples over every word of length ``depth`` in canonical order, x
    outer; ``jacobian`` is the plan's Jacobian in the ``(x, a, block)``
    order of reports, a transposed view of ``J[x, b, a]``.  Both render
    exactly as the nested lists they stand for.
    """
    if depth is None:
        depth = plan.memory
    d = plan.alphabet_size
    # the digits of every word index, little-endian as in decode_word
    digits = np.arange(d**depth)[:, None] // d ** np.arange(depth) % d
    return {
        "depth": int(depth),
        "masses": CylinderTable(digits, plan_mass_table(plan, depth)),
        "jacobian": plan.jacobian.transpose(0, 2, 1),
    }
