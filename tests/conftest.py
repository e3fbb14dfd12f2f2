"""Shared fixtures: reference instances with closed-form data, random builders.

Also the dense linear-domain oracles: the transfer matrix, Collatz-Wielandt
power iteration for its Perron data, normalization against such data, and a
least-squares stationary vector.  The package solves all of these in log
domain on the block chain; the tests check it against these independent paths.
The sparse bordered chain matrix built from triplets, a direct cost
evaluation, the exact vertex-enumeration LP for the constrained
zero-temperature limit, the tropical lift with its exhaustive cycle-mean
enumeration, Karp's exact cycle mean with the longest-walk Bellman solve
for the subaction, cylinder tables built by word-index arithmetic
(``idx % d``, ``idx // d``), the eigensolver's kernels with their index
arrays rebuilt on every call (``index_bordered_solve``,
``index_log_perron``), and ``gibbs_chain`` split into its former two steps,
an eigensolve and then the chain of the normalized cost
(``two_step_gibbs_chain``, ``normalized_chain``), are oracles kept here for
the same reason.  ``legacy_triples`` is the list of ``[x, word, mass]``
triples that a ``CylinderTable`` renders as.

The definitional oracles evaluate what no verb computes straight from its
definition: word encoding, one step of a block distribution
(``push``), single cylinder masses of measures and plans, the Markov
entropy rate, uniform Bernoulli and periodic-orbit measures, product
plans, finite-depth Jacobians with their log-integral and eps-smoothed
normalized approximation, and the verified y-marginal.  An invariant
measure is a plan on a one-point X (``measure_plan``): ``J = q[None]``
and the memory is its block length plus one.  The Shannon
entropy of an x-marginal is ``scalar_entropy(mu.weights)``.  Two
certificates of the constrained problem are kept as oracles for the
dual solve's own: ``slackness_certificate``, which solves the
eigenproblem of ``c - phi`` afresh, and, for #X = 2 at depth 2, the
determinant and collinearity conditions of the zero-pressure curve
(``eigencurve_conditions``).
"""

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import ergotrans.transfer as transfer
from ergotrans._tropical import howard_policy_iteration
from ergotrans.dual import shift_cost
from ergotrans.errors import ConvergenceError, SpecValidationError
from ergotrans.symbolic import CostTensor, Marginal, lift_depth
from ergotrans.plans import (
    FiniteMemoryPlan,
    entropy,
    gibbs_plan,
    integrate_cost,
    marginal_x,
    nu_cylinder_table,
    plan_mass_table,
)
from ergotrans.transfer import (
    DEFAULT_EIGEN_TOL,
    GibbsChain,
    _push,
    action_view,
    block_count,
    gibbs_chain,
    reduced_cost,
    successor_table,
)
from ergotrans.zerotemp import maxplus_solve

# Two-state reference instance: per-x weight matrices [[1,1],[1,1]] and
# [[1,1],[1,2]] on two symbols, depth 2.  The summed transfer matrix is
# [[2,2],[2,3]], whose dominant eigenvalue solves lam^2 - 5 lam + 2 = 0.
REF_LAMBDA = (5.0 + math.sqrt(17.0)) / 2.0
REF_H = np.array([3.0 + math.sqrt(17.0), 5.0 + math.sqrt(17.0)])


@pytest.fixture
def two_state_cost():
    vals = np.zeros((2, 4))
    vals[1, 3] = math.log(2.0)  # word (1,1): index 1 + 2*1 = 3
    return CostTensor(vals, 2, 2)


def make_two_state_cost():
    vals = np.zeros((2, 4))
    vals[1, 3] = math.log(2.0)
    return CostTensor(vals, 2, 2)


def lift_depth_one(cost):
    """A depth-1 cost lifted to depth 2, a deeper one as it is.

    The package solves a depth-1 cost on its one block.  The dense oracles
    here place one entry per ``(block, symbol)`` into an ``n x n`` matrix,
    which needs the ``d`` blocks of depth 2.
    """
    return lift_depth(cost, 2) if cost.depth == 1 else cost


def random_cost(rng, num_x, d, m, scale=1.0):
    return CostTensor(scale * rng.normal(size=(num_x, d**m)), d, m)


def random_marginal(rng, n):
    w = rng.uniform(0.2, 1.0, size=n)
    return Marginal(w / w.sum())


# The robustness survey: for each seed one rng draws every family in this
# order, a normal cost and then mu uniform(0.2, 1), normalized.
SURVEY_FAMILIES = ((2, 2, 2), (2, 3, 2), (2, 3, 3), (3, 2, 3))


def survey_draw(seed, family):
    """The survey's ``(cost, mu)`` for one seed and family."""
    rng = np.random.default_rng(seed)
    for num_x, d, m in SURVEY_FAMILIES:
        values = rng.normal(size=num_x * d**m).reshape(num_x, d**m)
        mu = rng.uniform(0.2, 1.0, size=num_x)
        if (num_x, d, m) == family:
            return CostTensor(values, d, m), Marginal(mu / mu.sum())
    raise ValueError(f"{family} is not a survey family")


def dense_chain(q_ab):
    """The dense ``(successor, block)`` matrix of an action-layout chain."""
    n_blocks, d = q_ab.shape
    q = np.zeros((n_blocks, n_blocks))
    q[successor_table(d, n_blocks), np.arange(n_blocks)[:, None]] = q_ab
    return q


def dense_q(plan):
    """``q[b', b]``: a plan's y-chain as the dense column-stochastic matrix."""
    return dense_chain(plan.q)


def dense_tropical(cost):
    """``W[b', b] = max_x c(x, w)``, ``-inf`` off the successor pattern.

    Built from the words themselves: ``w`` leaves the block ``w // d`` for
    the block ``w % n``, the leading ``m - 1`` symbols of ``w``.
    """
    cost = lift_depth_one(cost)
    n_blocks = cost.alphabet_size ** (cost.depth - 1)
    words = np.arange(cost.values.shape[1])
    mat = np.full((n_blocks, n_blocks), -np.inf)
    mat[words % n_blocks, words // cost.alphabet_size] = cost.values.max(axis=0)
    return mat


def enumerate_cycle_means(cost):
    """Exact maximum mean over all simple cycles of ``dense_tropical(cost)`` (DFS oracle)."""
    mat = dense_tropical(cost)
    n_blocks = mat.shape[0]
    edges = [[(t, Fraction(float(mat[t, b]))) for t in range(n_blocks) if mat[t, b] > -np.inf]
             for b in range(n_blocks)]
    best = [None]

    def walk(start, node, path_weight, visited, length):
        for nxt, weight in edges[node]:
            w = path_weight + weight
            if nxt == start:
                mean = w / (length + 1)
                if best[0] is None or mean > best[0]:
                    best[0] = mean
            elif nxt > start and nxt not in visited:
                walk(start, nxt, w, visited | {nxt}, length + 1)

    for start in range(n_blocks):
        walk(start, start, Fraction(0), {start}, 0)
    return float(best[0])


def karp_cycle_mean(weights, succ):
    """Karp's maximum cycle mean and one critical cycle, in Fractions (oracle).

    ``weights[b, a]`` is the weight of the edge ``b -> succ[b, a]``.  The
    cycle is one on the optimal ``n``-edge walk to the maximizing vertex,
    rotated to start at its smallest state.  ``O(n**2 * d)``.
    """
    n, d = weights.shape
    w_frac = [[Fraction(float(weights[b, a])) for a in range(d)] for b in range(n)]
    dist = [[None] * n for _ in range(n + 1)]
    parent = [[None] * n for _ in range(n + 1)]
    dist[0][0] = Fraction(0)
    for k in range(1, n + 1):
        row, prow, prev = dist[k], parent[k], dist[k - 1]
        for b in range(n):
            if prev[b] is None:
                continue
            for a in range(d):
                t = int(succ[b, a])
                cand = prev[b] + w_frac[b][a]
                if row[t] is None or cand > row[t]:
                    row[t] = cand
                    prow[t] = b
    best, best_v = None, None
    for v in range(n):
        if dist[n][v] is None:
            continue
        inner = min((dist[n][v] - dist[k][v]) / (n - k)
                    for k in range(n) if dist[k][v] is not None)
        if best is None or inner > best:
            best, best_v = inner, v
    walk = [best_v]
    for k in range(n, 0, -1):
        walk.append(parent[k][walk[-1]])
    walk.reverse()
    seen = {}
    for pos, v in enumerate(walk):
        if v in seen:
            cycle = walk[seen[v]:pos]
            break
        seen[v] = pos
    rotate = cycle.index(min(cycle))
    return best, cycle[rotate:] + cycle[:rotate]


def bellman_subaction(weights, succ, mean, cycle):
    """Longest walks toward ``cycle[0]`` in the weights reduced by ``mean`` (oracle).

    Exact value iteration of the reduced Bellman operator, with the value 0
    pinned at ``cycle[0]``; converted to floats, then gauged by ``max V = 0``.
    """
    n, d = weights.shape
    red = [[Fraction(float(weights[b, a])) - mean for a in range(d)] for b in range(n)]
    target = cycle[0]
    values = [None] * n
    values[target] = Fraction(0)
    for _ in range(2 * n + 4):
        new = list(values)
        for b in range(n):
            cands = [red[b][a] + values[int(succ[b, a])]
                     for a in range(d) if values[int(succ[b, a])] is not None]
            if b == target:
                cands.append(Fraction(0))
            if cands and (new[b] is None or max(cands) > new[b]):
                new[b] = max(cands)
        if new == values:
            break
        values = new
    else:
        raise ConvergenceError("Bellman iteration did not stabilize", iterations=2 * n + 4)
    v = np.array([float(x) for x in values])
    return v - v.max()


def measure_plan(q, p, block_len):
    """The invariant measure of the chain ``(q, p)`` on ``block_len``-blocks, as a plan.

    X is one point, so ``J = q[None]``, the memory is ``block_len + 1`` and
    the plan's y-marginal is the measure.
    """
    q = np.asarray(q, dtype=float)
    return FiniteMemoryPlan(q[None], q, p, block_len + 1)


def random_markov_measure(rng, d, block_len):
    """Random fully supported block chain (admissible transitions only)."""
    n_blocks = d**block_len
    weights = rng.uniform(0.1, 1.0, size=(n_blocks, d))
    weights = weights / weights.sum(axis=1)[:, None]
    return measure_plan(weights, stationary_vector(dense_chain(weights)), block_len)


def random_plan(rng, num_x, d, m):
    """Generic fully supported finite-memory plan."""
    raw = rng.uniform(0.1, 1.0, size=(num_x, d, d ** (m - 1))).transpose(0, 2, 1)
    jac = raw / raw.sum(axis=(0, 2))[None, :, None]  # [x, b, a]
    q_ab = jac.sum(axis=0)
    return FiniteMemoryPlan(jac, q_ab, stationary_vector(dense_chain(q_ab)), m)


def random_normalized_values(rng, num_x, d, m):
    """Random normalized cost values (weights sum to 1 at every block)."""
    n_blocks = d ** (m - 1)
    raw = rng.normal(size=(num_x, n_blocks, d))
    log_norms = np.log(np.exp(raw).sum(axis=(0, 2)))
    ct = raw - log_norms[None, :, None]
    idx = np.arange(d**m)
    values = np.empty((num_x, d**m))
    values[:, idx] = ct[:, idx // d, idx % d]
    return values


def copy_plan():
    """x copies the first symbol; uniform Bernoulli y-marginal (two symbols)."""
    nu = uniform_bernoulli_measure(2, 1)
    jac = np.zeros((2, 2, 2))
    for x in range(2):
        jac[x, :, x] = 0.5
    return FiniteMemoryPlan(jac, nu.q, nu.p, 2)


def two_atom_plan():
    """Two atoms: (x=0, 0101...) and (x=1, 1010...), each mass 1/2."""
    nu = periodic_orbit_measure((0, 1), 2, 1)
    jac = np.zeros((2, 2, 2))
    jac[0, 1, 0] = 1.0  # from block (1), prepend 0, first coordinate 0
    jac[1, 0, 1] = 1.0
    # placeholder columns on unsupported blocks would go here; both blocks
    # are supported for this orbit, so nothing to fill
    return FiniteMemoryPlan(jac, nu.q, nu.p, 2)


def scalar_entropy(weights):
    w = np.asarray(weights, float)
    w = w[w > 0]
    return float(-(w * np.log(w)).sum())


# -- dense oracles ----------------------------------------------------------

@dataclass(frozen=True)
class TransferMatrix:
    """Dense transfer weights on block states.

    ``matrix[b', b] = sum_x exp(c(x, a.b))`` for the unique symbol ``a``
    with ``succ(b, a) = b'`` (zero when no such symbol exists).  ``per_x``
    keeps the x-resolved weights for plan construction;
    ``matrix == per_x.sum(axis=0)``.
    """

    matrix: np.ndarray
    per_x: np.ndarray
    alphabet_size: int
    depth: int

    @property
    def size(self):
        return self.matrix.shape[0]


def assemble_transfer(cost):
    """Assemble the block-state transfer matrix of a finite-memory cost."""
    cost = lift_depth_one(cost)
    d = cost.alphabet_size
    n_blocks = block_count(cost)
    weights = np.exp(action_view(cost))
    succ = successor_table(d, n_blocks)
    per_x = np.zeros((cost.num_x, n_blocks, n_blocks))
    cols = np.arange(n_blocks)
    for a in range(d):
        per_x[:, succ[:, a], cols] = weights[:, :, a]
    return TransferMatrix(per_x.sum(axis=0), per_x, d, cost.depth)


@dataclass(frozen=True)
class PerronSolution:
    """Dominant eigendata of a transfer matrix.

    ``h`` is the positive eigenfunction of the operator (``M.T h = lam h``),
    gauge-fixed by ``min(h) = 1``.  ``left`` is the eigen-measure direction
    (``M left = lam left``), normalized to sum 1.
    """

    lam: float
    h: np.ndarray
    left: np.ndarray
    residual: float
    gap_estimate: float
    iterations: int


MAX_POWER_ITER = 10**6


def _power_iterate(op, size, tol, max_iter):
    """Collatz-Wielandt power iteration for a positivity-preserving map."""
    v = np.ones(size)
    gap = 0.0
    prev_diff = None
    for it in range(1, max_iter + 1):
        w = op(v)
        ratios = w / v
        lam = 0.5 * (ratios.min() + ratios.max())
        spread = ratios.max() - ratios.min()
        w_next = w / w.max()
        diff = np.abs(w_next - v / v.max()).max()
        # contraction ratios below the noise floor carry no information
        if prev_diff is not None and prev_diff > 1e-12 and diff > 1e-14:
            gap = diff / prev_diff
        prev_diff = diff
        v = w_next
        # Collatz-Wielandt: lam is bracketed by the ratio spread, and the
        # gauged residual must also clear tol before we stop.
        if spread <= tol * lam and np.abs(op(v) - lam * v).max() <= tol * lam * v.min():
            return lam, v, min(gap, 1.0), it
    raise ConvergenceError(
        f"power iteration did not converge (last spread {spread:.3e})",
        residual=spread / max(lam, 1e-300),
        iterations=max_iter,
    )


def perron_solve(transfer, tol=DEFAULT_EIGEN_TOL, max_iter=MAX_POWER_ITER):
    """Dominant eigenvalue, eigenfunction and eigen-measure by power iteration.

    Parameters
    ----------
    transfer : TransferMatrix or array_like
        Nonnegative primitive matrix in ``matrix[b', b]`` orientation.
    tol : float
        Relative residual tolerance on the eigen-equation.

    Returns
    -------
    PerronSolution
    """
    mat = transfer.matrix if isinstance(transfer, TransferMatrix) else np.asarray(transfer, float)
    size = mat.shape[0]
    lam, v, gap, it_h = _power_iterate(lambda u: mat.T @ u, size, tol, max_iter)
    _, w, _, it_l = _power_iterate(lambda u: mat @ u, size, tol, max_iter)
    h = v / v.min()
    left = w / w.sum()
    residual = float(np.abs(mat.T @ h - lam * h).max() / lam)
    if gap > 1.0 - 1e-8:
        warnings.warn(
            f"estimated subdominant ratio {gap:.12f} is close to 1; "
            "dominant eigendata may be ill-conditioned",
            RuntimeWarning,
            stacklevel=2,
        )
    return PerronSolution(float(lam), h, left, residual, float(gap), it_h + it_l)


def normalize_with_solution(cost, sol):
    """Normalize a cost against linear-domain Perron data from ``perron_solve``."""
    cost = lift_depth_one(cost)
    if sol.residual > 1e-8:
        raise SpecValidationError(
            f"eigendata residual {sol.residual:.3e} too large to normalize against"
        )
    return normalized_chain(cost, float(np.log(sol.lam)), np.log(sol.h))


def normalized_cost(cost, log_lambda, log_h):
    """``cbar = c + log h(succ) - log h - log lambda`` as a ``CostTensor``."""
    cost = lift_depth_one(cost)
    cbar = reduced_cost(action_view(cost), log_h, log_lambda)
    return CostTensor(cbar.reshape(cost.num_x, -1), cost.alphabet_size, cost.depth)


def normalized_chain(cost, log_lambda=0.0, log_h=None):
    """The Gibbs chain of ``cost`` normalized against ``(log_lambda, log_h)``, in two steps.

    The eigendata default to zero, for a cost that is normalized by
    construction.  ``cbar`` is flattened into a ``CostTensor``; its
    weights must sum to one over all (x, preimage) pairs at every block
    within ``1e-12 * max(1, |cbar|, |log_lambda|)``, else
    ``SpecValidationError``.  Then ``exp(cbar)`` is taken afresh for the
    Jacobian and the chain, and the stationary vector is solved as
    ``gibbs_chain`` solves it, with the log-GTH fallback.
    """
    cost = lift_depth_one(cost)
    n_blocks = block_count(cost)
    if log_h is None:
        log_h = np.zeros(n_blocks)
    cbar = normalized_cost(cost, log_lambda, log_h)
    ct = action_view(cbar)
    sums = np.exp(ct).sum(axis=(0, 2))
    tol = 1e-12 * max(1.0, float(np.abs(cbar.values).max()), abs(log_lambda))
    err = float(np.abs(sums - 1.0).max())
    if err > tol:
        raise SpecValidationError(f"normalization defect {err:.3e} exceeds tolerance {tol:.3e}")
    gibbs = np.exp(ct)
    jac = gibbs / gibbs.sum(axis=(0, 2))[None, :, None]
    weights = gibbs.sum(axis=0)
    weights = weights / weights.sum(axis=1)[:, None]
    succ = successor_table(cost.alphabet_size, n_blocks)
    try:
        p = transfer._stationary(weights, succ)
    except ConvergenceError:
        if n_blocks > transfer.DENSE_SOLVE_MAX:
            raise
        mx = ct.max(axis=0)
        log_w = mx + np.log(np.exp(ct - mx[None, :, :]).sum(axis=0))
        row_mx = log_w.max(axis=1)[:, None]
        log_w -= row_mx + np.log(np.exp(log_w - row_mx).sum(axis=1))[:, None]
        p = transfer._log_gth_stationary(log_w, succ)
    return GibbsChain(log_lambda, log_h, jac, weights, p)


def two_step_gibbs_chain(cost, tol=DEFAULT_EIGEN_TOL):
    """``gibbs_chain(cost, tol)`` as two steps: ``log_perron``, then ``normalized_chain``."""
    log_lam, u, _, _ = transfer.log_perron(lift_depth_one(cost), tol=tol)
    return normalized_chain(cost, log_lam, u)


def stationary_vector(q, tol=1e-12, refine_iter=10000):
    """Stationary vector of a column-stochastic matrix via a bordered solve."""
    n = q.shape[0]
    a = np.vstack([q - np.eye(n), np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    p, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    if np.abs(q @ p - p).max() > tol:
        for it in range(refine_iter):
            p_next = q @ p
            p_next = p_next / p_next.sum()
            if np.abs(p_next - p).max() <= 0.1 * tol:
                p = p_next
                break
            p = p_next
        if np.abs(q @ p - p).max() > tol:
            raise ConvergenceError(
                "stationary vector iteration did not converge",
                residual=float(np.abs(q @ p - p).max()),
                iterations=refine_iter,
            )
    return p


def scaled_dense_log_perron(cost):
    """Log-domain Perron data by a tropically preconditioned dense eigensolve.

    Conjugating by the exact calibrated subaction and subtracting the exact
    maximum cycle mean (both from ``maxplus_solve``) puts every weight in
    (0, 1], so the reduced matrix has its dominant eigenvalue in [1, #X*d]
    and ``np.linalg.eig`` is well conditioned however strongly the cost is
    scaled.  Returns ``(log lambda, log h)`` with ``log h`` gauged to
    ``min = 0``.
    """
    cost = lift_depth_one(cost)
    ct = action_view(cost)
    n_blocks = block_count(cost)
    succ = successor_table(cost.alphabet_size, n_blocks)
    sol = maxplus_solve(cost)
    v_cal, mean = sol.subaction, sol.m
    reduced = ct + v_cal[succ][None, :, :] - v_cal[None, :, None] - mean
    mat = np.zeros((n_blocks, n_blocks))
    mat[succ, np.arange(n_blocks)[:, None]] = np.exp(reduced).sum(axis=0)
    eigvals, eigvecs = np.linalg.eig(mat.T)
    i = int(np.argmax(eigvals.real))
    h_tilde = np.clip(np.abs(eigvecs[:, i].real), 1e-300, None)
    u = np.log(h_tilde) + v_cal
    return float(np.log(eigvals[i].real) + mean), u - u.min()


def bordered_triplet_matrix(weights, succ):
    """The sparse bordered chain matrix of ``transfer._bordered_solve``, from triplets.

    Off-diagonal chain entries off column 0, the GTH diagonal off column 0
    and ``-1`` down column 0, assembled by ``csc_matrix`` from
    ``(data, (rows, cols))``.
    """
    from scipy.sparse import csc_matrix

    n, d = weights.shape
    off = succ != np.arange(n)[:, None]
    escape = np.where(off, weights, 0.0)
    cols = succ.ravel()
    keep = off.ravel() & (cols != 0)
    rest = np.arange(1, n)
    rows = np.concatenate((np.repeat(np.arange(n), d)[keep], rest, np.arange(n)))
    cols = np.concatenate((cols[keep], rest, np.zeros(n, dtype=cols.dtype)))
    data = np.concatenate((escape.ravel()[keep], -escape.sum(axis=1)[1:], np.full(n, -1.0)))
    return csc_matrix((data, (rows, cols)), shape=(n, n))


def evaluate_cost(cost, x, word):
    """Evaluate ``c(x, y)`` on any word at least as long as the depth."""
    if len(word) < cost.depth:
        raise SpecValidationError(
            f"word of length {len(word)} shorter than cost depth {cost.depth}"
        )
    idx = encode_word(word[: cost.depth], cost.alphabet_size)
    return float(cost.values[x, idx])


@dataclass(frozen=True)
class PrimalLPResult:
    """Exact primal value and an optimal vertex of the depth-2 plan polytope."""

    value: float
    plan: np.ndarray


def primal_lp_oracle(cost, mu):
    """Maximize ``integral(c)`` over plans of the cost's depth with fixed x-marginal.

    Decision variables are cylinder masses ``q(x, w)``; constraints are
    shift consistency of the y-marginal and the x-marginal pin.  Depth-2
    costs are solved exactly by vertex enumeration (desk sizes only);
    deeper costs, beyond enumeration, by HiGHS (``highs_lp_oracle``).
    """
    cost = lift_depth_one(cost)
    if not isinstance(mu, Marginal):
        mu = Marginal(mu)
    if cost.depth > 2:
        return highs_lp_oracle(cost, mu)
    num_x, d = cost.num_x, cost.alphabet_size
    n_var = num_x * d * d
    if n_var > 32:
        raise SpecValidationError(f"instance size {n_var} exceeds the oracle cap of 32")

    a_rows = []
    b_vals = []
    for b in range(d):
        row = np.zeros(n_var)
        for x in range(num_x):
            for a in range(d):
                row[x * d * d + (a + d * b)] += 1.0   # mass of words (a, b)
                row[x * d * d + (b + d * a)] -= 1.0   # mass of words (b, a)
        a_rows.append(row)
        b_vals.append(0.0)
    for x in range(num_x):
        row = np.zeros(n_var)
        row[x * d * d:(x + 1) * d * d] = 1.0
        a_rows.append(row)
        b_vals.append(float(mu.weights[x]))
    a_eq = np.array(a_rows)
    b_eq = np.array(b_vals)
    rank = np.linalg.matrix_rank(a_eq, tol=1e-12)

    obj = cost.values.reshape(-1)
    best_value = None
    best_q = None
    for basis in combinations(range(n_var), rank):
        sub = a_eq[:, basis]
        if np.linalg.matrix_rank(sub, tol=1e-12) < rank:
            continue
        q_b, *_ = np.linalg.lstsq(sub, b_eq, rcond=None)
        if np.abs(sub @ q_b - b_eq).max() > 1e-10:
            continue
        if (q_b < -1e-10).any():
            continue
        q = np.zeros(n_var)
        q[list(basis)] = np.clip(q_b, 0.0, None)
        value = float(obj @ q)
        if best_value is None or value > best_value + 1e-15:
            best_value = value
            best_q = q
    if best_value is None:
        raise ConvergenceError("vertex enumeration found no feasible basis")
    return PrimalLPResult(best_value, best_q.reshape(num_x, d * d))


def highs_lp_oracle(cost, mu):
    """The LP of ``primal_lp_oracle`` at any depth, solved by HiGHS.

    The word ``a.b`` has index ``w = a + d*b``: its trailing block is
    ``w // d`` and its leading block ``w mod d**(m-1)``.  The masses of
    each block as trailing and as leading block agree.
    """
    from scipy.optimize import linprog

    num_x, n_blocks = cost.num_x, block_count(cost)
    words = np.arange(cost.values.shape[1])
    a_eq = np.zeros((n_blocks + num_x, num_x * cost.values.shape[1]))
    for x in range(num_x):
        cols = x * cost.values.shape[1] + words
        np.add.at(a_eq, (words // cost.alphabet_size, cols), 1.0)
        np.add.at(a_eq, (words % n_blocks, cols), -1.0)
        a_eq[n_blocks + x, cols] = 1.0
    b_eq = np.concatenate((np.zeros(n_blocks), mu.weights))
    lp = linprog(-cost.values.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if lp.status != 0:
        raise ConvergenceError(f"HiGHS found no optimal plan: {lp.message}")
    return PrimalLPResult(-float(lp.fun), lp.x.reshape(num_x, cost.values.shape[1]))


# -- cylinder tables by word-index arithmetic ------------------------------
# The word a.w has index idx = a + d*w, so a = idx % d and w = idx // d; the
# package reads the same tables as reshapes of (w, a) arrays.

def index_nu_cylinder_table(measure, length):
    """``nu([w])`` for every word of ``length``, one level at a time."""
    d, n_blocks, block_len = measure.alphabet_size, measure.n_blocks, measure.memory - 1
    if length == 0:
        return np.array([1.0])
    if length <= block_len:
        return measure.p.reshape(-1, d**length).sum(axis=0)
    table = measure.p
    for n in range(block_len + 1, length + 1):
        idx = np.arange(d**n)
        table = measure.q[(idx // d) % n_blocks, idx % d] * table[idx // d]
    return table


def index_plan_mass_table(plan, length):
    """``pi([x, w])`` for every word of ``length``; shorter than the memory, by sums."""
    d, m, n_blocks = plan.alphabet_size, plan.memory, plan.n_blocks
    if length >= m:
        tail = index_nu_cylinder_table(plan, length - 1)
        idx = np.arange(d**length)
        return plan.jacobian[:, (idx // d) % n_blocks, idx % d] * tail[idx // d][None, :]
    full = index_plan_mass_table(plan, m)
    return full.reshape(full.shape[0], -1, d**length).sum(axis=1)


def index_jacobian_n(plan, n):
    """``pi([x, y0..yn]) / nu([y1..yn])``, NaN over nu-null tails."""
    d = plan.alphabet_size
    masses = index_plan_mass_table(plan, n + 1)
    tails = index_nu_cylinder_table(plan, n)
    denom = tails[np.arange(d ** (n + 1)) // d]
    out = np.full(masses.shape, np.nan)
    ok = denom > 0.0
    out[:, ok] = masses[:, ok] / denom[ok][None, :]
    return out


def index_smoothed_log_jacobian(plan, eps, n):
    """The values of ``plans.smoothed_log_jacobian``, reassembled word by word."""
    d, num_x = plan.alphabet_size, plan.num_x
    masses = index_plan_mass_table(plan, n + 1).reshape(num_x, d**n, d)  # [x, tail, a]
    tails = index_nu_cylinder_table(plan, n)
    out = np.empty((num_x, d**n, d))
    for v in range(d**n):
        if tails[v] <= 0.0:
            out[:, v, :] = -np.log(num_x * d)
            continue
        ratios = masses[:, v, :] / tails[v]
        null = masses[:, v, :] == 0.0
        n_null = int(null.sum())
        if n_null:
            out[:, v, :][null] = np.log((num_x * d - n_null) * eps)
            out[:, v, :][~null] = np.log(ratios[~null] - n_null * eps)
        else:
            out[:, v, :] = np.log(ratios)
    values = np.empty((num_x, d ** (n + 1)))
    idx = np.arange(d ** (n + 1))
    values[:, idx] = out[:, idx // d, idx % d]
    return values


# -- block-chain kernels from fresh index arrays -----------------------------
# The eigensolver's kernels as they read before the package cached one index
# layout per (d, n): every call rebuilds ``succ``, the off-diagonal mask and
# the dense placement, and the sparse matrix comes from triplets.  The package
# must match them bit for bit.

def index_successor_table(alphabet_size, n_blocks):
    b = np.arange(n_blocks)[:, None]
    a = np.arange(alphabet_size)[None, :]
    return (a + alphabet_size * b) % n_blocks


def index_reduced_cost(ct, v, m):
    succ = index_successor_table(ct.shape[2], ct.shape[1])
    return ct + v[succ][None, :, :] - v[None, :, None] - np.reshape(m, (-1, 1, 1))


def _index_singular(reason, rhs):
    return ConvergenceError(f"bordered chain solve failed: {reason}",
                            residual=float(np.abs(rhs).max()))


def index_bordered_solve(weights, succ, rhs, transpose=False):
    """``transfer._bordered_solve`` with its matrix assembled afresh."""
    n = weights.shape[0]
    if n <= transfer.DENSE_SOLVE_MAX:
        escape = np.where(succ != np.arange(n)[:, None], weights, 0.0)
        mat = np.zeros((n, n))
        mat[np.arange(n)[:, None], succ] = escape
        mat[np.diag_indices(n)] = -escape.sum(axis=1)
        mat[:, 0] = -1.0
        try:
            x = np.linalg.solve(mat.T if transpose else mat, rhs)
        except np.linalg.LinAlgError as exc:
            raise _index_singular(exc, rhs) from exc
    else:
        from scipy.sparse.linalg import splu

        try:
            lu = splu(bordered_triplet_matrix(weights, succ))
        except RuntimeError as exc:
            raise _index_singular(exc, rhs) from exc
        x = lu.solve(rhs, trans="T" if transpose else "N")
    if not np.isfinite(x).all():
        raise _index_singular("non-finite solution", rhs)
    return x


def index_log_transfer_apply(ct, succ, u):
    t = ct + u[succ][None, :, :]
    mx = t.max(axis=(0, 2))
    return mx + np.log(np.exp(t - mx[None, :, None]).sum(axis=(0, 2)))


def index_log_chain(ct, succ, u):
    t = ct + u[succ][None, :, :]
    mx = t.max(axis=(0, 2))
    w = np.exp(t - mx[None, :, None]).sum(axis=0)
    s = w.sum(axis=1)
    return mx + np.log(s), w / s[:, None]


def _index_spread(ct, succ, u):
    diff = index_log_transfer_apply(ct, succ, u) - u
    return float(diff.max() - diff.min())


def _index_newton(ct, succ, u, target, reuse=0.0):
    """``transfer._newton`` without settling; ``reuse`` stands for ``REUSE_RATIO``.

    With ``reuse = 0`` no factorization is kept: one fresh solve per step.
    Otherwise each factorization is kept, as a SuperLU object of the
    triplet-built matrix, while steps cut the spread below ``reuse`` times
    where they started; a kept step that does not is undone.
    """
    from scipy.sparse.linalg import splu

    u = u - u[0]
    best = None
    extra = False
    lu = None
    for step in range(1, transfer.MAX_NEWTON + 1):
        lse, weights = index_log_chain(ct, succ, u)
        diff = lse - u
        spread = float(diff.max() - diff.min())
        log_lam = 0.5 * float(diff.max() + diff.min())
        if lu is not None and not spread < reuse * last[3]:
            if kept and not extra:
                u, weights, diff, spread, log_lam = last
            lu = None
        if not np.isfinite(spread):
            break
        if best is None or spread < best[2]:
            best = (log_lam, u, spread, step)
        if extra:
            break
        extra = best[2] <= target(best[0], best[1])
        kept = lu is not None
        rhs = log_lam - diff
        try:
            if kept:
                x = lu.solve(rhs)
                if not np.isfinite(x).all():
                    raise _index_singular("non-finite solution", rhs)
            else:
                x = index_bordered_solve(weights, succ, rhs)
                if reuse:
                    lu = splu(bordered_triplet_matrix(weights, succ))
        except ConvergenceError:
            if extra:
                break
            raise
        last = (u, weights, diff, spread, log_lam)
        u = u + x
        u[0] = 0.0
    if best is None:
        raise ConvergenceError("Newton eigensolve produced non-finite values",
                               iterations=transfer.MAX_NEWTON)
    return best


def _index_power_steps(ct, succ, u, steps, target, handover=None):
    spreads = []
    it = steps.start - 1
    window = transfer.SWITCH_WINDOW
    for it in steps:
        v = index_log_transfer_apply(ct, succ, u)
        diff = v - u
        spread = float(diff.max() - diff.min())
        log_lam = 0.5 * float(diff.max() + diff.min())
        u = v - v.min()
        goal = target(log_lam, v)
        if spread <= goal:
            return (log_lam, u, spread, it), u, it
        if handover is None:
            continue
        if spread <= handover:
            break
        spreads.append(spread)
        if len(spreads) > window:
            ratio = (spread / spreads[-1 - window]) ** (1.0 / window)
            aim = max(goal, handover)
            if ratio >= 1.0 or np.log(aim / spread) / np.log(ratio) > transfer.SWITCH_STEPS:
                break
    return None, u, it


def index_log_perron(cost, tol=DEFAULT_EIGEN_TOL):
    """``transfer.log_perron``'s 4-tuple on the kernels above (same stages).

    Above ``DENSE_SOLVE_MAX`` blocks the power steps hand over at
    ``HANDOVER_SPREAD`` and Newton keeps factorizations at ``REUSE_RATIO``.
    """
    cost = lift_depth_one(cost)
    ct = action_view(cost)
    n_blocks = block_count(cost)
    succ = index_successor_table(cost.alphabet_size, n_blocks)
    ct_scale = float(np.abs(ct).max())
    sparse = n_blocks > transfer.DENSE_SOLVE_MAX

    def target(log_lam, u):
        return max(tol, 4e-15 * max(1.0, ct_scale, float(np.abs(u).max()), abs(log_lam)))

    budget = range(1, transfer.POWER_STEP_BUDGET + 1)
    handover = transfer.HANDOVER_SPREAD if sparse else 0.0
    done, u, it = _index_power_steps(ct, succ, np.zeros(n_blocks), budget, target, handover)
    if done:
        return done
    if _index_spread(ct, succ, u) <= np.log(ct.shape[0] * ct.shape[2]):
        starts = [u, None]
    else:
        bias = howard_policy_iteration(ct.max(axis=0), succ, u)[1]
        starts = sorted((bias, u), key=lambda start: _index_spread(ct, succ, start))
    failure, best = None, None
    for start in starts:
        if start is None:
            start = howard_policy_iteration(ct.max(axis=0), succ, u)[1]
        try:
            result = _index_newton(ct, succ, start, target,
                                   transfer.REUSE_RATIO if sparse else 0.0)
        except ConvergenceError as exc:
            failure = exc
            continue
        log_lam, u_best, spread, steps = result
        scale = max(1.0, ct_scale, float(np.abs(u_best).max()), abs(log_lam))
        if spread <= max(tol, 3e-14 * scale):
            return log_lam, u_best - u_best.min(), spread, it + steps
        failure = ConvergenceError(
            f"log-domain eigensolve did not certify (residual spread {spread:.3e})",
            residual=spread, iterations=it + steps,
        )
        if best is None or spread < best[2]:
            best = result
    resume = u if best is None else best[1] - best[1].min()
    done, _, _ = _index_power_steps(ct, succ, resume, budget[it:], target)
    if done:
        return done
    raise failure


# -- definitional oracles ---------------------------------------------------
# Quantities the package never computes on a verb's path, each evaluated
# straight from its definition: the tests hold the package's results to them.

def legacy_triples(digits, masses):
    """The ``[x, word, mass]`` list that plan exports used to hand over."""
    words = digits.tolist()
    return [[x, word, mass] for x, row in enumerate(masses.tolist())
            for word, mass in zip(words, row)]


def encode_word(symbols, alphabet_size):
    """Canonical little-endian index of a word over {0, ..., d-1}."""
    index = 0
    for k, s in enumerate(symbols):
        s = int(s)
        if not 0 <= s < alphabet_size:
            raise SpecValidationError(
                f"symbol {s} at position {k} outside alphabet of size {alphabet_size}"
            )
        index += s * alphabet_size**k
    return index


def push(measure, dist):
    """A distribution over blocks one step on: ``sum_{succ[b, a] = b'} q[b, a] dist[b]``."""
    succ = successor_table(measure.alphabet_size, measure.n_blocks)
    return _push(measure.q, succ, np.asarray(dist, dtype=float))


def nu_cylinder(measure, word):
    """Mass of a single cylinder [w0 ... w_{n-1}]."""
    d = measure.alphabet_size
    n_blocks = measure.n_blocks
    block_len = measure.memory - 1
    n = len(word)
    idx = 0
    for k, s in enumerate(word):
        idx += int(s) * d**k
    if n <= block_len:
        step = d**n
        return float(measure.p.reshape(-1, step).sum(axis=0)[idx]) if n else 1.0
    mass = measure.p[(idx // d ** (n - block_len)) % n_blocks]
    for k in range(n - block_len):
        mass *= measure.q[(idx // d ** (k + 1)) % n_blocks, (idx // d**k) % d]
    return float(mass)


def markov_entropy_rate(measure):
    """Kolmogorov entropy of the block-Markov measure, in nats."""
    q = measure.q
    blocks, actions = np.nonzero(q > 0.0)
    mass = q[blocks, actions]
    # each block's terms are added in the order of its actions
    terms = np.bincount(blocks, mass * np.log(mass), minlength=q.shape[0])
    return float(-(terms * measure.p).sum())


def uniform_bernoulli_measure(alphabet_size, block_len=1):
    """Uniform Bernoulli measure as a block-Markov measure."""
    d = alphabet_size
    n_blocks = d**block_len
    q = np.full((n_blocks, d), 1.0 / d)
    p = np.full(n_blocks, 1.0 / n_blocks)
    return measure_plan(q, p, block_len)


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
    return measure_plan(q, p, block_len)


def product_plan(mu, nu):
    """Independent coupling of an x-marginal and an invariant y-marginal."""
    if not isinstance(mu, Marginal):
        mu = Marginal(mu)
    jac = mu.weights[:, None, None] * nu.q[None, :, :]
    return FiniteMemoryPlan(jac, nu.q, nu.p, nu.memory)


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
        head = (idx // d) % plan.n_blocks
        return float(plan.jacobian[x, head, idx % d] * nu_cylinder(plan, word[1:]))
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
    tails = nu_cylinder_table(plan, n)
    out = np.full(masses.shape, np.nan)
    ok = tails > 0.0
    out[:, ok] = masses[:, ok] / tails[ok][None, :, None]
    return out.reshape(num_x, -1)


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
    tails = nu_cylinder_table(plan, n)
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
    normalized_chain(tensor)  # checks that the weights sum to one
    return tensor


def marginal_y(plan):
    """The plan, once its y-marginal ``(q, p)`` is verified against cylinder sums."""
    level1 = plan_mass_table(plan, 1).sum(axis=0)
    direct = nu_cylinder_table(plan, 1)
    if np.abs(level1 - direct).max() > 1e-12:
        raise SpecValidationError(
            "stored y-marginal disagrees with plan cylinder sums"
        )
    if np.abs(push(plan, plan.p) - plan.p).max() > 1e-12:
        raise SpecValidationError("y-marginal stationarity residual above 1e-12")
    return plan


# -- the constrained certificate by a re-solve -------------------------------

def slackness_certificate(cost, phi, mu):
    """Residual triple certifying (or refuting) optimality of an x-potential.

    All three residuals vanish exactly when ``phi`` is the dual minimizer
    and the Gibbs plan of ``c - phi`` the constrained maximizer.  The
    eigenproblem of ``c - phi`` is solved afresh, apart from the solve
    that produced ``phi``.
    """
    cost = lift_depth_one(cost)
    if not isinstance(mu, Marginal):
        mu = Marginal(mu)
    phi = np.asarray(phi, dtype=float)
    chain = gibbs_chain(shift_cost(cost, -phi))
    log_lam = chain.log_lambda
    plan = gibbs_plan(chain, cost.depth)
    marg = marginal_x(plan)
    value = float((mu.weights * phi).sum())
    return {
        "pressure_residual": abs(log_lam),
        "marginal_residual": float(np.abs(marg - mu.weights).max()),
        "duality_gap": abs(value - (integrate_cost(plan, cost) + entropy(plan))),
    }


def adjugate(mat):
    """The adjugate matrix by cofactors."""
    n = mat.shape[0]
    adj = np.empty_like(mat)
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(mat, i, axis=0), j, axis=1)
            adj[j, i] = (-1.0) ** (i + j) * np.linalg.det(minor)
    return adj


def eigencurve_conditions(cost, phi, mu):
    """Two-point optimality conditions for #X = 2, depth-2 costs.

    With ``z_x = exp(-phi_x)``, the zero-pressure set is the algebraic
    curve ``det(z_1 W_1 + z_2 W_2 - I) = 0`` in the per-x weight matrices,
    and stationarity of the objective pins the curve normal to the
    direction ``(mu_1/z_1, mu_2/z_2)``.  Returns both residuals (the
    collinearity one on unit vectors).
    """
    cost = lift_depth_one(cost)
    if cost.num_x != 2 or cost.depth != 2:
        raise SpecValidationError(
            "curve conditions require #X = 2 and depth <= 2"
        )
    if not isinstance(mu, Marginal):
        mu = Marginal(mu)
    phi = np.asarray(phi, dtype=float)
    z = np.exp(-phi)
    view = action_view(cost)  # [x, b, a]
    w1 = np.exp(view[0]).T  # matrix[a, b]
    w2 = np.exp(view[1]).T
    b_mat = z[0] * w1 + z[1] * w2 - np.eye(cost.alphabet_size)
    det_residual = abs(float(np.linalg.det(b_mat)))
    adj = adjugate(b_mat)
    normal = np.array([np.trace(adj @ w1), np.trace(adj @ w2)])
    direction = np.array([mu.weights[0] / z[0], mu.weights[1] / z[1]])
    n_hat = normal / np.linalg.norm(normal)
    d_hat = direction / np.linalg.norm(direction)
    collinearity_residual = abs(float(n_hat[0] * d_hat[1] - n_hat[1] * d_hat[0]))
    return {
        "det_residual": det_residual,
        "collinearity_residual": collinearity_residual,
    }
