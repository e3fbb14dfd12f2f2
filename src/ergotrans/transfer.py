"""Transfer operator on block states, dominant eigendata, pressure, Gibbs measure.

A depth-m cost is handled as an order-1 chain on the alphabet of
(m-1)-blocks.  For a block ``b`` (the first m-1 symbols of y) and a
prepended symbol ``a``, the full word is ``a.b`` with canonical index
``a + d*b`` and its own leading block is ``succ(b, a) = (a + d*b) mod d**(m-1)``.

The operator acting on functions of blocks is

    (L u)(b) = sum_x sum_a exp(c(x, a.b)) * u(succ(b, a)).

Everything works in the action layout ``ct[x, b, a] = c(x, a.b)`` with the
``succ`` table; the operator is only ever applied in log domain,

    T(u)(b) = LSE_{x,a} [ c(x, a.b) + u(succ(b, a)) ],

and its dominant eigendata solve ``T(u) = u + log lambda``.  Linear algebra
runs on the block chain ``P[b, succ(b, a)]`` that ``T`` induces at ``u``:
a dense solve for small chains, a sparse LU above ``DENSE_SOLVE_MAX``
blocks, whose factors Newton keeps from step to step while its steps cut
the spread fast (``_newton``).  ``succ`` and every index array that
places the chain in either matrix depend on ``(d, n)`` alone: one
read-only layout is built per ``(d, n)`` and cached (``_layout``).  One
``gibbs_chain`` call gives a cost's right eigendata (``log lambda``,
``log h``), the normalized cost's Jacobian and chain, and the chain's
stationary vector, its left eigendata; that vector and the chain's Poisson
equation (``poisson_solve``) are solves with the same bordered matrix.
Every chain uses the same action layout, ``weights[b, a] = P(b -> succ(b,
a))``, stored as ``n x d``; the plan that ``plans.gibbs_plan`` builds from
a ``gibbs_chain`` result keeps it as the y-marginal's ``q``.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from ._tropical import howard_policy_iteration
from .errors import ConvergenceError
from .symbolic import lift_depth

__all__ = [
    "effective_cost",
    "block_count",
    "action_view",
    "successor_table",
    "reduced_cost",
    "GibbsChain",
    "gibbs_chain",
    "poisson_solve",
]

DEFAULT_EIGEN_TOL = 1e-13
# Bordered chain solves up to this many blocks use dense LAPACK; above it a
# sparse LU.  On a 2-core Intel Xeon a dense solve of a beta-1 chain takes
# 0.06 ms at 64 blocks and 0.24 ms at 128, a sparse factorization and solve
# 0.24 and 0.38 ms; at 256 blocks the dense solve takes 1.5 ms, the sparse
# one 0.7 (d = 2) to 1.6 ms (d = 4), and a solve with kept sparse factors
# 0.02-0.04 ms at any of these sizes.  The dense side needs no scipy import,
# and moving the crossover would change the bits of the dense path.
DENSE_SOLVE_MAX = 128
# The gufuncs behind ``np.linalg.solve``: called directly they give the same
# bits without the wrapper's type checks, a few microseconds per small solve.
_DENSE_SOLVE = getattr(np.linalg, "_umath_linalg", None)
# Power steps stop once their contraction ratio, measured over the last
# SWITCH_WINDOW steps, projects more than SWITCH_STEPS further steps to
# certify; a warm-started Newton solve costs about that many power steps.
SWITCH_WINDOW = 3
SWITCH_STEPS = 40
# Above DENSE_SOLVE_MAX blocks the first power steps aim at this spread,
# not at certification, and hand over to Newton once they reach it.  It is
# below log 2 <= log(#X*d), so Howard does not run after a handover.  On
# the 94 sparse eigensolves of one spectral-ladder and one dual-batch pass
# (seed 5), Newton factored 10 and 140 times at 0.1, 18 and 208 at 1, and
# 14 and 142 at 0.01, the last 10 % slower on the dual-batch solves.
HANDOVER_SPREAD = 0.1
# A sparse Newton step keeps its factors for the next step after a step
# that cut the spread below this fraction of where it started (20-fold).
# On the same eigensolves a 100-fold test took 22 and 180 factorizations
# and 1.3x the time; a 5-fold one took 8 and 110 in about the same time.
REUSE_RATIO = 0.05
# Newton on a nearly reducible chain can spend dozens of steps with a
# settled gain and a non-monotone spread while it moves the offsets between
# weakly coupled classes by about one unit per step; some strongly scaled
# d=3 costs shifted by a dual potential need 70-115.
MAX_NEWTON = 120
# Power steps per eigensolve, before Newton and after a failed Newton.
POWER_STEP_BUDGET = 400
# Power steps after each Newton step of the last retry.  Two almost tied
# classes, coupled far below float resolution, leave Newton moving their
# offset by one unit per step while the transient blocks that feed both
# classes fall out of balance; power steps settle those blocks in between.
SETTLE_STEPS = 3
# The block sums of exp(cbar) must be within this much of 1, relative to the
# magnitude of cbar and log lambda; the stationary vector of the normalized
# chain must be stationary to this much.
NORMALIZATION_TOL = 1e-12
STATIONARY_TOL = 1e-12


def effective_cost(cost):
    """Lift depth-1 costs to depth 2 so every solver sees a block chain."""
    return lift_depth(cost, 2) if cost.depth == 1 else cost


def block_count(cost):
    """Number of block states d**(m-1) for an effective (depth >= 2) cost."""
    return cost.alphabet_size ** (cost.depth - 1)


def action_view(cost):
    """Reshape the flat values to ``ct[x, b, a] = c(x, a.b)``.

    Works because the canonical index of ``a.b`` is ``a + d*b``, which is
    exactly the C-order flattening of axes (b, a).
    """
    d = cost.alphabet_size
    n_blocks = block_count(cost)
    return cost.values.reshape(cost.num_x, n_blocks, d)


class _Layout(NamedTuple):
    """Index arrays of one block chain, described at ``_layout``."""

    succ: np.ndarray
    off: np.ndarray
    chain_at: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    source: np.ndarray


@functools.lru_cache(maxsize=32)
def _layout(alphabet_size, n_blocks):
    """The read-only index arrays of the block chain on ``d`` symbols and ``n`` blocks.

    Built once per ``(d, n)`` and shared by every solve on that chain:

    * ``succ[b, a]``, the leading block of the word ``a.b``;
    * ``off``, the entries with ``succ[b, a] != b``;
    * ``chain_at[b, a] = n*b + succ[b, a]``, the flat index of the chain
      entry ``P[b, succ[b, a]]`` in a C-order ``n x n`` array;
    * ``(indptr, indices, source)``, the CSC pattern of the sparse bordered
      matrix: slot ``k`` of its data holds entry ``source[k]`` of
      ``[escape.ravel(), diagonal, -1]``, where the diagonal is minus the
      row sums of ``escape``.  The triplets are the off-diagonal chain
      entries off column 0, the diagonal off column 0 and ``-1`` down
      column 0; no two share a slot, and each column holds its rows in
      ascending order, as a triplet build would sort them.
    """
    n, d = n_blocks, alphabet_size
    blocks = np.arange(n)
    succ = (np.arange(d)[None, :] + d * blocks[:, None]) % n
    off = succ != blocks[:, None]
    chain_at = n * blocks[:, None] + succ
    cols = succ.ravel()
    keep = off.ravel() & (cols != 0)
    rest = blocks[1:]
    rows = np.concatenate((np.repeat(blocks, d)[keep], rest, blocks))
    cols = np.concatenate((cols[keep], rest, np.zeros(n, dtype=cols.dtype)))
    source = np.concatenate((np.flatnonzero(keep), n * d + rest, np.full(n, n * d + n)))
    order = np.lexsort((rows, cols))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n))))
    layout = _Layout(succ, off, chain_at, indptr.astype(np.intc),
                     rows[order].astype(np.intc), source[order])
    for arr in layout:
        arr.setflags(write=False)
    return layout


def successor_table(alphabet_size, n_blocks):
    """``succ[b, a]``: leading block of the word ``a.b`` (read-only, shared)."""
    return _layout(alphabet_size, n_blocks).succ


def reduced_cost(ct, v, m):
    """``ct[x, b, a] + v(succ(b, a)) - v(b) - m``, with ``m`` a scalar or one value per x."""
    succ = successor_table(ct.shape[2], ct.shape[1])
    return ct + v[succ][None, :, :] - v[None, :, None] - np.reshape(m, (-1, 1, 1))


def _bordered_solve(weights, rhs, transpose=False, lu=None):
    """Solve ``B x = rhs`` (or ``B^T x = rhs``) for the bordered chain matrix.

    ``B = P - I`` with column 0 replaced by ``-1``, where the row-stochastic
    chain is ``P[b, succ[b, a]] = weights[b, a]`` on
    ``successor_table(d, n)``.  ``B`` is nonsingular exactly when ``P`` has
    a single recurrent class.  The diagonal of ``P - I`` is taken as minus
    the row's off-diagonal sum, as in the Grassmann-Taksar-Heyman method:
    ``P[b, b] - 1`` would cancel to 0 on a nearly reducible chain and lose
    the small escape probabilities that decide its stationary vector.  Up
    to ``DENSE_SOLVE_MAX`` blocks LAPACK solves the dense matrix; above it
    ``_sparse_lu`` factors it, or ``lu``, a factorization that
    ``_sparse_lu`` made of an earlier chain on the same blocks, stands in
    for ``B``.  Both place the values through the index arrays of
    ``_layout(d, n)``, which depend only on ``(d, n)``; the sparse path
    builds no ``n x n`` array.  A singular matrix raises
    ``ConvergenceError`` with the residual of the unsolved system,
    ``max |rhs|``.
    """
    n, d = weights.shape
    if lu is None and n <= DENSE_SOLVE_MAX:
        layout = _layout(d, n)
        escape = np.where(layout.off, weights, 0.0)
        mat = np.zeros((n, n))
        flat = mat.reshape(-1)
        flat[layout.chain_at] = escape
        flat[::n + 1] = -escape.sum(axis=1)
        mat[:, 0] = -1.0
        try:
            x = _dense_solve(mat.T if transpose else mat, rhs)
        except (np.linalg.LinAlgError, FloatingPointError) as exc:
            raise _singular("Singular matrix", rhs) from exc
    else:
        if lu is None:
            lu = _sparse_lu(weights, rhs)
        x = lu.solve(rhs, trans="T" if transpose else "N")
    if not np.isfinite(x).all():
        raise _singular("non-finite solution", rhs)
    return x


def _sparse_lu(weights, rhs):
    """SuperLU factorization of the bordered matrix of ``_bordered_solve``.

    The values go into the CSC pattern of ``_layout(d, n)``.  A singular
    matrix raises ``ConvergenceError`` with the residual ``max |rhs|`` of
    the system it was factored for.
    """
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    n, d = weights.shape
    layout = _layout(d, n)
    escape = np.where(layout.off, weights, 0.0)
    values = np.empty(n * d + n + 1)
    values[:n * d] = escape.ravel()
    values[n * d:-1] = -escape.sum(axis=1)
    values[-1] = -1.0
    try:
        return splu(csc_matrix((values[layout.source], layout.indices, layout.indptr),
                               shape=(n, n)))
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise _singular(exc, rhs) from exc


@np.errstate(all="ignore", invalid="raise")
def _dense_solve(mat, rhs):
    """``np.linalg.solve(mat, rhs)`` through its gufunc when numpy has it.

    The gufunc flags a singular matrix as an invalid operation, so under
    this error state it raises ``FloatingPointError``; the wrapper raises
    ``LinAlgError``.
    """
    gufunc = getattr(_DENSE_SOLVE, "solve1" if rhs.ndim == 1 else "solve", None)
    if gufunc is None:
        return np.linalg.solve(mat, rhs)
    return gufunc(mat, rhs, signature="dd->d")


def _singular(reason, rhs):
    return ConvergenceError(f"bordered chain solve failed: {reason}",
                            residual=float(np.abs(rhs).max()))


def _log_transfer_apply(ct, succ, u):
    """One log-domain application of the operator: LSE over (x, a)."""
    t = ct + u[succ][None, :, :]
    mx = t.max(axis=(0, 2))
    return mx + np.log(np.exp(t - mx[None, :, None]).sum(axis=(0, 2)))


def _spread(ct, succ, u):
    """Spread of ``T(u) - u``: it brackets ``log lambda`` (Collatz-Wielandt)."""
    diff = _log_transfer_apply(ct, succ, u) - u
    return float(diff.max() - diff.min())


def _log_chain(ct, succ, u):
    """``T(u) = LSE_{x,a}(c + u[succ])`` and the chain ``P[b, a]`` it weights."""
    t = ct + u[succ][None, :, :]
    mx = t.max(axis=(0, 2))
    w = np.exp(t - mx[None, :, None]).sum(axis=0)
    s = w.sum(axis=1)
    return mx + np.log(s), w / s[:, None]


def _newton(ct, succ, u, target, settle=0):
    """Newton on ``G(u, l) = T(u) - u - l`` gauged by ``u(0) = 0``.

    Each step solves the bordered system with the chain of the current
    iterate; ``T`` is convex, so after the first step the gain ``l``
    rises monotonically, as in policy iteration.  ``settle`` power steps
    follow each Newton step.  Runs one step past the first iterate whose
    spread is within ``target(log_lam, u)`` and returns the best
    ``(log_lam, u, spread, steps)`` seen, ``steps`` counting Newton steps.

    Above ``DENSE_SOLVE_MAX`` blocks and without settling, Newton keeps its
    sparse factorization (the chord method): after a step that cut the
    spread by more than ``1 / REUSE_RATIO``, the next step solves with the
    kept factors, one pair of triangular solves, instead of factoring the
    new chain.  A kept step that does not cut the spread that much is
    undone, and Newton factors the chain of the iterate it left from.  So
    until a kept step is accepted the iterates are those of a fresh
    factorization per step.  The step past the target is the exception:
    it is the last, so its iterate counts like any other.
    """
    keep = not settle and succ.shape[0] > DENSE_SOLVE_MAX
    u = u - u[0]
    best = None
    extra = kept = False
    lu = None
    for step in range(1, MAX_NEWTON + 1):
        lse, weights = _log_chain(ct, succ, u)
        diff = lse - u
        hi, lo = diff.max(), diff.min()
        spread = float(hi - lo)
        log_lam = 0.5 * float(hi + lo)
        if lu is not None and not spread < REUSE_RATIO * last[3]:
            if kept and not extra:  # undo the step and factor where it left from
                u, weights, diff, spread, log_lam = last
            lu = None
        if not np.isfinite(spread):
            break
        if best is None or spread < best[2]:
            best = (log_lam, u, spread, step)
            reached = spread <= target(log_lam, u)
        if extra:
            break
        extra = reached
        kept = lu is not None
        rhs = log_lam - diff
        try:
            if keep and not kept:
                lu = _sparse_lu(weights, rhs)
            x = _bordered_solve(weights, rhs, lu=lu)
        except ConvergenceError:
            if extra:  # a chain that is reducible in floats can still certify
                break
            raise
        if keep:
            last = (u, weights, diff, spread, log_lam)
        u = u + x
        u[0] = 0.0
        for _ in range(settle):
            u = _log_transfer_apply(ct, succ, u)
            u -= u[0]
    if best is None:
        raise ConvergenceError("Newton eigensolve produced non-finite values",
                               iterations=MAX_NEWTON)
    return best


def _power_steps(ct, succ, u, steps, target, handover=None):
    """LSE power steps numbered ``steps`` from ``u``.

    Returns ``(result, u, it)``: ``result`` is the certified 4-tuple of
    ``log_perron`` or None, ``u`` the last iterate (gauged ``min = 0``) and
    ``it`` the last step number.  With a ``handover`` spread the steps stop
    early, uncertified, once the spread is within it or the contraction
    measured over ``SWITCH_WINDOW`` steps projects more than
    ``SWITCH_STEPS`` further steps to reach ``max(target, handover)``.
    """
    spreads = []
    it = steps.start - 1
    for it in steps:
        v = _log_transfer_apply(ct, succ, u)
        diff = v - u
        hi, lo = diff.max(), diff.min()
        spread = float(hi - lo)
        log_lam = 0.5 * float(hi + lo)
        u = v - v.min()
        goal = target(log_lam, v)
        if spread <= goal:
            return (log_lam, u, spread, it), u, it
        if handover is None:
            continue
        if spread <= handover:
            break
        spreads.append(spread)
        if len(spreads) > SWITCH_WINDOW:
            ratio = (spread / spreads[-1 - SWITCH_WINDOW]) ** (1.0 / SWITCH_WINDOW)
            aim = max(goal, handover)
            if ratio >= 1.0 or np.log(aim / spread) / np.log(ratio) > SWITCH_STEPS:
                break
    return None, u, it


def log_perron(cost, tol=DEFAULT_EIGEN_TOL):
    """Log-domain dominant eigendata: (log lambda, log h, residual, iterations).

    Never exponentiates the cost globally, so arbitrarily scaled costs
    (large inverse temperatures) are safe.  ``log h`` is gauged to
    ``min = 0`` and the residual is the certified spread of
    ``T(log h) - log h``, which brackets ``log lambda``.  Three stages:

    1. log-sum-exp power steps while their measured contraction projects
       certification within ``SWITCH_STEPS`` further steps (at most
       ``POWER_STEP_BUDGET``); above ``DENSE_SOLVE_MAX`` blocks they aim
       at the spread ``HANDOVER_SPREAD`` instead and hand over to Newton
       once they reach it;
    2. float max-plus policy iteration on ``max_x c`` (Howard), whose bias
       warm-starts Newton unless the power iterate is already the better
       start; a power iterate within ``log(#X*d) >= log 2`` is tried first,
       so Howard does not run after a handover;
    3. Newton on the log eigen-equation, one bordered chain solve per step,
       retried from the other start if it fails.  Above
       ``DENSE_SOLVE_MAX`` blocks it keeps its sparse factors while they
       cut the spread by more than ``1 / REUSE_RATIO`` per step.

    If Newton fails from both starts (a singular bordered matrix, or a
    stall on a nearly reducible chain), the rest of the
    ``POWER_STEP_BUDGET`` power steps run from the best Newton iterate,
    and if they fail too, Newton runs once more from each start with
    ``SETTLE_STEPS`` power steps after each step, and a fresh factorization
    for each, before ``ConvergenceError`` is raised.  ``iterations`` counts
    power steps plus Newton steps, undone ones included.
    """
    cost = effective_cost(cost)
    ct = action_view(cost)
    n_blocks = block_count(cost)
    succ = successor_table(cost.alphabet_size, n_blocks)
    ct_scale = float(np.abs(ct).max())

    def target(log_lam, u):
        # spreads below the float resolution of the quantities involved are
        # unreachable; the tolerance scales with their magnitude
        return max(tol, 4e-15 * max(1.0, ct_scale, float(np.abs(u).max()), abs(log_lam)))

    budget = range(1, POWER_STEP_BUDGET + 1)
    handover = HANDOVER_SPREAD if n_blocks > DENSE_SOLVE_MAX else 0.0
    done, u, it = _power_steps(ct, succ, np.zeros(n_blocks), budget, target, handover)
    if done:
        return done

    # An LSE of #X*d terms exceeds their max by at most log(#X*d), so that
    # bounds the spread of the Howard bias: a power iterate within it is
    # tried first and Howard runs only if Newton fails from there.
    # Otherwise the start with the smaller spread goes first.
    if _spread(ct, succ, u) <= np.log(ct.shape[0] * ct.shape[2]):
        starts = [u, None]
    else:
        bias = howard_policy_iteration(ct.max(axis=0), succ, u)[1]
        starts = sorted((bias, u), key=lambda start: _spread(ct, succ, start))
    failure, best = None, None
    for settle in (0, SETTLE_STEPS):
        for start in starts:
            if start is None:
                start = howard_policy_iteration(ct.max(axis=0), succ, u)[1]
            try:
                result = _newton(ct, succ, start, target, settle)
            except ConvergenceError as exc:
                failure = exc
                continue
            log_lam, u_best, spread, steps = result
            steps *= 1 + settle
            scale = max(1.0, ct_scale, float(np.abs(u_best).max()), abs(log_lam))
            if spread <= max(tol, 3e-14 * scale):
                return log_lam, u_best - u_best.min(), spread, it + steps
            failure = ConvergenceError(
                f"log-domain eigensolve did not certify (residual spread {spread:.3e})",
                residual=spread, iterations=it + steps,
            )
            if best is None or spread < best[2]:
                best = result
        if settle:
            break
        # On a nearly reducible chain Newton can stall with a tiny spread
        # while weakly coupled blocks sit units away from their values,
        # where its solves are ill-conditioned; power steps settle those
        # blocks.  The rest of the power-step budget runs from the best
        # Newton iterate, or from the power iterate if no Newton solve
        # succeeded.
        resume = u if best is None else best[1] - best[1].min()
        done, _, _ = _power_steps(ct, succ, resume, budget[it:], target)
        if done:
            return done
    raise failure


def _push(weights, succ, p):
    """One step of a distribution: ``(P^T p)[b'] = sum_{succ[b, a] = b'} weights[b, a] p[b]``."""
    return np.bincount(succ.ravel(), (weights * p[:, None]).ravel(), minlength=p.size)


def _stationary(weights, succ):
    """Stationary vector of the row-stochastic chain ``P[b, succ[b, a]] = weights[b, a]``.

    ``B^T p = -e_0`` for the bordered matrix of ``_bordered_solve`` says
    ``(P^T p)_j = p_j`` for ``j != 0`` and ``sum(p) = 1``; the remaining
    equation follows because ``P`` is stochastic, so the solve is exact.
    The result passes ``_checked_stationary``.
    """
    n = weights.shape[0]
    rhs = np.zeros(n)
    rhs[0] = -1.0
    p = np.clip(_bordered_solve(weights, rhs, transpose=True), 0.0, None)
    return _checked_stationary(weights, succ, p / p.sum())


def _checked_stationary(weights, succ, p):
    """``p``, once its stationarity residual is within ``STATIONARY_TOL``.

    A larger (or NaN) residual raises ``ConvergenceError`` carrying it.
    """
    residual = float(np.abs(_push(weights, succ, p) - p).max())
    if not residual <= STATIONARY_TOL:
        raise ConvergenceError(
            f"stationary vector residual {residual:.3e} exceeds {STATIONARY_TOL:.0e}",
            residual=residual,
        )
    return p


def _log_gth_stationary(log_w, succ):
    """Stationary vector by Grassmann-Taksar-Heyman state reduction in log domain.

    ``log_w[b, a]`` is the log of ``P[b, succ[b, a]]``.  Every step adds
    positive terms, so escape probabilities far below the float range
    (which make the bordered matrix exactly singular) still decide the
    result.  Dense and ``O(n^3)``: the fallback for small chains only.
    """
    n = log_w.shape[0]
    logp_chain = np.full((n, n), -np.inf)
    logp_chain[np.arange(n)[:, None], succ] = log_w
    np.fill_diagonal(logp_chain, -np.inf)
    escape = np.empty(n)
    for k in range(n - 1, 0, -1):
        escape[k] = np.logaddexp.reduce(logp_chain[k, :k])
        through_k = logp_chain[:k, k][:, None] + (logp_chain[k, :k] - escape[k])[None, :]
        logp_chain[:k, :k] = np.logaddexp(logp_chain[:k, :k], through_k)
    logp = np.zeros(n)
    for k in range(1, n):
        logp[k] = np.logaddexp.reduce(logp[:k] + logp_chain[:k, k]) - escape[k]
    return np.exp(logp - np.logaddexp.reduce(logp))


class GibbsChain(NamedTuple):
    """One normalization of a cost and its Gibbs chain, described at ``gibbs_chain``."""

    log_lambda: float
    log_h: np.ndarray
    jac: np.ndarray
    weights: np.ndarray
    p: np.ndarray


def gibbs_chain(cost, tol=DEFAULT_EIGEN_TOL):
    """Right and left eigendata of a cost: ``(log_lambda, log_h, jac, weights, p)``.

    One ``log_perron`` gives ``log lambda`` and ``log h``, and with them the
    normalized cost ``cbar(x, a.b) = c(x, a.b) + log h(succ(b, a)) - log
    h(b) - log lambda``, exponentiated once.  Its block sums must be 1
    within ``NORMALIZATION_TOL * max(1, |cbar|, |log lambda|)``, or the
    eigensolve missed the normalization and ``ConvergenceError`` carries
    the defect.  The Gibbs plan's Jacobian ``jac[x, b, a] = exp(cbar(x,
    a.b))`` and the row-stochastic chain ``P[b, succ[b, a]] = weights[b, a]
    = sum_x exp(cbar(x, a.b))`` are each renormalized against the
    eigendata's roundoff, and ``p`` is the chain's stationary vector.  A
    chain that is reducible in floats (escape probabilities that
    underflow) makes the bordered solve singular; up to ``DENSE_SOLVE_MAX``
    blocks the log-domain GTH reduction then gives ``p``, above it the
    failure stands.  Either vector must be stationary within
    ``STATIONARY_TOL``; a fallback vector that is not raises
    ``ConvergenceError``.
    """
    cost = effective_cost(cost)
    n_blocks = block_count(cost)
    log_lam, log_h, _, _ = log_perron(cost, tol=tol)
    ct = reduced_cost(action_view(cost), log_h, log_lam)
    gibbs = np.exp(ct)
    sums = gibbs.sum(axis=(0, 2))
    defect = float(np.abs(sums - 1.0).max())
    bound = NORMALIZATION_TOL * max(1.0, float(np.abs(ct).max()), abs(log_lam))
    if not defect <= bound:
        raise ConvergenceError(
            f"normalization defect {defect:.3e} exceeds tolerance {bound:.3e}",
            residual=defect,
        )
    jac = gibbs / sums[None, :, None]
    weights = gibbs.sum(axis=0)
    weights = weights / weights.sum(axis=1)[:, None]
    succ = successor_table(cost.alphabet_size, n_blocks)
    try:
        p = _stationary(weights, succ)
    except ConvergenceError:
        if n_blocks > DENSE_SOLVE_MAX:
            raise
        mx = ct.max(axis=0)
        log_w = mx + np.log(np.exp(ct - mx[None, :, :]).sum(axis=0))
        row_mx = log_w.max(axis=1)[:, None]
        log_w -= row_mx + np.log(np.exp(log_w - row_mx).sum(axis=1))[:, None]
        p = _checked_stationary(weights, succ, _log_gth_stationary(log_w, succ))
    return GibbsChain(log_lam, log_h, jac, weights, p)


def poisson_solve(weights, rhs):
    """Solve the Poisson equation ``(I - P) h = rhs`` gauged by ``h(0) = 0``.

    ``P[b, succ[b, a]] = weights[b, a]``; each column of ``rhs`` must have
    zero mean under the stationary vector.  One bordered solve serves all
    columns.
    """
    h = _bordered_solve(weights, -rhs)
    h[0] = 0.0
    return h

