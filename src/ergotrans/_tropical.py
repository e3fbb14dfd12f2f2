"""Max-plus primitives on raw block-transition data.

``karp_cycle_mean`` and ``calibrated_subaction`` run in Fraction space:
double-precision floats are dyadic rationals, so sums, differences and means
of weights are exact and the computed maximum cycle mean is the true maximum
over the float inputs, bit for bit.  ``zerotemp.maxplus_solve`` runs both
once per cost.  ``howard_policy_iteration`` is the float counterpart
(Howard's policy iteration, Cochet-Terrasson, Cohen, Gaubert, McGettrick &
Quadrat, IFAC 1998): a few ``O(n*d)`` sweeps whose bias vector warm-starts
the log-domain eigensolver at any inverse temperature.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError


def karp_cycle_mean(weights, succ):
    """Maximum cycle mean and one critical cycle, exactly.

    Parameters
    ----------
    weights : (n, d) array
        Edge weight from state ``b`` under symbol ``a``.
    succ : (n, d) int array
        Successor state of ``b`` under ``a``.

    Returns
    -------
    (Fraction, list[int])
        The maximum cycle mean and a cycle attaining it (rotated to start
        at its smallest state).
    """
    n, d = weights.shape
    w_frac = [[Fraction(float(weights[b, a])) for a in range(d)] for b in range(n)]

    dist = [[None] * n for _ in range(n + 1)]
    parent = [[None] * n for _ in range(n + 1)]
    dist[0][0] = Fraction(0)
    for k in range(1, n + 1):
        row, prow, prev = dist[k], parent[k], dist[k - 1]
        for b in range(n):
            base = prev[b]
            if base is None:
                continue
            for a in range(d):
                t = int(succ[b, a])
                cand = base + w_frac[b][a]
                if row[t] is None or cand > row[t]:
                    row[t] = cand
                    prow[t] = b
    best = None
    best_v = None
    for v in range(n):
        if dist[n][v] is None:
            continue
        inner = None
        for k in range(n):
            if dist[k][v] is None:
                continue
            mean = (dist[n][v] - dist[k][v]) / (n - k)
            if inner is None or mean < inner:
                inner = mean
        if inner is not None and (best is None or inner > best):
            best, best_v = inner, v
    if best is None:
        raise ConvergenceError("cycle-mean search found no closed walk", iterations=n)

    # any cycle on the optimal n-edge walk to the maximizing vertex is critical
    walk = [best_v]
    for k in range(n, 0, -1):
        walk.append(parent[k][walk[-1]])
    walk.reverse()
    seen = {}
    cycle = None
    for pos, v in enumerate(walk):
        if v in seen:
            cycle = walk[seen[v]:pos]
            break
        seen[v] = pos
    rotate = cycle.index(min(cycle))
    cycle = cycle[rotate:] + cycle[:rotate]
    return best, cycle


def calibrated_subaction(weights, succ, mean_frac, cycle):
    """Exact fixed point of the reduced Bellman operator, gauged max 0.

    Longest-walk values toward a vertex of the critical cycle; stabilizes
    within the iteration cap exactly when no reduced cycle is positive,
    i.e. when ``mean_frac`` is the true maximum cycle mean.
    """
    n, d = weights.shape
    red = [[Fraction(float(weights[b, a])) - mean_frac for a in range(d)]
           for b in range(n)]
    target = cycle[0]
    values = [None] * n
    values[target] = Fraction(0)
    cap = 2 * n + 4
    for _ in range(cap):
        changed = False
        new = list(values)
        for b in range(n):
            best = Fraction(0) if b == target else None
            for a in range(d):
                t = int(succ[b, a])
                if values[t] is None:
                    continue
                cand = red[b][a] + values[t]
                if best is None or cand > best:
                    best = cand
            if best is not None and (new[b] is None or best > new[b]):
                new[b] = best
                changed = True
        values = new
        if not changed:
            break
    else:
        raise ConvergenceError(
            "subaction value iteration did not stabilize; "
            "the supplied mean is below the maximum cycle mean",
            iterations=cap,
        )
    if any(v is None for v in values):
        raise ConvergenceError("subaction iteration left unreachable states",
                               iterations=cap)
    v = np.array([float(x) for x in values])
    return v - v.max()


# float rounding can make near-ties cycle; the bias is only a warm start
HOWARD_MAX_ITER = 100


def _policy_values(nxt, w):
    """Cycle mean ``eta`` and bias of every state under a fixed policy.

    The policy graph ``b -> nxt[b]`` with edge weights ``w[b]`` has out-degree
    one, so every state drains into exactly one cycle.  Each cycle is rooted
    at its smallest state with bias 0, and ``bias(b) = w(b) - eta(b) +
    bias(nxt(b))`` everywhere else.
    """
    n = len(nxt)
    eta = [0.0] * n
    bias = [0.0] * n
    state = [0] * n  # 0 unseen, 1 on the current walk, 2 valued
    for start in range(n):
        if state[start]:
            continue
        walk = []
        b = start
        while not state[b]:
            state[b] = 1
            walk.append(b)
            b = nxt[b]
        if state[b] == 1:
            pos = walk.index(b)
            cycle = walk[pos:]
            del walk[pos:]
            root = cycle.index(min(cycle))
            cycle = cycle[root:] + cycle[:root]
            eta[cycle[0]] = math.fsum(w[c] for c in cycle) / len(cycle)
            state[cycle[0]] = 2
            walk += cycle[1:]
        for c in reversed(walk):
            nb = nxt[c]
            eta[c] = eta[nb]
            bias[c] = w[c] - eta[nb] + bias[nb]
            state[c] = 2
    return np.array(eta), np.array(bias)


def howard_policy_iteration(weights, succ, values=None):
    """Maximum cycle mean and a bias vector, in floats.

    Multichain Howard iteration on ``V(b) = max_a [w(b, a) - eta + V(succ(b,
    a))]``: evaluate the policy's cycles and biases, switch a state first
    to an action reaching a higher cycle mean, otherwise to one raising its
    bias.  Ties are resolved at ulp scale, so two cycles whose means differ
    by more than a few ulps of the weights are told apart.  Stops when no
    state can improve, or after ``HOWARD_MAX_ITER`` policies.  The first
    policy is greedy for ``weights + values[succ]`` (``values`` defaults to
    zero), so a good guess of the bias saves iterations.

    Returns
    -------
    (float, ndarray)
        The largest cycle mean of the final policy and its bias vector.
    """
    rows = np.arange(weights.shape[0])
    eps = np.finfo(float).eps
    scale = max(1.0, float(np.abs(weights).max()))
    mean_tie = 8.0 * eps * scale
    policy = (weights if values is None else weights + values[succ]).argmax(axis=1)
    for _ in range(HOWARD_MAX_ITER):
        eta, bias = _policy_values(succ[rows, policy].tolist(),
                                   weights[rows, policy].tolist())
        eta_next = eta[succ]
        better = eta_next.max(axis=1) > eta + mean_tie
        if better.any():
            policy = np.where(better, eta_next.argmax(axis=1), policy)
            continue
        value = np.where(eta_next >= eta[:, None] - mean_tie,
                         weights - eta[:, None] + bias[succ], -np.inf)
        bias_tie = 8.0 * eps * max(scale, float(np.abs(bias).max()))
        better = value.max(axis=1) > value[rows, policy] + bias_tie
        if not better.any():
            break
        policy = np.where(better, value.argmax(axis=1), policy)
    return float(eta.max()), bias
