"""Max-plus policy iteration on raw block-transition data.

One Howard loop (policy iteration, Cochet-Terrasson, Cohen, Gaubert,
McGettrick & Quadrat, IFAC 1998) runs in two arithmetics.
``howard_policy_iteration`` runs it in floats, with ties resolved at ulp
scale: a few ``O(n*d)`` sweeps whose bias vector warm-starts the log-domain
eigensolver at any inverse temperature.  ``exact_policy_iteration`` goes on
from the float run's final policy in Fraction space with zero tolerance:
double-precision floats are dyadic rationals, so sums, differences and means
of weights are exact, the maximum cycle mean it returns is the true maximum
over the float inputs, bit for bit, and the final policy's bias is a
calibrated subaction.  ``zerotemp.maxplus_solve`` runs it once per cost, and
``zerotemp.beta_sweep`` checks its bracket against that solve's mean.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError

# float rounding can make near-ties cycle, and the float bias is only a warm
# start, so the float run stops here; the exact run cannot cycle and raises
HOWARD_MAX_ITER = 100


def _policy_values(nxt, w, total):
    """Cycle mean ``eta``, bias and cycle roots of every state under a fixed policy.

    The policy graph ``b -> nxt[b]`` with edge weights ``w[b]`` has out-degree
    one, so every state drains into exactly one cycle.  Each cycle is rooted
    at its smallest state with bias 0, its mean is ``total`` of its weights
    over its length, and ``bias(b) = w(b) - eta(b) + bias(nxt(b))``
    everywhere else.  The lists start from the int 0, which keeps Fraction
    weights in Fractions and float weights in floats.
    """
    n = len(nxt)
    eta = [0] * n
    bias = [0] * n
    roots = []
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
            eta[cycle[0]] = total(w[c] for c in cycle) / len(cycle)
            state[cycle[0]] = 2
            roots.append(cycle[0])
            walk += cycle[1:]
        for c in reversed(walk):
            nb = nxt[c]
            eta[c] = eta[nb]
            bias[c] = w[c] - eta[nb] + bias[nb]
            state[c] = 2
    return eta, bias, roots


def _howard(weights, succ, policy, exact):
    """Multichain Howard iteration on ``V(b) = max_a [w(b, a) - eta + V(succ(b, a))]``.

    Evaluates the policy's cycles and biases, then switches a state first to
    an action reaching a higher cycle mean, otherwise to one raising its
    bias.  In floats ties are resolved at ulp scale, so two cycles whose
    means differ by more than a few ulps of the weights are told apart, and
    the run stops after ``HOWARD_MAX_ITER`` policies.  With ``exact`` the
    weights are an object array of Fractions, ties are exact, and a run
    that reaches the cap raises ``ConvergenceError``.

    Returns the last evaluated policy's ``eta``, ``bias`` and cycle roots,
    and the policy the run ended on.
    """
    rows = np.arange(weights.shape[0])
    if exact:
        mean_tie, total, dtype = 0, sum, object
    else:
        eps = np.finfo(float).eps
        scale = max(1.0, float(np.abs(weights).max()))
        mean_tie, total, dtype = 8.0 * eps * scale, math.fsum, float
    for _ in range(HOWARD_MAX_ITER):
        eta, bias, roots = _policy_values(succ[rows, policy].tolist(),
                                          weights[rows, policy].tolist(), total)
        eta, bias = np.array(eta, dtype), np.array(bias, dtype)
        eta_next = eta[succ]
        better = eta_next.max(axis=1) > eta + mean_tie
        if better.any():
            policy = np.where(better, eta_next.argmax(axis=1), policy)
            continue
        value = np.where(eta_next >= eta[:, None] - mean_tie,
                         weights - eta[:, None] + bias[succ], -np.inf)
        bias_tie = 0 if exact else 8.0 * eps * max(scale, float(np.abs(bias).max()))
        better = value.max(axis=1) > value[rows, policy] + bias_tie
        if not better.any():
            break
        policy = np.where(better, value.argmax(axis=1), policy)
    else:
        if exact:
            raise ConvergenceError("exact policy iteration did not terminate",
                                   iterations=HOWARD_MAX_ITER)
    return eta, bias, policy, roots


def howard_policy_iteration(weights, succ, values):
    """Maximum cycle mean and a bias vector, in floats.

    The first policy is greedy for ``weights + values[succ]``, so a good
    guess of the bias saves iterations.

    Returns
    -------
    (float, ndarray)
        The largest cycle mean of the final policy and its bias vector.
    """
    policy = (weights + values[succ]).argmax(axis=1)
    eta, bias, _, _ = _howard(weights, succ, policy, exact=False)
    return float(eta.max()), bias


def exact_policy_iteration(weights, succ):
    """Maximum cycle mean, a critical cycle and the calibrated subaction, exactly.

    Starts from the final policy of the float run and iterates in Fractions
    until no state can improve.  Every state reaches every other along the
    ``succ`` graph, so every cycle of that policy has the maximum mean
    ``m``; the one returned is the policy cycle with the smallest root,
    starting at that root (its smallest state).  The subaction is the
    policy's bias, zero at every root, converted to floats and then gauged
    by ``max V = 0``.

    Parameters
    ----------
    weights : (n, d) array
        Edge weight from state ``b`` under symbol ``a``.
    succ : (n, d) int array
        Successor state of ``b`` under ``a``.

    Returns
    -------
    (Fraction, list[int], ndarray)
    """
    policy = _howard(weights, succ, weights.argmax(axis=1), exact=False)[2]
    exact = np.array([list(map(Fraction, row)) for row in weights.tolist()], dtype=object)
    eta, bias, policy, roots = _howard(exact, succ, policy, exact=True)
    root = min(roots)
    cycle = [root]
    while (b := int(succ[cycle[-1], policy[cycle[-1]]])) != root:
        cycle.append(b)
    v = bias.astype(float)
    return eta[root], cycle, v - v.max()
