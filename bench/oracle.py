"""Independent answer check for every report the CLI exits 0 with.

Uses only numpy, scipy and Fractions, never ergotrans.  The transfer operator
is rebuilt as a sparse matrix ``A[b, succ(b, a)] = sum_x exp(c(x, a.b))`` and
its Perron data come from ``scipy.sparse.linalg.eigs``; the constrained
zero-temperature value comes from a HiGHS linear program.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
from scipy import linalg, optimize, sparse
from scipy.sparse.linalg import eigs

PRESSURE_TOL = 1e-9
MARGINAL_TOL = 1e-7
STATIONARY_TOL = 1e-10
TRANSITION_TOL = 1e-8
SUBACTION_TOL = 1e-9
DENSE_BELOW = 16


class _Chain:
    """Perron data of a cost on its (m-1)-block states, in the action layout."""

    def __init__(self, cost, d, m):
        num_x = cost.shape[0]
        n = d ** (m - 1)
        self.ct = cost.reshape(num_x, n, d)           # ct[x, b, a] = c(x, a.b)
        self.succ = (np.arange(d)[None, :] + d * np.arange(n)[:, None]) % n
        w = np.exp(self.ct)
        rows = np.repeat(np.arange(n), d)
        a_mat = sparse.csr_matrix((w.sum(axis=0).ravel(), (rows, self.succ.ravel())),
                                  shape=(n, n))
        self.lam, self.h = _perron(a_mat)
        _, self.left = _perron(a_mat.T.tocsr())
        # J(x, a | b) = exp(c) h(succ) / (lam h(b)); pi(b) ~ left(b) h(b)
        self.jac = w * self.h[self.succ][None, :, :] / (self.lam * self.h[None, :, None])
        pi = self.left * self.h
        self.pi = pi / pi.sum()

    @property
    def pressure(self):
        return math.log(self.lam)

    def x_marginal(self):
        return (self.jac * self.pi[None, :, None]).sum(axis=(1, 2))

    def integral(self):
        return float((self.jac * self.ct * self.pi[None, :, None]).sum())

    def transition(self):
        """``q[b', b]``: probability of stepping from block b to block b'."""
        n = self.pi.size
        q = np.zeros((n, n))
        step = self.jac.sum(axis=0)
        for a in range(self.succ.shape[1]):
            q[self.succ[:, a], np.arange(n)] += step[:, a]
        return q


def _perron(mat):
    n = mat.shape[0]
    if n < DENSE_BELOW:
        vals, vecs = linalg.eig(mat.toarray())
    else:
        vals, vecs = eigs(mat, k=1, which="LM", v0=np.ones(n), tol=0.0)
    i = int(np.argmax(vals.real))
    vec = np.abs(vecs[:, i].real)
    return float(vals[i].real), vec / vec.max()


def _close(got, want, tol, what):
    err = abs(float(got) - float(want))
    if not err <= tol * max(1.0, abs(float(want))):
        raise AssertionError(f"{what}: report {got!r}, oracle {want!r} (error {err:.3e})")


def _at_most(value, tol, what):
    if not float(value) <= tol:
        raise AssertionError(f"{what} = {float(value):.3e} exceeds {tol:.1e}")


def _array(values):
    return np.asarray(values, dtype=float)


def _check_pressure(res, inst):
    chain = _Chain(inst.cost, *inst.family[1:])
    _close(res["pressure"], chain.pressure, PRESSURE_TOL, "pressure")


def _check_entropy(res, inst):
    chain = _Chain(inst.cost, *inst.family[1:])
    _close(res["pressure"], chain.pressure, PRESSURE_TOL, "pressure")
    _close(res["entropy"], chain.pressure - chain.integral(), PRESSURE_TOL, "entropy")


def _check_gibbs(res, inst):
    chain = _Chain(inst.cost, *inst.family[1:])
    _close(res["pressure"], chain.pressure, PRESSURE_TOL, "pressure")
    p = _array(res["stationary"])
    q = _array(res["transition"])
    _at_most(-p.min(), 0.0, "negative stationary mass")
    _at_most(abs(p.sum() - 1.0), STATIONARY_TOL, "stationary sum defect")
    _at_most(np.abs(q @ p - p).max(), STATIONARY_TOL, "|q p - p|")
    _at_most(np.abs(q - chain.transition()).max(), TRANSITION_TOL, "transition error")


def _check_dual(res, inst):
    phi = _array(res["phi_tilde"])
    chain = _Chain(inst.cost - phi[:, None], *inst.family[1:])
    _at_most(abs(chain.pressure), PRESSURE_TOL, "oracle pressure residual")
    _at_most(np.abs(chain.x_marginal() - inst.mu).max(), MARGINAL_TOL,
             "oracle marginal residual")
    _close(res["value"], float(inst.mu @ phi), PRESSURE_TOL, "constrained pressure")
    _at_most(res["pressure_residual"], PRESSURE_TOL, "reported pressure residual")
    _at_most(res["marginal_residual"], MARGINAL_TOL, "reported marginal residual")


def _check_certify(res, inst):
    _check_dual(res, inst)
    if res["passed"] is not True:
        raise AssertionError("certificate reports passed=false")


def _check_zerotemp(res, inst):
    num_x, d, m = inst.family
    n = d ** (m - 1)
    ct = inst.cost.reshape(num_x, n, d)
    succ = (np.arange(d)[None, :] + d * np.arange(n)[:, None]) % n
    if res["mode"] == "unconstrained":
        _check_unconstrained(res, ct, succ)
    else:
        _check_constrained(res, inst, ct, succ)


def _check_unconstrained(res, ct, succ):
    mean = float(res["m"])
    v = _array(res["subaction"])
    expr = ct.max(axis=0) + v[succ] - v[:, None] - mean
    _at_most(expr.max(), SUBACTION_TOL, "subaction feasibility residual")
    _at_most(np.abs(expr.max(axis=1)).max(), SUBACTION_TOL, "subaction calibration residual")
    cycle = [int(s) for s in res["optimal_cycle"]]
    total = Fraction(0)
    for here, there in zip(cycle, cycle[1:] + cycle[:1]):
        (symbols,) = np.nonzero(succ[here] == there)
        if symbols.size == 0:
            raise AssertionError(f"optimal cycle steps from block {here} to {there}, no edge")
        total += Fraction(float(ct[:, here, symbols[0]].max()))
    _close(float(total / len(cycle)), mean, SUBACTION_TOL, "optimal cycle mean")


def _check_constrained(res, inst, ct, succ):
    num_x, n, d = ct.shape
    m_tilde = _array(res["m_tilde"])
    v = _array(res["v_tilde"])
    expr = ct + v[succ][None, :, :] - v[None, :, None] - m_tilde[:, None, None]
    _at_most(expr.max(), SUBACTION_TOL, "dual feasibility residual")
    beta_max = float(res["sweep"][-1].split()[0])
    bound = 2.0 * math.log(num_x * d) / beta_max + 1e-9
    _close_abs(res["value"], _lp_value(ct, succ, inst.mu), bound, "zero-temperature value")


def _close_abs(got, want, bound, what):
    err = abs(float(got) - want)
    if not err <= bound:
        raise AssertionError(f"{what}: report {got!r}, LP {want!r} (error {err:.3e} > {bound:.3e})")


def _lp_value(ct, succ, mu):
    """max integral(c) over depth-m plans with x-marginal mu (HiGHS)."""
    num_x, n, d = ct.shape
    n_var = num_x * n * d
    a_eq = np.zeros((n + num_x, n_var))
    for x in range(num_x):
        cols = x * n * d + np.arange(n * d).reshape(n, d)
        for b in range(n):
            a_eq[b, cols[b]] += 1.0                 # words whose trailing block is b
            a_eq[succ[b], cols[b]] -= 1.0           # their leading blocks
        a_eq[n + x, cols.ravel()] = 1.0
    b_eq = np.concatenate([np.zeros(n), mu])
    lp = optimize.linprog(-ct.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                          method="highs")
    if lp.status != 0:
        raise AssertionError(f"oracle LP failed: {lp.message}")
    return -float(lp.fun)


_CHECKS = {
    "pressure": _check_pressure,
    "entropy": _check_entropy,
    "gibbs": _check_gibbs,
    "dual": _check_dual,
    "certify": _check_certify,
    "zerotemp": _check_zerotemp,
}


def check_report(verb, inst, text):
    """Return None when the report agrees with the oracle, else the reason."""
    try:
        report = json.loads(text)
        _CHECKS[verb](report["results"], inst)
    except (AssertionError, KeyError, TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None
