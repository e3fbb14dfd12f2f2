"""Constrained pressure by convex duality on the x-potential.

The constrained problem (x-marginal pinned to mu) reduces to minimizing
the smooth convex functional

    F(phi) = -integral(phi, mu) + P(c + phi),

whose unique minimizer, after the zero-pressure gauge shift
``phi_tilde = -phi_hat + P(c + phi_hat)``, satisfies
``P(c - phi_tilde) = 0`` and ``integral(phi_tilde, mu)`` equals the
constrained pressure.  The maximizing plan is the Gibbs plan of
``c - phi_tilde``; optimality is certified a posteriori through the
pressure, marginal and duality-gap residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, ConvergenceError, SpecValidationError
from .plans import entropy, gibbs_plan, integrate_cost, marginal_x
from .symbolic import CostTensor, Marginal
from .transfer import (
    action_view,
    effective_cost,
    log_perron,
    normalize_cost,
    pressure,
)

__all__ = [
    "DualSolution",
    "shift_cost",
    "dual_objective",
    "dual_gradient",
    "solve_dual",
    "mu_pressure",
    "constrained_equilibrium",
    "slackness_certificate",
    "eigencurve_conditions",
]

PRESSURE_RESIDUAL_TOL = 1e-9
MARGINAL_RESIDUAL_TOL = 1e-7
GRAD_TOL = 1e-10
_STEP_CAP = 8.0


def shift_cost(cost, phi):
    """Cost shifted by an x-potential: ``(c + phi)(x, w) = c(x, w) + phi(x)``."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (cost.num_x,):
        raise SpecValidationError(
            f"x-potential has shape {phi.shape}, expected ({cost.num_x},)"
        )
    return CostTensor(cost.values + phi[:, None], cost.alphabet_size, cost.depth)


def dual_objective(cost, phi, mu):
    """``F(phi) = -integral(phi, mu) + P(c + phi)``.

    Invariant under adding constants to ``phi``, convex and coercive on
    the gauge slice, which is what makes the minimization well posed.
    """
    mu_w = mu.weights if isinstance(mu, Marginal) else np.asarray(mu, float)
    phi = np.asarray(phi, dtype=float)
    return float(-(mu_w * phi).sum() + pressure(shift_cost(cost, phi)))


def dual_gradient(cost, phi, mu):
    """Gradient of F: the equilibrium x-marginal of ``c + phi`` minus mu."""
    mu_w = mu.weights if isinstance(mu, Marginal) else np.asarray(mu, float)
    normalized = normalize_cost(shift_cost(cost, phi))
    plan = gibbs_plan(normalized)
    return marginal_x(plan) - mu_w


@dataclass(frozen=True)
class DualSolution:
    """Minimizer of the dual problem with its optimality certificate.

    ``phi_tilde`` carries the zero-pressure gauge (``P(c - phi_tilde) = 0``);
    ``psi`` is the log-eigenfunction of ``c - phi_tilde`` on block states
    (the reconstructed second member of the admissible pair, min 0).
    """

    phi_tilde: np.ndarray
    value: float
    psi: np.ndarray
    pressure_residual: float
    marginal_residual: float
    duality_gap: float
    iterations: int


def _certify(cost, phi_tilde, mu, value, iterations,
             pressure_tol, marginal_tol):
    shifted = shift_cost(cost, -phi_tilde)
    log_lam, psi, _, _ = log_perron(shifted)
    plan = gibbs_plan(normalize_cost(shifted))
    marg = marginal_x(plan)
    mu_w = mu.weights
    pressure_residual = abs(log_lam)
    marginal_residual = float(np.abs(marg - mu_w).max())
    duality_gap = abs(value - (integrate_cost(plan, cost) + entropy(plan)))
    solution = DualSolution(
        phi_tilde=phi_tilde,
        value=float(value),
        psi=psi,
        pressure_residual=float(pressure_residual),
        marginal_residual=marginal_residual,
        duality_gap=float(duality_gap),
        iterations=int(iterations),
    )
    if pressure_residual > pressure_tol or marginal_residual > marginal_tol:
        raise CertificateError(
            f"dual certificate failed: pressure residual {pressure_residual:.3e}, "
            f"marginal residual {marginal_residual:.3e}",
            solution=solution,
            residuals={
                "pressure_residual": float(pressure_residual),
                "marginal_residual": marginal_residual,
                "duality_gap": float(duality_gap),
            },
        )
    return solution


def solve_dual(cost, mu, grad_tol=GRAD_TOL, max_iter=500, v0=None,
               pressure_tol=PRESSURE_RESIDUAL_TOL,
               marginal_tol=MARGINAL_RESIDUAL_TOL,
               allow_resolution_stall=False):
    """Minimize F on the gauge slice phi(0) = 0 and certify the minimizer.

    With two x-values the slice gradient is a monotone scalar function and
    the minimizer is found by safeguarded root bracketing; otherwise
    gradient descent with Armijo backtracking globalizes and a damped
    Newton step (finite-difference Hessian) polishes.  The returned
    solution carries the zero-pressure gauge.

    Parameters
    ----------
    cost : CostTensor
    mu : Marginal
        Full-support x-marginal (full support gives coercivity).
    grad_tol : float
        Sup-norm tolerance on the full marginal gradient.
    v0 : array, optional
        Warm start for the free components phi(1), ..., phi(k).
    allow_resolution_stall : bool
        On strongly scaled costs the constrained marginal can sweep its
        whole range across a potential window narrower than one float ulp,
        making small gradients unrepresentable.  With this flag a certified
        resolution stall (bracket collapsed to adjacent floats, or gradient
        below 1e-3 on the multi-x path) is accepted and the marginal
        tolerance relaxed to the stalled level; the objective value is
        still accurate to roughly gradient * bracket width.

    Raises
    ------
    ConvergenceError
        Iteration cap exceeded, or a stall above tolerance without
        ``allow_resolution_stall``.
    CertificateError
        Residuals above tolerance; the solution is attached.
    """
    cost = effective_cost(cost)
    if not isinstance(mu, Marginal):
        mu = Marginal(mu)
    if mu.size != cost.num_x:
        raise SpecValidationError(
            f"mu has {mu.size} entries, cost has {cost.num_x} x-rows"
        )
    k = cost.num_x - 1

    def embed(v):
        return np.concatenate(([0.0], v))

    if k == 0:
        value = pressure(cost)
        return _certify(cost, np.array([value]), mu, value, 0,
                        pressure_tol, marginal_tol)

    v = np.zeros(k) if v0 is None else np.asarray(v0, dtype=float).copy()

    if k == 1:
        # one free component: the slice gradient is a monotone scalar
        # function of v, so safeguarded root finding is unconditionally
        # convergent no matter how sharp the transition is
        v, g_norm, iterations, pinned = _solve_monotone_1d(
            cost, mu, float(v[0]), grad_tol, max_iter
        )
        v = np.array([v])
        if g_norm > grad_tol:
            # a collapsed bracket pins the minimizer between adjacent
            # floats: the value is certified even when the marginal jumps
            if not (allow_resolution_stall and pinned):
                raise ConvergenceError(
                    f"dual solve stalled with gradient {g_norm:.3e}",
                    residual=g_norm,
                    iterations=iterations,
                )
            marginal_tol = max(marginal_tol, 2.0 * cost.num_x * g_norm)
        v_full = embed(v)
        log_lam = pressure(shift_cost(cost, v_full))
        phi_tilde = -v_full + log_lam
        value = float(-(mu.weights * v_full).sum() + log_lam)
        return _certify(cost, phi_tilde, mu, value, iterations,
                        pressure_tol, marginal_tol)

    f_v = dual_objective(cost, embed(v), mu)
    t_mem = 1.0
    iterations = 0

    # globalization phase: descent with Armijo backtracking on F until the
    # gradient is small enough for the Newton polish to take over
    polish_entry = max(1e-5, 10.0 * grad_tol)
    for _ in range(max_iter):
        grad_full = dual_gradient(cost, embed(v), mu)
        if np.abs(grad_full).max() <= polish_entry:
            break
        iterations += 1
        g = grad_full[1:]
        step = None
        if np.abs(grad_full).max() <= 1.0:
            step = _newton_direction(cost, mu, v, g, embed)
        if step is None:
            step = g
            t0 = min(4.0 * t_mem, 1e4)
        else:
            t0 = 1.0
        slope = float(g @ step)
        if slope <= 0.0:
            step, slope, t0 = g, float(g @ g), min(4.0 * t_mem, 1e4)
        # cap the move: on strongly scaled costs the flanks of the objective
        # are nearly flat and an uncapped Newton step hops across the kink
        size = float(np.abs(step).max()) * t0
        if size > _STEP_CAP:
            shrink = _STEP_CAP / size
            step = step * shrink
            slope *= shrink
        t = t0
        accepted = False
        moved = False
        for _ in range(80):
            trial = v - t * step
            f_trial = dual_objective(cost, embed(trial), mu)
            if f_trial <= f_v - 1e-4 * t * slope:
                moved = not np.array_equal(trial, v)
                v, f_v, accepted = trial, f_trial, True
                t_mem = t
                break
            t *= 0.5
        if not accepted or not moved:
            break  # below the resolution of F or of v: hand over to the polish
    else:
        grad_full = dual_gradient(cost, embed(v), mu)
        raise ConvergenceError(
            f"dual solve exhausted {max_iter} iterations "
            f"(gradient {np.abs(grad_full).max():.3e})",
            residual=float(np.abs(grad_full).max()),
            iterations=max_iter,
        )

    # polish phase: damped Newton accepted on gradient decrease alone;
    # F comparisons near the minimum drown in the float resolution of F
    # when the cost is strongly scaled, the gradient does not
    grad_full = dual_gradient(cost, embed(v), mu)
    g_norm = float(np.abs(grad_full).max())
    for _ in range(40):
        if g_norm <= grad_tol:
            break
        iterations += 1
        g = grad_full[1:]
        step = _newton_direction(cost, mu, v, g, embed)
        if step is None:
            step = g
        size = float(np.abs(step).max())
        if size > _STEP_CAP:
            step = step * (_STEP_CAP / size)
        t = 1.0
        improved = False
        for _ in range(25):
            trial = v - t * step
            trial_grad = dual_gradient(cost, embed(trial), mu)
            trial_norm = float(np.abs(trial_grad).max())
            if trial_norm <= max(0.9 * g_norm, grad_tol):
                v, grad_full, g_norm = trial, trial_grad, trial_norm
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    if g_norm > grad_tol:
        if not (allow_resolution_stall and g_norm <= 1e-3):
            raise ConvergenceError(
                f"dual solve stalled with gradient {g_norm:.3e}",
                residual=g_norm,
                iterations=iterations,
            )
        marginal_tol = max(marginal_tol, 2.0 * cost.num_x * g_norm)
    v_full = embed(v)
    log_lam = pressure(shift_cost(cost, v_full))
    phi_tilde = -v_full + log_lam
    value = float(-(mu.weights * v_full).sum() + log_lam)
    return _certify(cost, phi_tilde, mu, value, iterations,
                    pressure_tol, marginal_tol)


def _solve_monotone_1d(cost, mu, v_init, grad_tol, max_iter):
    """Root of the monotone scalar slice gradient by bracketing.

    Bisection with a guarded secant accelerator.  Terminates either below
    tolerance or when the bracket collapses to adjacent floats (the root
    lies between representable values; the best endpoint is returned with
    ``pinned=True``, certifying the objective value to gradient * ulp).
    """
    def grad(v):
        full = dual_gradient(cost, np.array([0.0, v]), mu)
        return float(full[1])

    evals = 0

    def g_of(v):
        nonlocal evals
        evals += 1
        return grad(v)

    g0 = g_of(v_init)
    if abs(g0) <= grad_tol:
        return v_init, abs(g0), evals, False
    width = 1.0
    if g0 > 0:
        hi, g_hi = v_init, g0
        lo = v_init - width
        g_lo = g_of(lo)
        while g_lo > 0:
            width *= 2.0
            if width > 1e9:
                raise ConvergenceError("bracket expansion failed", residual=g_lo)
            hi, g_hi = lo, g_lo
            lo = lo - width
            g_lo = g_of(lo)
    else:
        lo, g_lo = v_init, g0
        hi = v_init + width
        g_hi = g_of(hi)
        while g_hi < 0:
            width *= 2.0
            if width > 1e9:
                raise ConvergenceError("bracket expansion failed", residual=g_hi)
            lo, g_lo = hi, g_hi
            hi = hi + width
            g_hi = g_of(hi)
    if abs(g_lo) <= grad_tol:
        return lo, abs(g_lo), evals, False
    if abs(g_hi) <= grad_tol:
        return hi, abs(g_hi), evals, False

    best_v, best_g = (lo, g_lo) if abs(g_lo) < abs(g_hi) else (hi, g_hi)
    for _ in range(max_iter):
        span = hi - lo
        if span <= 4.0 * np.spacing(max(abs(lo), abs(hi), 1.0)):
            return best_v, abs(best_g), evals, True
        mid = 0.5 * (lo + hi)
        if g_hi > g_lo:
            secant = hi - g_hi * span / (g_hi - g_lo)
            # on a bracket under about 100 ulps wide the 1 % guard rounds
            # onto an endpoint, and a secant point there makes no progress
            if lo + 0.01 * span <= secant <= hi - 0.01 * span and lo < secant < hi:
                mid = secant
        g_mid = g_of(mid)
        if abs(g_mid) < abs(best_g):
            best_v, best_g = mid, g_mid
        if abs(g_mid) <= grad_tol:
            return mid, abs(g_mid), evals, False
        if g_mid > 0:
            hi, g_hi = mid, g_mid
        else:
            lo, g_lo = mid, g_mid
    return best_v, abs(best_g), evals, False


def _newton_direction(cost, mu, v, g, embed, fd_step=1e-6):
    """Damped Newton direction from a finite-difference Hessian, or None."""
    k = v.size
    h = np.empty((k, k))
    scale = fd_step * max(1.0, float(np.abs(v).max()))
    for j in range(k):
        pert = v.copy()
        pert[j] += scale
        h[:, j] = (dual_gradient(cost, embed(pert), mu)[1:] - g) / scale
    h = 0.5 * (h + h.T)
    try:
        step = np.linalg.solve(h + 1e-12 * np.eye(k), g)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(step).all():
        return None
    return step


def mu_pressure(cost, mu, **kwargs):
    """Constrained pressure: value of the dual minimum."""
    return solve_dual(cost, mu, **kwargs).value


def constrained_equilibrium(cost, mu, solution=None, **kwargs):
    """The unique constrained equilibrium plan: Gibbs plan of ``c - phi_tilde``."""
    cost = effective_cost(cost)
    if solution is None:
        solution = solve_dual(cost, mu, **kwargs)
    normalized = normalize_cost(shift_cost(cost, -solution.phi_tilde))
    return gibbs_plan(normalized)


def slackness_certificate(cost, phi, mu):
    """Residual triple certifying (or refuting) optimality of an x-potential.

    All three residuals vanish exactly when ``phi`` is the dual minimizer
    and the Gibbs plan of ``c - phi`` the constrained maximizer.
    """
    cost = effective_cost(cost)
    if not isinstance(mu, Marginal):
        mu = Marginal(mu)
    phi = np.asarray(phi, dtype=float)
    log_lam, _, _, _ = log_perron(shift_cost(cost, -phi))
    plan = gibbs_plan(normalize_cost(shift_cost(cost, -phi)))
    marg = marginal_x(plan)
    value = float((mu.weights * phi).sum())
    return {
        "pressure_residual": abs(log_lam),
        "marginal_residual": float(np.abs(marg - mu.weights).max()),
        "duality_gap": abs(value - (integrate_cost(plan, cost) + entropy(plan))),
    }


def _adjugate(mat):
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
    cost = effective_cost(cost)
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
    adj = _adjugate(b_mat)
    normal = np.array([np.trace(adj @ w1), np.trace(adj @ w2)])
    direction = np.array([mu.weights[0] / z[0], mu.weights[1] / z[1]])
    n_hat = normal / np.linalg.norm(normal)
    d_hat = direction / np.linalg.norm(direction)
    collinearity_residual = abs(float(n_hat[0] * d_hat[1] - n_hat[1] * d_hat[0]))
    return {
        "det_residual": det_residual,
        "collinearity_residual": collinearity_residual,
    }
