"""Constrained pressure by convex duality on the x-potential.

The constrained problem (x-marginal pinned to mu) reduces to minimizing
the smooth convex functional

    F(phi) = -integral(phi, mu) + P(c + phi).

One Gibbs chain of ``c + phi`` (``transfer.gibbs_chain``) gives ``F``,
its gradient (the equilibrium x-marginal minus mu) and its exact Hessian,
the asymptotic covariance of the x-indicators under the Gibbs plan,

    H = diag(marg) - marg marg^T + C + C^T,
    C[x, y] = E[(1{x} - marg_x) h_y(succ)],

where ``h_y`` solves the Poisson equation ``(I - P) h_y = sum_a J(y, a|.)
- marg_y`` of the Gibbs block chain (one bordered solve for every y).
After the zero-pressure gauge shift ``phi_tilde = -phi_hat + P(c +
phi_hat)`` the minimizer satisfies ``P(c - phi_tilde) = 0`` and
``integral(phi_tilde, mu)`` equals the constrained pressure.  The
maximizing plan is the Gibbs plan of ``c - phi_tilde``, the last evaluated
``c + phi`` shifted by its pressure: that evaluation gives the plan, ``psi``
and the pressure, marginal and duality-gap residuals that certify it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CertificateError, ConvergenceError, SpecValidationError
from .plans import FiniteMemoryPlan, entropy, gibbs_plan, integrate_cost, marginal_x
from .symbolic import CostTensor, Marginal
from .transfer import (
    _log_transfer_apply,
    action_view,
    gibbs_chain,
    poisson_solve,
    successor_table,
)

__all__ = [
    "DualSolution",
    "shift_cost",
    "solve_dual",
]

PRESSURE_RESIDUAL_TOL = 1e-9
MARGINAL_RESIDUAL_TOL = 1e-7
GRAD_TOL = 1e-10
MAX_ITER = 500
# first trial of a line search moves the potential by at most this much; on
# strongly scaled costs the flanks of F are nearly flat, so an uncapped
# Newton step lands far across the kink
_STEP_CAP = 8.0
# a trial step is accepted once the directional derivative has shrunk to
# this fraction of its value at the start of the line
_SLOPE_FRACTION = 0.5
# F is coercive on the slice, so a line search that finds no sign change of
# the directional derivative within this move has met a broken evaluation
_MAX_MOVE = 1e9


def shift_cost(cost, phi):
    """Cost shifted by an x-potential: ``(c + phi)(x, w) = c(x, w) + phi(x)``."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (cost.num_x,):
        raise SpecValidationError(
            f"x-potential has shape {phi.shape}, expected ({cost.num_x},)"
        )
    return CostTensor(cost.values + phi[:, None], cost.alphabet_size, cost.depth)


class _Evaluation:
    """``F``, its gradient and its exact Hessian at one x-potential.

    One Gibbs chain of ``c + phi`` gives ``F`` and the gradient; the
    Hessian costs one more (Poisson) solve on the same chain, and the
    certificate's plan is built from the same arrays.
    """

    def __init__(self, cost, phi, mu_w):
        self.phi = phi
        self.chain = gibbs_chain(shift_cost(cost, phi))
        self.value = float(-(mu_w * phi).sum() + self.chain.log_lambda)
        self._mass = self.chain.jac * self.chain.p[None, :, None]
        self._marg = self._mass.sum(axis=(1, 2))
        self.grad = self._marg - mu_w
        self.residual = float(np.abs(self.grad).max())

    def hessian(self):
        marg, k = self._marg, self._marg.size
        jac, weights = self.chain.jac, self.chain.weights
        h = poisson_solve(weights, jac.sum(axis=2).T - marg)  # h[b, y]
        succ = successor_table(jac.shape[2], jac.shape[1])
        cross = self._mass.reshape(k, -1) @ h[succ].reshape(-1, k)
        cov = cross - marg[:, None] * cross.sum(axis=0)[None, :]
        return np.diag(marg) - np.outer(marg, marg) + cov + cov.T


@dataclass(frozen=True)
class DualSolution:
    """Minimizer of the dual problem with its optimality certificate.

    ``phi_tilde`` carries the zero-pressure gauge (``P(c - phi_tilde) = 0``);
    ``psi`` is the log-eigenfunction of ``c - phi_tilde`` on block states
    (the reconstructed second member of the admissible pair, min 0) and
    ``plan`` its Gibbs plan.  ``marginal_tolerance`` is the tolerance the
    certificate applied, relaxed after a resolution stall.
    """

    phi_tilde: np.ndarray
    value: float
    psi: np.ndarray
    pressure_residual: float
    marginal_residual: float
    duality_gap: float
    iterations: int
    marginal_tolerance: float
    plan: FiniteMemoryPlan = field(repr=False)


def _certify(cost, point, mu, iterations, marginal_tol):
    """Certify the solver's last evaluation of ``c + phi``.

    ``c - phi_tilde`` is ``c + phi`` shifted by its pressure, so ``psi`` is
    the evaluation's eigenvector and the plan is built from its chain.  The
    pressure residual ``max |T(psi) - psi|``, for the operator ``T`` of
    ``c - phi_tilde``, encloses ``|P(c - phi_tilde)|`` (Collatz-Wielandt).
    """
    phi_tilde = point.chain.log_lambda - point.phi
    psi = point.chain.log_h
    shifted = action_view(shift_cost(cost, -phi_tilde))
    succ = successor_table(shifted.shape[2], shifted.shape[1])
    pressure_residual = float(np.abs(_log_transfer_apply(shifted, succ, psi) - psi).max())
    plan = gibbs_plan(point.chain, cost.depth)
    marginal_residual = float(np.abs(marginal_x(plan) - mu.weights).max())
    duality_gap = abs(point.value - (integrate_cost(plan, cost) + entropy(plan)))
    solution = DualSolution(
        phi_tilde=phi_tilde,
        value=point.value,
        psi=psi,
        pressure_residual=pressure_residual,
        marginal_residual=marginal_residual,
        duality_gap=float(duality_gap),
        iterations=int(iterations),
        marginal_tolerance=float(marginal_tol),
        plan=plan,
    )
    if pressure_residual > PRESSURE_RESIDUAL_TOL or marginal_residual > marginal_tol:
        raise CertificateError(
            f"dual certificate failed: pressure residual {pressure_residual:.3e}, "
            f"marginal residual {marginal_residual:.3e}",
            solution=solution,
        )
    return solution


def solve_dual(cost, mu, grad_tol=GRAD_TOL, v0=None,
               marginal_tol=MARGINAL_RESIDUAL_TOL,
               allow_resolution_stall=False):
    """Minimize F on the gauge slice phi(0) = 0 and certify the minimizer.

    One Newton loop serves every #X (for #X = 1 the gradient is
    identically 0).  Each iteration evaluates F, its gradient and its
    exact Hessian once, takes the Newton step on the slice (a gradient
    step where the Newton step is non-finite, not a descent direction or
    too small to move the potential), and brackets the step length on the
    sign of the directional derivative, which is monotone because F is
    convex.  Values of F are never compared: on strongly scaled costs
    they drown in float noise.  Where the derivative is flat, the bracket
    is searched from its ends at doubly exponentially shrinking distances
    (``_scale_free``), so a sign change a few ulps from an end costs a
    few dozen evaluations rather than one per bit of the bracket's width.
    At most ``MAX_ITER`` Newton steps run, and
    the certificate requires a pressure residual within
    ``PRESSURE_RESIDUAL_TOL``.  The returned solution carries the
    zero-pressure gauge; ``iterations`` counts Newton steps.

    Parameters
    ----------
    cost : CostTensor
    mu : Marginal
        Full-support x-marginal (full support gives coercivity).
    grad_tol : float
        Sup-norm tolerance on the full marginal gradient.
    v0 : array, optional
        Warm start for the free components phi(1), ..., phi(k).
    marginal_tol : float
        Tolerance of the certificate's marginal residual.
    allow_resolution_stall : bool
        On strongly scaled costs the constrained marginal can sweep its
        whole range across a potential window narrower than one float ulp,
        making small gradients unrepresentable.  With this flag a true
        pin is accepted: the line bracket collapsed to adjacent floats and
        the slice gradient at both ends is parallel to the line (always so
        for #X = 2).  The marginal tolerance is then relaxed to the
        measured jump, the larger gradient at the two ends.

    Raises
    ------
    ConvergenceError
        Iteration cap exceeded, a collapsed bracket that is no true pin,
        or a true pin above tolerance without ``allow_resolution_stall``.
    CertificateError
        Residuals above tolerance; the solution is attached.
    """
    if not isinstance(mu, Marginal):
        mu = Marginal(mu)
    if mu.size != cost.num_x:
        raise SpecValidationError(
            f"mu has {mu.size} entries, cost has {cost.num_x} x-rows"
        )
    v = np.zeros(cost.num_x - 1) if v0 is None else np.asarray(v0, dtype=float)
    point = _Evaluation(cost, np.concatenate(([0.0], v)), mu.weights)
    iterations = 0
    while point.residual > grad_tol and point.grad[1:].any():
        if iterations == MAX_ITER:
            raise ConvergenceError(
                f"dual solve exhausted {MAX_ITER} iterations "
                f"(gradient {point.residual:.3e})",
                residual=point.residual,
                iterations=MAX_ITER,
            )
        iterations += 1
        step = _newton_step(point)
        point, pin = _line_search(cost, mu.weights, point, step, grad_tol)
        if pin is None or point.residual <= grad_tol:
            continue
        jump = max(end.residual for end in pin)
        true_pin = all(_parallel(end.grad[1:], step, grad_tol) for end in pin)
        if not (allow_resolution_stall and true_pin):
            kind = "pinned" if true_pin else "pinned off the line minimum"
            raise ConvergenceError(
                f"dual solve {kind} between adjacent floats "
                f"with gradient {jump:.3e}",
                residual=jump,
                iterations=iterations,
            )
        marginal_tol = max(marginal_tol, jump)
        break
    return _certify(cost, point, mu, iterations, marginal_tol)


def _newton_step(point):
    """Newton step on the slice, or a gradient step where it is unusable.

    At large beta the Poisson solve can return finite but absurd values,
    so the Newton step is dropped when it is non-finite or not a descent
    direction; the fallback is the gradient scaled to a unit move.  A
    Newton step too small to move the potential at all puts the minimizer
    within float resolution: the fallback then starts at a one-ulp move.
    """
    g = point.grad[1:]
    try:
        step = np.linalg.solve(point.hessian()[1:, 1:], g)
    except (np.linalg.LinAlgError, ConvergenceError):
        step = None
    if step is None or not np.isfinite(step).all() or g @ step <= 0.0:
        return g / np.abs(g).max()
    v = point.phi[1:]
    if np.array_equal(v - step, v):
        return g * (np.spacing(np.abs(v).max()) / np.abs(g).max())
    return step


def _parallel(g, step, tol):
    """Whether the part of ``g`` off the line ``step`` is below ``tol``."""
    unit = step / np.abs(step).max()
    unit /= np.linalg.norm(unit)
    return float(np.abs(g - (g @ unit) * unit).max()) <= tol


def _line_search(cost, mu_w, point, step, grad_tol):
    """Move along ``-step`` to where the directional derivative changes sign.

    ``s(t) = g(v - t*step) . step`` is nonincreasing in ``t`` because F is
    convex.  The first trial is the full step (capped at ``_STEP_CAP``);
    ``t`` doubles while ``s`` stays positive, then a guarded secant, or
    bisection when the secant did not halve the bracket, narrows it.  A
    trial is accepted once ``|s(t)| <= _SLOPE_FRACTION * s(0)`` or its
    gradient is within ``grad_tol``.

    The slope is flat when a trial repeats the slope of the bracket end on
    its side, up to what ``grad_tol`` resolves along ``step``.  A flat
    slope says nothing about where it changes sign, and on a saturated
    flank of F the sign change often sits a few ulps from one end of a
    bracket many orders wider.  The first flat trial hands the trial
    points to ``_scale_free`` until it has found the distance of the sign
    change from an end within a factor 2; bisection then goes on, with the
    secant only after a trial whose slope is not flat.  A probe that
    rounds onto an end's potential takes that end's side unevaluated.

    Returns ``(point, None)``, or, when the bracket has collapsed to
    adjacent floats, its endpoint with the smaller gradient and the pair
    of endpoints.
    """
    v = point.phi[1:]

    def at(t):
        return np.concatenate(([0.0], v - t * step))

    s0 = float(point.grad[1:] @ step)
    reach = float(np.abs(step).max())
    slope_tol = grad_tol * float(np.abs(step).sum())
    lo, s_lo, end_lo = 0.0, s0, point
    hi = s_hi = end_hi = None
    t = min(1.0, _STEP_CAP / reach)
    width = np.inf
    probes = None
    while True:
        trial = _Evaluation(cost, at(t), mu_w)
        s = float(trial.grad[1:] @ step)
        if trial.residual <= grad_tol or abs(s) <= _SLOPE_FRACTION * s0:
            return trial, None
        on_lo = s > 0.0
        if on_lo:
            flat = abs(s - s_lo) <= slope_tol
            lo, s_lo, end_lo = t, s, trial
        else:
            flat = hi is not None and abs(s - s_hi) <= slope_tol
            hi, s_hi, end_hi = t, s, trial
        if hi is None:
            t *= 2.0
            if t * reach > _MAX_MOVE:
                raise ConvergenceError(
                    "dual line search found no sign change of the slope",
                    residual=trial.residual,
                )
            continue
        if probes is None and flat:
            probes, on_lo = _scale_free(lo, hi), None
        t = None
        while probes:
            try:
                t = probes.send(on_lo)
            except StopIteration:
                probes, t = (), None  # spent: bisection from here on
                break
            trial_phi = at(t)
            if np.array_equal(trial_phi, end_lo.phi):
                lo, on_lo = t, True
            elif np.array_equal(trial_phi, end_hi.phi):
                hi, on_lo = t, False
            else:
                break
        if t is not None:
            continue
        previous, width = width, hi - lo
        t = 0.5 * (lo + hi)
        mid = at(t)
        if np.array_equal(mid, end_lo.phi) or np.array_equal(mid, end_hi.phi):
            pin = (end_lo, end_hi)
            return min(pin, key=lambda end: end.residual), pin
        if width <= 0.5 * previous and not flat:
            secant = lo + s_lo * width / (s_lo - s_hi)
            if lo + 0.01 * width < secant < hi - 0.01 * width:
                t = secant


def _scale_free(lo, hi):
    """Trial points that find a sign change of unknown scale in ``(lo, hi)``.

    A generator: each trial point it yields is answered with ``send(True)``
    when the sign change lies beyond it seen from ``lo``, else
    ``send(False)``.  It probes at distances ``w/4, w/16, w/256, ...``
    (``w = hi - lo``, each the square of the last in units of ``w``) from
    the ends in turn, dropping an end once a probe shows the sign change
    is farther from it, and stays with the end a probe shows it is near.
    Once a probe from that end falls short of the sign change, its
    distance is known within the factor between two probes, and geometric
    halving narrows that to 2.  So a sign change at distance ``delta``
    from the nearer end costs ``O(log log(w/delta))`` probes, and the
    bisection after it ``log2(delta/ulp)``, where bisection alone takes
    ``log2(w/ulp)``.  Mid-bracket sign changes return after two probes.
    """
    width = hi - lo
    far = 0.25 * width
    if not (yield lo + far):
        anchor, sign = lo, 1.0
    elif (yield hi - far):
        anchor, sign = hi, -1.0
    else:
        return
    # the sign change lies within ``far`` of the anchor: probe closer until
    # a probe falls short of it (a probe on the anchor's side)
    while True:
        near = far * far / width
        if near == 0.0:
            return
        if (yield anchor + sign * near) == (sign > 0.0):
            break
        far = near
    while far > 2.0 * near:
        x = np.sqrt(near) * np.sqrt(far)
        if (yield anchor + sign * x) == (sign > 0.0):
            near = x
        else:
            far = x
