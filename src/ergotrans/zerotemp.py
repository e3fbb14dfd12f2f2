"""Zero-temperature machinery: the exact max-plus solve, beta sweeps, constrained limits.

The scaled family ``beta * c`` concentrates, as ``beta`` grows, on plans
maximizing ``integral(c)``.  The exact side of the limit is a max-plus
eigenproblem on block states: the maximal ergodic average is the maximum
cycle mean of the tropical weights ``W(b -> succ(b, a)) = max_x c(x, a.b)``
and the subaction solves the tropical fixed point

    V(b) = max_{x,a} [ c(x, a.b) - m + V(succ(b, a)) ].

``maxplus_solve`` is the one exact solve: one max-plus policy iteration,
started from the float Howard policy and finished in exact dyadic-rational
arithmetic (floats are dyadic), gives ``m``, a critical cycle and the
calibrated subaction, so the cycle-mean value agrees bit for bit with
exhaustive enumeration.  ``beta_sweep`` certifies its spectral bracket
against that exact mean.  The constrained sweep follows the constrained
pressure ``P_mu(beta * c)``, the value of each certified dual solve, and
the constrained limit takes its dual data and support plan from the solve
at the largest beta.  The spectral side stays in log domain;
``exp(beta * c)`` is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._tropical import exact_policy_iteration
from .errors import CertificateError, ConvergenceError, SpecValidationError
from .plans import plan_mass_table
from .symbolic import CostTensor, Marginal, decode_word
from .transfer import (
    action_view,
    block_count,
    effective_cost,
    log_perron,
    reduced_cost,
    successor_table,
)
from .dual import solve_dual

__all__ = [
    "MaxPlusSolution",
    "BetaSweepRecord",
    "ConstrainedSweepRecord",
    "UnconstrainedZeroTemp",
    "ConstrainedZeroTemp",
    "default_beta_grid",
    "maxplus_solve",
    "beta_sweep",
    "zero_temp_unconstrained",
    "zero_temp_constrained",
]

DEFAULT_BETA_MAX = 2**14
SUPPORT_MASS_THRESHOLD = 1e-8


def default_beta_grid(beta_max=DEFAULT_BETA_MAX):
    """Geometric grid 1, 2, 4, ... capped at beta_max."""
    grid = []
    b = 1.0
    while b <= beta_max:
        grid.append(b)
        b *= 2.0
    return grid


def _beta_grid(betas):
    """``betas`` as floats, the default grid for None; nonempty, positive and increasing."""
    betas = default_beta_grid() if betas is None else [float(b) for b in betas]
    if (not betas or any(b <= 0 for b in betas)
            or any(b2 <= b1 for b1, b2 in zip(betas, betas[1:]))):
        raise SpecValidationError("betas must be nonempty, positive and strictly increasing")
    return betas


def _tropical_lift(cost):
    """``(weights, succ)``: ``weights[b, a] = max_x c(x, a.b)`` on the edge ``b -> succ[b, a]``."""
    weights = action_view(cost).max(axis=0)
    return weights, successor_table(cost.alphabet_size, block_count(cost))


@dataclass(frozen=True)
class MaxPlusSolution:
    """Maximal ergodic average, calibrated subaction and certificates.

    ``feasibility_residual`` is the positive part of the calibrated
    expression's maximum (must vanish); ``calibration_residual`` is the
    worst distance, over states, of the per-state maximum from zero.
    """

    m: float
    subaction: np.ndarray
    optimal_cycle: tuple[int, ...]
    calibration_residual: float
    feasibility_residual: float


def maxplus_solve(cost):
    """The exact max-plus eigendata of a cost, with its residuals on the full cost.

    One exact policy iteration (``_tropical.exact_policy_iteration``) gives
    the maximum cycle mean ``m``, the critical policy cycle with the
    smallest root, and the calibrated subaction, the final policy's bias,
    gauge-fixed by ``max V = 0``.  The residuals are measured on
    ``c(x, a.b)`` for every x, not only on the tropical maximum.
    """
    cost = effective_cost(cost)
    m_frac, cycle, v = exact_policy_iteration(*_tropical_lift(cost))
    m = float(m_frac)
    expr = reduced_cost(action_view(cost), v, m)
    per_state = expr.max(axis=(0, 2))
    return MaxPlusSolution(
        m=m,
        subaction=v,
        optimal_cycle=tuple(int(s) for s in cycle),
        calibration_residual=float(np.abs(per_state).max()),
        feasibility_residual=float(max(0.0, expr.max())),
    )


@dataclass(frozen=True)
class BetaSweepRecord:
    """One row of an unconstrained sweep: ``log(lambda)/beta`` and its gap to ``m``."""

    beta: float
    log_lambda_over_beta: float
    gap_to_limit: float


@dataclass(frozen=True)
class ConstrainedSweepRecord:
    """One row of a constrained sweep: ``P_mu(beta*c)/beta`` and ``phi_tilde/beta``.

    Both come from the certified dual solve of ``beta * c``; its ``value``
    is the constrained pressure ``P_mu(beta*c)``.
    """

    beta: float
    pressure_over_beta: float
    phi_over_beta: np.ndarray


def _check_sandwich(beta, log_lam, m, num_x, d):
    lo = beta * m
    hi = beta * m + np.log(num_x) + np.log(d)
    slack = 1e-12 * max(1.0, abs(lo), abs(log_lam))
    violation = max(lo - log_lam, log_lam - hi)
    if not violation <= slack:
        raise ConvergenceError(
            f"spectral sandwich violated at beta={beta}: "
            f"{lo} <= {log_lam} <= {hi} fails beyond arithmetic slack",
            residual=violation,
        )


def beta_sweep(cost, m, betas=None):
    """Log-domain eigenvalue sweep over increasing inverse temperatures.

    Each record carries ``log(lambda_beta)/beta`` and its gap to ``m``; the bracket
    ``beta*m <= log(lambda_beta) <= beta*m + log(#X) + log(d)`` is asserted
    at every beta against ``m``, which must be the exact ``maxplus_solve(cost).m``
    for the bracket to certify the sweep.
    """
    cost = effective_cost(cost)
    betas = _beta_grid(betas)
    records = []
    for beta in betas:
        scaled = CostTensor(cost.values * beta, cost.alphabet_size, cost.depth)
        log_lam, _, _, _ = log_perron(scaled)
        _check_sandwich(beta, log_lam, m, cost.num_x, cost.alphabet_size)
        records.append(BetaSweepRecord(beta, log_lam / beta, log_lam / beta - m))
    return records


@dataclass(frozen=True)
class UnconstrainedZeroTemp(MaxPlusSolution):
    """The exact ``MaxPlusSolution`` cross-checked against the spectral sweep."""

    sweep: list[BetaSweepRecord] = field(repr=False)


def zero_temp_unconstrained(cost, betas=None):
    """Combine the exact ``maxplus_solve`` with the scaled spectral sweep.

    Every row satisfies ``beta_sweep``'s bracket, and the last one must
    also satisfy ``|log(lambda)/beta - m| <= log(#X * d)/beta``.
    """
    cost = effective_cost(cost)
    sol = maxplus_solve(cost)
    sweep = beta_sweep(cost, sol.m, betas)
    last = sweep[-1]
    bound = np.log(cost.num_x * cost.alphabet_size) / last.beta
    gap = abs(last.log_lambda_over_beta - sol.m)
    if gap > bound + 1e-12 * max(1.0, abs(sol.m)):
        raise ConvergenceError(
            f"sweep cross-check failed: |log(lambda)/beta - m| = {gap:.3e} "
            f"exceeds {bound:.3e}",
            residual=gap,
        )
    return UnconstrainedZeroTemp(**vars(sol), sweep=sweep)


@dataclass(frozen=True)
class ConstrainedZeroTemp:
    """Scaled dual limit data with feasibility and slackness certificates.

    ``m_tilde = phi_beta / beta`` and ``V_tilde`` (scaled log-eigenfunction)
    are taken at the largest beta; the certificate, not extrapolation,
    carries the correctness claim.  ``marginal_residual`` is the support
    plan's x-marginal error and ``marginal_tolerance`` the tolerance its
    dual solve applied, relaxed after a resolution stall.
    """

    m_tilde: np.ndarray
    v_tilde: np.ndarray
    value: float
    support_plan: list
    feasibility_residual: float
    support_equality_residual: float
    slack_tolerance: float
    marginal_residual: float
    marginal_tolerance: float
    records: list[ConstrainedSweepRecord] = field(repr=False)


def zero_temp_constrained(cost, mu, betas=None):
    """Constrained zero-temperature limit via warm-started dual solves.

    For each beta the dual problem for ``beta * c`` is solved (warm
    started along the grid); its row is that solve's ``value / beta`` and
    ``phi_tilde / beta``, and a dual certificate failure names its beta.
    At the largest beta the scaled dual data must satisfy the subaction
    inequality everywhere, with near-equality on every support entry, a
    cylinder of mass above ``SUPPORT_MASS_THRESHOLD`` in the certified
    plan of that dual solve.
    """
    cost = effective_cost(cost)
    if not isinstance(mu, Marginal):
        mu = Marginal(mu)
    betas = _beta_grid(betas)

    records, solution, v_warm = [], None, None
    for beta in betas:
        scaled = CostTensor(cost.values * beta, cost.alphabet_size, cost.depth)
        if solution is not None:  # the last minimizer on the slice phi(0) = 0, rescaled
            v_warm = (solution.phi_tilde[0] - solution.phi_tilde[1:]) * (beta / records[-1].beta)
        # the marginal can sweep its range over a sub-ulp potential window at
        # large beta; accept resolution stalls, the subaction certificate and
        # the value window carry the correctness claim
        try:
            solution = solve_dual(scaled, mu, grad_tol=1e-8, v0=v_warm,
                                  allow_resolution_stall=True)
        except CertificateError as exc:
            raise CertificateError(f"{exc} at beta={beta}") from exc
        records.append(ConstrainedSweepRecord(
            beta, solution.value / beta, solution.phi_tilde / beta))

    beta_max = betas[-1]
    m_tilde = solution.phi_tilde / beta_max
    v_tilde = solution.psi / beta_max
    value = float((mu.weights * m_tilde).sum())

    expr = reduced_cost(action_view(cost), v_tilde, m_tilde)
    feasibility_residual = float(max(0.0, expr.max()))
    if feasibility_residual > 1e-9:
        x_w, b_w, a_w = np.unravel_index(int(expr.argmax()), expr.shape)
        raise CertificateError(
            f"subaction feasibility residual {feasibility_residual:.3e} at "
            f"(x={x_w}, a={a_w}, block={b_w})")

    masses = plan_mass_table(solution.plan, cost.depth)  # the plan at beta_max
    xs, ws = np.nonzero(masses > SUPPORT_MASS_THRESHOLD)
    support_plan = [(x, decode_word(w, cost.depth, cost.alphabet_size), mass)
                    for x, w, mass in zip(xs.tolist(), ws.tolist(), masses[xs, ws].tolist())]
    # expr[x, b, a] is the reduced cost of the word a + d*b
    slackness = max([0.0, *(-expr.reshape(cost.num_x, -1)[xs, ws]).tolist()])
    slack_tolerance = -np.log(SUPPORT_MASS_THRESHOLD) / beta_max + 1e-9
    if slackness > slack_tolerance:
        raise CertificateError(
            f"support slackness residual {slackness:.3e} exceeds {slack_tolerance:.3e}")
    return ConstrainedZeroTemp(
        m_tilde=m_tilde,
        v_tilde=v_tilde,
        value=value,
        support_plan=support_plan,
        feasibility_residual=feasibility_residual,
        support_equality_residual=slackness,
        slack_tolerance=float(slack_tolerance),
        marginal_residual=solution.marginal_residual,
        marginal_tolerance=solution.marginal_tolerance,
        records=records,
    )
