"""Zero-temperature machinery: tropical eigendata, beta sweeps, constrained limits.

The scaled family ``beta * c`` concentrates, as ``beta`` grows, on plans
maximizing ``integral(c)``.  The exact side of the limit is a max-plus
eigenproblem on block states: the maximal ergodic average is the maximum
cycle mean of the tropical weights ``W(b -> succ(b, a)) = max_x c(x, a.b)``
and the subaction solves the tropical fixed point

    V(b) = max_{x,a} [ c(x, a.b) - m + V(succ(b, a)) ].

Cycle means and the fixed point are computed in exact dyadic-rational
arithmetic (floats are dyadic), so the cycle-mean value agrees bit for
bit with exhaustive enumeration.  The spectral side (beta sweeps) stays
entirely in log domain; ``exp(beta * c)`` is never formed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._tropical import calibrated_subaction, karp_cycle_mean
from .errors import CertificateError, ConvergenceError, SpecValidationError
from .plans import gibbs_plan, plan_mass_table
from .symbolic import CostTensor, Marginal, decode_word
from .transfer import (
    action_view,
    block_count,
    effective_cost,
    log_perron,
    normalize_cost,
    reduced_cost,
    successor_table,
)
from .dual import shift_cost, solve_dual

__all__ = [
    "TropicalMatrix",
    "MaxPlusSolution",
    "BetaSweepRecord",
    "UnconstrainedZeroTemp",
    "ConstrainedZeroTemp",
    "default_beta_grid",
    "maxplus_lift",
    "karp_value",
    "subaction_solve",
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
    """``betas`` as floats, the default grid for None; positive and strictly increasing."""
    betas = default_beta_grid() if betas is None else [float(b) for b in betas]
    if any(b <= 0 for b in betas) or any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise SpecValidationError("betas must be positive and strictly increasing")
    return betas


@dataclass(frozen=True)
class TropicalMatrix:
    """Max-plus transition data on block states, in the action layout.

    ``weights[b, a] = max_x c(x, a.b)`` is the weight of the edge from
    block ``b`` to ``succ[b, a]``, with ``argmax_x[b, a]`` recording which
    x attains the maximum (lowest index on ties) for support extraction.
    """

    weights: np.ndarray
    argmax_x: np.ndarray
    succ: np.ndarray
    alphabet_size: int
    depth: int

    @property
    def size(self):
        return self.weights.shape[0]


def maxplus_lift(cost):
    """Tropical weights of a cost: entrywise max over x."""
    cost = effective_cost(cost)
    ct = action_view(cost)
    succ = successor_table(cost.alphabet_size, block_count(cost))
    return TropicalMatrix(ct.max(axis=0), ct.argmax(axis=0), succ,
                          cost.alphabet_size, cost.depth)


def karp_value(tropical):
    """Maximum cycle mean of the tropical matrix (exact at double precision)."""
    mean, _ = karp_cycle_mean(tropical.weights, tropical.succ)
    return float(mean)


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


def subaction_solve(tropical, m, cost=None):
    """Calibrated subaction for a given maximal mean.

    Value-iterates the reduced Bellman operator toward a vertex on a
    critical cycle, in exact arithmetic; non-stabilization within the cap
    signals that ``m`` is not the maximum cycle mean.  The result is
    gauge-fixed by ``max V = 0``.
    """
    m_frac, cycle = karp_cycle_mean(tropical.weights, tropical.succ)
    if abs(float(m_frac) - m) > 1e-12 * max(1.0, abs(m)):
        raise SpecValidationError(
            f"supplied mean {m!r} disagrees with the maximum cycle mean {float(m_frac)!r}"
        )
    v = calibrated_subaction(tropical.weights, tropical.succ, m_frac, cycle)
    if cost is not None:
        ct = action_view(effective_cost(cost))
    else:
        ct = tropical.weights[None, :, :]
    expr = reduced_cost(ct, v, m)
    per_state = expr.max(axis=(0, 2))
    return MaxPlusSolution(
        m=float(m),
        subaction=v,
        optimal_cycle=tuple(int(s) for s in cycle),
        calibration_residual=float(np.abs(per_state).max()),
        feasibility_residual=float(max(0.0, expr.max())),
    )


@dataclass(frozen=True)
class BetaSweepRecord:
    """One row of a scaled-cost sweep."""

    beta: float
    log_lambda_over_beta: float
    log_h_over_beta: np.ndarray
    gap_to_limit: float
    phi_over_beta: np.ndarray | None = None


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


def beta_sweep(cost, betas=None):
    """Log-domain eigenvalue sweep over increasing inverse temperatures.

    Each record carries ``log(lambda_beta)/beta`` and the gauged
    ``log(h_beta)/beta``; the bracket
    ``beta*m <= log(lambda_beta) <= beta*m + log(#X) + log(d)`` is asserted
    at every beta.
    """
    cost = effective_cost(cost)
    betas = _beta_grid(betas)
    m = karp_value(maxplus_lift(cost))
    records = []
    for beta in betas:
        scaled = CostTensor(cost.values * beta, cost.alphabet_size, cost.depth)
        log_lam, u, _, _ = log_perron(scaled)
        _check_sandwich(beta, log_lam, m, cost.num_x, cost.alphabet_size)
        records.append(BetaSweepRecord(
            beta=beta,
            log_lambda_over_beta=log_lam / beta,
            log_h_over_beta=u / beta,
            gap_to_limit=log_lam / beta - m,
        ))
    return records


@dataclass(frozen=True)
class UnconstrainedZeroTemp:
    """Exact max-plus data cross-checked against the spectral sweep."""

    m: float
    subaction: np.ndarray
    optimal_cycle: tuple[int, ...]
    sweep: list[BetaSweepRecord] = field(repr=False)
    calibration_residual: float = 0.0
    feasibility_residual: float = 0.0
    h_vs_subaction_distance: float = float("nan")
    monotone_gap: bool = True


def zero_temp_unconstrained(cost, betas=None):
    """Combine the exact tropical solve with the scaled spectral sweep.

    The sweep's last entry must satisfy
    ``|log(lambda)/beta - m| <= log(#X * d)/beta``; the distance between
    the scaled log-eigenfunction and the subaction is reported but, since
    only subsequential convergence is guaranteed, never asserted.
    """
    cost = effective_cost(cost)
    tropical = maxplus_lift(cost)
    m = karp_value(tropical)
    sol = subaction_solve(tropical, m, cost=cost)
    sweep = beta_sweep(cost, betas)
    last = sweep[-1]
    bound = np.log(cost.num_x * cost.alphabet_size) / last.beta
    gap = abs(last.log_lambda_over_beta - m)
    if gap > bound + 1e-12 * max(1.0, abs(m)):
        raise ConvergenceError(
            f"sweep cross-check failed: |log(lambda)/beta - m| = {gap:.3e} "
            f"exceeds {bound:.3e}",
            residual=gap,
        )
    scaled_h = last.log_h_over_beta - last.log_h_over_beta.max()
    aligned_v = sol.subaction - sol.subaction.max()
    gaps = [rec.gap_to_limit for rec in sweep]
    monotone = bool(all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:])))
    if not monotone:
        # only subsequential convergence is guaranteed, so this is a flag
        warnings.warn("gap to the ergodic limit is not monotone along the grid",
                      RuntimeWarning, stacklevel=2)
    return UnconstrainedZeroTemp(
        m=m,
        subaction=sol.subaction,
        optimal_cycle=sol.optimal_cycle,
        sweep=sweep,
        calibration_residual=sol.calibration_residual,
        feasibility_residual=sol.feasibility_residual,
        h_vs_subaction_distance=float(np.abs(scaled_h - aligned_v).max()),
        monotone_gap=monotone,
    )


@dataclass(frozen=True)
class ConstrainedZeroTemp:
    """Scaled dual limit data with feasibility and slackness certificates.

    ``m_tilde = phi_beta / beta`` and ``V_tilde`` (scaled log-eigenfunction)
    are taken at the largest beta; the certificate, not extrapolation,
    carries the correctness claim.
    """

    m_tilde: np.ndarray
    v_tilde: np.ndarray
    value: float
    support_plan: list
    feasibility_residual: float
    support_equality_residual: float
    slack_tolerance: float
    records: list[BetaSweepRecord] = field(repr=False)


def zero_temp_constrained(cost, mu, betas=None):
    """Constrained zero-temperature limit via warm-started dual solves.

    For each beta the dual problem for ``beta * c`` is solved (warm
    started along the grid); at the largest beta the scaled dual data must
    satisfy the subaction inequality everywhere, with near-equality on
    every support entry, a plan cylinder of mass above
    ``SUPPORT_MASS_THRESHOLD``.
    """
    cost = effective_cost(cost)
    if not isinstance(mu, Marginal):
        mu = Marginal(mu)
    betas = _beta_grid(betas)

    records = []
    v_warm = None
    prev_beta = None
    solution = None
    for beta in betas:
        scaled = CostTensor(cost.values * beta, cost.alphabet_size, cost.depth)
        if v_warm is not None:
            v_warm = v_warm * (beta / prev_beta)
        # the marginal can sweep its range over a sub-ulp potential window at
        # large beta; accept resolution stalls, the subaction certificate and
        # the value window carry the correctness claim
        solution = solve_dual(scaled, mu, grad_tol=1e-8, v0=v_warm,
                              allow_resolution_stall=True)
        v_warm = solution.phi_tilde[0] - solution.phi_tilde  # slice gauge phi(0)=0
        v_warm = v_warm[1:]
        prev_beta = beta
        log_lam, _, _, _ = log_perron(scaled)
        records.append(BetaSweepRecord(
            beta=beta,
            log_lambda_over_beta=log_lam / beta,
            log_h_over_beta=solution.psi / beta,
            gap_to_limit=float("nan"),
            phi_over_beta=solution.phi_tilde / beta,
        ))

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
            f"(x={x_w}, a={a_w}, block={b_w})",
            residuals={"feasibility_residual": feasibility_residual},
        )

    scaled = CostTensor(cost.values * beta_max, cost.alphabet_size, cost.depth)
    plan = gibbs_plan(normalize_cost(shift_cost(scaled, -solution.phi_tilde)))
    masses = plan_mass_table(plan, cost.depth)
    xs, ws = np.nonzero(masses > SUPPORT_MASS_THRESHOLD)
    support_plan = [(x, decode_word(w, cost.depth, cost.alphabet_size), mass)
                    for x, w, mass in zip(xs.tolist(), ws.tolist(), masses[xs, ws].tolist())]
    # expr[x, b, a] is the reduced cost of the word a + d*b
    slackness = max([0.0, *(-expr.reshape(cost.num_x, -1)[xs, ws]).tolist()])
    slack_tolerance = -np.log(SUPPORT_MASS_THRESHOLD) / beta_max + 1e-9
    if slackness > slack_tolerance:
        raise CertificateError(
            f"support slackness residual {slackness:.3e} exceeds {slack_tolerance:.3e}",
            residuals={"support_equality_residual": slackness},
        )
    return ConstrainedZeroTemp(
        m_tilde=m_tilde,
        v_tilde=v_tilde,
        value=value,
        support_plan=support_plan,
        feasibility_residual=feasibility_residual,
        support_equality_residual=slackness,
        slack_tolerance=float(slack_tolerance),
        records=records,
    )
