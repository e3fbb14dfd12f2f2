"""Solvers for plans on X x {1..d}^N with finite-memory costs.

Spectral computations for the weighted shift operator, Gibbs and
equilibrium plans with their entropy, the constrained (fixed x-marginal)
pressure problem by convex duality, and zero-temperature limits with
max-plus certificates.
"""

from .errors import CertificateError, ConvergenceError, SpecValidationError
from .symbolic import (
    CostTensor,
    Marginal,
    ProblemSpec,
    build_problem,
    decode_word,
    encode_word,
    lift_depth,
    load_problem,
)
from .transfer import (
    MarkovMeasure,
    NormalizedCost,
    markov_entropy_rate,
    normalize_cost,
    nu_cylinder,
    nu_cylinder_table,
    pressure,
)
from .plans import (
    FiniteMemoryPlan,
    entropy,
    equilibrium_plan,
    export_plan,
    gibbs_plan,
    integral_log_jacobian,
    integrate_cost,
    jacobian_n,
    marginal_x,
    marginal_y,
    periodic_orbit_measure,
    plan_cylinder,
    plan_mass_table,
    product_plan,
    smoothed_log_jacobian,
    uniform_bernoulli_measure,
)
from .dual import (
    DualSolution,
    constrained_equilibrium,
    dual_gradient,
    dual_objective,
    eigencurve_conditions,
    mu_pressure,
    shift_cost,
    slackness_certificate,
    solve_dual,
)
from .zerotemp import (
    BetaSweepRecord,
    ConstrainedZeroTemp,
    MaxPlusSolution,
    UnconstrainedZeroTemp,
    beta_sweep,
    default_beta_grid,
    maxplus_solve,
    zero_temp_constrained,
    zero_temp_unconstrained,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
