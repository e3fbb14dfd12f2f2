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
    lift_depth,
    load_problem,
)
from .transfer import (
    MarkovMeasure,
    NormalizedCost,
    normalize_cost,
    nu_cylinder_table,
)
from .plans import (
    FiniteMemoryPlan,
    entropy,
    export_plan,
    gibbs_plan,
    integrate_cost,
    marginal_x,
    plan_mass_table,
)
from .dual import DualSolution, shift_cost, solve_dual
from .zerotemp import (
    BetaSweepRecord,
    ConstrainedSweepRecord,
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
