"""Command-line front door: parse problem documents, dispatch, report.

Exit codes: 0 success, 2 validation error, 3 certificate or solver failure
(one stderr line; a failed ``dual`` or ``certify`` certificate also writes
its report with the residuals, and ``certify`` its ``passed: false``).
Every number in a report comes from a solve or check the verb runs, and
each is printed once.  Reports are deterministic; wall time goes to stderr
so repeated runs stay byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time

import numpy as np

from . import dual
from .errors import CertificateError, ConvergenceError, SpecValidationError
from .plans import FiniteMemoryPlan, entropy, export_plan, gibbs_plan
from .symbolic import _numbers, load_problem
from .transfer import (
    MarkovMeasure,
    effective_cost,
    log_perron,
    normalize_cost,
    successor_table,
)
from .report import SparseRows, render_report
from .zerotemp import (
    default_beta_grid,
    zero_temp_constrained,
    zero_temp_unconstrained,
)

VERBS = ("pressure", "gibbs", "entropy", "dual", "zerotemp", "certify")
# a plan export holds #X * d**depth rows; the largest benchmark export is 3 * 2**12
MAX_EXPORT_ROWS = 2**18
# the largest duality gap a passing ``certify`` certificate may show
DUALITY_GAP_TOL = 1e-7
# the least value of each numeric flag; a tolerance must also be nonzero
FLAG_MINIMUM = {"tol_eigen": 0.0, "tol_dual": 0.0, "beta_max": 1.0, "depth": 1}


def _check_flags(args):
    """Reject flag values no verb can run with, before the spec is read."""
    for dest, least in FLAG_MINIMUM.items():
        value = getattr(args, dest)
        if value is not None and not (math.isfinite(value) and value >= least and value):
            need = f"at least {least}" if least else "positive"
            raise SpecValidationError(f"--{dest.replace('_', '-')} must be finite and {need}, "
                                      f"got {value!r}")


def _export_depth(args, cost):
    """The plan export depth, refused before any table of ``d**depth`` rows is built."""
    depth = cost.depth if args.depth is None else args.depth
    # past the cap's bit length every d >= 2 exceeds it, without forming d**depth
    if (depth > MAX_EXPORT_ROWS.bit_length()
            or cost.num_x * cost.alphabet_size**depth > MAX_EXPORT_ROWS):
        raise SpecValidationError(f"a plan export at depth {depth} has more than "
                                  f"{MAX_EXPORT_ROWS} rows of #X * d**depth")
    return depth


def _plan_from_spec(spec):
    """Optional plan section: jacobian (x, a, b) flat, q and p over blocks.

    Each of the three is a flat list of numbers, checked like ``cost``.
    ``jacobian`` is read into the plan's ``[x, b, a]`` layout as a
    transposed view.  ``q`` is the dense ``(successor, block)`` matrix; it
    is read on the successor pattern into the action layout, and every
    entry off that pattern must be 0.
    """
    doc = spec.extras.get("plan")
    if doc is None:
        return None
    d = spec.alphabet_size
    memory = max(spec.depth, 2)
    n_blocks = d ** (memory - 1)
    try:
        q = _numbers(doc, "q").reshape(n_blocks, n_blocks)
        p = _numbers(doc, "p").reshape(n_blocks)
        jac = _numbers(doc, "jacobian").reshape(spec.num_x, d, n_blocks).transpose(0, 2, 1)
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecValidationError(f"invalid plan section: {exc}") from exc
    q_ab = q[successor_table(d, n_blocks), np.arange(n_blocks)[:, None]]
    if np.count_nonzero(q) != np.count_nonzero(q_ab):
        raise SpecValidationError("plan q has nonzero entries off the successor pattern")
    nu = MarkovMeasure(q_ab, p, d)
    return FiniteMemoryPlan(jac, nu, memory)


def _grid(spec, args):
    if args.beta_max is not None:
        return default_beta_grid(args.beta_max)
    if spec.beta_grid is not None:
        return list(spec.beta_grid)
    return default_beta_grid()


def _run_pressure(spec, args):
    cost = effective_cost(spec.cost)
    log_lam, _, residual, iterations = log_perron(cost, tol=args.tol_eigen)
    return {
        "pressure": log_lam,
        "eigen_residual": residual,
        "iterations": iterations,
    }


def _transition_rows(measure):
    """The dense ``(successor, block)`` chain as sparse rows of the action layout.

    Row ``b'`` is reached from the blocks ``b'//d + k*n/d`` by prepending
    the symbol ``b' % d``.
    """
    d, n = measure.alphabet_size, measure.n_blocks
    succ_rows = np.arange(n)[:, None]
    cols = succ_rows // d + np.arange(d)[None, :] * (n // d)
    return SparseRows(n, cols, measure.q[cols, succ_rows % d])


def _run_gibbs(spec, args):
    cost = effective_cost(spec.cost)
    depth = _export_depth(args, cost)
    normalized = normalize_cost(cost, tol=args.tol_eigen)
    plan = gibbs_plan(normalized)
    measure = plan.nu
    return {
        "pressure": normalized.log_lambda,
        "stationary": measure.p,
        "transition": _transition_rows(measure),
        "plan": export_plan(plan, depth),
    }


def _run_entropy(spec, args):
    plan = _plan_from_spec(spec)
    if plan is not None:
        return {"entropy": entropy(plan), "source": "plan"}
    normalized = normalize_cost(effective_cost(spec.cost), tol=args.tol_eigen)
    return {"entropy": entropy(gibbs_plan(normalized)), "source": "equilibrium",
            "pressure": normalized.log_lambda}


def _require_mu(spec, verb):
    if spec.mu is None:
        raise SpecValidationError(f"verb '{verb}' requires a mu field in the spec")
    return spec.mu


def _dual_report(solution):
    return {
        "phi_tilde": solution.phi_tilde,
        "value": solution.value,
        "pressure_residual": solution.pressure_residual,
        "marginal_residual": solution.marginal_residual,
        "duality_gap": solution.duality_gap,
        "iterations": solution.iterations,
    }


def _run_dual(spec, args):
    mu = _require_mu(spec, "dual")
    solution = dual.solve_dual(spec.cost, mu, marginal_tol=args.tol_dual)
    return _dual_report(solution)


def _passed(solution, marginal_tol):
    """The ``certify`` verdict on the three residuals of the certified dual solve."""
    return bool(
        solution.pressure_residual <= dual.PRESSURE_RESIDUAL_TOL
        and solution.marginal_residual <= marginal_tol
        and solution.duality_gap <= DUALITY_GAP_TOL
    )


def _run_certify(spec, args):
    mu = _require_mu(spec, "certify")
    solution = dual.solve_dual(spec.cost, mu, marginal_tol=args.tol_dual)
    report = _dual_report(solution)
    report["passed"] = _passed(solution, args.tol_dual)
    if not report["passed"]:
        raise CertificateError(
            f"certify certificate failed: pressure residual {solution.pressure_residual:.3e}, "
            f"marginal residual {solution.marginal_residual:.3e}, "
            f"duality gap {solution.duality_gap:.3e}",
            solution=solution,
        )
    return report


def _sweep_rows(records):
    """Each record's fields in order, arrays spread, as one space-joined row."""
    return [" ".join(format(v, ".17g") for v in np.hstack(list(vars(rec).values())).tolist())
            for rec in records]


def _run_zerotemp(spec, args):
    betas = _grid(spec, args)
    if spec.mu is None:
        result = zero_temp_unconstrained(spec.cost, betas)
        return {
            "mode": "unconstrained",
            "m": result.m,
            "subaction": result.subaction,
            "optimal_cycle": list(result.optimal_cycle),
            "calibration_residual": result.calibration_residual,
            "feasibility_residual": result.feasibility_residual,
            "sweep": _sweep_rows(result.sweep),
        }
    result = zero_temp_constrained(spec.cost, spec.mu, betas)
    return {
        "mode": "constrained",
        "m_tilde": result.m_tilde,
        "v_tilde": result.v_tilde,
        "value": result.value,
        "support_plan": [[x, list(word), mass] for x, word, mass in result.support_plan],
        "certificate": {
            "feasibility_residual": result.feasibility_residual,
            "support_equality_residual": result.support_equality_residual,
            "slack_tolerance": result.slack_tolerance,
            "marginal_residual": result.marginal_residual,
            "marginal_tolerance": result.marginal_tolerance,
        },
        "sweep": _sweep_rows(result.records),
    }


_RUNNERS = {
    "pressure": _run_pressure,
    "gibbs": _run_gibbs,
    "entropy": _run_entropy,
    "dual": _run_dual,
    "zerotemp": _run_zerotemp,
    "certify": _run_certify,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ergotrans",
        description="Solvers for finite-memory costs on X x {1..d}^N: "
                    "pressure, Gibbs plans, entropy, constrained duality, "
                    "zero-temperature limits.",
    )
    parser.add_argument("verb", choices=VERBS)
    parser.add_argument("--spec", required=True, help="problem document (JSON); every verb")
    parser.add_argument("--out", help="write the report here instead of stdout; every verb")
    parser.add_argument("--tol-eigen", type=float, default=1e-13, dest="tol_eigen",
                        help="eigensolve tolerance; read by pressure, gibbs and entropy")
    parser.add_argument("--tol-dual", type=float, default=1e-7, dest="tol_dual",
                        help="marginal tolerance of the dual solve; read by dual and certify")
    parser.add_argument("--beta-max", type=float, default=None, dest="beta_max",
                        help="last point of the grid 1, 2, 4, ...; read by zerotemp")
    parser.add_argument("--depth", type=int, default=None,
                        help=f"cylinder depth of the plan export, #X * d**depth at most "
                             f"{MAX_EXPORT_ROWS}; read by gibbs")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    exit_code = 0
    try:
        _check_flags(args)
        spec, raw = load_problem(args.spec)
        digest = hashlib.sha256(raw).hexdigest()
        results = _RUNNERS[args.verb](spec, args)
    except OSError as exc:
        print(f"error: cannot read spec: {exc}", file=sys.stderr)
        return 2
    except SpecValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        if exc.solution is None:
            return 3
        results = _dual_report(exc.solution)
        if args.verb == "certify":
            results["passed"] = _passed(exc.solution, args.tol_dual)
        results["certificate_error"] = str(exc)
        exit_code = 3
    except ConvergenceError as exc:
        print(f"solver failure: {exc} (residual {exc.residual:.3e})", file=sys.stderr)
        return 3

    report = {
        "verb": args.verb,
        "spec_digest": digest,
        "tolerances": {
            "tol_eigen": args.tol_eigen,
            "tol_dual": args.tol_dual,
            "beta_max": args.beta_max if args.beta_max is not None else 0.0,
        },
        "results": results,
    }
    text = render_report(report)
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    elapsed_ms = (time.perf_counter() - started) * 1e3
    print(f"wall_time_ms={elapsed_ms:.3f}", file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
