import math

import numpy as np
import pytest

from ergotrans.errors import CertificateError, ConvergenceError, SpecValidationError
from ergotrans.symbolic import CostTensor, Marginal
from ergotrans.transfer import effective_cost, gibbs_chain, log_perron
from ergotrans.plans import entropy, gibbs_plan, integrate_cost, marginal_x, plan_mass_table
from ergotrans import dual
from ergotrans.dual import _Evaluation, shift_cost, solve_dual

from conftest import (
    eigencurve_conditions,
    random_cost,
    random_marginal,
    scalar_entropy,
    scaled_dense_log_perron,
    slackness_certificate,
    survey_draw,
)


def grid_minimize_objective(cost, mu, radius=8.0, rounds=4, points=41):
    """Brute-force grid-plus-refinement minimization of F on the gauge slice."""
    assert cost.num_x == 2
    center, width = 0.0, radius
    best_v, best_f = 0.0, np.inf
    for _ in range(rounds):
        for v in np.linspace(center - width, center + width, points):
            f = _Evaluation(cost, np.array([0.0, v]), mu.weights).value
            if f < best_f:
                best_f, best_v = f, v
        center, width = best_v, width * 2.5 / (points - 1)
    return best_f, best_v


# --- objective -------------------------------------------------------------


def test_objective_at_zero_is_pressure():
    rng = np.random.default_rng(40)
    c = random_cost(rng, 2, 2, 2)
    mu = Marginal([0.4, 0.6])
    value = _Evaluation(c, np.zeros(2), mu.weights).value
    assert value == pytest.approx(log_perron(c)[0], abs=1e-13)


def test_objective_gauge_invariance():
    rng = np.random.default_rng(41)
    for _ in range(20):
        num_x = int(rng.integers(2, 4))
        c = random_cost(rng, num_x, 2, 2)
        mu = random_marginal(rng, num_x)
        phi = rng.normal(size=num_x)
        shift = float(rng.normal())
        f0 = _Evaluation(c, phi, mu.weights).value
        f1 = _Evaluation(c, phi + shift, mu.weights).value
        assert abs(f0 - f1) <= 1e-12 * max(1.0, abs(f0))


def test_objective_constant_cost_uniform():
    c = CostTensor(np.zeros((2, 4)), 2, 2)
    mu = Marginal([0.5, 0.5])
    assert _Evaluation(c, np.zeros(2), mu.weights).value == pytest.approx(math.log(4.0), abs=1e-13)


def test_objective_convex_along_segments():
    rng = np.random.default_rng(42)
    for _ in range(20):
        num_x = int(rng.integers(2, 4))
        c = random_cost(rng, num_x, 2, 2)
        mu = random_marginal(rng, num_x)
        p1 = rng.normal(size=num_x)
        p2 = rng.normal(size=num_x)
        mid = _Evaluation(c, 0.5 * (p1 + p2), mu.weights).value
        f1 = _Evaluation(c, p1, mu.weights).value
        f2 = _Evaluation(c, p2, mu.weights).value
        assert mid <= 0.5 * f1 + 0.5 * f2 + 1e-10


def test_objective_coercive_along_rays():
    rng = np.random.default_rng(43)
    c = random_cost(rng, 3, 2, 2)
    mu = random_marginal(rng, 3)
    f0 = _Evaluation(c, np.zeros(3), mu.weights).value
    for _ in range(5):
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        rates = []
        for t in (10.0, 20.0, 40.0):
            phi = np.concatenate(([0.0], t * direction))
            rates.append((_Evaluation(c, phi, mu.weights).value - f0) / t)
        # convexity makes the difference quotients nondecreasing; growth is linear
        assert rates[0] <= rates[1] + 1e-10
        assert rates[1] <= rates[2] + 1e-10
        assert rates[2] > 0.0


# --- gradient --------------------------------------------------------------


def test_gradient_zero_cost_uniform_is_zero():
    c = CostTensor(np.zeros((2, 4)), 2, 2)
    g = _Evaluation(c, np.zeros(2), Marginal([0.5, 0.5]).weights).grad
    assert np.abs(g).max() <= 1e-13


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(44)
    for _ in range(10):
        num_x = int(rng.integers(2, 4))
        c = random_cost(rng, num_x, 2, 2)
        mu = random_marginal(rng, num_x)
        phi = rng.normal(size=num_x)
        g = _Evaluation(c, phi, mu.weights).grad
        step = 1e-5
        fd = np.empty(num_x)
        for j in range(num_x):
            e = np.zeros(num_x)
            e[j] = step
            fd[j] = (_Evaluation(c, phi + e, mu.weights).value
                     - _Evaluation(c, phi - e, mu.weights).value) / (2 * step)
        assert np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-8) <= 1e-6


def test_gradient_vanishes_at_minimizer():
    rng = np.random.default_rng(45)
    c = random_cost(rng, 2, 2, 2)
    mu = random_marginal(rng, 2)
    sol = solve_dual(c, mu)
    g = _Evaluation(c, -sol.phi_tilde, mu.weights).grad
    assert np.abs(g).max() <= 1e-7


def test_exact_hessian_matches_central_differences():
    rng = np.random.default_rng(54)
    for _ in range(10):
        num_x = int(rng.integers(2, 5))
        d = int(rng.integers(2, 4))
        m = int(rng.integers(1, 4))
        c = random_cost(rng, num_x, d, m)
        mu = random_marginal(rng, num_x)
        phi = rng.normal(size=num_x)
        hess = _Evaluation(c, phi, mu.weights).hessian()
        step = 1e-5
        fd = np.empty((num_x, num_x))
        for j in range(num_x):
            e = np.zeros(num_x)
            e[j] = step
            fd[:, j] = (_Evaluation(c, phi + e, mu.weights).grad
                        - _Evaluation(c, phi - e, mu.weights).grad) / (2 * step)
        assert np.abs(hess - hess.T).max() <= 1e-14
        assert np.abs(hess - fd).max() <= 1e-7 * max(np.abs(fd).max(), 1.0)
        # the gauge direction is its null vector
        assert np.abs(hess.sum(axis=1)).max() <= 1e-13


# --- solver ----------------------------------------------------------------


def test_solve_dual_zero_cost_closed_form():
    c = CostTensor(np.zeros((2, 4)), 2, 2)
    mu = Marginal([1.0 / 3.0, 2.0 / 3.0])
    sol = solve_dual(c, mu)
    assert sol.phi_tilde[0] == pytest.approx(math.log(6.0), abs=1e-8)
    assert sol.phi_tilde[1] == pytest.approx(math.log(3.0), abs=1e-8)
    assert sol.value == pytest.approx(math.log(2.0) + scalar_entropy(mu.weights), abs=1e-9)


def test_solve_dual_zero_cost_uniform():
    c = CostTensor(np.zeros((2, 4)), 2, 2)
    sol = solve_dual(c, Marginal([0.5, 0.5]))
    assert np.abs(sol.phi_tilde - math.log(4.0)).max() <= 1e-8
    assert sol.value == pytest.approx(math.log(4.0), abs=1e-10)


def test_solve_dual_equilibrium_marginal_gives_constant(two_state_cost):
    chain = gibbs_chain(two_state_cost)
    plan, value = gibbs_plan(chain, 2), chain.log_lambda
    mu = Marginal(marginal_x(plan))
    sol = solve_dual(two_state_cost, mu)
    assert np.abs(sol.phi_tilde - value).max() <= 1e-7
    assert sol.value == pytest.approx(value, abs=1e-9)


def test_solve_dual_single_x_is_classical():
    rng = np.random.default_rng(46)
    c = random_cost(rng, 1, 2, 2)
    sol = solve_dual(c, Marginal([1.0]))
    assert sol.phi_tilde[0] == pytest.approx(log_perron(c)[0], abs=1e-12)
    cert = slackness_certificate(c, sol.phi_tilde, Marginal([1.0]))
    assert cert["pressure_residual"] <= 1e-9
    assert cert["marginal_residual"] <= 1e-12
    assert cert["duality_gap"] <= 1e-9


def test_solve_dual_one_evaluation_per_newton_step(monkeypatch):
    # every eigensolve of the solve is one Gibbs chain; Newton with the
    # exact Hessian takes its full step, so the evaluations stay close to
    # the iterations
    rng = np.random.default_rng(55)
    counted = []

    def counting(*args, **kwargs):
        counted.append(1)
        return gibbs_chain(*args, **kwargs)

    monkeypatch.setattr(dual, "gibbs_chain", counting)
    for num_x in (1, 2, 3, 4):
        c = random_cost(rng, num_x, 2, 3)
        mu = random_marginal(rng, num_x)
        counted.clear()
        sol = solve_dual(c, mu)
        assert sol.marginal_residual <= 1e-10
        assert len(counted) <= 2 * sol.iterations + 2
        assert sol.iterations <= 8


def test_solve_dual_one_stationary_solve_per_evaluation(monkeypatch):
    # the certificate's plan is built from the last evaluation's chain, so
    # every stationary vector of a solve belongs to one Gibbs chain
    from ergotrans import transfer

    rng = np.random.default_rng(56)
    counted = {"gibbs_chain": 0, "_stationary": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counted[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(dual, "gibbs_chain")
    counting(transfer, "_stationary")
    for num_x, d, m in ((2, 2, 5), (3, 2, 7), (2, 4, 4)):
        c = random_cost(rng, num_x, d, m)
        mu = random_marginal(rng, num_x)
        counted.update(gibbs_chain=0, _stationary=0)
        sol = solve_dual(c, mu)
        assert sol.marginal_residual <= 1e-10
        assert counted["gibbs_chain"] > 1
        assert counted["_stationary"] == counted["gibbs_chain"]


def test_solve_dual_runs_one_eigensolve_per_normalization(monkeypatch):
    # psi and the pressure residual come from the last evaluation, so the
    # certificate runs no eigensolve of its own
    from ergotrans import transfer

    rng = np.random.default_rng(58)
    counted = {"gibbs_chain": 0, "log_perron": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counted[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(dual, "gibbs_chain")
    for module in (transfer, dual):  # every binding a solve can call
        if hasattr(module, "log_perron"):
            counting(module, "log_perron")
    for num_x, d, m in ((1, 2, 3), (2, 2, 5), (3, 2, 4), (2, 3, 3)):
        c = random_cost(rng, num_x, d, m)
        mu = random_marginal(rng, num_x)
        counted.update(gibbs_chain=0, log_perron=0)
        solve_dual(c, mu)
        assert counted["gibbs_chain"] >= 1
        assert counted["log_perron"] == counted["gibbs_chain"]


def test_solve_dual_value_matches_grid_oracle():
    rng = np.random.default_rng(47)
    for _ in range(5):
        c = random_cost(rng, 2, 2, 2)
        mu = random_marginal(rng, 2)
        sol = solve_dual(c, mu)
        oracle, _ = grid_minimize_objective(c, mu)
        assert sol.value == pytest.approx(oracle, abs=1e-5)


def test_solve_dual_residuals_random_instances():
    rng = np.random.default_rng(48)
    for _ in range(15):
        num_x = int(rng.integers(2, 4))
        d = int(rng.integers(2, 4))
        m = int(rng.integers(1, 3))
        c = random_cost(rng, num_x, d, m)
        mu = random_marginal(rng, num_x)
        sol = solve_dual(c, mu)
        assert sol.pressure_residual <= 1e-9
        assert sol.marginal_residual <= 1e-7
        assert sol.duality_gap <= 1e-7
        assert solve_dual(c, mu).value <= log_perron(c)[0] + 1e-10


def test_pressure_residual_encloses_the_pressure():
    # the residual is max |T(psi) - psi| on c - phi_tilde, whose
    # Collatz-Wielandt bracket contains P(c - phi_tilde); the dense oracle
    # agrees with it to about 1e-13 at these scales
    rng = np.random.default_rng(57)
    for _ in range(12):
        num_x = int(rng.integers(1, 5))
        d = int(rng.integers(2, 4))
        m = int(rng.integers(1, 4))
        c = effective_cost(random_cost(rng, num_x, d, m, scale=float(rng.choice([1.0, 8.0]))))
        mu = random_marginal(rng, num_x)
        sol = solve_dual(c, mu)
        ref, _ = scaled_dense_log_perron(shift_cost(c, -sol.phi_tilde))
        assert sol.pressure_residual <= 1e-9
        assert sol.pressure_residual >= abs(ref) - 1e-12
        # phi_tilde off by 1e-8 moves the pressure by 1e-8: the residual
        # still encloses it, and the certificate refuses
        point = _Evaluation(c, -sol.phi_tilde, mu.weights)
        at_minimizer = point.chain
        for shift in (1e-8, -1e-8):
            point.chain = at_minimizer._replace(log_lambda=at_minimizer.log_lambda + shift)
            with pytest.raises(CertificateError, match="pressure residual") as info:
                dual._certify(c, point, mu, 0, 1e-7)
            residual = info.value.solution.pressure_residual
            ref, _ = scaled_dense_log_perron(shift_cost(c, -info.value.solution.phi_tilde))
            assert abs(ref) >= 0.9e-8
            assert residual >= abs(ref) - 1e-12


def test_psi_is_admissible_pair_member():
    rng = np.random.default_rng(49)
    c = random_cost(rng, 2, 2, 2)
    mu = random_marginal(rng, 2)
    sol = solve_dual(c, mu)
    # psi is the log-eigenfunction of the zero-pressure shifted cost
    from ergotrans.transfer import log_perron

    log_lam, u, _, _ = log_perron(shift_cost(c, -sol.phi_tilde))
    assert abs(log_lam) <= 1e-9
    assert np.abs(sol.psi - u).max() <= 1e-9


# --- constrained equilibrium -----------------------------------------------


def test_constrained_equilibrium_is_the_certified_plan():
    rng = np.random.default_rng(59)
    for num_x, d, m in ((1, 2, 2), (2, 2, 3), (3, 3, 2)):
        c = random_cost(rng, num_x, d, m)
        mu = random_marginal(rng, num_x)
        sol = solve_dual(c, mu)
        plan = sol.plan
        assert float(np.abs(marginal_x(plan) - mu.weights).max()) == sol.marginal_residual
        assert sol.marginal_tolerance == dual.MARGINAL_RESIDUAL_TOL


def test_constrained_equilibrium_zero_cost_is_product():
    c = CostTensor(np.zeros((2, 4)), 2, 2)
    mu = Marginal([1.0 / 3.0, 2.0 / 3.0])
    plan = solve_dual(c, mu).plan
    table = plan_mass_table(plan, 1)
    expected = mu.weights[:, None] / 2.0
    assert np.abs(table - expected).max() <= 1e-9


def test_constrained_equilibrium_matches_unconstrained_at_its_marginal(two_state_cost):
    plan0 = gibbs_plan(gibbs_chain(two_state_cost), 2)
    mu = Marginal(marginal_x(plan0))
    plan = solve_dual(two_state_cost, mu).plan
    t0 = plan_mass_table(plan0, 2)
    t1 = plan_mass_table(plan, 2)
    assert np.abs(t0 - t1).max() <= 1e-8


def test_constrained_equilibrium_duality_equality():
    rng = np.random.default_rng(50)
    for _ in range(8):
        num_x = int(rng.integers(2, 4))
        c = random_cost(rng, num_x, 2, 2)
        mu = random_marginal(rng, num_x)
        sol = solve_dual(c, mu)
        plan = sol.plan
        assert np.abs(marginal_x(plan) - mu.weights).max() <= 1e-7
        sup_side = integrate_cost(plan, c) + entropy(plan)
        assert abs(sol.value - sup_side) <= 1e-7


# --- slackness certificate --------------------------------------------------


def test_certificate_passes_at_minimizer():
    rng = np.random.default_rng(51)
    c = random_cost(rng, 2, 2, 2)
    mu = random_marginal(rng, 2)
    sol = solve_dual(c, mu)
    cert = slackness_certificate(c, sol.phi_tilde, mu)
    assert cert["pressure_residual"] <= 1e-9
    assert cert["marginal_residual"] <= 1e-7
    assert cert["duality_gap"] <= 1e-7


def test_certificate_detects_perturbation():
    rng = np.random.default_rng(52)
    c = random_cost(rng, 2, 2, 2)
    mu = random_marginal(rng, 2)
    sol = solve_dual(c, mu)
    phi = sol.phi_tilde + np.array([0.1, 0.0])
    # re-normalize so the pressure residual stays zero
    phi = phi + log_perron(shift_cost(c, -phi))[0]
    cert = slackness_certificate(c, phi, mu)
    assert cert["pressure_residual"] <= 1e-9
    assert cert["marginal_residual"] > 1e-4
    assert cert["duality_gap"] > 1e-6


def test_solver_raises_certificate_error_on_tight_tolerance():
    rng = np.random.default_rng(53)
    c = random_cost(rng, 2, 2, 2)
    mu = random_marginal(rng, 2)
    with pytest.raises(CertificateError) as info:
        solve_dual(c, mu, grad_tol=1e-2, marginal_tol=1e-12)
    assert info.value.solution is not None
    assert info.value.solution.marginal_residual > 1e-12


# --- curve conditions -------------------------------------------------------


def test_curve_conditions_at_solver_output(two_state_cost):
    plan = gibbs_plan(gibbs_chain(two_state_cost), 2)
    mu = Marginal(marginal_x(plan))
    sol = solve_dual(two_state_cost, mu)
    out = eigencurve_conditions(two_state_cost, sol.phi_tilde, mu)
    assert out["det_residual"] <= 1e-7
    assert out["collinearity_residual"] <= 1e-7


def test_curve_conditions_split_on_curve_point(two_state_cost):
    mu = Marginal([0.5, 0.5])
    sol = solve_dual(two_state_cost, mu)
    # another point on the zero-pressure curve: gauge-break then re-normalize
    phi = sol.phi_tilde + np.array([0.4, 0.0])
    phi = phi + log_perron(shift_cost(two_state_cost, -phi))[0]
    out = eigencurve_conditions(two_state_cost, phi, mu)
    assert out["det_residual"] <= 1e-9
    assert out["collinearity_residual"] > 1e-3


def test_curve_conditions_symmetric_point_analytic():
    c = CostTensor(np.zeros((2, 4)), 2, 2)
    mu = Marginal([0.5, 0.5])
    phi = np.array([math.log(4.0), math.log(4.0)])
    out = eigencurve_conditions(c, phi, mu)
    assert out["det_residual"] <= 1e-15
    assert out["collinearity_residual"] <= 1e-15


def test_curve_conditions_dimension_guard():
    c = CostTensor(np.zeros((3, 4)), 2, 2)
    with pytest.raises(SpecValidationError):
        eigencurve_conditions(c, np.zeros(3), Marginal([0.3, 0.3, 0.4]))


# --- resolution stalls ------------------------------------------------------


def _slice_gradient(cost, mu, v):
    return float(_Evaluation(cost, np.array([0.0, v]), mu.weights).grad[1])


def test_resolution_stall_returns_a_point_at_the_sign_change():
    # survey draw (2, 3, 3), seed 2, at beta = 32: the slice gradient jumps
    # from about -0.32 to +0.63 between adjacent floats.  A stall must
    # return an end of the collapsed bracket, not the point of smallest
    # gradient seen on the way, which on a saturated flank can lie far off.
    cost, mu = survey_draw(2, (2, 3, 3))
    beta = 32.0
    scaled = CostTensor(cost.values * beta, cost.alphabet_size, cost.depth)
    sol = solve_dual(scaled, mu, v0=np.array([0.8 * beta]), allow_resolution_stall=True)
    v = sol.phi_tilde[0] - sol.phi_tilde[1]
    points = [v]
    for _ in range(4):
        points.insert(0, np.nextafter(points[0], -np.inf))
        points.append(np.nextafter(points[-1], np.inf))
    signs = [np.sign(_slice_gradient(scaled, mu, p)) for p in points]
    assert any(a != b for a, b in zip(signs, signs[1:]))
    assert abs(sol.value / beta - 2.096287711) <= 1e-9
    # the relaxed tolerance is the measured jump at the collapsed bracket
    assert 0.1 <= sol.marginal_residual <= 1.0
    with pytest.raises(ConvergenceError, match="pinned"):
        solve_dual(scaled, mu, v0=np.array([0.8 * beta]))


def test_pin_off_the_line_minimum_raises_on_three_x_values():
    # survey draw (3, 2, 3), seed 0: a line bracket collapses while the slice
    # gradient keeps a component off the line.  Relaxing the tolerance there
    # certified a value outside the zero-temperature LP window.
    from ergotrans.zerotemp import zero_temp_constrained

    cost, mu = survey_draw(0, (3, 2, 3))
    with pytest.raises(ConvergenceError, match="off the line minimum"):
        zero_temp_constrained(cost, mu)


# --- line search on a flat slope ---------------------------------------------


class _StepSlope:
    """An evaluation whose slice gradient steps from -0.27 to 0.73 past ``edge``."""

    edge = 0.0
    count = 0

    def __init__(self, cost, phi, mu_w):
        type(self).count += 1
        g = -0.27 if phi[1] <= self.edge else 0.73
        self.phi = phi
        self.grad = np.array([-g, g])
        self.residual = abs(g)


@pytest.mark.parametrize("where", ["1 ulp", "1e-10", "hi - 1e-12"])
def test_flat_line_search_pins_a_sign_change_near_an_end(monkeypatch, where):
    # the line runs from phi(1) = 1 to the capped first trial at 2, and the
    # slope carries no information on where it changes sign: the search
    # must find the scale of the sign change's distance to the nearer end
    start, hi = 1.0, 2.0
    edge = {"1 ulp": np.nextafter(start, hi),
            "1e-10": start + 1e-10,
            "hi - 1e-12": hi - 1e-12}[where]
    near = min(edge - start, hi - edge)
    monkeypatch.setattr(_StepSlope, "edge", edge)
    monkeypatch.setattr(dual, "_Evaluation", _StepSlope)
    point = _StepSlope(None, np.array([0.0, start]), None)
    monkeypatch.setattr(_StepSlope, "count", 0)
    trial, pin = dual._line_search(None, None, point, np.array([-1.0]), 1e-8)
    assert pin is not None
    lo_end, hi_end = pin
    assert lo_end.phi[1] <= edge < hi_end.phi[1]
    assert hi_end.phi[1] == np.nextafter(lo_end.phi[1], np.inf)
    assert trial in pin
    budget = 2 * math.log2(52) + math.log2(near / np.spacing(edge)) + 4
    assert _StepSlope.count <= budget, (_StepSlope.count, budget)
