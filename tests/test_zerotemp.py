import math

import numpy as np
import pytest

import ergotrans.zerotemp as zerotemp
from ergotrans.errors import SpecValidationError
from ergotrans.symbolic import CostTensor, Marginal
from ergotrans.transfer import effective_cost, log_perron
from ergotrans.plans import integrate_cost
from ergotrans.dual import solve_dual
from ergotrans.zerotemp import (
    beta_sweep,
    default_beta_grid,
    maxplus_solve,
    zero_temp_constrained,
    zero_temp_unconstrained,
)

from conftest import (
    dense_tropical,
    enumerate_cycle_means,
    primal_lp_oracle,
    random_cost,
    random_marginal,
    survey_draw,
)


def package_tropical(cost):
    """The package's own lift, ``zerotemp._tropical_lift``, as a dense ``W[b', b]``."""
    weights, succ = zerotemp._tropical_lift(effective_cost(cost))
    mat = np.full((weights.shape[0],) * 2, -np.inf)
    mat[succ, np.arange(weights.shape[0])[:, None]] = weights
    return mat


# --- tropical lift ----------------------------------------------------------


def test_maxplus_lift_two_state(two_state_cost):
    expected = np.array([[0.0, 0.0], [0.0, math.log(2.0)]])
    assert np.array_equal(dense_tropical(two_state_cost), expected)
    assert np.array_equal(package_tropical(two_state_cost), expected)


def test_maxplus_lift_constant():
    c = CostTensor(np.full((2, 4), 1.3), 2, 2)
    assert np.allclose(dense_tropical(c), 1.3)
    assert np.allclose(package_tropical(c), 1.3)


def test_maxplus_lift_single_x():
    rng = np.random.default_rng(60)
    c = random_cost(rng, 1, 2, 2)
    view = c.values.reshape(2, 2)  # [b, a]
    for b in range(2):
        for a in range(2):
            assert dense_tropical(c)[a, b] == view[b, a]
            assert package_tropical(c)[a, b] == view[b, a]


def test_package_lift_matches_the_oracle_lift():
    rng = np.random.default_rng(67)
    for num_x, d, m in ((1, 2, 1), (2, 2, 3), (3, 3, 2), (2, 3, 3), (2, 4, 3)):
        c = random_cost(rng, num_x, d, m)
        assert np.array_equal(package_tropical(c), dense_tropical(c))


# --- cycle means ------------------------------------------------------------


def test_karp_two_state(two_state_cost):
    m = maxplus_solve(two_state_cost).m
    assert m == math.log(2.0)


def test_karp_constant():
    m = maxplus_solve(CostTensor(np.full((2, 4), -0.4), 2, 2)).m
    assert m == -0.4


def test_karp_equals_cycle_enumeration():
    rng = np.random.default_rng(61)
    for _ in range(25):
        num_x = int(rng.integers(1, 3))
        d = int(rng.integers(2, 4))
        m_depth = 2 if d == 3 else int(rng.integers(2, 5))
        if d ** (m_depth - 1) > 8:
            m_depth = 2
        c = random_cost(rng, num_x, d, m_depth)
        assert maxplus_solve(c).m == enumerate_cycle_means(c)


# --- subactions -------------------------------------------------------------


def test_subaction_two_state(two_state_cost):
    sol = maxplus_solve(two_state_cost)
    assert np.allclose(sol.subaction, [-math.log(2.0), 0.0], atol=1e-15)
    assert sol.optimal_cycle == (1,)
    assert sol.calibration_residual <= 1e-9
    assert sol.feasibility_residual <= 1e-9


def test_subaction_constant_is_zero():
    c = CostTensor(np.full((2, 4), 0.9), 2, 2)
    sol = maxplus_solve(c)
    assert np.allclose(sol.subaction, 0.0, atol=1e-15)


def test_subaction_random_residuals():
    rng = np.random.default_rng(62)
    for _ in range(20):
        c = random_cost(rng, int(rng.integers(1, 4)), 2, int(rng.integers(2, 4)))
        sol = maxplus_solve(c)
        m = sol.m
        assert sol.feasibility_residual <= 1e-9
        assert sol.calibration_residual <= 1e-9
        assert sol.subaction.max() == 0.0
        # the extracted cycle is critical: reduced weights telescope to zero
        cyc = sol.optimal_cycle
        mat = dense_tropical(c)
        total = 0.0
        for i, b in enumerate(cyc):
            nxt = cyc[(i + 1) % len(cyc)]
            step = mat[nxt, b]
            total += step - m
        assert abs(total) <= 1e-9 * max(1.0, abs(m) * len(cyc))


def test_unconstrained_runs_one_exact_solve(monkeypatch, two_state_cost):
    # maxplus_solve runs the exact policy iteration once, and beta_sweep
    # checks its bracket against that solve's mean
    calls = []
    exact = zerotemp.exact_policy_iteration

    def counted_exact(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(zerotemp, "exact_policy_iteration", counted_exact)
    zero_temp_unconstrained(two_state_cost, betas=[1.0, 2.0])
    assert len(calls) == 1


# --- sweeps -----------------------------------------------------------------


def test_beta_sweep_first_record_is_pressure(two_state_cost):
    recs = beta_sweep(two_state_cost, maxplus_solve(two_state_cost).m, [1.0, 2.0])
    assert recs[0].log_lambda_over_beta == pytest.approx(log_perron(two_state_cost)[0], abs=1e-12)


def test_beta_sweep_bound_window(two_state_cost):
    recs = beta_sweep(two_state_cost, maxplus_solve(two_state_cost).m, [1.0, 100.0])
    val = recs[-1].log_lambda_over_beta
    assert math.log(2.0) <= val + 1e-12
    assert val <= math.log(2.0) + math.log(4.0) / 100.0 + 1e-12


def test_beta_sweep_gap_bound():
    rng = np.random.default_rng(63)
    c = random_cost(rng, 2, 2, 2)
    bound = math.log(4.0)
    for rec in beta_sweep(c, maxplus_solve(c).m, [1.0, 4.0, 16.0, 64.0]):
        assert rec.gap_to_limit <= bound / rec.beta + 1e-12
        assert rec.gap_to_limit >= -1e-12


def test_beta_sweep_rejects_bad_grid(two_state_cost):
    with pytest.raises(SpecValidationError):
        beta_sweep(two_state_cost, maxplus_solve(two_state_cost).m, [2.0, 1.0])


def test_default_grid():
    grid = default_beta_grid()
    assert grid[0] == 1.0 and grid[-1] == 2**14
    assert len(grid) == 15


# --- combined unconstrained -------------------------------------------------


def test_unconstrained_two_state(two_state_cost):
    out = zero_temp_unconstrained(two_state_cost)
    assert out.m == math.log(2.0)
    gauge = out.subaction - out.subaction.max()
    assert np.allclose(gauge, [-math.log(2.0), 0.0], atol=1e-12)
    assert out.feasibility_residual <= 1e-9
    assert out.calibration_residual <= 1e-9
    gaps = [rec.gap_to_limit for rec in out.sweep]
    assert all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))


def test_unconstrained_constant_cost():
    kappa = 0.35
    c = CostTensor(np.full((2, 4), kappa), 2, 2)
    out = zero_temp_unconstrained(c, betas=[1.0, 2.0, 4.0])
    assert out.m == kappa
    assert np.allclose(out.subaction, 0.0, atol=1e-15)
    for rec in out.sweep:
        # lambda_beta = #X * d * exp(beta kappa)
        assert rec.log_lambda_over_beta == pytest.approx(
            kappa + math.log(4.0) / rec.beta, abs=1e-12
        )


def test_unconstrained_single_x_cycle_value():
    rng = np.random.default_rng(64)
    c = random_cost(rng, 1, 2, 3)
    out = zero_temp_unconstrained(c, betas=[1.0, 16.0, 256.0, 4096.0])
    assert out.m == enumerate_cycle_means(c)


# --- constrained ------------------------------------------------------------


def test_constrained_zero_cost_limits_vanish():
    c = CostTensor(np.zeros((2, 4)), 2, 2)
    out = zero_temp_constrained(c, Marginal([0.3, 0.7]), betas=[1.0, 4.0, 16.0, 64.0, 256.0])
    # phi_beta = log d - log mu is beta-independent, so phi/beta -> 0
    assert np.abs(out.m_tilde).max() <= (math.log(2.0) + math.log(1 / 0.3)) / 256.0 + 1e-9
    assert np.abs(out.v_tilde).max() <= 1e-9
    assert out.feasibility_residual <= 1e-9


def test_constrained_agrees_with_lp_oracle(two_state_cost):
    mu = Marginal([0.5, 0.5])
    out = zero_temp_constrained(two_state_cost, mu)
    lp = primal_lp_oracle(two_state_cost, mu)
    window = 2.0 * math.log(4.0) / 2**14 + 1e-9
    assert abs(out.value - lp.value) <= window
    assert out.support_equality_residual <= out.slack_tolerance


def test_constrained_value_dominates_beta_plans(two_state_cost):
    mu = Marginal([0.5, 0.5])
    lp = primal_lp_oracle(two_state_cost, mu)
    for beta in (1.0, 4.0, 16.0):
        scaled = CostTensor(two_state_cost.values * beta, 2, 2)
        plan = solve_dual(scaled, mu).plan
        assert integrate_cost(plan, two_state_cost) <= lp.value + 1e-9


def test_constrained_duality_inequality_vs_lp_vertices(two_state_cost):
    mu = Marginal([0.4, 0.6])
    out = zero_temp_constrained(two_state_cost, mu, betas=default_beta_grid(2**10))
    lp = primal_lp_oracle(two_state_cost, mu)
    # every feasible dual pair dominates every primal plan
    assert lp.value <= out.value + 1e-9


def test_survey_233_seed16_certifies_and_matches_lp():
    # a cold re-solve of the dual certificate's eigenproblem used to fail
    # here ("did not certify"); the certificate now reuses the last
    # evaluation's eigenvector
    cost, mu = survey_draw(16, (2, 3, 3))
    out = zero_temp_constrained(cost, mu)
    assert out.feasibility_residual <= 1e-9
    assert out.support_equality_residual <= out.slack_tolerance
    window = 2.0 * math.log(6.0) / 2**14 + 1e-9
    assert abs(out.value - primal_lp_oracle(cost, mu).value) <= window


def test_pinned_draw_reports_its_relaxed_marginal_tolerance():
    # survey draw (2, 3, 3), seed 2: the dual solve pins at large beta and
    # relaxes the marginal tolerance to the measured jump; the support plan
    # puts all its mass on x = 0, and the limit says so
    cost, mu = survey_draw(2, (2, 3, 3))
    out = zero_temp_constrained(cost, mu)
    assert 0.1 <= out.marginal_residual <= out.marginal_tolerance <= 1.0
    support_marginal = np.zeros(cost.num_x)
    for x, _, mass in out.support_plan:
        support_marginal[x] += mass
    assert np.abs(support_marginal - mu.weights).max() == pytest.approx(
        out.marginal_residual, abs=1e-6)
    window = 2.0 * math.log(6.0) / 2**14 + 1e-9
    assert abs(out.value - primal_lp_oracle(cost, mu).value) <= window


# --- LP oracle ---------------------------------------------------------------


def test_lp_zero_cost():
    c = CostTensor(np.zeros((2, 4)), 2, 2)
    lp = primal_lp_oracle(c, Marginal([0.5, 0.5]))
    assert lp.value == pytest.approx(0.0, abs=1e-12)
    assert lp.plan.sum() == pytest.approx(1.0, abs=1e-10)


def test_lp_single_x_equals_cycle_mean():
    rng = np.random.default_rng(65)
    for _ in range(5):
        c = random_cost(rng, 1, 2, 2)
        lp = primal_lp_oracle(c, Marginal([1.0]))
        assert lp.value == pytest.approx(maxplus_solve(c).m, abs=1e-10)


def test_lp_feasibility_of_vertex():
    rng = np.random.default_rng(66)
    c = random_cost(rng, 2, 2, 2)
    mu = random_marginal(rng, 2)
    lp = primal_lp_oracle(c, mu)
    q = lp.plan
    assert np.abs(q.sum(axis=1) - mu.weights).max() <= 1e-9
    # shift consistency
    for b in range(2):
        left = q[:, [b * 2, b * 2 + 1]].sum()  # words (a, b): indices a + 2b
        right = q[:, [b, b + 2]].sum()         # words (b, a'): indices b + 2a'
        assert abs(left - right) <= 1e-9


def test_lp_size_cap():
    c = CostTensor(np.zeros((9, 4)), 2, 2)
    with pytest.raises(SpecValidationError):
        primal_lp_oracle(c, Marginal(np.full(9, 1.0 / 9.0)))


def test_survey_two_by_two_family_certifies_and_matches_lp():
    # the robustness survey's (2, 2, 2) family, seeds 0-39: six of these
    # used to fail the dual certificate at large beta
    beta_max = 2**14
    window = 2.0 * math.log(4.0) / beta_max + 1e-9
    for seed in range(40):
        cost, mu = survey_draw(seed, (2, 2, 2))
        out = zero_temp_constrained(cost, mu, default_beta_grid(beta_max))
        assert out.feasibility_residual <= 1e-9
        assert out.support_equality_residual <= out.slack_tolerance
        assert abs(out.value - primal_lp_oracle(cost, mu).value) <= window
