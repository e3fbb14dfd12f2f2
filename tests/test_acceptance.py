"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.
"""

import hashlib
import math
import os
import pathlib
import time

import numpy as np
import pytest

from ergotrans.symbolic import CostTensor, Marginal, decode_word
from ergotrans.transfer import gibbs_chain, log_perron
from ergotrans.plans import entropy, gibbs_plan, integrate_cost, plan_mass_table
from ergotrans.dual import _Evaluation, solve_dual
from ergotrans.zerotemp import (
    default_beta_grid,
    maxplus_solve,
    zero_temp_constrained,
    zero_temp_unconstrained,
)
from ergotrans.cli import main as cli_main

from conftest import (
    REF_LAMBDA,
    assemble_transfer,
    copy_plan,
    dense_q,
    enumerate_cycle_means,
    integral_log_jacobian,
    jacobian_n,
    make_two_state_cost,
    markov_entropy_rate,
    normalized_cost,
    periodic_orbit_measure,
    perron_solve,
    primal_lp_oracle,
    product_plan,
    random_cost,
    random_marginal,
    random_markov_measure,
    random_normalized_values,
    random_plan,
    scalar_entropy,
    two_atom_plan,
)
from test_plans import transfer_identity_sides


def report(number, name, ok):
    print(f"\nacceptance criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_reference_spectral_data():
    cost = make_two_state_cost()
    sol = perron_solve(assemble_transfer(cost))
    ok = abs(sol.lam - REF_LAMBDA) <= 1e-12

    chain = gibbs_chain(cost)
    measure = gibbs_plan(chain, 2)
    q_ref = np.array([[0.4384, 0.3423], [0.5616, 0.6577]])
    ok &= bool(np.abs(dense_q(measure) - q_ref).max() <= 1e-4)
    ok &= bool(np.abs(measure.p - [0.3786, 0.6213]).max() <= 2e-4)

    plan = gibbs_plan(chain, 2)
    masses = plan_mass_table(plan, 1)
    ref = np.array([[0.1893, 0.2425], [0.1893, 0.3787]])
    ok &= bool(np.abs(masses - ref).max() <= 2e-4)
    report(1, "reference spectral data", ok)


def test_criterion_2_entropy_fixtures():
    ok = abs(entropy(copy_plan()) - math.log(2.0)) <= 1e-12
    orbit_product = product_plan(Marginal([0.5, 0.5]), periodic_orbit_measure((0, 1), 2, 1))
    ok &= abs(entropy(orbit_product) - math.log(2.0)) <= 1e-12
    ok &= abs(entropy(two_atom_plan())) <= 1e-12

    rng = np.random.default_rng(101)
    for _ in range(50):
        num_x = int(rng.integers(2, 4))
        d = int(rng.integers(2, 4))
        mu = random_marginal(rng, num_x)
        nu = random_markov_measure(rng, d, int(rng.integers(1, 3)))
        plan = product_plan(mu, nu)
        ok &= abs(entropy(plan) - (scalar_entropy(mu.weights) + markov_entropy_rate(nu))) <= 1e-10

    for _ in range(100):
        num_x = int(rng.integers(1, 4))
        d = int(rng.integers(2, 4))
        plan = random_plan(rng, num_x, d, int(rng.integers(2, 4)))
        h = entropy(plan)
        ok &= -1e-12 <= h <= math.log(num_x * d) + 1e-12
    report(2, "entropy fixtures and bounds", ok)


def test_criterion_3_pressure_axioms():
    rng = np.random.default_rng(102)
    tol = 1e-9
    ok = True
    for _ in range(200):
        num_x = int(rng.integers(1, 4))
        d = int(rng.integers(2, 4))
        m = int(rng.integers(1, 4))
        c1 = random_cost(rng, num_x, d, m)
        c2 = CostTensor(c1.values - np.abs(rng.normal(size=c1.values.shape)), d, m)
        p1, p2 = log_perron(c1)[0], log_perron(c2)[0]
        ok &= p1 >= p2 - tol  # monotone: c1 >= c2 entrywise
        shift = float(rng.normal())
        ok &= abs(log_perron(CostTensor(c1.values + shift, d, m))[0] - (p1 + shift)) <= tol
        ok &= abs(p1 - p2) <= np.abs(c1.values - c2.values).max() + tol
        for t in np.arange(0.1, 0.95, 0.1):
            mix = CostTensor(t * c1.values + (1.0 - t) * c2.values, d, m)
            ok &= log_perron(mix)[0] <= t * p1 + (1.0 - t) * p2 + tol
        if not ok:
            break
    report(3, "pressure axioms, 200 randomized trials", ok)


def test_criterion_4_duality_suite():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(100):
        num_x = int(rng.integers(1, 4))
        d = int(rng.integers(2, 4))
        m = int(rng.integers(1, 3))
        c = random_cost(rng, num_x, d, m)
        mu = random_marginal(rng, num_x)
        sol = solve_dual(c, mu)
        ok &= sol.pressure_residual <= 1e-9
        ok &= sol.marginal_residual <= 1e-7
        ok &= sol.duality_gap <= 1e-7

        phi = 0.5 * rng.normal(size=num_x)
        g = _Evaluation(c, phi, mu.weights).grad
        step = 1e-5
        fd = np.empty(num_x)
        for j in range(num_x):
            e = np.zeros(num_x)
            e[j] = step
            fd[j] = (_Evaluation(c, phi + e, mu.weights).value
                     - _Evaluation(c, phi - e, mu.weights).value) / (2.0 * step)
        # unit-floored relative error: for a single x the gradient vanishes
        # identically and only absolute agreement is meaningful
        ok &= np.abs(g - fd).max() / max(np.abs(fd).max(), 1.0) <= 1e-6
        if not ok:
            break
    report(4, "duality suite, 100 random instances", ok)


def test_criterion_5_closed_form_dual():
    rng = np.random.default_rng(104)
    ok = True
    for trial in range(20):
        num_x = int(rng.integers(2, 4))
        d = int(rng.integers(2, 4))
        c = CostTensor(np.zeros((num_x, d * d)), d, 2)
        mu = random_marginal(rng, num_x)
        sol = solve_dual(c, mu)
        expected_phi = math.log(d) - np.log(mu.weights)
        ok &= bool(np.abs(sol.phi_tilde - expected_phi).max() <= 1e-8)
        ok &= abs(sol.value - (math.log(d) + scalar_entropy(mu.weights))) <= 1e-8
        if num_x == 2:
            from test_dual import grid_minimize_objective

            oracle, _ = grid_minimize_objective(c, mu)
            ok &= abs(sol.value - oracle) <= 1e-5
        if not ok:
            break
    report(5, "closed-form dual for flat costs", ok)


def test_criterion_6_jacobian_identities():
    ok = True
    # Gibbs-plan Jacobian equals the exponential of the normalized cost
    rng = np.random.default_rng(105)
    for _ in range(10):
        num_x = int(rng.integers(1, 4))
        d = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        cost = random_cost(rng, num_x, d, m)
        chain = gibbs_chain(cost)
        plan = gibbs_plan(chain, m)
        cbar = normalized_cost(cost, chain.log_lambda, chain.log_h)
        for n in (m - 1, m):
            jn = jacobian_n(plan, n)
            reps = d ** (n + 1 - m)
            expected = np.tile(np.exp(cbar.values), (1, reps))
            ok &= bool(np.abs(jn - expected).max() <= 1e-12)

    # transfer identity on all cylinder indicators up to length 4
    plans = [
        gibbs_plan(gibbs_chain(make_two_state_cost()), 2),
        random_plan(rng, 2, 2, 3),
        two_atom_plan(),
    ]
    for plan in plans:
        d = plan.alphabet_size
        for k in (1, 2, 3, 4):
            for x in range(plan.num_x):
                for idx in range(d**k):
                    lhs, rhs = transfer_identity_sides(plan, x, decode_word(idx, k, d))
                    ok &= abs(lhs - rhs) <= 1e-12

    # optimality of the log-Jacobian among normalized costs
    plan = random_plan(rng, 2, 2, 2)
    m = plan.memory
    neg_log_j = -integral_log_jacobian(plan, m - 1)
    idx = np.arange(2**m)
    log_j_flat = np.empty((2, 2**m))
    log_j_flat[:, idx] = np.log(plan.jacobian)[:, (idx // 2) % plan.n_blocks, idx % 2]
    for _ in range(50):
        vals = random_normalized_values(rng, 2, 2, m)
        neg_b = -integrate_cost(plan, CostTensor(vals, 2, m))
        ok &= neg_log_j <= neg_b + 1e-12
        if neg_b - neg_log_j <= 1e-10:
            ok &= bool(np.abs(vals - log_j_flat).max() <= 1e-5)
    b_star = CostTensor(log_j_flat, 2, m)
    ok &= abs(-integrate_cost(plan, b_star) - neg_log_j) <= 1e-10
    report(6, "Jacobian and transfer identities", ok)


def test_criterion_7_zero_temperature():
    ok = True
    cost = make_two_state_cost()
    started = time.perf_counter()
    out = zero_temp_unconstrained(cost)  # asserts the sandwich internally
    elapsed = time.perf_counter() - started
    ok &= elapsed < 5.0
    log_bound = math.log(4.0)
    for rec in out.sweep:
        ok &= rec.beta * out.m <= rec.beta * rec.log_lambda_over_beta + 1e-12
        ok &= rec.beta * rec.log_lambda_over_beta <= rec.beta * out.m + log_bound + 1e-12
    ok &= out.m == math.log(2.0)
    gauge = out.subaction - out.subaction.max()
    ok &= bool(np.abs(gauge - [-math.log(2.0), 0.0]).max() <= 1e-12)
    ok &= out.calibration_residual <= 1e-9
    ok &= out.feasibility_residual <= 1e-9

    rng = np.random.default_rng(106)
    for _ in range(25):
        num_x = int(rng.integers(1, 3))
        d = int(rng.integers(2, 4))
        depth = 2 if d == 3 else int(rng.integers(2, 5))
        c = random_cost(rng, num_x, d, depth)
        if d ** (depth - 1) > 8:  # block count
            continue
        sol = maxplus_solve(c)
        m = sol.m
        ok &= m == enumerate_cycle_means(c)
        ok &= sol.calibration_residual <= 1e-9
        ok &= sol.feasibility_residual <= 1e-9
        # the sandwich for a random scaled sweep
        for rec in zero_temp_unconstrained(c, betas=[1.0, 64.0, 4096.0]).sweep:
            gap = rec.log_lambda_over_beta - m
            ok &= -1e-12 <= gap <= math.log(num_x * d) / rec.beta + 1e-12
        if not ok:
            break
    report(7, "zero temperature, exact side and sweeps", ok)


def test_criterion_8_constrained_zero_temperature():
    rng = np.random.default_rng(107)
    ok = True
    beta_max = 2**14
    window = 2.0 * math.log(4.0) / beta_max + 1e-9
    for _ in range(20):
        c = random_cost(rng, 2, 2, 2)
        mu = random_marginal(rng, 2)
        out = zero_temp_constrained(c, mu, default_beta_grid(beta_max))
        ok &= out.feasibility_residual <= 1e-9
        ok &= out.support_equality_residual <= out.slack_tolerance
        lp = primal_lp_oracle(c, mu)
        ok &= abs(out.value - lp.value) <= window
        if not ok:
            break
    report(8, "constrained zero temperature vs primal oracle", ok)


def test_criterion_9_cli_determinism(tmp_path):
    spec_dir = os.path.join(os.path.dirname(__file__), "specs")
    cases = [
        ("pressure", ["pressure", "--spec", os.path.join(spec_dir, "two_state.json")]),
        ("gibbs", ["gibbs", "--spec", os.path.join(spec_dir, "two_state.json")]),
        ("entropy", ["entropy", "--spec", os.path.join(spec_dir, "two_atom_plan.json")]),
        ("dual", ["dual", "--spec", os.path.join(spec_dir, "zero_cost_mu.json")]),
        ("certify", ["certify", "--spec", os.path.join(spec_dir, "two_state_mu.json")]),
        ("zerotemp", ["zerotemp", "--spec", os.path.join(spec_dir, "two_state.json"),
                      "--beta-max", "256"]),
        ("zerotemp_mu", ["zerotemp", "--spec", os.path.join(spec_dir, "two_state_mu.json"),
                         "--beta-max", "256"]),
    ]
    ok = True
    for label, argv in cases:
        out1 = tmp_path / f"{label}_1.json"
        out2 = tmp_path / f"{label}_2.json"
        ok &= cli_main(argv + ["--out", str(out1)]) == 0
        ok &= cli_main(argv + ["--out", str(out2)]) == 0
        ok &= out1.read_bytes() == out2.read_bytes()
        digest = hashlib.sha256(pathlib.Path(argv[2]).read_bytes()).hexdigest()
        ok &= digest.encode() in out1.read_bytes()
        if not ok:
            break
    report(9, "CLI determinism", ok)
