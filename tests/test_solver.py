"""Regression tests for the log-domain eigensolver, its Howard warm start and
the Gibbs chain's stationary solve.

A seeded random family up to ``(#X, d, m) = (3, 4, 4)`` at inverse
temperatures up to 2**14 is checked against the dense oracles in
``conftest``; the named cases pin inputs on which Newton needs the Howard
warm start (nearly reducible scaled costs) and chains whose escape
probabilities fall below machine epsilon or underflow.  The kernels that read
the cached ``(d, n)`` layout are held bit for bit to the same kernels on
index arrays built afresh (the ``index_*`` oracles in ``conftest``).
Sparse eigensolves are held to a factorization budget without Howard at
beta 1, and with kept factors switched off Newton matches the oracle's one
fresh solve per step bit for bit.
"""

import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import ergotrans.transfer as transfer
from ergotrans.errors import ConvergenceError, SpecValidationError
from ergotrans.plans import gibbs_plan
from ergotrans._tropical import exact_policy_iteration, howard_policy_iteration
from ergotrans.symbolic import CostTensor
from ergotrans.transfer import (
    action_view,
    block_count,
    gibbs_chain,
    log_perron,
    successor_table,
)
from ergotrans.zerotemp import (
    default_beta_grid,
    maxplus_solve,
    zero_temp_constrained,
)

from conftest import (
    assemble_transfer,
    bellman_subaction,
    dense_q,
    enumerate_cycle_means,
    karp_cycle_mean,
    perron_solve,
    primal_lp_oracle,
    random_cost,
    random_marginal,
    scaled_dense_log_perron,
)

FAMILIES = [(1, 2, 2), (2, 2, 3), (3, 2, 4), (2, 3, 2), (2, 3, 3), (3, 3, 3),
            (2, 4, 2), (3, 4, 3), (3, 4, 4)]
BETAS = (1.0, 64.0, 4096.0, 2.0**14)


def random_family(seed=300, per_family=2):
    rng = np.random.default_rng(seed)
    return [random_cost(rng, *family) for family in FAMILIES for _ in range(per_family)]


def scaled(cost, beta):
    return CostTensor(cost.values * beta, cost.alphabet_size, cost.depth)


def eigen_spread(cost, log_h):
    """Independent recomputation of the spread of ``T(log h) - log h``."""
    ct = action_view(cost)
    succ = successor_table(cost.alphabet_size, block_count(cost))
    t = ct + log_h[succ][None, :, :]
    mx = t.max(axis=(0, 2))
    diff = mx + np.log(np.exp(t - mx[None, :, None]).sum(axis=(0, 2))) - log_h
    return float(diff.max() - diff.min())


def test_log_perron_matches_dense_oracles_on_random_family():
    for cost in random_family():
        for beta in BETAS:
            c = scaled(cost, beta)
            log_lam, u, spread, _ = log_perron(c)
            ref_log_lam, _ = scaled_dense_log_perron(c)
            assert log_lam == pytest.approx(ref_log_lam, abs=1e-10 * max(1.0, abs(ref_log_lam)))
            scale = max(1.0, float(np.abs(c.values).max()), float(np.abs(u).max()))
            assert eigen_spread(c, u) <= max(1e-13, 3e-14 * scale)
            assert spread <= max(1e-13, 3e-14 * scale)
            if beta == 1.0:
                sol = perron_solve(assemble_transfer(c))
                assert log_lam == pytest.approx(math.log(sol.lam), abs=1e-12)
                assert np.abs(np.exp(u) - sol.h).max() <= 1e-10 * sol.h.max()


def test_gibbs_chain_is_stationary_on_random_family():
    for cost in random_family():
        for beta in BETAS:
            measure = gibbs_plan(gibbs_chain(scaled(cost, beta)), cost.depth)
            assert np.abs(dense_q(measure) @ measure.p - measure.p).max() <= 1e-12
            assert measure.p.sum() == pytest.approx(1.0, abs=1e-12)
            assert (measure.p >= 0.0).all()


def test_sparse_and_dense_solves_agree(monkeypatch):
    rng = np.random.default_rng(301)
    cost = scaled(random_cost(rng, 2, 2, 10), 64.0)  # 512 blocks
    solve = transfer._bordered_solve
    solved = []

    def counting_solve(*args, **kwargs):
        solved.append(kwargs.get("transpose", False))
        return solve(*args, **kwargs)

    monkeypatch.setattr(transfer, "_bordered_solve", counting_solve)
    results = []
    for cap in (1024, 256):
        monkeypatch.setattr(transfer, "DENSE_SOLVE_MAX", cap)
        solved.clear()
        log_lam, u, _, _ = log_perron(cost)
        measure = gibbs_plan(gibbs_chain(cost), cost.depth)
        assert solved.count(False) >= 2 and solved.count(True) == 1  # Newton ran
        results.append((log_lam, u, measure.p))
    (l1, u1, p1), (l2, u2, p2) = results
    assert l1 == pytest.approx(l2, abs=1e-12 * max(1.0, abs(l1)))
    assert np.abs(u1 - u2).max() <= 1e-9 * max(1.0, float(np.abs(u1).max()))
    assert np.abs(p1 - p2).max() <= 1e-12


def counted_factorizations(monkeypatch):
    """The matrices handed to ``scipy.sparse.linalg.splu`` from now on."""
    import scipy.sparse.linalg

    factored = []
    splu = scipy.sparse.linalg.splu

    def counting_splu(matrix, *args, **kwargs):
        factored.append(matrix)
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    return factored


def newton_target(ct, tol=1e-13):
    """``log_perron``'s Newton target for the cost ``ct``."""
    scale = float(np.abs(ct).max())
    return lambda log_lam, u: max(tol, 4e-15 * max(1.0, scale, float(np.abs(u).max()),
                                                   abs(log_lam)))


def test_newton_without_kept_factors_is_one_fresh_solve_per_step(monkeypatch):
    # with a reuse ratio no step can beat, every step factors its own chain:
    # the outcome is that of the oracle's fresh solve per step, bit for bit,
    # from a zero start and from the Howard bias alike; with kept factors it
    # is the oracle's chord Newton, and it certifies wherever the fresh one does
    from conftest import _index_newton, index_successor_table

    factored = counted_factorizations(monkeypatch)
    rng = np.random.default_rng(3301)
    saved = []
    for num_x, d, m, beta in ((2, 2, 9, 1.0), (2, 4, 5, 1.0), (3, 2, 10, 1.0),
                              (2, 2, 9, 64.0), (2, 4, 5, 16.0)):
        cost = scaled(random_cost(rng, num_x, d, m), beta)
        ct, n = action_view(cost), block_count(cost)
        succ = successor_table(d, n)
        target = newton_target(ct)
        bias = howard_policy_iteration(ct.max(axis=0), succ, np.zeros(n))[1]
        for start in (np.zeros(n), bias):
            counts, results = [], []
            for ratio in (0.0, transfer.REUSE_RATIO):
                monkeypatch.setattr(transfer, "REUSE_RATIO", ratio)
                factored.clear()
                results.append(outcome(lambda: transfer._newton(ct, succ, start, target)))
                counts.append(len(factored))
            fresh, kept = results
            oracle = [outcome(lambda: _index_newton(ct, index_successor_table(d, n), start,
                                                    target, ratio))
                      for ratio in (0.0, transfer.REUSE_RATIO)]
            assert_bit_identical(fresh, oracle[0])
            assert_bit_identical(kept, oracle[1])
            if fresh[0] == "raised":
                continue
            assert kept[0] != "raised", kept
            for log_lam, u, spread, _ in results:
                scale = max(1.0, float(np.abs(ct).max()), float(np.abs(u).max()), abs(log_lam))
                assert spread <= max(1e-13, 3e-14 * scale)
                assert eigen_spread(cost, u) <= max(1e-13, 3e-14 * scale)
            assert kept[0] == pytest.approx(fresh[0], abs=1e-12 * max(1.0, abs(fresh[0])))
            assert counts[1] <= counts[0]
            saved.append(counts[0] - counts[1])
    assert len(saved) >= 5 and max(saved) >= 2  # kept factors stand in for fresh ones


SPARSE_FACTOR_BUDGET = 3  # one for Newton, one for the stationary solve, one spare


def test_sparse_gibbs_chain_factors_few_times_and_skips_howard_at_beta_one(monkeypatch):
    # the (2,4,6) and (3,2,12) spectral-ladder rungs: power steps reach
    # Newton's basin, and one factorization serves Newton's steps
    from conftest import dense_chain

    def forbidden(*args, **kwargs):
        raise AssertionError("Howard ran on a beta-1 sparse chain")

    factored = counted_factorizations(monkeypatch)
    monkeypatch.setattr(transfer, "howard_policy_iteration", forbidden)
    rng = np.random.default_rng(3302)
    for family in ((2, 4, 6), (3, 2, 12)):
        cost = random_cost(rng, *family)
        factored.clear()
        chain = gibbs_chain(cost)
        assert len(factored) <= SPARSE_FACTOR_BUDGET
        sol = perron_solve(assemble_transfer(cost))
        assert chain.log_lambda == pytest.approx(math.log(sol.lam), abs=1e-12)
        assert np.abs(np.exp(chain.log_h) - sol.h).max() <= 1e-10 * sol.h.max()
        assert np.abs(dense_chain(chain.weights) @ chain.p - chain.p).max() <= 1e-12
        assert chain.p.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("family, beta", [((2, 2, 9), 64.0), ((2, 2, 9), 4096.0),
                                          ((2, 4, 5), 256.0), ((2, 2, 11), 16.0)])
def test_large_beta_sparse_eigensolves_certify(family, beta):
    rng = np.random.default_rng(3303 + family[2])
    cost = scaled(random_cost(rng, *family), beta)
    log_lam, u, spread, _ = log_perron(cost)
    scale = max(1.0, float(np.abs(cost.values).max()), float(np.abs(u).max()))
    assert spread <= max(1e-13, 3e-14 * scale)
    assert eigen_spread(cost, u) <= max(1e-13, 3e-14 * scale)
    ref_log_lam, _ = scaled_dense_log_perron(cost)
    assert log_lam == pytest.approx(ref_log_lam, abs=1e-10 * max(1.0, abs(ref_log_lam)))


def test_no_dense_eig_lstsq_or_fractions_on_the_solver_path(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense eig, lstsq or Fraction arithmetic ran")

    monkeypatch.setattr(np.linalg, "eig", forbidden)
    monkeypatch.setattr(np.linalg, "lstsq", forbidden)
    monkeypatch.setattr("ergotrans._tropical.Fraction", forbidden)
    for cost in random_family(seed=304, per_family=1):
        for beta in BETAS:
            gibbs_plan(gibbs_chain(scaled(cost, beta)), cost.depth)


def test_sparse_solve_builds_no_dense_chain():
    rng = np.random.default_rng(302)
    cost = scaled(random_cost(rng, 2, 2, 13), 64.0)  # 4096 blocks
    n = block_count(cost)
    tracemalloc.start()
    try:
        chain = gibbs_chain(cost)
        transfer._stationary(chain.weights, successor_table(2, n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 8


def test_gibbs_plan_builds_no_dense_chain():
    rng = np.random.default_rng(305)
    cost = random_cost(rng, 2, 2, 12)  # 2048 blocks
    n = block_count(cost)
    tracemalloc.start()
    try:
        gibbs_plan(gibbs_chain(cost), cost.depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4


@pytest.mark.parametrize("cap", [128, 0], ids=["dense", "sparse"])
def test_stationary_vector_keeps_escapes_below_machine_epsilon(monkeypatch, cap):
    # self-loops with escape probabilities 1e-20 and 3e-20: P[b, b] rounds to
    # 1, so P[b, b] - 1 would cancel to 0; p is (3, 1) / 4 exactly
    monkeypatch.setattr(transfer, "DENSE_SOLVE_MAX", cap)
    values = np.log([[1.0, 1e-20, 3e-20, 1.0]])
    measure = gibbs_plan(gibbs_chain(CostTensor(values, 2, 2)), 2)
    assert np.abs(measure.p - [0.75, 0.25]).max() <= 1e-12


def test_singular_dense_solve_raises_convergence_error():
    succ = successor_table(2, 2)
    identity_chain = np.array([[1.0, 0.0], [0.0, 1.0]])  # two closed classes
    with pytest.raises(ConvergenceError, match="Singular matrix") as info:
        transfer._stationary(identity_chain, succ)
    assert info.value.residual == 1.0


@pytest.mark.parametrize("gufuncs", ["present", "missing"])
@pytest.mark.parametrize("n", [2, 3, 4, 9, 16, 64, 128])
def test_dense_solve_is_bit_identical_to_numpy_solve(monkeypatch, gufuncs, n):
    # the gufunc behind np.linalg.solve, called without its wrapper, or the
    # wrapper itself when numpy has no such gufunc
    if gufuncs == "missing":
        monkeypatch.setattr(transfer, "_DENSE_SOLVE", None)
    rng = np.random.default_rng(3200 + n)
    for _ in range(10):
        mat = rng.normal(size=(n, n))
        for rhs in (rng.normal(size=n), rng.normal(size=(n, 3))):
            for m in (mat, mat.T):
                assert transfer._dense_solve(m, rhs).tobytes() == np.linalg.solve(m, rhs).tobytes()


@pytest.mark.parametrize("gufuncs", ["present", "missing"])
def test_singular_dense_solve_raises_without_a_warning(monkeypatch, gufuncs):
    import warnings

    if gufuncs == "missing":
        monkeypatch.setattr(transfer, "_DENSE_SOLVE", None)
    identity_chain = np.array([[1.0, 0.0], [0.0, 1.0]])  # two closed classes
    for rhs in (np.array([-1.0, 0.0]), np.ones((2, 3))):
        for transpose in (False, True):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ConvergenceError) as info:
                    transfer._bordered_solve(identity_chain, rhs, transpose=transpose)
            assert str(info.value) == "bordered chain solve failed: Singular matrix"
            assert info.value.residual == 1.0


def test_log_gth_matches_bordered_solve_and_underflowed_escapes():
    rng = np.random.default_rng(305)
    for d, n in ((2, 2), (2, 16), (3, 27), (4, 64)):
        succ = successor_table(d, n)
        weights = rng.uniform(0.05, 1.0, size=(n, d))
        weights /= weights.sum(axis=1)[:, None]
        p_gth = transfer._log_gth_stationary(np.log(weights), succ)
        assert np.abs(p_gth - transfer._stationary(weights, succ)).max() <= 1e-13
    # escapes exp(-1000) and exp(-1100) underflow; p is proportional to the
    # opposite escape: (exp(-1100), exp(-1000)), normalized
    log_w = np.array([[0.0, -1000.0], [-1100.0, 0.0]])
    p = transfer._log_gth_stationary(log_w, successor_table(2, 2))
    assert p[0] == pytest.approx(math.exp(-100.0), rel=1e-12)
    assert p[1] == 1.0


def howard_draws():
    """The ``(weights, succ)`` draws of ``test_howard_agrees_with_karp``."""
    rng = np.random.default_rng(303)
    for _ in range(200):
        d = int(rng.integers(2, 4))
        n = d ** int(rng.integers(1, 5))
        yield rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-1, 4), successor_table(d, n)


def test_howard_agrees_with_karp():
    for weights, succ in howard_draws():
        mean, bias = howard_policy_iteration(weights, succ, np.zeros(len(weights)))
        exact, _ = karp_cycle_mean(weights, succ)
        assert mean == pytest.approx(float(exact), abs=1e-12 * max(1.0, abs(mean)))
        bellman = (weights + bias[succ]).max(axis=1) - mean - bias
        assert np.abs(bellman).max() <= 1e-9 * max(1.0, float(np.abs(weights).max()))


def test_howard_separates_loops_a_few_ulps_apart():
    # two self-loops at scale 1.6e4, means 1.4e-8 apart: far below a 1e-12
    # relative tie tolerance, far above the ulp of the weights
    d, n = 2, 4
    succ = successor_table(d, n)  # self-loops at block 0 (a=0) and block 3 (a=1)
    weights = np.full((n, d), -3.0e4)
    weights[0, 0] = 1.6e4
    weights[3, 1] = 1.6e4 + 1.4e-8
    weights[0, 1] = weights[1, 1] = weights[2, 1] = 0.0
    mean, bias = howard_policy_iteration(weights, succ, np.zeros(n))
    assert mean == float(karp_cycle_mean(weights, succ)[0])
    bellman = (weights + bias[succ]).max(axis=1) - mean - bias
    assert np.abs(bellman).max() <= 1e-10


def tie_tables():
    """Integer tables with ties; a factor lcm(1..n) makes every cycle mean an integer."""
    rng = np.random.default_rng(306)
    for _ in range(100):
        d = int(rng.integers(2, 4))
        n = d ** int(rng.integers(1, 4))
        weights = rng.integers(-2, 3, size=(n, d)) * float(math.lcm(*range(1, n + 1)))
        yield weights, successor_table(d, n)


def as_cost(weights):
    """The single-x cost whose tropical lift is ``weights``: ``c(0, a.b) = weights[b, a]``."""
    n, d = weights.shape
    return CostTensor(weights.reshape(1, -1), d, round(math.log(n, d)) + 1)


def cycle_mean(weights, succ, cycle):
    """The exact mean of ``cycle`` as a Fraction, from the edge into each next state."""
    steps = zip(cycle, cycle[1:] + cycle[:1])
    return sum(Fraction(float(weights[b][succ[b] == t].max())) for b, t in steps) / len(cycle)


def test_exact_policy_iteration_agrees_with_karp_and_bellman():
    for tied, (weights, succ) in [(False, draw) for draw in howard_draws()] + [
            (True, table) for table in tie_tables()]:
        m, cycle, v = exact_policy_iteration(weights, succ)
        karp_m, karp_cycle = karp_cycle_mean(weights, succ)
        assert isinstance(m, Fraction) and m == karp_m
        if weights.shape[0] <= 9:
            assert float(m) == enumerate_cycle_means(as_cost(weights))
        assert cycle_mean(weights, succ, cycle) == m
        assert cycle[0] == min(cycle)
        if tied:
            sol = maxplus_solve(as_cost(weights))
            assert sol.subaction.tolist() == v.tolist()
            assert sol.calibration_residual == 0.0 and sol.feasibility_residual == 0.0
        else:
            assert cycle == karp_cycle
            assert v.tolist() == bellman_subaction(weights, succ, karp_m, karp_cycle).tolist()


def test_maxplus_solve_on_1024_blocks():
    rng = np.random.default_rng(307)
    cost = random_cost(rng, 2, 2, 11)  # 1024 blocks, beyond Karp in Tier-1
    sol = maxplus_solve(cost)
    assert block_count(cost) == 1024
    assert sol.feasibility_residual <= 1e-9
    assert sol.calibration_residual <= 1e-9
    assert sol.subaction.max() == 0.0
    cycle = list(sol.optimal_cycle)
    weights = action_view(cost).max(axis=0)
    succ = successor_table(2, 1024)
    assert float(cycle_mean(weights, succ, cycle)) == sol.m
    mean = howard_policy_iteration(weights, succ, np.zeros(1024))[0]
    assert mean == pytest.approx(sol.m, abs=1e-12 * max(1.0, abs(mean)))


def test_regression_criterion8_draws_6_and_7():
    # drawn as in acceptance criterion 8; Newton started from a power iterate
    # stalls the dual solve on these two nearly reducible scaled costs
    rng = np.random.default_rng(107)
    draws = [(random_cost(rng, 2, 2, 2), random_marginal(rng, 2)) for _ in range(8)]
    beta_max = 2**14
    window = 2.0 * math.log(4.0) / beta_max + 1e-9
    for cost, mu in draws[6:8]:
        out = zero_temp_constrained(cost, mu, default_beta_grid(beta_max))
        assert out.feasibility_residual <= 1e-9
        assert out.support_equality_residual <= out.slack_tolerance
        assert abs(out.value - primal_lp_oracle(cost, mu).value) <= window


def test_regression_seed106_single_x_three_symbols():
    # drawn as in acceptance criterion 7; at beta = 4096 these (1, 3, 2)
    # costs admit policies with several closed classes, so P - I is singular
    # at a power iterate
    rng = np.random.default_rng(106)
    picked = []
    for i in range(7):
        num_x = int(rng.integers(1, 3))
        d = int(rng.integers(2, 4))
        depth = 2 if d == 3 else int(rng.integers(2, 5))
        cost = random_cost(rng, num_x, d, depth)
        if i >= 4:
            assert (num_x, d, depth) == (1, 3, 2)
            picked.append(cost)
    for cost in picked:
        for beta in (64.0, 4096.0):
            c = scaled(cost, beta)
            log_lam, u, _, _ = log_perron(c)
            ref_log_lam, _ = scaled_dense_log_perron(c)
            assert log_lam == pytest.approx(ref_log_lam, abs=1e-10 * max(1.0, abs(ref_log_lam)))
            scale = max(1.0, float(np.abs(c.values).max()), float(np.abs(u).max()))
            assert eigen_spread(c, u) <= max(1e-13, 3e-14 * scale)


def test_nearly_tied_classes_certify_on_the_settled_newton_retry(monkeypatch):
    # survey draw (2, 3, 3), seed 16, at beta 256, shifted by a dual potential
    # a few ulps from where the slice gradient changes sign.  The self-loop on
    # block 0 and the 2-cycle through blocks 1 and 3 tie in cycle mean and
    # are coupled by about exp(-193): plain Newton moves their offset by one
    # unit per step, unbalances block 6, which feeds both, and cycles, and
    # power steps alone do not settle it.
    from conftest import survey_draw
    from ergotrans.dual import shift_cost

    cost, _ = survey_draw(16, (2, 3, 3))
    phi = np.array([0.0, float.fromhex("-0x1.9fb83c0a1b21ap+6")])
    c = shift_cost(scaled(cost, 256.0), phi)
    log_lam, u, _, _ = log_perron(c)
    scale = max(1.0, float(np.abs(c.values).max()), float(np.abs(u).max()))
    assert eigen_spread(c, u) <= max(1e-13, 3e-14 * scale)
    ref_log_lam, _ = scaled_dense_log_perron(c)
    assert log_lam == pytest.approx(ref_log_lam, abs=1e-10 * max(1.0, abs(ref_log_lam)))
    monkeypatch.setattr(transfer, "SETTLE_STEPS", 0)
    with pytest.raises(ConvergenceError, match="did not certify"):
        log_perron(c)


def test_power_steps_resumed_after_newton_certify_the_eigensolve(monkeypatch):
    # survey draw (2, 3, 3), seed 8: once in its constrained sweep, at beta 32,
    # Newton does not certify from either start and the rest of the power-step
    # budget, resumed from the best Newton iterate, does
    from conftest import highs_lp_oracle, survey_draw

    from ergotrans.zerotemp import zero_temp_constrained

    resumed = []
    power_steps = transfer._power_steps

    def spy(ct, succ, u, steps, target, handover=None):
        out = power_steps(ct, succ, u, steps, target, handover)
        if handover is None and out[0] is not None:  # only the resume passes no handover
            resumed.append((ct.copy(), out[0]))
        return out

    monkeypatch.setattr(transfer, "_power_steps", spy)
    cost, mu = survey_draw(8, (2, 3, 3))
    out = zero_temp_constrained(cost, mu)
    assert len(resumed) == 1
    ct, (log_lam, u, spread, _) = resumed[0]
    num_x, n_blocks, d = ct.shape
    c = CostTensor(ct.reshape(num_x, -1), d, 3)  # the action view of the solved cost
    # the dual shifts each x-row by a constant, so the row's spread scales by beta
    assert n_blocks == 9 and np.ptp(ct[0]) / np.ptp(cost.values[0]) == pytest.approx(32.0)
    scale = max(1.0, float(np.abs(c.values).max()), float(np.abs(u).max()))
    assert spread == pytest.approx(eigen_spread(c, u), abs=1e-14 * scale)
    assert eigen_spread(c, u) <= max(1e-13, 3e-14 * scale)
    ref_log_lam, _ = scaled_dense_log_perron(c)
    assert log_lam == pytest.approx(ref_log_lam, abs=1e-10 * max(1.0, abs(ref_log_lam)))
    assert out.feasibility_residual <= 1e-9
    window = 2.0 * math.log(6.0) / 2**14 + 1e-9
    assert abs(out.value - highs_lp_oracle(cost, mu).value) <= window


def test_survey_d3_families_certify_on_the_whole_grid():
    # the ROADMAP robustness survey draws; its d=3 families used to fail in
    # log_perron ("did not certify") at beta_max as low as 4-8
    grid = default_beta_grid()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        for num_x, d, m in ((2, 2, 2), (2, 3, 2), (2, 3, 3), (3, 2, 3)):
            cost = CostTensor(rng.normal(size=(num_x, d**m)), d, m)
            rng.uniform(0.2, 1.0, size=num_x)  # the survey's mu draw
            if d != 3:
                continue
            m_exact = maxplus_solve(cost).m
            for beta in grid:
                log_lam, _, _, _ = log_perron(scaled(cost, beta))
                slack = 1e-12 * max(1.0, abs(beta * m_exact))
                assert beta * m_exact - slack <= log_lam
                assert log_lam <= beta * m_exact + math.log(num_x * d) + slack


def test_import_of_cli_leaves_scipy_unloaded():
    code = "import sys, ergotrans.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "False"


SPARSE_SIZES = [(2, 256), (2, 512), (2, 1024), (2, 2048), (2, 4096),
                (3, 729), (3, 2187), (4, 256), (4, 1024), (4, 4096)]


@pytest.mark.parametrize("d, n", SPARSE_SIZES)
def test_sparse_solve_reuses_pattern_bit_identically(monkeypatch, d, n):
    # the matrix handed to SuperLU equals the triplet build array for array,
    # explicit zeros included, so the factors and the solves are the same
    import scipy.sparse.linalg

    from conftest import bordered_triplet_matrix

    rng = np.random.default_rng(d * n)
    succ = successor_table(d, n)
    weights = rng.uniform(0.0, 1.0, size=(n, d)) * 10.0 ** rng.uniform(-20, 0, size=(n, d))
    weights[rng.random((n, d)) < 0.05] = 0.0
    weights[np.arange(n), rng.integers(0, d, size=n)] += 0.5  # every row escapes
    weights /= weights.sum(axis=1)[:, None]
    rhs = rng.normal(size=n)
    factored = []
    splu = scipy.sparse.linalg.splu

    def capture(matrix, *args, **kwargs):
        factored.append(matrix)
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", capture)
    reference = bordered_triplet_matrix(weights, succ)
    for transpose in (False, True):
        try:
            x = transfer._bordered_solve(weights, rhs, transpose=transpose)
        except ConvergenceError:
            x = None  # the same matrix must then be singular for SuperLU too
        matrix = factored.pop()
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(matrix, field), getattr(reference, field))
        if x is None:
            with pytest.raises(RuntimeError, match="singular"):
                splu(reference)
        else:
            expected = splu(reference).solve(rhs, trans="T" if transpose else "N")
            assert np.array_equal(x, expected)
    assert transfer._layout(d, n) is transfer._layout(d, n)


@pytest.mark.parametrize("transpose", [False, True])
def test_singular_sparse_solve_raises_convergence_error(transpose):
    # absorbing blocks 0 (a=0) and n-1 (a=1): two closed classes
    d, n = 2, 256
    weights = np.full((n, d), 0.5)
    weights[0] = (1.0, 0.0)
    weights[n - 1] = (0.0, 1.0)
    with pytest.raises(ConvergenceError) as info:
        transfer._bordered_solve(weights, np.ones(n), transpose=transpose)
    assert info.value.residual == 1.0


# -- the cached (d, n) layout against the kernels with fresh index arrays --

LAYOUT_SIZES = [(d, d**k) for d, top in ((2, 8), (3, 5), (4, 4)) for k in range(1, top + 1)]


def layout_draw(rng, d, n):
    """A cost in the action layout, #X 1-4 at scale 1-1e3, and a log eigenvector guess."""
    num_x = int(rng.integers(1, 5))
    scale = 10.0 ** rng.uniform(0.0, 3.0)
    return scale * rng.normal(size=(num_x, n, d)), scale * rng.normal(size=n)


def outcome(call):
    """What a call returned, or the ConvergenceError it raised, as comparable parts."""
    try:
        result = call()
    except ConvergenceError as exc:
        return ("raised", str(exc), exc.residual, exc.iterations)
    return result if isinstance(result, tuple) else (result,)


def assert_bit_identical(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


def test_layout_kernels_match_fresh_index_arrays_bit_for_bit():
    from conftest import (
        index_bordered_solve,
        index_log_chain,
        index_log_transfer_apply,
        index_reduced_cost,
        index_successor_table,
    )

    rng = np.random.default_rng(2701)
    for d, n in LAYOUT_SIZES * 3:
        ct, u = layout_draw(rng, d, n)
        succ, fresh = successor_table(d, n), index_successor_table(d, n)
        assert np.array_equal(succ, fresh)
        assert np.array_equal(transfer._log_transfer_apply(ct, succ, u),
                              index_log_transfer_apply(ct, fresh, u))
        chain = transfer._log_chain(ct, succ, u)
        assert_bit_identical(chain, index_log_chain(ct, fresh, u))
        for m in (float(rng.normal()), rng.normal(size=ct.shape[0])):
            assert np.array_equal(transfer.reduced_cost(ct, u, m), index_reduced_cost(ct, u, m))
        weights, rhs = chain[1], rng.normal(size=n)
        for transpose in (False, True):
            assert_bit_identical(
                outcome(lambda: transfer._bordered_solve(weights, rhs, transpose=transpose)),
                outcome(lambda: index_bordered_solve(weights, fresh, rhs, transpose=transpose)))


def test_log_perron_matches_fresh_index_arrays_bit_for_bit():
    from conftest import index_log_perron

    rng = np.random.default_rng(2702)
    for d, n in LAYOUT_SIZES * 2:
        ct, _ = layout_draw(rng, d, n)
        cost = CostTensor(ct.reshape(ct.shape[0], n * d), d, round(math.log(n * d, d)))
        assert_bit_identical(outcome(lambda: log_perron(cost)),
                             outcome(lambda: index_log_perron(cost)))


def test_gibbs_chain_matches_the_two_step_oracle_bit_for_bit():
    from conftest import two_step_gibbs_chain

    rng = np.random.default_rng(2801)
    costs = []
    for d, n in LAYOUT_SIZES * 2:  # dense and sparse chains
        ct, _ = layout_draw(rng, d, n)
        costs.append(CostTensor(ct.reshape(ct.shape[0], n * d), d, round(math.log(n * d, d))))
    # escapes exp(-1000) underflow: the bordered solve is singular and the
    # log-GTH reduction gives p
    reducible = CostTensor(np.array([[0.0, -1000.0, -1000.0, 0.0]]), 2, 2)
    with pytest.raises(ConvergenceError):
        transfer._stationary(gibbs_chain(reducible).weights, successor_table(2, 2))
    for cost in costs + [reducible]:
        assert_bit_identical(gibbs_chain(cost), two_step_gibbs_chain(cost))


def test_normalization_defect_is_a_solver_failure(two_state_cost, monkeypatch):
    from conftest import two_step_gibbs_chain

    # a loose eigensolve leaves the block sums of exp(cbar) 2.5e-11 off 1,
    # above the 1e-12 * scale contract; the oracle reports the same defect
    with pytest.raises(ConvergenceError, match="normalization defect") as info:
        gibbs_chain(two_state_cost, tol=1e-9)
    with pytest.raises(SpecValidationError) as oracle:
        two_step_gibbs_chain(two_state_cost, tol=1e-9)
    assert str(info.value) == str(oracle.value)
    assert info.value.residual > 1e-11
    # eigendata that are not numbers fail the same check
    solve = transfer.log_perron

    def not_a_number(cost, tol):
        log_lam, u, residual, iterations = solve(cost, tol=tol)
        return math.nan, u, residual, iterations

    monkeypatch.setattr(transfer, "log_perron", not_a_number)
    with pytest.raises(ConvergenceError, match="normalization defect nan"):
        gibbs_chain(two_state_cost)


def test_cached_layout_is_read_only():
    succ = successor_table(3, 9)
    with pytest.raises(ValueError, match="read-only"):
        succ[0, 0] = 1
    assert all(not arr.flags.writeable for arr in transfer._layout(3, 9))
    assert successor_table(3, 9) is succ and succ[0, 0] == 0
