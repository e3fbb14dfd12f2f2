import math

import numpy as np
import pytest

from ergotrans.errors import SpecValidationError
from ergotrans.symbolic import CostTensor, Marginal, decode_word
from ergotrans.transfer import gibbs_chain
from ergotrans.plans import (
    FiniteMemoryPlan,
    entropy,
    export_plan,
    gibbs_plan,
    integrate_cost,
    marginal_x,
    nu_cylinder_table,
    plan_mass_table,
)

from conftest import (
    copy_plan,
    dense_q,
    encode_word,
    index_jacobian_n,
    index_nu_cylinder_table,
    index_plan_mass_table,
    index_smoothed_log_jacobian,
    integral_log_jacobian,
    jacobian_n,
    legacy_triples,
    marginal_y,
    markov_entropy_rate,
    normalized_cost,
    periodic_orbit_measure,
    plan_cylinder,
    product_plan,
    push,
    random_cost,
    random_marginal,
    random_markov_measure,
    random_normalized_values,
    random_plan,
    scalar_entropy,
    smoothed_log_jacobian,
    two_atom_plan,
    uniform_bernoulli_measure,
)


def transfer_identity_sides(plan, x, word):
    """Both sides of the transfer identity for a cylinder indicator."""
    d = plan.alphabet_size
    m = plan.memory
    k = len(word)
    tail_idx = encode_word(word[1:], d) if k > 1 else 0
    length = max(k - 1, m - 1)
    table = nu_cylinder_table(plan, length)
    step = d ** (k - 1)
    lhs = 0.0
    n_blocks = plan.n_blocks
    for v in range(tail_idx, d**length, step) if k > 1 else range(d**length):
        lhs += plan.jacobian[x, v % n_blocks, word[0]] * table[v]
    rhs = plan_cylinder(plan, x, word)
    return lhs, rhs


# --- Gibbs plan ------------------------------------------------------------


def test_gibbs_plan_two_state_level_one(two_state_cost):
    plan = gibbs_plan(gibbs_chain(two_state_cost), 2)
    table = plan_mass_table(plan, 1)
    ref = np.array([[0.1893, 0.2425], [0.1893, 0.3787]])
    assert np.abs(table - ref).max() <= 2e-4
    assert table.sum() == pytest.approx(1.0, abs=1e-12)


def test_gibbs_plan_uniform_cost_is_uniform_product():
    c = CostTensor(np.full((2, 4), -math.log(4.0)), 2, 2)
    plan = gibbs_plan(gibbs_chain(c), 2)
    table = plan_mass_table(plan, 1)
    assert np.allclose(table, 0.25, atol=1e-12)


def test_gibbs_plan_depth_two_mass(two_state_cost):
    chain = gibbs_chain(two_state_cost)
    plan = gibbs_plan(chain, 2)
    cbar = normalized_cost(two_state_cost, chain.log_lambda, chain.log_h)
    # J(x=0, a=0 | b=1) * p(1): the off-diagonal normalized entry times p
    view = np.exp(cbar.values).reshape(2, 2, 2)  # [x, b, a]
    expected = view[0, 1, 0] * plan.p[1]
    assert plan_cylinder(plan, 0, (0, 1)) == pytest.approx(expected, abs=1e-14)
    assert abs(expected - 0.1711 * 0.6213) <= 1e-4


def test_gibbs_plan_jacobian_is_exponential_of_cost(two_state_cost):
    chain = gibbs_chain(two_state_cost)
    plan = gibbs_plan(chain, 2)
    cbar = normalized_cost(two_state_cost, chain.log_lambda, chain.log_h)
    view = np.exp(cbar.values).reshape(2, 2, 2)
    assert np.abs(plan.jacobian - view).max() <= 1e-12


def test_gibbs_plan_of_a_depth_one_cost_has_one_block():
    # at depth 1 the Gibbs plan is i.i.d.: J(x, a) = exp(c(x, a)) / Z on the
    # one empty block, the pressure is log Z and the entropy that of J
    rng = np.random.default_rng(34)
    c = random_cost(rng, 3, 4, 1, scale=2.0)
    chain = gibbs_chain(c)
    plan = gibbs_plan(chain, 1)
    weights = np.exp(c.values)
    law = weights / weights.sum()
    assert (plan.memory, plan.n_blocks) == (1, 1)
    assert plan.p.tolist() == [1.0]
    assert chain.log_lambda == pytest.approx(math.log(weights.sum()), abs=1e-14)
    assert np.abs(plan_mass_table(plan, 1) - law).max() <= 1e-15
    pairs = law[:, None, :] * law.sum(axis=0)[:, None]  # pi([x, a.b]) = J(x, a) nu([b])
    assert np.abs(plan_mass_table(plan, 2) - pairs.reshape(3, -1)).max() <= 1e-15
    assert entropy(plan) == pytest.approx(scalar_entropy(law.ravel()), abs=1e-14)


def test_plan_memory_must_be_at_least_one():
    plan = gibbs_plan(gibbs_chain(random_cost(np.random.default_rng(35), 2, 3, 1)), 1)
    assert FiniteMemoryPlan(plan.jacobian, plan.q, plan.p, 1).n_blocks == 1
    with pytest.raises(SpecValidationError, match="memory must be >= 1"):
        FiniteMemoryPlan(plan.jacobian, plan.q, plan.p, 0)


# --- cylinder masses -------------------------------------------------------


def test_plan_cylinder_two_atom_query():
    plan = two_atom_plan()
    assert plan_cylinder(plan, 0, (0, 1, 0, 1, 0)) == pytest.approx(0.5, abs=1e-15)
    assert plan_cylinder(plan, 1, (0, 1, 0, 1, 0)) == 0.0
    assert plan_cylinder(plan, 0, (0,)) == pytest.approx(0.5, abs=1e-15)


def test_plan_cylinder_total_mass():
    rng = np.random.default_rng(21)
    plan = random_plan(rng, 2, 2, 3)
    for length in (1, 2, 3, 4, 5):
        assert plan_mass_table(plan, length).sum() == pytest.approx(1.0, abs=1e-12)


def test_plan_cylinder_uniform_product():
    mu = Marginal([0.5, 0.5])
    plan = product_plan(mu, uniform_bernoulli_measure(2, 1))
    assert plan_cylinder(plan, 0, (1, 0, 1)) == pytest.approx(0.5 / 8.0, abs=1e-15)


def test_plan_cylinder_agrees_with_table():
    rng = np.random.default_rng(22)
    plan = random_plan(rng, 2, 3, 2)
    table = plan_mass_table(plan, 3)
    for idx in (0, 5, 11, 26):
        word = decode_word(idx, 3, 3)
        assert plan_cylinder(plan, 1, word) == pytest.approx(table[1, idx], abs=1e-15)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _table_plans():
    """Plans for d 2-4 and #X 1-3: generic, Gibbs, and with null cylinders."""
    rng = np.random.default_rng(40)
    plans = [two_atom_plan()]
    for d, m in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (4, 3)):
        for num_x in (1, 2, 3):
            plans.append(random_plan(rng, num_x, d, m))
        plans.append(gibbs_plan(gibbs_chain(random_cost(rng, 2, d, m)), m))
        word = [int(s) for s in rng.integers(0, d, size=m + 1)]
        try:
            nu = periodic_orbit_measure(word, d, m - 1)
        except SpecValidationError:  # the orbit needs longer blocks
            continue
        plans.append(product_plan(random_marginal(rng, 3), nu))
    return plans


def test_cylinder_tables_equal_index_arithmetic_bit_for_bit():
    for plan in _table_plans():
        m = plan.memory
        for length in range(m - 1, m + 4):
            assert _same_bits(nu_cylinder_table(plan, length),
                              index_nu_cylinder_table(plan, length))
            assert _same_bits(plan_mass_table(plan, length), index_plan_mass_table(plan, length))
            n = length - 1
            if n >= 0:
                assert _same_bits(jacobian_n(plan, n), index_jacobian_n(plan, n))
            if n >= 1:
                assert _same_bits(smoothed_log_jacobian(plan, 1e-9, n).values,
                                  index_smoothed_log_jacobian(plan, 1e-9, n))


# --- finite-depth Jacobians ------------------------------------------------


def test_jacobian_n_gibbs_equals_exp_cost(two_state_cost):
    chain = gibbs_chain(two_state_cost)
    plan = gibbs_plan(chain, 2)
    j1 = jacobian_n(plan, 1)
    cbar = normalized_cost(two_state_cost, chain.log_lambda, chain.log_h)
    assert np.abs(j1 - np.exp(cbar.values)).max() <= 1e-12


def test_jacobian_n_stabilizes_at_memory():
    rng = np.random.default_rng(23)
    plan = random_plan(rng, 2, 2, 2)
    m = plan.memory
    j_low = jacobian_n(plan, m - 1)
    j_high = jacobian_n(plan, m)
    d = plan.alphabet_size
    # J^m(x, w0..wm) equals J^{m-1}(x, w0..w_{m-1}): compare by dropping the tail symbol
    idx = np.arange(d ** (m + 1))
    assert np.abs(j_high - j_low[:, idx % d**m]).max() <= 1e-12


def test_jacobian_n_product_plan_factorizes():
    rng = np.random.default_rng(24)
    mu = random_marginal(rng, 2)
    nu = random_markov_measure(rng, 2, 1)
    plan = product_plan(mu, nu)
    for n in (0, 1, 2):
        jn = jacobian_n(plan, n)
        num = nu_cylinder_table(nu, n + 1)
        den = nu_cylinder_table(nu, n)
        idx = np.arange(2 ** (n + 1))
        expected = mu.weights[:, None] * (num[idx] / den[idx // 2])[None, :]
        assert np.abs(jn - expected).max() <= 1e-13


def test_jacobian_n_undefined_on_null_cylinders():
    plan = two_atom_plan()
    j2 = jacobian_n(plan, 2)
    null_idx = encode_word((0, 0, 0), 2)
    assert np.isnan(j2[:, null_idx]).all()
    pos_idx = encode_word((0, 1, 0), 2)
    assert j2[0, pos_idx] == pytest.approx(1.0, abs=1e-15)


# --- entropy ---------------------------------------------------------------


def test_entropy_copy_plan():
    assert entropy(copy_plan()) == pytest.approx(math.log(2.0), abs=1e-12)


def test_entropy_product_with_periodic_orbit():
    mu = Marginal([0.5, 0.5])
    nu = periodic_orbit_measure((0, 1), 2, 1)
    plan = product_plan(mu, nu)
    assert entropy(plan) == pytest.approx(math.log(2.0), abs=1e-12)


def test_periodic_orbit_with_recurring_block_needs_longer_blocks():
    # at block_len 1 the symbol 1 of [1, 0, 1] (and 0 of [0, 0, 1]) is
    # followed by both symbols; blocks of length 2 tell the positions apart
    for word in ([1, 0, 1], [0, 0, 1]):
        with pytest.raises(SpecValidationError, match="needs blocks longer than 1"):
            periodic_orbit_measure(word, 2, 1)
        nu = periodic_orbit_measure(word, 2, 2)
        blocks = [encode_word([word[(i + j) % 3] for j in range(2)], 2) for i in range(3)]
        assert np.array_equal(nu.p[blocks], np.full(3, 1.0 / 3.0))
        assert nu.p.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.abs(push(nu, nu.p) - nu.p).max() <= 1e-15


def test_entropy_two_atom_plan():
    assert entropy(two_atom_plan()) == pytest.approx(0.0, abs=1e-12)


def test_entropy_product_identity():
    rng = np.random.default_rng(25)
    for _ in range(20):
        num_x = int(rng.integers(2, 4))
        d = int(rng.integers(2, 4))
        mu = random_marginal(rng, num_x)
        nu = random_markov_measure(rng, d, 1)
        plan = product_plan(mu, nu)
        assert entropy(plan) == pytest.approx(
            scalar_entropy(mu.weights) + markov_entropy_rate(nu), abs=1e-10
        )


def test_entropy_bounds_and_subadditivity():
    rng = np.random.default_rng(26)
    for _ in range(40):
        num_x = int(rng.integers(1, 4))
        d = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        plan = random_plan(rng, num_x, d, m)
        h = entropy(plan)
        assert -1e-12 <= h <= math.log(num_x * d) + 1e-12
        mu_x = marginal_x(plan)
        assert h <= scalar_entropy(mu_x) + markov_entropy_rate(plan) + 1e-10


def test_entropy_from_definition_agreement():
    rng = np.random.default_rng(27)
    plan = random_plan(rng, 2, 2, 3)
    m = plan.memory
    assert -integral_log_jacobian(plan, m - 1) == pytest.approx(entropy(plan), abs=1e-12)
    assert -integral_log_jacobian(plan, m + 2) == pytest.approx(entropy(plan), abs=1e-12)


# --- equilibrium plans -----------------------------------------------------


def test_equilibrium_plan_value_identity(two_state_cost):
    chain = gibbs_chain(two_state_cost)
    plan, value = gibbs_plan(chain, 2), chain.log_lambda
    assert integrate_cost(plan, two_state_cost) + entropy(plan) == pytest.approx(
        value, abs=1e-10
    )


def test_equilibrium_plan_zero_cost_maximal_entropy():
    c = CostTensor(np.zeros((2, 4)), 2, 2)
    chain = gibbs_chain(c)
    plan, value = gibbs_plan(chain, 2), chain.log_lambda
    assert value == pytest.approx(math.log(4.0), abs=1e-12)
    assert np.allclose(plan_mass_table(plan, 1), 0.25, atol=1e-12)
    assert entropy(plan) == pytest.approx(math.log(4.0), abs=1e-12)


def test_equilibrium_plan_x_only_cost():
    # c depends on x alone: x-marginal is the softmax of f, y-marginal uniform
    f = np.array([0.3, -0.5, 1.1])
    c = CostTensor(np.repeat(f[:, None], 4, axis=1), 2, 2)
    chain = gibbs_chain(c)
    plan, value = gibbs_plan(chain, 2), chain.log_lambda
    softmax = np.exp(f) / np.exp(f).sum()
    assert np.abs(marginal_x(plan) - softmax).max() <= 1e-12
    assert np.allclose(plan.p, 0.5, atol=1e-12)
    # brute-force over a marginal grid: value = max mu.f + h(mu) + log d
    best = -np.inf
    grid = np.linspace(0.001, 0.998, 60)
    for w0 in grid:
        for w1 in grid:
            w2 = 1.0 - w0 - w1
            if w2 <= 0:
                continue
            w = np.array([w0, w1, w2])
            best = max(best, float(w @ f) + scalar_entropy(w) + math.log(2.0))
    assert value >= best - 1e-9
    assert value <= best + 1e-3  # grid resolution


# --- product plans ---------------------------------------------------------


def test_product_plan_copy_masses_at_all_lengths():
    mu = Marginal([0.5, 0.5])
    plan = product_plan(mu, uniform_bernoulli_measure(2, 1))
    for length in (1, 2, 3, 4):
        table = plan_mass_table(plan, length)
        assert np.allclose(table, 0.5 / 2**length, atol=1e-14)


def test_product_plan_recovers_marginal():
    rng = np.random.default_rng(28)
    mu = random_marginal(rng, 3)
    plan = product_plan(mu, random_markov_measure(rng, 2, 2))
    assert np.abs(marginal_x(plan) - mu.weights).max() <= 1e-13


def test_marginal_guard_rejects_point_mass():
    with pytest.raises(SpecValidationError):
        product_plan(np.array([1.0, 0.0]), uniform_bernoulli_measure(2, 1))


# --- marginals -------------------------------------------------------------


def test_marginal_x_two_state(two_state_cost):
    plan = gibbs_plan(gibbs_chain(two_state_cost), 2)
    marg = marginal_x(plan)
    assert np.abs(marg - [0.4319, 0.5680]).max() <= 2e-4
    assert marg.sum() == pytest.approx(1.0, abs=1e-12)


def test_marginal_y_round_trip():
    rng = np.random.default_rng(29)
    plan = random_plan(rng, 2, 2, 2)
    nu = marginal_y(plan)
    assert np.abs(dense_q(nu) @ nu.p - nu.p).max() <= 1e-12


# --- transfer identity and optimality --------------------------------------


def test_transfer_identity_on_cylinders():
    rng = np.random.default_rng(30)
    plans = [
        gibbs_plan(gibbs_chain(random_cost(rng, 2, 2, 2)), 2),
        random_plan(rng, 2, 2, 3),
        two_atom_plan(),
    ]
    for plan in plans:
        d = plan.alphabet_size
        for k in (1, 2, 3, 4):
            for x in range(plan.num_x):
                for idx in range(d**k):
                    word = decode_word(idx, k, d)
                    lhs, rhs = transfer_identity_sides(plan, x, word)
                    assert abs(lhs - rhs) <= 1e-12


def test_gibbs_optimality_inequality():
    rng = np.random.default_rng(31)
    plan = random_plan(rng, 2, 2, 2)
    m = plan.memory
    neg_log_j = -integral_log_jacobian(plan, m - 1)
    for _ in range(25):
        vals = random_normalized_values(rng, 2, 2, m)
        b = CostTensor(vals, 2, m)
        neg_b = -integrate_cost(plan, b)
        assert neg_log_j <= neg_b + 1e-12
        if neg_b - neg_log_j <= 1e-10:
            jac_vals = np.log(plan.jacobian)
            idx = np.arange(2**m)
            flat = jac_vals[:, idx // 2, idx % 2]
            assert np.abs(vals - flat).max() <= 1e-5
    # equality at b = log J exactly
    jac_vals = np.log(plan.jacobian)
    idx = np.arange(2**m)
    flat = np.empty((2, 2**m))
    flat[:, idx] = jac_vals[:, (idx // 2) % plan.n_blocks, idx % 2]
    b_star = CostTensor(flat, 2, m)
    assert -integrate_cost(plan, b_star) == pytest.approx(neg_log_j, abs=1e-10)


# --- smoothed normalized approximation -------------------------------------


def test_smoothed_log_jacobian_full_support_exact():
    rng = np.random.default_rng(32)
    plan = random_plan(rng, 2, 2, 2)
    n = plan.memory - 1
    for eps in (1e-3, 1e-6):
        smoothed = smoothed_log_jacobian(plan, eps, n)
        jn = jacobian_n(plan, n)
        assert np.abs(smoothed.values - np.log(jn)).max() <= 1e-12


def test_smoothed_log_jacobian_two_atom():
    plan = two_atom_plan()
    b_cost = smoothed_log_jacobian(plan, 1e-6, 1)
    integral = integrate_cost(plan, b_cost)
    assert abs(-integral - entropy(plan)) <= 1e-5


def test_smoothed_log_jacobian_monotone_in_eps():
    plan = two_atom_plan()
    n = 1
    target = integral_log_jacobian(plan, n)
    errs = []
    for eps in (1e-4, 5e-5, 2.5e-5):
        smoothed = smoothed_log_jacobian(plan, eps, n)
        errs.append(abs(integrate_cost(plan, smoothed) - target))
    assert errs[0] >= errs[1] >= errs[2]


def test_smoothed_log_jacobian_eps_too_large():
    plan = two_atom_plan()
    with pytest.raises(SpecValidationError, match="too large"):
        smoothed_log_jacobian(plan, 0.6, 1)


# --- export ----------------------------------------------------------------


def test_export_plan_deterministic_order():
    plan = copy_plan()
    out = export_plan(plan, 2)
    assert out["depth"] == 2
    triples = legacy_triples(out["masses"].digits, out["masses"].masses)
    assert len(out["masses"]) == len(triples) == 2 * 4
    assert triples[0][:2] == [0, [0, 0]]
    total = sum(row[2] for row in triples)
    assert total == pytest.approx(1.0, abs=1e-12)
