import math

import numpy as np
import pytest

from ergotrans.errors import SpecValidationError
from ergotrans.plans import gibbs_plan, nu_cylinder_table
from ergotrans.symbolic import CostTensor, decode_word
from ergotrans.transfer import gibbs_chain, log_perron

from conftest import (
    REF_H,
    REF_LAMBDA,
    assemble_transfer,
    dense_q,
    encode_word,
    markov_entropy_rate,
    normalize_with_solution,
    normalized_cost,
    nu_cylinder,
    periodic_orbit_measure,
    perron_solve,
    push,
    random_cost,
    random_markov_measure,
    stationary_vector,
    uniform_bernoulli_measure,
)


def naive_transfer_matrix(cost):
    """Direct double-loop summation over words, as an oracle."""
    d, m = cost.alphabet_size, cost.depth
    n_blocks = d ** (m - 1)
    mat = np.zeros((n_blocks, n_blocks))
    for b in range(n_blocks):
        block = decode_word(b, m - 1, d)
        for a in range(d):
            word = (a,) + block
            b_next = encode_word(word[: m - 1], d)
            for x in range(cost.num_x):
                mat[b_next, b] += math.exp(cost.values[x, encode_word(word, d)])
    return mat


def test_assemble_two_state(two_state_cost):
    tm = assemble_transfer(two_state_cost)
    assert np.allclose(tm.matrix, [[2.0, 2.0], [2.0, 3.0]], atol=1e-14)
    assert np.abs(tm.per_x.sum(axis=0) - tm.matrix).max() <= 1e-14


def test_assemble_constant_cost():
    tm = assemble_transfer(CostTensor(np.zeros((2, 4)), 2, 2))
    assert np.allclose(tm.matrix, 2.0, atol=1e-15)


def test_assemble_matches_naive_oracle():
    rng = np.random.default_rng(11)
    for _ in range(5):
        c = random_cost(rng, 2, 2, 3)
        tm = assemble_transfer(c)
        assert np.abs(tm.matrix - naive_transfer_matrix(c)).max() <= 1e-12
        # admissibility pattern: nonzero exactly on prepend transitions
        zero = tm.matrix == 0.0
        assert zero.sum() == tm.size * tm.size - tm.size * c.alphabet_size


def test_perron_two_state(two_state_cost):
    sol = perron_solve(assemble_transfer(two_state_cost))
    assert sol.lam == pytest.approx(REF_LAMBDA, abs=1e-12)
    assert sol.h[0] / sol.h[1] == pytest.approx(REF_H[0] / REF_H[1], abs=1e-12)
    assert sol.residual <= 1e-13
    assert sol.h.min() == 1.0


def test_perron_constant_matrix():
    sol = perron_solve(np.full((3, 3), 0.7))
    assert sol.lam == pytest.approx(2.1, abs=1e-12)
    assert np.allclose(sol.h, 1.0, atol=1e-12)


def test_perron_left_eigenvector_direction(two_state_cost):
    tm = assemble_transfer(two_state_cost)
    sol = perron_solve(tm)
    # eigen-measure direction: M @ left = lam * left
    assert np.abs(tm.matrix @ sol.left - sol.lam * sol.left).max() <= 1e-12 * sol.lam
    assert sol.left.sum() == pytest.approx(1.0, abs=1e-14)


def test_perron_matches_dense_oracle():
    rng = np.random.default_rng(12)
    for _ in range(50):
        mat = rng.uniform(0.1, 2.0, size=(4, 4))
        sol = perron_solve(mat)
        eigs = np.linalg.eigvals(mat)
        lam_ref = float(np.max(eigs.real))
        assert sol.lam == pytest.approx(lam_ref, abs=1e-10)
        w, v = np.linalg.eig(mat.T)
        i = int(np.argmax(w.real))
        h_ref = np.abs(v[:, i].real)
        h_ref = h_ref / h_ref.min()
        assert np.abs(sol.h - h_ref).max() <= 1e-9


def test_spectral_consistency_on_transfer_instances():
    rng = np.random.default_rng(13)
    for _ in range(50):
        num_x = int(rng.integers(1, 4))
        d = int(rng.integers(2, 4))
        m = int(rng.integers(1, 4))
        c = random_cost(rng, num_x, d, m)
        tm = assemble_transfer(c)
        sol = perron_solve(tm)
        lam_ref = float(np.max(np.linalg.eigvals(tm.matrix).real))
        assert sol.lam == pytest.approx(lam_ref, abs=1e-10 * max(1.0, lam_ref))
        assert math.exp(log_perron(c)[0]) == pytest.approx(sol.lam, rel=1e-12)


def test_normalize_two_state_matches_reference_split(two_state_cost):
    chain = gibbs_chain(two_state_cost)
    cbar = normalized_cost(two_state_cost, chain.log_lambda, chain.log_h)
    view = np.exp(cbar.values).reshape(2, 2, 2)  # [x, b, a]
    a1 = view[0].T  # matrix [a, b]
    a2 = view[1].T
    assert np.abs(a1 - [[0.2192, 0.1711], [0.2808, 0.2192]]).max() <= 1e-4
    assert np.abs(a2 - [[0.2192, 0.1711], [0.2808, 0.4385]]).max() <= 1e-4
    assert chain.log_lambda == pytest.approx(math.log(REF_LAMBDA), abs=1e-12)


def test_normalize_fixed_point_of_normalized_cost():
    # already-normalized cost: lam = 1, h constant, cbar = c exactly
    c = CostTensor(np.full((2, 4), -math.log(4.0)), 2, 2)
    chain = gibbs_chain(c)
    cbar = normalized_cost(c, chain.log_lambda, chain.log_h)
    assert np.abs(cbar.values - c.values).max() <= 1e-13
    assert abs(chain.log_lambda) <= 1e-13


def test_normalize_product_structure_is_fixed():
    # c(x, w) = g(w) + log mu(x) with g normalized stays fixed
    rng = np.random.default_rng(14)
    d, m = 2, 2
    g_raw = rng.normal(size=d**m)
    view = g_raw.reshape(d, d)  # [b, a]
    view = view - np.log(np.exp(view).sum(axis=1))[:, None] - math.log(1.0)
    g = view.reshape(-1)
    mu = np.array([0.3, 0.7])
    vals = g[None, :] + np.log(mu)[:, None]
    c = CostTensor(vals, d, m)
    chain = gibbs_chain(c)
    cbar = normalized_cost(c, chain.log_lambda, chain.log_h)
    assert np.abs(cbar.values - c.values).max() <= 1e-12
    assert abs(chain.log_lambda) <= 1e-13


def test_normalize_rejects_bad_eigendata(two_state_cost):
    tm = assemble_transfer(two_state_cost)
    sol = perron_solve(tm)
    bad = type(sol)(sol.lam, sol.h, sol.left, 1.0, sol.gap_estimate, sol.iterations)
    with pytest.raises(SpecValidationError):
        normalize_with_solution(two_state_cost, bad)


def test_pressure_two_state(two_state_cost):
    assert log_perron(two_state_cost)[0] == pytest.approx(math.log(REF_LAMBDA), abs=1e-12)


def test_pressure_constant_cost():
    c = CostTensor(np.full((3, 4), 0.25), 2, 2)
    assert log_perron(c)[0] == pytest.approx(0.25 + math.log(6.0), abs=1e-12)


def test_pressure_additive_in_constants():
    rng = np.random.default_rng(15)
    c = random_cost(rng, 2, 2, 2)
    shifted = CostTensor(c.values + 0.7, 2, 2)
    assert log_perron(shifted)[0] == pytest.approx(log_perron(c)[0] + 0.7, abs=1e-11)


def test_pressure_axioms_random_pairs():
    rng = np.random.default_rng(16)
    for _ in range(25):
        num_x = int(rng.integers(1, 4))
        d = int(rng.integers(2, 4))
        m = int(rng.integers(1, 4))
        c1 = random_cost(rng, num_x, d, m)
        c2 = random_cost(rng, num_x, d, m)
        p1, p2 = log_perron(c1)[0], log_perron(c2)[0]
        # monotone
        upper = CostTensor(np.maximum(c1.values, c2.values), d, m)
        assert log_perron(upper)[0] >= max(p1, p2) - 1e-9
        # 1-Lipschitz in sup norm
        assert abs(p1 - p2) <= np.abs(c1.values - c2.values).max() + 1e-9
        # convex along the segment
        for t in (0.25, 0.5, 0.75):
            mix = CostTensor(t * c1.values + (1 - t) * c2.values, d, m)
            assert log_perron(mix)[0] <= t * p1 + (1 - t) * p2 + 1e-9


def test_normalization_closure():
    rng = np.random.default_rng(17)
    for _ in range(10):
        c = random_cost(rng, int(rng.integers(1, 4)), 2, 2)
        chain = gibbs_chain(c)
        cbar = normalized_cost(c, chain.log_lambda, chain.log_h)
        assert abs(log_perron(cbar)[0]) <= 1e-10


def test_gibbs_measure_two_state(two_state_cost):
    measure = gibbs_plan(gibbs_chain(two_state_cost), 2)
    assert abs(measure.p[0] - 0.3786) <= 2e-4
    assert abs(measure.p[1] - 0.6213) <= 2e-4
    q = dense_q(measure)
    assert np.abs(q.sum(axis=0) - 1.0).max() <= 1e-12
    assert np.abs(q @ measure.p - measure.p).max() <= 1e-12
    assert np.abs(push(measure, measure.p) - q @ measure.p).max() <= 1e-15


def test_gibbs_measure_uniform_cost():
    c = CostTensor(np.full((2, 4), -math.log(4.0)), 2, 2)
    measure = gibbs_plan(gibbs_chain(c), 2)
    assert np.allclose(measure.p, 0.5, atol=1e-12)


def test_gibbs_measure_matches_power_iteration_oracle():
    rng = np.random.default_rng(18)
    for _ in range(10):
        c = random_cost(rng, 2, int(rng.integers(2, 4)), 2)
        measure = gibbs_plan(gibbs_chain(c), 2)
        q = dense_q(measure)
        p = np.full(measure.n_blocks, 1.0 / measure.n_blocks)
        for _ in range(20000):
            p_next = q @ p
            p_next /= p_next.sum()
            if np.abs(p_next - p).max() < 1e-15:
                p = p_next
                break
            p = p_next
        assert np.abs(measure.p - p).max() <= 1e-12


def test_stationary_vector_on_periodic_chain():
    q = np.array([[0.0, 1.0], [1.0, 0.0]])
    p = stationary_vector(q)
    assert np.allclose(p, 0.5, atol=1e-14)


def test_nu_cylinder_consistency(two_state_cost):
    measure = gibbs_plan(gibbs_chain(two_state_cost), 2)
    table = nu_cylinder_table(measure, 3)
    assert table.sum() == pytest.approx(1.0, abs=1e-12)
    for idx in range(8):
        word = decode_word(idx, 3, 2)
        assert nu_cylinder(measure, word) == pytest.approx(table[idx], abs=1e-15)
    # shift invariance at length 2: prefix marginal equals suffix marginal
    t2 = nu_cylinder_table(measure, 2)
    for s in range(2):
        left = sum(t2[encode_word((s, b), 2)] for b in range(2))
        right = sum(t2[encode_word((a, s), 2)] for a in range(2))
        assert left == pytest.approx(right, abs=1e-13)


def test_markov_entropy_rate_uniform():
    measure = uniform_bernoulli_measure(3, 1)
    assert markov_entropy_rate(measure) == pytest.approx(math.log(3.0), abs=1e-13)


def test_markov_entropy_rate_matches_dense_sum_exactly():
    """The sparse sum adds each column's terms in the dense column-sum order."""

    def dense(measure):
        q = dense_q(measure)
        terms = np.where(q > 0.0, q * np.log(np.where(q > 0.0, q, 1.0)), 0.0)
        return float(-(terms.sum(axis=0) * measure.p).sum())

    rng = np.random.default_rng(31)
    measures = [random_markov_measure(rng, d, k) for d, k in ((2, 1), (2, 6), (3, 3), (4, 2))]
    measures += [gibbs_plan(gibbs_chain(random_cost(rng, 2, 2, 8)), 8)]
    measures += [periodic_orbit_measure(w, 3, 2) for w in ([0, 1], [1, 2, 0, 2])]
    for measure in measures:
        assert markov_entropy_rate(measure) == dense(measure)


def test_log_perron_agrees_with_linear(two_state_cost):
    log_lam, u, _, _ = log_perron(two_state_cost)
    sol = perron_solve(assemble_transfer(two_state_cost))
    assert log_lam == pytest.approx(math.log(sol.lam), abs=1e-12)
    assert np.abs(np.exp(u) - sol.h).max() <= 1e-10
