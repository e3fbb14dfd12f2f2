import json
import math

import numpy as np
import pytest

from ergotrans.errors import SpecValidationError
from ergotrans.symbolic import (
    CostTensor,
    Marginal,
    build_problem,
    decode_word,
    lift_depth,
)
from ergotrans.transfer import log_perron

from conftest import encode_word, evaluate_cost, random_cost, scalar_entropy


def test_encode_decode_round_trip():
    for d in (2, 3):
        for length in range(1, 7):
            for idx in range(d**length):
                word = decode_word(idx, length, d)
                assert encode_word(word, d) == idx


def test_encode_is_little_endian():
    assert encode_word((1, 0, 0), 2) == 1
    assert encode_word((0, 0, 1), 2) == 4
    assert encode_word((2, 1), 3) == 5


def test_encode_rejects_out_of_range_symbol():
    with pytest.raises(SpecValidationError):
        encode_word((0, 3), 3)


def test_lift_padding_leaves_evaluations_unchanged():
    rng = np.random.default_rng(7)
    c = random_cost(rng, 2, 2, 1)
    lifted = lift_depth(c, 2)
    for x in range(2):
        for a in range(2):
            for b in range(2):
                assert evaluate_cost(lifted, x, (a, b)) == evaluate_cost(c, x, (a, b))


def test_lift_to_same_depth_is_identity():
    rng = np.random.default_rng(8)
    c = random_cost(rng, 2, 2, 2)
    assert lift_depth(c, 2) is c


def test_lift_below_depth_rejected():
    rng = np.random.default_rng(9)
    c = random_cost(rng, 2, 2, 2)
    with pytest.raises(SpecValidationError):
        lift_depth(c, 1)


def test_lift_preserves_pressure():
    rng = np.random.default_rng(10)
    for _ in range(10):
        num_x = int(rng.integers(1, 4))
        d = int(rng.integers(2, 4))
        m = int(rng.integers(1, 3))
        c = random_cost(rng, num_x, d, m)
        assert log_perron(lift_depth(c, m + 1))[0] == pytest.approx(log_perron(c)[0], abs=1e-10)


def test_build_problem_two_state_fixture():
    doc = {
        "num_x": 2,
        "alphabet_size": 2,
        "depth": 2,
        "cost": [0, 0, 0, 0, 0, 0, 0, math.log(2.0)],
    }
    spec = build_problem(json.dumps(doc))
    assert spec.num_x == 2 and spec.depth == 2
    assert spec.cost.values[1, 3] == math.log(2.0)


def test_build_problem_degenerate_x():
    spec = build_problem({"num_x": 1, "alphabet_size": 2, "depth": 1, "cost": [0.0, 0.0]})
    assert spec.cost.values.shape[1] == 2


def test_build_problem_dimension_mismatch():
    with pytest.raises(SpecValidationError, match="expected num_x"):
        build_problem({"num_x": 2, "alphabet_size": 2, "depth": 2, "cost": [0.0] * 7})


def test_build_problem_non_finite_entry_reports_index():
    cost = [0.0] * 8
    cost[5] = float("inf")
    with pytest.raises(SpecValidationError, match="x=1, word_index=1"):
        build_problem({"num_x": 2, "alphabet_size": 2, "depth": 2, "cost": cost})


def test_build_problem_zero_marginal_reports_index():
    with pytest.raises(SpecValidationError, match="zero marginal mass at x=1"):
        build_problem({
            "num_x": 2, "alphabet_size": 2, "depth": 2,
            "cost": [0.0] * 8, "mu": [1.0, 0.0],
        })


def test_build_problem_checks_the_document_fields():
    base = {"num_x": 2, "alphabet_size": 3, "depth": 1, "cost": [0.0] * 6}
    for change, message in (({"num_x": "two"}, "must be integers"),
                            ({"depth": 0}, "must all be >= 1"),
                            # one symbol matches every depth
                            ({"alphabet_size": 1, "depth": 65, "cost": [0.0] * 2},
                             "depth must be at most 64"),
                            ({"alphabet_size": 1, "depth": 10**400, "cost": [0.0] * 2},
                             "depth must be at most 64"),
                            ({"mu": [1.0]}, "mu has 1 entries"),
                            ({"beta_grid": [1.0, 0.0]}, "is not a positive real"),
                            ({"beta_grid": [float("inf")]}, "is not a positive real")):
        with pytest.raises(SpecValidationError, match=message):
            build_problem({**base, **change})
    spec = build_problem({**base, "beta_grid": [1, 2]})
    assert (spec.num_x, spec.alphabet_size, spec.depth) == (2, 3, 1)
    assert spec.beta_grid == (1.0, 2.0)


def test_build_problem_checks_entry_types():
    base = {"num_x": 2, "alphabet_size": 2, "depth": 2, "cost": [0.0] * 8}
    for change in ({"cost": ["x"] + [0.0] * 7}, {"cost": [[0.0] * 4] * 2},
                   {"cost": [False] * 8}, {"cost": [10**400] + [0.0] * 7},
                   {"mu": "a"}, {"mu": [0.5, None]}, {"beta_grid": 5},
                   {"beta_grid": ["abc"]}, {"plan": 5}, {"plan": [1.0]},
                   {"depth": float("inf")}, {"depth": 2.5}, {"num_x": "2"},
                   {"alphabet_size": True}):
        with pytest.raises(SpecValidationError):
            build_problem({**base, **change})


def test_build_problem_rejects_a_deep_document_without_forming_d_to_the_depth():
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(SpecValidationError, match="expected num_x"):
            # 2**(10**7) alone is a 1.25 MB integer
            build_problem({"num_x": 1, "alphabet_size": 2, "depth": 10**7, "cost": [0.0] * 2})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_build_problem_missing_field():
    with pytest.raises(SpecValidationError, match="missing required field"):
        build_problem({"num_x": 2, "alphabet_size": 2, "depth": 2})


def test_build_problem_parse_error():
    with pytest.raises(SpecValidationError, match="does not parse"):
        build_problem("{not json")


def test_marginal_rejects_point_mass():
    with pytest.raises(SpecValidationError):
        Marginal([1.0, 0.0])


def test_marginal_entropy():
    mu = Marginal([0.5, 0.5])
    assert scalar_entropy(mu.weights) == pytest.approx(math.log(2.0), abs=1e-15)


def test_cost_tensor_rejects_nan():
    vals = np.zeros((1, 2))
    vals[0, 1] = np.nan
    with pytest.raises(SpecValidationError):
        CostTensor(vals, 2, 1)


def test_cost_tensor_immutable():
    c = CostTensor(np.zeros((1, 2)), 2, 1)
    with pytest.raises(ValueError):
        c.values[0, 0] = 1.0
