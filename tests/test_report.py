"""Report rendering through the standard ``json`` encoder.

A report is one key per line for dicts and one encoder call per other
value, so its text is fixed by the values and their key order, and
``json.loads`` gives the values back with every float bit-equal.
"Legacy" names the plain nested lists that ``SparseRows`` and
``CylinderTable`` stand for, as reports handed them over before the two
records existed; each record must render byte for byte as the encoder
renders those lists, which ``json.dumps`` gives independently.
"""

import json
import math

import numpy as np
import pytest

from ergotrans.report import CylinderTable, SparseRows, render_report

from conftest import legacy_triples

NONFINITE = [float("nan"), float("inf"), float("-inf")]
SPECIAL = [0.0, -0.0, 1e-300, -2.5, 1 / 3, 5e-324, 1.7976931348623157e308, 0.1]


def _random_float_array(rng, shape):
    arr = rng.normal(size=shape) * 10.0 ** rng.integers(-5, 5, size=shape)
    mask = rng.random(size=shape)
    arr[mask < 0.3] = 0.0
    arr[(mask >= 0.3) & (mask < 0.4)] = -0.0
    picks = rng.integers(0, len(SPECIAL), size=shape)
    return np.where(mask > 0.9, np.array(SPECIAL)[picks], arr)


def _random_tree(rng, depth):
    kind = int(rng.integers(0, 9 if depth < 3 else 4))
    if kind == 0:
        return float(rng.choice(SPECIAL + [float(rng.normal())]))
    if kind == 1:
        return int(rng.integers(-10**6, 10**6))
    if kind == 2:
        return rng.choice([True, False, None, "label", 'quote"d'])
    if kind == 3:
        return np.float64(rng.normal())
    if kind == 4:
        n = int(rng.choice([0, 1, 7, 8, 9, 17]))
        return [_random_tree(rng, depth + 1) for _ in range(n)]
    if kind == 5:
        n = int(rng.choice([8, 9]))
        return tuple(float(v) for v in _random_float_array(rng, n))
    if kind == 6:
        shape = tuple(int(rng.choice([0, 1, 8, 9])) for _ in range(int(rng.integers(1, 4))))
        return _random_float_array(rng, shape)
    if kind == 7:
        return rng.integers(-5, 5, size=int(rng.choice([3, 8, 9])))
    return {f"k{i}": _random_tree(rng, depth + 1) for i in range(int(rng.integers(0, 5)))}


def _assert_same(parsed, value):
    """``parsed`` is ``value`` read back: key order kept, floats bit-equal, -0.0 signed."""
    if isinstance(value, dict):
        assert list(parsed) == list(value)
        for key, val in value.items():
            _assert_same(parsed[key], val)
    elif isinstance(value, (list, tuple, np.ndarray)):
        value = value.tolist() if isinstance(value, np.ndarray) else value
        assert isinstance(parsed, list) and len(parsed) == len(value)
        for got, want in zip(parsed, value):
            _assert_same(got, want)
    elif isinstance(value, (float, np.floating)):
        assert type(parsed) is float and parsed.hex() == float(value).hex()
    elif isinstance(value, (bool, np.bool_)) or value is None:
        assert parsed is (None if value is None else bool(value))
    elif isinstance(value, (int, np.integer)):
        assert type(parsed) is int and parsed == value
    else:
        assert parsed == value


def _line_count(value):
    """Lines of a rendered tree: one per key and one per closing brace of a nonempty dict."""
    if isinstance(value, dict) and value:
        return len(value) + 1 + sum(map(_line_count, value.values()))
    return 0


def test_render_round_trips_random_trees():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        tree = {"root": _random_tree(rng, 0), "arr": _random_float_array(rng, (9, 9))}
        text = render_report(tree)
        assert render_report(tree) == text
        assert text.endswith("}\n") and text.count("\n") == 1 + _line_count(tree)
        _assert_same(json.loads(text), tree)


def test_render_signed_zero_and_specials():
    tree = {"v": np.array([0.0, -0.0, 1.5, -0.0, 0.0, 2.0]),
            "inline": np.array([-0.0, 0.0]), "scalar": -0.0, "empty": np.zeros((2, 0)),
            "nested": {}}
    text = render_report(tree)
    assert text == ('{\n  "v": [0.0, -0.0, 1.5, -0.0, 0.0, 2.0],\n  "inline": [-0.0, 0.0],\n'
                    '  "scalar": -0.0,\n  "empty": [[], []],\n  "nested": {}\n}\n')
    _assert_same(json.loads(text), tree)
    nested = {"a": {"b": {}, "c": [1, {"d": 0.5}]}, "e": None}
    assert render_report(nested) == ('{\n  "a": {\n    "b": {},\n    "c": [1, {"d": 0.5}]\n'
                                     '  },\n  "e": null\n}\n')
    no_cols = SparseRows(0, np.zeros((2, 0), dtype=int), np.zeros((2, 0)))
    no_rows = SparseRows(3, np.zeros((0, 1), dtype=int), np.zeros((0, 1)))
    assert render_report({"a": no_cols, "b": no_rows}) == '{\n  "a": [[], []],\n  "b": []\n}\n'
    table = CylinderTable(np.zeros((2, 1), dtype=int), np.array([[0.5, 0.25]]))
    rows = SparseRows(3, np.array([[0], [2]]), np.array([0.5, 1.0])[:, None])
    for bad in NONFINITE:
        masses = np.array([[0.5, bad]])
        for value in (bad, np.float64(bad), [0.5, [1.0, bad]], np.array([0.0, bad]),
                      np.array([[0.0], [bad]]), (bad,), {"deep": {"deeper": bad}},
                      SparseRows(3, rows.cols, np.array([[0.5], [bad]])),
                      CylinderTable(table.digits, masses)):
            with pytest.raises(ValueError, match="not JSON compliant"):
                render_report({"ok": 1.0, "bad": value})


def _legacy_rows(n_cols, cols, values):
    """The dense rows as lists: the values on the pattern, an int 0 elsewhere."""
    rows = [[0] * n_cols for _ in cols]
    for row, row_cols, row_vals in zip(rows, cols.tolist(), values.tolist()):
        for c, v in zip(row_cols, row_vals):
            row[c] = v
    return rows


def _assert_rows_render_as_legacy(cols, values, dense):
    """``SparseRows(cols, values)`` renders as its legacy rows and parses back to ``dense``."""
    n_cols = dense.shape[1]
    text = render_report({"rows": SparseRows(n_cols, cols, values)})
    legacy = json.dumps(_legacy_rows(n_cols, cols, values), allow_nan=False)
    assert text == '{\n  "rows": ' + legacy + "\n}\n"
    parsed = np.array(json.loads(text)["rows"], dtype=float).reshape(dense.shape)
    assert np.array_equal(parsed, dense)
    assert np.array_equal(np.signbit(parsed), np.signbit(dense))


def _row_pair(row):
    """The row and its reverse as a two-row matrix on the entries that are not +0.0."""
    pos = np.flatnonzero((row != 0.0) | np.signbit(row))
    back = row.size - 1 - pos[::-1]
    return np.stack([pos, back]), np.stack([row[pos], row[::-1][back]]), np.stack([row, row[::-1]])


RUN_LENGTHS = (1, 15, 16, 17, 31, 32, 33, 1023, 1024, 1025)
EDGES = (-0.0, float("nan"), float("inf"), float("-inf"), 0.75)


def test_render_zero_runs_match_legacy():
    for run in RUN_LENGTHS:
        zeros = [0.0] * run
        for edge in EDGES:
            rows = (
                [edge] + zeros + [edge],              # edges bound the run
                zeros + [edge],                       # run first, edge last
                [edge] + zeros,                       # edge first, run last
                zeros + [edge, -edge] + zeros + [1.0],  # two runs around edges
            )
            for row in rows:
                cols, values, dense = _row_pair(np.array(row))
                if math.isfinite(edge):
                    _assert_rows_render_as_legacy(cols, values, dense)
                    # every column on the pattern: its zeros print as floats
                    full = np.arange(dense.shape[1])[None, :]
                    _assert_rows_render_as_legacy(full, dense[:1], dense[:1])
                else:
                    with pytest.raises(ValueError, match="not JSON compliant"):
                        render_report({"rows": SparseRows(dense.shape[1], cols, values)})
        for row in (np.zeros(run), np.full(run, -0.0)):  # all-zero rows
            _assert_rows_render_as_legacy(*_row_pair(row))


def test_render_sparse_rows_match_legacy():
    rng = np.random.default_rng(77)
    for _ in range(40):
        length = int(rng.integers(9, 3000))
        row = np.zeros(length)
        nnz = int(rng.integers(1, max(2, length // 10)))
        pos = rng.choice(length, size=nnz, replace=False)
        row[pos] = _random_float_array(rng, nnz)
        _assert_rows_render_as_legacy(*_row_pair(row))


def test_action_layout_transition_renders_as_dense_matrix():
    from conftest import dense_q, periodic_orbit_measure, random_cost

    from ergotrans.cli import _transition_rows
    from ergotrans.plans import gibbs_plan
    from ergotrans.transfer import gibbs_chain

    rng = np.random.default_rng(88)
    sizes = [(2, m) for m in range(2, 13)] + [(3, 2), (3, 3), (3, 5), (4, 2), (4, 3), (4, 4)]
    for d, m in sizes:
        measures = [gibbs_plan(gibbs_chain(random_cost(rng, 2, d, m)), m)]
        if m <= 4:  # deterministic rows: zeros on the successor pattern
            measures.append(periodic_orbit_measure([0, d - 1], d, m - 1))
        for measure in measures:
            rows = _transition_rows(measure)
            assert rows.n_cols == measure.n_blocks
            _assert_rows_render_as_legacy(rows.cols, rows.values, dense_q(measure))


TABLE_SPECIAL = [0.0, -0.0, float("nan"), float("inf"), float("-inf"),
                 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310]


def _word_digits(d, depth):
    return np.arange(d**depth)[:, None] // d ** np.arange(depth) % d


def _table_masses(rng, num_x, n_words):
    masses = rng.random((num_x, n_words)) * 10.0 ** rng.integers(-12, 2, size=(num_x, n_words))
    picks = rng.random((num_x, n_words)) < 0.2
    masses[picks] = rng.choice(TABLE_SPECIAL, size=int(picks.sum()))
    return masses


def _at_two_depths(value):
    return {"masses": value, "deep": {"plan": {"masses": value}}}


def test_cylinder_table_renders_as_legacy_triples():
    rng = np.random.default_rng(91)
    case = 0
    for d, max_depth in ((2, 12), (3, 7), (4, 6)):  # up to 4096 words
        for depth in range(1, max_depth + 1):
            num_x = 1 + case % 3
            digits = _word_digits(d, depth)
            masses = _table_masses(rng, num_x, d**depth)
            if not np.isfinite(masses).all():
                with pytest.raises(ValueError, match="not JSON compliant"):
                    render_report({"masses": CylinderTable(digits, masses)})
                masses = np.where(np.isfinite(masses), masses, 0.5)
            table, legacy = CylinderTable(digits, masses), legacy_triples(digits, masses)
            text = render_report({"masses": table})
            assert text == '{\n  "masses": ' + json.dumps(legacy, allow_nan=False) + "\n}\n"
            _assert_same(json.loads(text)["masses"], legacy)
            if d**depth <= 256:
                assert render_report(_at_two_depths(table)) == render_report(
                    _at_two_depths(legacy))
            case += 1
    empty = CylinderTable(np.zeros((0, 3), dtype=int), np.zeros((2, 0)))
    assert render_report(_at_two_depths(empty)) == render_report(_at_two_depths([]))


def test_cylinder_table_counts_its_triples_and_checks_its_shapes():
    rng = np.random.default_rng(92)
    digits = _word_digits(3, 2)
    masses = rng.random((2, 9))
    assert len(CylinderTable(digits, masses)) == len(legacy_triples(digits, masses)) == 18
    with pytest.raises(ValueError, match="nonnegative integers"):
        CylinderTable(-digits, masses)
    with pytest.raises(ValueError, match="do not match"):
        CylinderTable(digits, masses[:, :8])


def test_plan_export_renders_as_its_nested_lists():
    from conftest import random_plan

    from ergotrans.plans import export_plan

    rng = np.random.default_rng(94)
    for num_x, d, m in ((1, 2, 2), (2, 2, 5), (3, 3, 3), (2, 4, 3), (2, 2, 11)):
        plan = random_plan(rng, num_x, d, m)
        for depth in (1, m, m + 1):
            out = export_plan(plan, depth)
            table = out["masses"]
            lists = {"depth": out["depth"], "masses": legacy_triples(table.digits, table.masses),
                     "jacobian": plan.jacobian.transpose(0, 2, 1).tolist()}
            assert isinstance(out["jacobian"], np.ndarray)
            text = render_report({"plan": out})
            assert text == render_report({"plan": lists})
            _assert_same(json.loads(text)["plan"], lists)
    for shape in ((1, 2, 1), (2, 2, 8), (3, 2, 9), (2, 3, 40), (2, 4, 300)):
        jacobian = _random_float_array(rng, shape)  # with -0.0, 1e-300 and 5e-324
        for array in (jacobian, jacobian.transpose(0, 2, 1)):  # export_plan hands a view
            text = render_report({"jacobian": array})
            assert text == render_report({"jacobian": array.tolist()})
            _assert_same(json.loads(text)["jacobian"], array)
