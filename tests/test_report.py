"""Report rendering: byte equality with the original recursive renderer."""

import json

import numpy as np
import pytest

from ergotrans.report import render_report

from conftest import legacy_triples


def _legacy_scalar(value):
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if v != v:
            return '"nan"'
        if v in (float("inf"), float("-inf")):
            return '"inf"' if v > 0 else '"-inf"'
        return format(v, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot render {type(value)!r} in a report")


def _legacy(value, indent):
    """The original renderer: one string per output line, joined per level."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        lines = ["{"]
        items = list(value.items())
        for i, (key, val) in enumerate(items):
            comma = "," if i + 1 < len(items) else ""
            lines.append(f"{inner}{json.dumps(str(key))}: {_legacy(val, indent + 1)}{comma}")
        lines.append(pad + "}")
        return "\n".join(lines)
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq) and len(seq) <= 8:
            return "[" + ", ".join(_legacy_scalar(v) for v in seq) + "]"
        lines = ["["]
        for i, val in enumerate(seq):
            comma = "," if i + 1 < len(seq) else ""
            lines.append(f"{inner}{_legacy(val, indent + 1)}{comma}")
        lines.append(pad + "]")
        return "\n".join(lines)
    return _legacy_scalar(value)


def legacy_render_report(report):
    return _legacy(report, 0) + "\n"


SPECIAL = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e-300, -2.5, 1 / 3]


def _random_float_array(rng, shape):
    arr = rng.normal(size=shape) * 10.0 ** rng.integers(-5, 5, size=shape)
    mask = rng.random(size=shape)
    arr[mask < 0.3] = 0.0
    arr[(mask >= 0.3) & (mask < 0.4)] = -0.0
    picks = rng.integers(0, len(SPECIAL), size=shape)
    special = np.array(SPECIAL)[picks]
    return np.where(mask > 0.9, special, arr)


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


def test_render_matches_legacy_on_random_trees():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        # rows longer than the renderer's 16-item pieces, cut on and off a boundary
        long_row = int(rng.choice([15, 16, 17, 33, 50]))
        tree = {"root": _random_tree(rng, 0), "arr": _random_float_array(rng, (9, 9)),
                "long": [_random_float_array(rng, (2, long_row))]}
        assert render_report(tree) == legacy_render_report(tree)


def test_render_signed_zero_and_specials():
    tree = {"v": np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.5, -0.0, 0.0, 2.0]),
            "inline": np.array([-0.0, 0.0]), "scalar": -0.0, "empty": np.zeros((2, 0))}
    text = render_report(tree)
    assert text == legacy_render_report(tree)
    assert '"nan"' in text and '"-inf"' in text and "-0," in text


def test_render_exact_inline_boundary():
    for n in (8, 9):
        tree = {"floats": np.arange(n, dtype=float), "list": list(range(n)),
                "mixed": [0.5] * (n - 1) + [-0.0]}
        text = render_report(tree)
        assert text == legacy_render_report(tree)
        assert (text.count("\n") == 5) == (n == 8)


RUN_LENGTHS = (1, 15, 16, 17, 31, 32, 33, 1023, 1024, 1025)
EDGES = (-0.0, float("nan"), float("inf"), float("-inf"), 0.75)


def _nested(row):
    """A row at several indents: top level, in a dict, in a list of rows."""
    return {"row": row, "deep": {"more": [row, row[::-1]]}, "stack": np.stack([row, row])}


def test_render_zero_runs_match_legacy():
    for run in RUN_LENGTHS:
        zeros = [0.0] * run
        for edge in EDGES:
            rows = (
                [edge] + zeros + [edge],              # specials bound the run
                zeros + [edge],                       # run first, special last
                [edge] + zeros,                       # special first, run last
                zeros + [edge, -edge] + zeros + [1.0],  # two runs around specials
            )
            for row in rows:
                tree = _nested(np.array(row))
                assert render_report(tree) == legacy_render_report(tree)
        for row in (np.zeros(run), np.full(run, -0.0)):  # all-zero rows
            tree = _nested(row)
            assert render_report(tree) == legacy_render_report(tree)


def test_render_sparse_rows_match_legacy():
    rng = np.random.default_rng(77)
    for _ in range(40):
        length = int(rng.integers(9, 3000))
        row = np.zeros(length)
        nnz = int(rng.integers(1, max(2, length // 10)))
        pos = rng.choice(length, size=nnz, replace=False)
        row[pos] = _random_float_array(rng, nnz)
        tree = _nested(row)
        assert render_report(tree) == legacy_render_report(tree)


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
            dense = {"transition": dense_q(measure)}
            text = render_report({"transition": _transition_rows(measure)})
            assert text == render_report(dense)
            if measure.n_blocks <= 64:
                assert text == legacy_render_report(dense)


TABLE_SPECIAL = [0.0, -0.0, float("nan"), float("inf"), float("-inf"),
                 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310]


def _word_digits(d, depth):
    return np.arange(d**depth)[:, None] // d ** np.arange(depth) % d


def _table_masses(rng, num_x, n_words):
    masses = rng.random((num_x, n_words)) * 10.0 ** rng.integers(-12, 2, size=(num_x, n_words))
    picks = rng.random((num_x, n_words)) < 0.2
    masses[picks] = rng.choice(TABLE_SPECIAL, size=int(picks.sum()))
    return masses


def _at_three_indents(value):
    return {"masses": value, "deep": {"plan": {"masses": value}}, "listed": [value, 0.5]}


def test_cylinder_table_renders_as_legacy_triples():
    from ergotrans.report import CylinderTable

    rng = np.random.default_rng(91)
    case = 0
    for d, max_depth in ((2, 12), (3, 7), (4, 6)):  # up to 4096 words
        for depth in range(1, max_depth + 1):
            num_x = 1 + case % 3
            digits = _word_digits(d, depth)
            masses = _table_masses(rng, num_x, d**depth)
            table, legacy = CylinderTable(digits, masses), legacy_triples(digits, masses)
            if d**depth <= 256:
                tree, legacy_tree = _at_three_indents(table), _at_three_indents(legacy)
            else:  # one indent per large table, cycling through the three
                key = ("masses", "deep", "listed")[case % 3]
                tree = {key: _at_three_indents(table)[key]}
                legacy_tree = {key: _at_three_indents(legacy)[key]}
            assert render_report(tree) == legacy_render_report(legacy_tree), (d, depth)
            case += 1
    empty = CylinderTable(np.zeros((0, 3), dtype=int), np.zeros((2, 0)))
    assert render_report(_at_three_indents(empty)) == legacy_render_report(_at_three_indents([]))


def test_cylinder_table_counts_its_triples_and_checks_its_shapes():
    from ergotrans.report import CylinderTable

    rng = np.random.default_rng(92)
    digits = _word_digits(3, 2)
    masses = rng.random((2, 9))
    assert len(CylinderTable(digits, masses)) == len(legacy_triples(digits, masses)) == 18
    with pytest.raises(ValueError, match="nonnegative integers"):
        CylinderTable(-digits, masses)
    with pytest.raises(ValueError, match="do not match"):
        CylinderTable(digits, masses[:, :8])


def test_float_batches_format_as_single_floats():
    from ergotrans.report import _format_float, _format_floats

    rng = np.random.default_rng(93)
    bits = rng.integers(0, 2**63, size=5000, dtype=np.uint64) * np.uint64(2)
    bits[::2] += np.uint64(1)  # both signs
    values = np.concatenate((bits.view(np.float64), TABLE_SPECIAL))
    assert _format_floats(values) == [_format_float(v) for v in values.tolist()]
    assert _format_floats(np.zeros(0)) == []


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
            if d**depth <= 512:
                assert text == legacy_render_report({"plan": lists})
    for shape in ((1, 2, 1), (2, 2, 8), (3, 2, 9), (2, 3, 40), (2, 4, 300)):
        jacobian = _random_float_array(rng, shape)  # with -0.0, nan, inf, 1e-300
        for array in (jacobian, jacobian.transpose(0, 2, 1)):  # export_plan hands a view
            text = render_report({"jacobian": array})
            assert text == render_report({"jacobian": array.tolist()})
            assert text == legacy_render_report({"jacobian": array})
