import contextlib
import hashlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from ergotrans.cli import VERBS, main

SPEC_DIR = os.path.join(os.path.dirname(__file__), "specs")


def spec_path(name):
    return os.path.join(SPEC_DIR, name)


def run_to_file(tmp_path, label, argv):
    out = tmp_path / f"{label}.json"
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes()


CASES = [
    ("pressure", ["pressure", "--spec", spec_path("two_state.json")]),
    ("gibbs", ["gibbs", "--spec", spec_path("two_state.json")]),
    ("entropy_plan", ["entropy", "--spec", spec_path("two_atom_plan.json")]),
    ("entropy_eq", ["entropy", "--spec", spec_path("two_state.json")]),
    ("dual", ["dual", "--spec", spec_path("zero_cost_mu.json")]),
    ("certify", ["certify", "--spec", spec_path("two_state_mu.json")]),
    ("zerotemp_free", ["zerotemp", "--spec", spec_path("two_state.json"), "--beta-max", "256"]),
    ("zerotemp_mu", ["zerotemp", "--spec", spec_path("two_state_mu.json"), "--beta-max", "256"]),
]


@pytest.mark.parametrize("label,argv", CASES, ids=[c[0] for c in CASES])
def test_reports_are_byte_identical(tmp_path, label, argv):
    code1, first = run_to_file(tmp_path, label + "_1", argv)
    code2, second = run_to_file(tmp_path, label + "_2", argv)
    assert code1 == 0 and code2 == 0
    assert first == second


def test_report_digest_matches_file_hash(tmp_path, capsys):
    code = main(["pressure", "--spec", spec_path("two_state.json")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    with open(spec_path("two_state.json"), "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert report["spec_digest"] == digest


def test_pressure_report_value(capsys):
    assert main(["pressure", "--spec", spec_path("two_state.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    expected = math.log((5.0 + math.sqrt(17.0)) / 2.0)
    assert abs(report["results"]["pressure"] - expected) <= 1e-12


def test_entropy_verb_two_atom_plan(capsys):
    assert main(["entropy", "--spec", spec_path("two_atom_plan.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["source"] == "plan"
    assert abs(report["results"]["entropy"]) <= 1e-12


def test_plan_section_reads_back_the_export():
    import numpy as np

    from conftest import dense_q, random_cost, random_plan, two_atom_plan
    from ergotrans.cli import _plan_from_spec
    from ergotrans.plans import entropy, export_plan, gibbs_plan
    from ergotrans.symbolic import build_problem
    from ergotrans.transfer import gibbs_chain

    rng = np.random.default_rng(96)
    plans = [two_atom_plan(), random_plan(rng, 3, 3, 3), random_plan(rng, 1, 4, 2),
             gibbs_plan(gibbs_chain(random_cost(rng, 2, 2, 4)), 4)]
    for plan in plans:
        d, m = plan.alphabet_size, plan.memory
        section = {"jacobian": export_plan(plan, m)["jacobian"].ravel().tolist(),
                   "q": dense_q(plan).ravel().tolist(), "p": plan.p.tolist()}
        doc = {"num_x": plan.num_x, "alphabet_size": d, "depth": m,
               "cost": [0.0] * (plan.num_x * d**m), "plan": section}
        read = _plan_from_spec(build_problem(json.dumps(doc)))
        assert read.jacobian.shape == plan.jacobian.shape
        assert read.jacobian.tobytes() == plan.jacobian.tobytes()
        assert entropy(read) == entropy(plan)


def test_dual_verb_closed_form(capsys):
    assert main(["dual", "--spec", spec_path("zero_cost_mu.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    phi = report["results"]["phi_tilde"]
    assert abs(phi[0] - math.log(6.0)) <= 1e-8
    assert abs(phi[1] - math.log(3.0)) <= 1e-8
    keys = list(report["results"].keys())
    assert keys == ["phi_tilde", "value", "pressure_residual",
                    "marginal_residual", "duality_gap", "iterations"]


def test_certify_verb_passes(capsys):
    assert main(["certify", "--spec", spec_path("two_state_mu.json")]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["passed"] is True
    # the report is the dual solve's own plus the verdict: no second
    # eigensolve, no second answer, no residual printed twice
    assert list(results) == ["phi_tilde", "value", "pressure_residual", "marginal_residual",
                             "duality_gap", "iterations", "passed"]
    assert "curve_conditions" not in results


def _eigensolves(monkeypatch):
    """Count every ``log_perron`` call, whichever module's binding it goes through."""
    from ergotrans import cli, transfer

    calls = []
    for module in (transfer, cli):
        solve = module.log_perron

        def counting(*args, solve=solve, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(module, "log_perron", counting)
    return calls


@pytest.mark.parametrize("name", ["two_state_mu.json", "two_x_mu.json", "zero_cost_mu.json"])
def test_certify_runs_the_eigensolves_of_dual_and_no_more(monkeypatch, capsys, name):
    calls = _eigensolves(monkeypatch)
    counts = {}
    for verb in ("dual", "certify"):
        calls.clear()
        assert main([verb, "--spec", spec_path(name)]) == 0
        counts[verb] = len(calls)
    capsys.readouterr()
    assert counts["dual"] >= 1
    assert counts["certify"] == counts["dual"]


def test_certify_residuals_agree_with_a_fresh_eigensolve(tmp_path, capsys):
    # the certificate comes from the dual solve's last evaluation; solving
    # the eigenproblem of c - phi_tilde afresh gives the same residuals
    import numpy as np
    from conftest import random_cost, random_marginal, slackness_certificate

    rng = np.random.default_rng(61)
    spec = tmp_path / "spec.json"
    for _ in range(12):
        num_x, d, m = int(rng.integers(1, 5)), int(rng.integers(2, 4)), int(rng.integers(1, 4))
        cost, mu = random_cost(rng, num_x, d, m), random_marginal(rng, num_x)
        spec.write_text(json.dumps({"num_x": num_x, "alphabet_size": d, "depth": m,
                                    "cost": cost.values.ravel().tolist(),
                                    "mu": mu.weights.tolist()}))
        assert main(["certify", "--spec", str(spec)]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        fresh = slackness_certificate(cost, np.array(results["phi_tilde"]), mu)
        for key in ("marginal_residual", "duality_gap"):
            assert abs(results[key] - fresh[key]) <= 1e-12, key


def test_zerotemp_unconstrained_report(capsys):
    assert main(["zerotemp", "--spec", spec_path("two_state.json"), "--beta-max", "64"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["mode"] == "unconstrained"
    assert abs(report["results"]["m"] - math.log(2.0)) == 0.0
    assert len(report["results"]["sweep"]) == 7


def test_missing_spec_file_exits_2(capsys):
    assert main(["pressure", "--spec", spec_path("no_such.json")]) == 2
    assert "cannot read spec" in capsys.readouterr().err


def test_invalid_spec_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"num_x": 2, "alphabet_size": 2, "depth": 2, "cost": [0, 0]}')
    assert main(["pressure", "--spec", str(bad)]) == 2
    assert "validation error" in capsys.readouterr().err


def test_plan_q_off_the_successor_pattern_exits_2(tmp_path, capsys):
    # d = 2, depth 3: block b leads to blocks 2b mod 4 and 2b + 1 mod 4
    q = [[0.5 if (r - 2 * b) % 4 in (0, 1) else 0.0 for b in range(4)] for r in range(4)]
    doc = {"num_x": 1, "alphabet_size": 2, "depth": 3, "cost": [0.0] * 8,
           "plan": {"jacobian": [0.5] * 8, "q": sum(q, []), "p": [0.25] * 4}}
    spec = tmp_path / "plan.json"
    spec.write_text(json.dumps(doc))
    assert main(["entropy", "--spec", str(spec)]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["entropy"] == pytest.approx(math.log(2.0))
    q[0][1] = 1e-300  # block 1 leads only to blocks 2 and 3
    doc["plan"]["q"] = sum(q, [])
    spec.write_text(json.dumps(doc))
    assert main(["entropy", "--spec", str(spec)]) == 2
    assert "off the successor pattern" in capsys.readouterr().err


def test_mu_required_for_dual(capsys):
    assert main(["dual", "--spec", spec_path("two_state.json")]) == 2
    assert "requires a mu" in capsys.readouterr().err


def test_certificate_failure_exits_3_with_report(capsys):
    # the solve stops at its gradient tolerance with a marginal residual of
    # about 4e-12, which a 1e-15 marginal tolerance refuses
    code = main(["dual", "--spec", spec_path("two_x_mu.json"), "--tol-dual", "1e-15"])
    assert code == 3
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert "certificate_error" in report["results"]
    assert report["results"]["marginal_residual"] > 1e-15
    lines = [line for line in captured.err.splitlines() if not line.startswith("wall_time_ms=")]
    assert len(lines) == 1
    assert lines[0].startswith("certificate failure: dual certificate failed")


def test_certify_not_passed_exits_3_with_report(monkeypatch, capsys):
    # a duality gap above the certify tolerance fails the certificate even
    # when the dual solve itself certified
    from ergotrans import cli

    monkeypatch.setattr(cli, "DUALITY_GAP_TOL", 0.0)
    assert main(["certify", "--spec", spec_path("two_state_mu.json")]) == 3
    captured = capsys.readouterr()
    results = json.loads(captured.out)["results"]
    assert results["passed"] is False
    assert results["duality_gap"] > 0.0
    assert "certificate_error" in results
    lines = [line for line in captured.err.splitlines() if not line.startswith("wall_time_ms=")]
    assert len(lines) == 1
    assert lines[0].startswith("certificate failure: certify certificate failed")


def test_zerotemp_dual_certificate_failure_names_beta_without_report(monkeypatch, capsys):
    # a dual certificate failing inside the sweep is a zerotemp failure at
    # that beta, not a dual report of the scaled problem
    from ergotrans import dual

    monkeypatch.setattr(dual, "PRESSURE_RESIDUAL_TOL", 0.0)
    code = main(["zerotemp", "--spec", spec_path("two_state_mu.json"), "--beta-max", "4"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("certificate failure: dual certificate failed")
    assert lines[0].endswith("at beta=1.0")


def test_constrained_zerotemp_reports_its_marginal_tolerance(capsys):
    assert main(["zerotemp", "--spec", spec_path("two_state_mu.json"), "--beta-max", "256"]) == 0
    certificate = json.loads(capsys.readouterr().out)["results"]["certificate"]
    assert list(certificate) == ["feasibility_residual", "support_equality_residual",
                                 "slack_tolerance", "marginal_residual", "marginal_tolerance"]
    assert certificate["marginal_tolerance"] == 1e-7
    assert certificate["marginal_residual"] <= 1e-7


def test_unknown_verb_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate", "--spec", spec_path("two_state.json")])
    assert info.value.code == 2


def test_wall_time_on_stderr_not_in_report(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["pressure", "--spec", spec_path("two_state.json"), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "wall_time_ms=" in err
    assert b"wall_time" not in out.read_bytes()


def _nonfinite_cells(value):
    """The ``inf``, ``-inf`` and ``nan`` cells of a parsed report, sweep-row tokens included."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [cell for item in value for cell in _nonfinite_cells(item)]
    if isinstance(value, str):
        return [token for token in value.split() if token in ("inf", "-inf", "nan")]
    return [value] if isinstance(value, float) and not math.isfinite(value) else []


@pytest.mark.filterwarnings("error")
def test_every_verb_reports_finite_numbers_without_warnings(tmp_path, capsys):
    # a cost entry of 800 puts the pressure past exp's float range
    steep = tmp_path / "steep_mu.json"
    steep.write_text(json.dumps({"num_x": 2, "alphabet_size": 2, "depth": 2,
                                 "cost": [800.0] + [0.0] * 7, "mu": [0.5, 0.5]}))
    specs = [spec_path(name) for name in sorted(os.listdir(SPEC_DIR))] + [str(steep)]
    for spec in specs:
        for verb in VERBS:
            code = main([verb, "--spec", spec])
            out = capsys.readouterr().out
            assert code in (0, 2, 3), (verb, spec)
            if code == 0:
                assert _nonfinite_cells(json.loads(out)) == [], (verb, spec)


def test_constrained_sweep_rows_sit_in_the_lp_bracket(tmp_path, capsys):
    # by the variational principle LP <= P_mu(beta c)/beta <= LP + log(#X d)/beta;
    # survey draws (2,3,3) s2 and s16 relax the marginal tolerance
    from conftest import primal_lp_oracle, survey_draw
    from ergotrans.symbolic import load_problem

    specs = [spec_path(name) for name in sorted(os.listdir(SPEC_DIR)) if name.endswith("_mu.json")]
    for family, seed in (((2, 2, 2), 0), ((2, 3, 3), 2), ((2, 3, 3), 16), ((3, 2, 3), 1)):
        cost, mu = survey_draw(seed, family)
        spec = tmp_path / "{}-{}-{}_s{}.json".format(*family, seed)
        spec.write_text(json.dumps({"num_x": cost.num_x, "alphabet_size": cost.alphabet_size,
                                    "depth": cost.depth, "cost": cost.values.ravel().tolist(),
                                    "mu": mu.weights.tolist()}))
        specs.append(str(spec))
    for spec in specs:
        assert main(["zerotemp", "--spec", spec]) == 0, spec
        results = json.loads(capsys.readouterr().out)["results"]
        problem, _ = load_problem(spec)
        lp = primal_lp_oracle(problem.cost, problem.mu).value
        width = math.log(problem.cost.num_x * problem.cost.alphabet_size)
        rows = [[float(token) for token in row.split()] for row in results["sweep"]]
        for beta, pressure_over_beta, *phi_over_beta in rows:
            assert len(phi_over_beta) == problem.cost.num_x
            assert lp - 1e-9 <= pressure_over_beta <= lp + width / beta + 1e-9, (spec, beta)
        assert abs(rows[-1][1] - results["value"]) <= 1e-12, spec


def _changes_cost(d, m, penalty=-1000.0):
    """Single-x cost ``penalty * (symbol changes in the word)``.

    Every weight off the constant words underflows against the constant
    ones, so the normalized chain has two closed classes in floats (the two
    constant blocks): its bordered matrix is exactly singular.
    """
    from ergotrans.symbolic import decode_word

    values = []
    for w in range(d**m):
        word = decode_word(w, m, d)
        values.append(penalty * sum(word[i] != word[i + 1] for i in range(m - 1)))
    return {"num_x": 1, "alphabet_size": d, "depth": m, "cost": values}


def test_chain_reducible_in_floats(tmp_path, capsys):
    # two blocks, escape probabilities exp(-1000): the bordered matrix is
    # exactly singular and the log-domain GTH fallback gives the Gibbs
    # measure, (1/2, 1/2) by symmetry
    spec = tmp_path / "reducible.json"
    spec.write_text(json.dumps(_changes_cost(2, 2)))
    assert main(["gibbs", "--spec", str(spec)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["stationary"] == [0.5, 0.5]


@pytest.mark.parametrize("verb", ["gibbs", "entropy", "dual"])
def test_unstationary_fallback_vector_exits_3_without_traceback(tmp_path, monkeypatch, capsys,
                                                                verb):
    # the reducible chain takes the log-GTH fallback; a fallback vector off
    # stationarity by about 1e-10 is a solver failure, not a validation error
    import numpy as np

    from ergotrans import transfer

    gth = transfer._log_gth_stationary

    def perturbed(log_w, succ):
        p = gth(log_w, succ) + np.linspace(0.0, 1e-9, log_w.shape[0])
        return p / p.sum()

    monkeypatch.setattr(transfer, "_log_gth_stationary", perturbed)
    spec = tmp_path / "reducible.json"
    spec.write_text(json.dumps({**_changes_cost(2, 3), "mu": [1.0]}))
    assert main([verb, "--spec", str(spec)]) == 3
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("solver failure:"), lines
    assert "stationary vector residual" in lines[0]
    assert "Traceback" not in captured.err and captured.out == ""


def test_singular_sparse_chain_exits_3_without_traceback(tmp_path, capsys):
    # 512 blocks, above the dense cap: no fallback for the stationary solve
    spec = tmp_path / "singular.json"
    spec.write_text(json.dumps(_changes_cost(2, 10)))
    # the pressure is well defined and certifies
    assert main(["pressure", "--spec", str(spec)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["results"]["pressure"]) <= 1e-12
    # SuperLU's "Factor is exactly singular" surfaces as a solver failure
    assert main(["gibbs", "--spec", str(spec)]) == 3
    captured = capsys.readouterr()
    assert "solver failure" in captured.err and "singular" in captured.err.lower()
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("verb", ["gibbs", "entropy"])
def test_normalization_defect_exits_3_without_traceback(capsys, verb):
    # at --tol-eigen 1e-9 the block sums of exp(cbar) miss 1 by 2.5e-11,
    # above the 1e-12 * scale normalization contract: a solver failure
    code = main([verb, "--spec", spec_path("two_state.json"), "--tol-eigen", "1e-9"])
    assert code == 3
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("solver failure: normalization defect")
    assert "Traceback" not in captured.err and captured.out == ""


def test_sandwich_violation_exits_3_without_traceback(monkeypatch, capsys):
    from ergotrans import zerotemp

    solve = zerotemp.log_perron

    def off_bracket(cost, *args, **kwargs):
        log_lam, u, residual, iterations = solve(cost, *args, **kwargs)
        return log_lam + 10.0, u, residual, iterations

    monkeypatch.setattr(zerotemp, "log_perron", off_bracket)
    code = main(["zerotemp", "--spec", spec_path("two_state.json"), "--beta-max", "4"])
    assert code == 3
    captured = capsys.readouterr()
    assert "solver failure" in captured.err and "sandwich" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def _two_state_doc(**changes):
    with open(spec_path("two_state.json")) as fh:
        return {**json.load(fh), **changes}


def _assert_one_validation_line(err):
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("validation error:")


MALFORMED_DOCS = [
    ("cost_string", "pressure", {"cost": ["x", 0]}),
    ("beta_grid_string", "zerotemp", {"beta_grid": ["abc"]}),
    ("beta_grid_scalar", "zerotemp", {"beta_grid": 5}),
    ("mu_string", "dual", {"mu": "a"}),
    ("plan_scalar", "entropy", {"plan": 5}),
    ("beta_grid_empty", "zerotemp", {"beta_grid": []}),
    ("cost_bool", "pressure", {"cost": [True] + [0.0] * 7}),
    ("mu_huge_int", "dual", {"mu": [10**400, 0.5]}),
    ("plan_q_object", "entropy", {"plan": {"q": {}, "p": [0.5, 0.5], "jacobian": [0.25] * 8}}),
    ("plan_p_nan", "entropy", {"plan": {"q": [0.0, 1.0, 1.0, 0.0], "p": [math.nan, 0.5],
                                        "jacobian": [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]}}),
]


@pytest.mark.parametrize("label,verb,changes", MALFORMED_DOCS, ids=[c[0] for c in MALFORMED_DOCS])
def test_malformed_document_exits_2_with_one_line(tmp_path, capsys, label, verb, changes):
    spec = tmp_path / f"{label}.json"
    spec.write_text(json.dumps(_two_state_doc(**changes)))
    assert main([verb, "--spec", str(spec)]) == 2
    captured = capsys.readouterr()
    _assert_one_validation_line(captured.err)
    assert captured.out == ""


UNREADABLE_DOCS = [
    ("not_utf8", b"\xff\xfe{}"),
    ("nested_arrays", b"[" * 100_000 + b"]" * 100_000),
    ("nested_objects", b'{"a": ' * 100_000 + b"1" + b"}" * 100_000),
]


@pytest.mark.parametrize("label,raw", UNREADABLE_DOCS, ids=[c[0] for c in UNREADABLE_DOCS])
def test_undecodable_or_overnested_document_exits_2_with_one_line(tmp_path, capsys, label, raw):
    spec = tmp_path / f"{label}.json"
    spec.write_bytes(raw)
    assert main(["pressure", "--spec", str(spec)]) == 2
    captured = capsys.readouterr()
    _assert_one_validation_line(captured.err)
    assert captured.out == ""


def test_unwritable_out_exits_2_with_one_line(tmp_path, capsys):
    out = tmp_path / "no_such_dir" / "report.json"
    assert main(["pressure", "--spec", spec_path("two_state.json"), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write report:")
    assert captured.out == "" and not out.parent.exists()


def _two_atom_plan_doc(**changes):
    with open(spec_path("two_atom_plan.json")) as fh:
        doc = json.load(fh)
    doc["plan"] = {**doc["plan"], **changes}
    return doc


TWO_ATOM_JACOBIAN = [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]
MALFORMED_PLAN_ARRAYS = [
    ("q_bools", {"q": [False, True, True, False]}),
    ("jacobian_nested", {"jacobian": [[v] for v in TWO_ATOM_JACOBIAN]}),
    ("jacobian_bool_entry", {"jacobian": [False] + TWO_ATOM_JACOBIAN[1:]}),
    ("p_nested", {"p": [[0.5, 0.5]]}),
    ("p_string_entry", {"p": ["0.5", 0.5]}),
    ("q_huge_int", {"q": [0, 10**400, 1, 0]}),
]


@pytest.mark.parametrize("label,changes", MALFORMED_PLAN_ARRAYS,
                         ids=[c[0] for c in MALFORMED_PLAN_ARRAYS])
def test_plan_arrays_must_be_flat_lists_of_numbers(tmp_path, capsys, label, changes):
    spec = tmp_path / f"{label}.json"
    spec.write_text(json.dumps(_two_atom_plan_doc(**changes)))
    assert main(["entropy", "--spec", str(spec)]) == 2
    captured = capsys.readouterr()
    _assert_one_validation_line(captured.err)
    assert captured.out == ""


# the two-atom plan swaps blocks 0 and 1: J[0, b=1, a=0] = J[1, b=0, a=1] = 1
# (flat entries 1 and 6 of (x, a, b)), q the dense swap, p = (1/2, 1/2)
BROKEN_PLAN_INVARIANTS = [
    ("jacobian_negative", {"jacobian": [-0.5] + TWO_ATOM_JACOBIAN[1:]},
     "jacobian entries must be finite and nonnegative"),
    ("jacobian_mass_law", {"jacobian": [0.0, 0.5] + TWO_ATOM_JACOBIAN[2:]},
     "jacobian mass law violated"),
    ("jacobian_x_sum", {"jacobian": [0.0, 0.0, 0.0, 1.0] + TWO_ATOM_JACOBIAN[4:]},
     "jacobian x-sum disagrees with y-marginal chain"),
    ("q_row_sum", {"q": [0.0, 1.0, 0.5, 0.0]}, "row sums deviate from 1"),
    ("p_sum", {"p": [0.5, 0.6]}, "stationary vector sums to"),
    ("p_stationarity", {"p": [0.25, 0.75]}, "stationary vector fails stationarity"),
]


@pytest.mark.parametrize("label,changes,check", BROKEN_PLAN_INVARIANTS,
                         ids=[c[0] for c in BROKEN_PLAN_INVARIANTS])
def test_plan_section_breaking_one_invariant_exits_2_naming_it(tmp_path, capsys, label,
                                                                changes, check):
    spec = tmp_path / f"{label}.json"
    spec.write_text(json.dumps(_two_atom_plan_doc(**changes)))
    assert main(["entropy", "--spec", str(spec)]) == 2
    captured = capsys.readouterr()
    _assert_one_validation_line(captured.err)
    assert check in captured.err
    assert captured.out == ""


BAD_FLAGS = [
    ("zerotemp", ["--beta-max", "0.5"]),  # empty grid
    ("zerotemp", ["--beta-max", "inf"]),  # the grid would never end
    ("zerotemp", ["--beta-max", "nan"]),
    ("pressure", ["--tol-eigen", "-1"]),
    ("entropy", ["--tol-eigen", "nan"]),
    ("certify", ["--tol-dual", "0"]),
    ("gibbs", ["--depth", "0"]),
    ("gibbs", ["--depth", "-3"]),
]


@pytest.mark.parametrize("verb,flags", BAD_FLAGS, ids=[" ".join(f) for _, f in BAD_FLAGS])
def test_bad_flag_exits_2_before_the_spec_is_read(capsys, verb, flags):
    # a missing spec file would exit 2 with "cannot read spec": the flag is checked first
    assert main([verb, "--spec", spec_path("no_such.json")] + flags) == 2
    _assert_one_validation_line(capsys.readouterr().err)


@pytest.mark.parametrize("depth", ["19", "10000000"])
def test_export_depth_cap_refuses_before_allocating(capsys, depth):
    import tracemalloc

    from ergotrans.cli import MAX_EXPORT_ROWS

    assert 2 * 2**19 > MAX_EXPORT_ROWS  # two_state.json has #X = d = 2
    tracemalloc.start()
    try:
        code = main(["gibbs", "--spec", spec_path("two_state.json"), "--depth", depth])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    _assert_one_validation_line(capsys.readouterr().err)
    # the digit table alone would hold 2**19 rows of 19 int64s (80 MB)
    assert peak < 1_000_000


def test_one_symbol_export_reaches_the_depth_cap(capsys):
    # a one-symbol cost exports #X rows at any depth: only MAX_DEPTH bounds it
    from ergotrans.symbolic import MAX_DEPTH

    spec = spec_path("one_symbol_mu.json")
    assert main(["gibbs", "--spec", spec, "--depth", str(MAX_DEPTH)]) == 0
    plan = json.loads(capsys.readouterr().out)["results"]["plan"]
    assert plan["depth"] == MAX_DEPTH
    assert main(["gibbs", "--spec", spec, "--depth", str(MAX_DEPTH + 1)]) == 2
    _assert_one_validation_line(capsys.readouterr().err)


def test_entropy_passes_tol_eigen_to_the_eigensolve(monkeypatch, capsys):
    from ergotrans import transfer

    solve, seen = transfer.log_perron, []

    def recording(cost, *args, tol, **kwargs):
        seen.append(tol)
        return solve(cost, *args, tol=tol, **kwargs)

    monkeypatch.setattr(transfer, "log_perron", recording)
    assert main(["entropy", "--spec", spec_path("two_state.json"), "--tol-eigen", "1e-11"]) == 0
    assert seen == [1e-11]
    assert json.loads(capsys.readouterr().out)["tolerances"]["tol_eigen"] == 1e-11


def test_help_names_the_verbs_reading_each_flag():
    from ergotrans.cli import build_parser

    for action in build_parser()._actions:
        if action.option_strings and action.dest != "help":
            assert "every verb" in action.help or "read by" in action.help, action.dest


# -- front door property: one mutated field, every verb, no traceback ---------

FIXTURES = sorted(name for name in os.listdir(SPEC_DIR) if name.endswith(".json"))
ODD_VALUES = [True, False, None, "x", {}, 2.5, math.nan, math.inf, -math.inf, 10**400, -10**400]
VERBS = ("pressure", "gibbs", "entropy", "dual", "zerotemp", "certify")


@st.composite
def mutated_documents(draw):
    """A fixture with one field (top level or in ``plan``) given a malformed value.

    The value is of a wrong JSON type (bools, NaN and +-inf included), one
    level deeper, an empty list or a huge integer, or the field's list has
    one such entry.
    """
    name = draw(st.sampled_from(FIXTURES))
    with open(spec_path(name)) as fh:
        doc = json.load(fh)
    paths = [(key,) for key in doc] + [("plan", key) for key in doc.get("plan", {})]
    path = draw(st.sampled_from(paths))
    owner = doc if len(path) == 1 else doc["plan"]
    value = owner[path[-1]]
    forms = [st.sampled_from(ODD_VALUES), st.just([value]), st.just([])]
    if isinstance(value, list) and value:
        forms.append(st.just([[entry] for entry in value]))
        forms.append(st.tuples(st.integers(0, len(value) - 1), st.sampled_from(ODD_VALUES))
                     .map(lambda pick: value[:pick[0]] + [pick[1]] + value[pick[0] + 1:]))
    owner[path[-1]] = draw(st.one_of(forms))
    return name, path, doc


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(mutated_documents())
def test_front_door_mutations_exit_cleanly(mutated):
    _, _, doc = mutated
    with tempfile.TemporaryDirectory() as tmp:
        spec = os.path.join(tmp, "spec.json")
        with open(spec, "w") as fh:
            json.dump(doc, fh)
        for verb in VERBS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([verb, "--spec", spec])
            assert code in (0, 2, 3), (verb, code)
            assert "Traceback" not in err.getvalue()
            lines = [line for line in err.getvalue().splitlines()
                     if not line.startswith("wall_time_ms=")]
            assert len(lines) <= 1, (verb, lines)
            if code == 2:
                assert len(lines) == 1 and lines[0].startswith("validation error:"), (verb, lines)
