"""ergotrans benchmark: seeded workloads driven through ``ergotrans.cli.main``.

    python3 bench/run.py --workload dual-batch --seed 3 --seconds 15 --trace 0

Run from the repository root.  Set-up generates the workload's problem
documents from ``--seed`` (see ``workloads.py``), writes them once, and makes
one untimed warm-up call per verb.  The run then repeats passes over the
workload's fixed list of CLI invocations until ``--seconds`` have passed and
reports medians over the passes.  Every exit-0 report is checked afterwards
against the independent oracle in ``oracle.py``.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` passes alternate untraced and traced (``tracer.py``) and it holds
the per-layer metrics.  Per-invocation records (exit code, error type, check
result, time per pass) and the spans of the last traced pass go to
``.bench_out/``.  Exit code 2 when the ergotrans sources are not there.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are fixed before numpy loads: the dense lstsq on the
# spectral ladder runs about 1.3x faster on 2 threads than on 1
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_ROUNDS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import ergotrans.cli; "
                "print(time.perf_counter() - t)")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms", "peak_rss_mb": "MB",
}
VERBS = ("pressure", "gibbs", "entropy", "dual", "certify", "zerotemp")
CALLS = ("transfer.gibbs_measure", "transfer.log_perron", "transfer.normalize_cost",
         "dual.solve_dual", "dual.dual_gradient", "dual.dual_objective",
         "tropical.karp_cycle_mean", "tropical.calibrated_subaction",
         "zerotemp.zero_temp_constrained", "zerotemp.zero_temp_unconstrained")
SELF = CALLS + ("transfer.stationary_vector", "report.render_report",
                "dual.slackness_certificate", "zerotemp.beta_sweep", "zerotemp.subaction_solve",
                "plans.gibbs_plan", "plans.plan_mass_table", "plans.entropy",
                "plans.export_plan", "plans.integrate_cost", "symbolic.load_problem", "cli.main")
ERRORS = ("transfer.log_perron", "dual.solve_dual",
          "zerotemp.zero_temp_constrained", "zerotemp.zero_temp_unconstrained")


def per_layer_units():
    units = {f"{name}.calls": "count" for name in CALLS}
    units.update({f"{name}.self_s": "s" for name in SELF})
    units.update({f"{name}.errors": "count" for name in ERRORS})
    units.update({
        "transfer.log_perron.fallback_calls": "count", "transfer.dense_mb": "MB",
        "report.bytes": "B", "dual.eigensolves_per_solve": "count",
        "dual.iterations_mean": "count", "dual.relaxed_tol_solves": "count",
        "tropical.karp_ops": "count", "zerotemp.eigensolves_per_beta": "count",
        "trace.overhead_frac": "frac", "failed_frac": "frac", "uncaught_frac": "frac",
        "wrong_frac": "frac",
    })
    units.update({f"{verb}_s": "s" for verb in VERBS})
    return units


def environment():
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu": cpu, "nproc": NPROC,
            "blas_threads": BLAS_THREADS}


def import_seconds():
    """Import time of ergotrans.cli in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout.split()[-1])


def set_up(workload, seed):
    """Generate, write and warm up; returns (invocations, median set-up seconds)."""
    from harness import Invocation, ReportLedger, invoke
    from workloads import workload_instances, write_specs

    spec_root = OUT / "specs" / workload.name
    shutil.rmtree(spec_root, ignore_errors=True)
    rounds = []
    for r in range(SETUP_ROUNDS):
        seconds = import_seconds()
        start = time.perf_counter()
        instances = workload_instances(workload, seed)
        paths = write_specs(instances, spec_root / f"round{r}")
        invocations = [Invocation(inst, verb, paths[inst.name])
                       for inst in instances for verb in workload.verbs]
        for verb in workload.verbs:
            invoke(next(inv for inv in invocations if inv.verb == verb), ReportLedger())
        rounds.append(seconds + time.perf_counter() - start)
    return invocations, statistics.median(rounds)


def measure(invocations, seconds, tracer):
    """Passes until ``seconds`` are up: [(traced, outcomes, layer stats or None)]."""
    from harness import ReportLedger, run_pass

    ledger = ReportLedger()
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        stats = None
        if traced:
            tracer.reset()
            tracer.install()
            try:
                outcomes = run_pass(invocations, ledger,
                                    on_start=lambda i: setattr(tracer, "invocation", i))
            finally:
                tracer.uninstall()
            stats = tracer.stats()
        else:
            outcomes = run_pass(invocations, ledger)
        passes.append((traced, outcomes, stats))
        enough = tracer is None or len(passes) >= 2
        if enough and time.perf_counter() - start >= seconds:
            return passes, ledger


def pass_seconds(outcomes, verb=None):
    return sum(o.seconds for o in outcomes if verb is None or o.verb == verb)


def end_to_end(setup_s, untraced, peak_rss_mb):
    # one sample per invocation, its median over the passes, so the sample
    # set is the same however many passes fit in the run
    latencies = [statistics.median(o.seconds for o in same) * 1e3 for same in zip(*untraced)]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(pass_seconds(o) for o in untraced),
        "op_ms_p50": statistics.median(latencies),
        "op_ms_p90": statistics.quantiles(latencies, n=10)[-1] if len(latencies) > 1 else latencies[0],
        "peak_rss_mb": peak_rss_mb,
    }


def layer_values(stats):
    calls, self_s, errors, extras = stats
    values = {f"{name}.calls": calls[name] for name in CALLS}
    values.update({f"{name}.self_s": self_s[name] for name in SELF})
    values.update({f"{name}.errors": errors[name] for name in ERRORS})
    solves = calls["dual.solve_dual"]
    values.update({
        "transfer.log_perron.fallback_calls": extras["transfer.log_perron.fallback_calls"],
        "transfer.dense_mb": extras["transfer.dense_bytes"] / 2**20,
        "report.bytes": extras["report.bytes"],
        "dual.eigensolves_per_solve": extras["dual.eigensolves"] / solves if solves else 0.0,
        "dual.iterations_mean": (extras["dual.iterations"] / extras["dual.solves_returned"]
                                 if extras["dual.solves_returned"] else 0.0),
        "dual.relaxed_tol_solves": extras["dual.relaxed_tol_solves"],
        "tropical.karp_ops": extras["tropical.karp_ops"],
        "zerotemp.eigensolves_per_beta": (extras["zerotemp.eigensolves"] / extras["zerotemp.betas"]
                                          if extras["zerotemp.betas"] else 0.0),
    })
    return values


def per_layer(passes, untraced, fractions):
    traced = [p for p in passes if p[0]]
    layers = [layer_values(stats) for _, _, stats in traced]
    values = {name: statistics.median(v[name] for v in layers) for name in layers[0]}
    untraced_wall = statistics.median(pass_seconds(o) for o in untraced)
    traced_wall = statistics.median(pass_seconds(o) for _, o, _ in traced)
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    values.update(fractions)
    for verb in VERBS:
        values[f"{verb}_s"] = statistics.median(pass_seconds(o, verb) for o in untraced)
    return values


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ergotrans" / "cli.py").is_file():
        print(f"error: no ergotrans sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    from oracle import check_report
    from tracer import Tracer

    workload = WORKLOADS[args.workload]
    invocations, setup_s = set_up(workload, args.seed)
    tracer = Tracer() if args.trace else None
    passes, ledger = measure(invocations, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    verdicts = ledger.check(check_report)
    records = {inv.key: {"instance": inv.instance.name, "family": inv.instance.family,
                         "base_seed": inv.instance.base_seed, "verb": inv.verb, "passes": []}
               for inv in invocations}
    attempted = failed = uncaught = wrong = exit0 = 0
    for traced, outcomes, _ in passes:
        for inv, o in zip(invocations, outcomes):
            check = verdicts[inv.key][o.digest] if o.code == 0 else None
            attempted += 1
            uncaught += o.uncaught
            exit0 += o.code == 0
            wrong += check is not None
            failed += o.code != 0 or check is not None
            records[inv.key]["passes"].append({
                "traced": traced, "ms": o.seconds * 1e3, "exit": o.code,
                "error": o.error, "message": o.message, "check": check})

    untraced = [o for traced, o, _ in passes if not traced]
    if tracer is None:
        metrics = end_to_end(setup_s, untraced, peak_rss_mb)
        units = END_TO_END
    else:
        fractions = {"failed_frac": failed / attempted, "uncaught_frac": uncaught / attempted,
                     "wrong_frac": wrong / exit0 if exit0 else 0.0}
        metrics = per_layer(passes, untraced, fractions)
        units = per_layer_units()
        tracer.write(OUT / f"{workload.name}-seed{args.seed}-spans.jsonl")

    env = environment()
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"env": env, "workload": workload.name, "seed": args.seed,
                   "seconds": args.seconds, "passes": len(passes), "metrics": metrics,
                   "invocations": list(records.values())}, fh, indent=1)

    print(f"# {stem}: {len(passes)} passes of {len(invocations)} invocations "
          f"(one latency sample each), env {env}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"#   {name} = {value:.6g} {units[name]}", file=sys.stderr)
    for key, rec in records.items():
        bad = [p for p in rec["passes"] if p["exit"] != 0 or p["check"]]
        if bad:
            print(f"#   FAILED {key}: exit {bad[0]['exit']} {bad[0]['error']} "
                  f"{bad[0]['check'] or bad[0]['message']}", file=sys.stderr)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
