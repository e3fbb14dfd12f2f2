"""Checks of the benchmark itself; slow, so not part of a timed run.

    python3 bench/selfcheck.py coverage   # about 3 minutes
    python3 bench/selfcheck.py survey     # about 3 minutes

``coverage`` runs one traced pass of every workload under cProfile and
requires each traced function's wrapper call count to equal cProfile's
``ncalls`` for it; a binding the tracer missed shows up as a shortfall.

``survey`` runs ``zerotemp`` through the CLI on the ROADMAP robustness
survey as the generator draws it (40 seeds x 4 families, no gauge) and
requires its failure counts: 62 of 160, 6/17/23/16 by family.  Every exit-0
report is also checked against the oracle.  Per-instance exit codes and
error types go to ``.bench_out/survey.json``.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

import run  # fixes the BLAS thread count before numpy loads

SURVEY_FAILURES = {(2, 2, 2): 6, (2, 3, 2): 17, (2, 3, 3): 23, (3, 2, 3): 16}
COVERAGE_SEED = 0


def coverage():
    from harness import Invocation, ReportLedger, run_pass
    from tracer import Tracer, profile_counts
    from workloads import WORKLOADS, workload_instances, write_specs

    tracer = Tracer()
    ok = True
    for workload in WORKLOADS.values():
        instances = workload_instances(workload, COVERAGE_SEED)
        paths = write_specs(instances, run.OUT / "specs" / "coverage" / workload.name)
        invocations = [Invocation(inst, verb, paths[inst.name])
                       for inst in instances for verb in workload.verbs]
        tracer.reset()
        tracer.install()
        try:
            profiled = profile_counts(tracer.functions,
                                      lambda: run_pass(invocations, ReportLedger()))
        finally:
            tracer.uninstall()
        calls = tracer.stats()[0]
        missed = {name: (calls[name], n) for name, n in profiled.items() if calls[name] != n}
        traced = sum(1 for n in profiled.values() if n)
        print(f"{workload.name}: {traced} of {len(profiled)} traced functions called, "
              f"{sum(profiled.values())} calls, mismatches {missed or 'none'}")
        ok = ok and not missed
    return ok


def survey():
    from harness import Invocation, ReportLedger, invoke
    from oracle import check_report
    from workloads import survey_instances, write_specs

    instances = survey_instances()
    paths = write_specs(instances, run.OUT / "specs" / "survey")
    ledger = ReportLedger()
    outcomes = [invoke(Invocation(inst, "zerotemp", paths[inst.name]), ledger) for inst in instances]
    verdicts = ledger.check(check_report)
    records, failures = [], Counter()
    for inst, outcome in zip(instances, outcomes):
        check = verdicts[f"zerotemp:{inst.name}"][outcome.digest] if outcome.code == 0 else None
        if outcome.code != 0 or check is not None:
            failures[inst.family] += 1
        records.append({"instance": inst.name, "family": inst.family, "exit": outcome.code,
                        "error": outcome.error, "message": outcome.message, "check": check,
                        "ms": outcome.seconds * 1e3})
    with open(run.OUT / "survey.json", "w") as fh:
        json.dump(records, fh, indent=1)
    wrong = sum(r["check"] is not None for r in records)
    print(f"survey: {sum(failures.values())} of {len(instances)} failed, by family "
          f"{dict(failures)}, {wrong} wrong reports, "
          f"{sum(r['ms'] for r in records) / 1e3:.0f} s in cli.main")
    return dict(failures) == SURVEY_FAILURES and wrong == 0


def main(argv):
    checks = {"coverage": coverage, "survey": survey}
    if len(argv) != 1 or argv[0] not in checks:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    return 0 if checks[argv[0]]() else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
