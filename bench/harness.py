"""Drive ``ergotrans.cli.main`` in-process and record every invocation.

Reports are captured in memory (no ``--out``), so no invocation touches the
disk except to read its spec.  Each invocation is timed from the call into
``cli.main`` to its return, and its outcome is kept: exit code, error type,
and the report text of exit-0 runs for the answer check.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from dataclasses import dataclass

from ergotrans import cli

# first line of cli.main's stderr on a handled failure -> error type
_STDERR_TYPES = (
    ("validation error", "SpecValidationError"),
    ("error: cannot read spec", "OSError"),
    ("certificate failure", "CertificateError"),
    ("solver failure", "ConvergenceError"),
)


class _Sink:
    """Write target that keeps the written strings without copying them."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass

    def text(self):
        return "".join(self.parts)


@dataclass(frozen=True)
class Invocation:
    instance: object
    verb: str
    spec: str

    @property
    def key(self):
        return f"{self.verb}:{self.instance.name}"


@dataclass
class Outcome:
    """What one call of cli.main did; ``digest`` names its exit-0 report in the ledger."""

    verb: str
    seconds: float
    code: int | None
    error: str | None
    message: str
    digest: str | None

    @property
    def uncaught(self):
        return self.code is None


def invoke(inv, ledger):
    out, err = _Sink(), _Sink()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([inv.verb, "--spec", inv.spec])
    except Exception as exc:  # anything escaping cli.main is a measured failure
        seconds = time.perf_counter() - start
        return Outcome(inv.verb, seconds, None, type(exc).__name__, str(exc)[:200], None)
    seconds = time.perf_counter() - start
    report = out.text()
    lines = [line for line in err.text().splitlines() if not line.startswith("wall_time_ms=")]
    message = lines[0] if lines else ""
    error = None
    if code != 0:
        error = next((kind for prefix, kind in _STDERR_TYPES if message.startswith(prefix)), "exit")
        if not lines and '"certificate_error"' in report:
            # exit 3 with the residuals in the report and nothing on stderr
            error, message = "CertificateError", json.loads(report)["results"]["certificate_error"]
    digest = ledger.add(inv, report) if code == 0 else None
    return Outcome(inv.verb, seconds, code, error, message[:200], digest)


def run_pass(invocations, ledger, on_start=None):
    """One pass over the workload; exit-0 reports go to ``ledger``."""
    outcomes = []
    for i, inv in enumerate(invocations):
        if on_start is not None:
            on_start(i)
        outcomes.append(invoke(inv, ledger))
    return outcomes


class ReportLedger:
    """Exit-0 report texts, one per distinct (invocation, digest).

    Reports are deterministic, so a pass that reproduces a report byte for
    byte needs no second check; a differing one is kept and checked too.
    """

    def __init__(self):
        self.pending = {}

    def add(self, inv, text):
        digest = hashlib.sha256(text.encode()).hexdigest()
        self.pending.setdefault((inv.key, digest), (inv, text))
        return digest

    def check(self, check_report):
        """``{invocation key: {digest: None or the failure reason}}``."""
        verdicts = {}
        for (key, digest), (inv, text) in self.pending.items():
            verdicts.setdefault(key, {})[digest] = check_report(inv.verb, inv.instance, text)
        self.pending.clear()
        return verdicts
