"""Outside-in tracer: wraps the public functions of each ergotrans module.

A function is wrapped in every module namespace that binds it by name
(``dual``, ``zerotemp``, ``cli`` and ``plans`` import from ``transfer`` by
name), so a call is traced whichever binding it goes through.  Spans are kept
in memory as ``(function, start, end, parent, invocation, error)`` and turned
into per-layer statistics at the end; ``profile_counts`` gives ``cProfile``'s
call counts for the same functions, the check that no binding was missed.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import inspect
import json
import pstats
import sys
import time
from collections import Counter

from ergotrans.zerotemp import default_beta_grid

MODULES = ("transfer", "plans", "dual", "zerotemp", "_tropical", "symbolic", "report", "cli")
FALLBACK_ITERATIONS = 400
RELAXED_MARGINAL = 1e-7


def public_functions():
    """``{"module.function": function}`` for every public function defined in MODULES.

    Metric names must start with a letter, so ``_tropical`` is named ``tropical``.
    """
    found = {}
    for mod_name in MODULES:
        module = importlib.import_module(f"ergotrans.{mod_name}")
        # not __all__: transfer leaves log_perron out of it
        for name, obj in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                found[f"{mod_name.lstrip('_')}.{name}"] = obj
    return found


class Tracer:
    """Span recorder; ``install`` wraps, ``uninstall`` restores every binding."""

    def __init__(self):
        self.functions = public_functions()
        self.names = list(self.functions)
        self.spans = []
        self.stack = []
        self.invocation = 0
        self.extras = Counter()
        self.open = Counter()
        self._bindings = []

    # -- wrapping -------------------------------------------------------
    def install(self):
        wrappers = {id(fn): self._wrap(i, fn) for i, fn in enumerate(self.functions.values())}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ergotrans" and not mod_name.startswith("ergotrans."):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._bindings.append((module, name, obj))
                    setattr(module, name, wrapper)

    def uninstall(self):
        for module, name, obj in self._bindings:
            setattr(module, name, obj)
        self._bindings = []

    def _wrap(self, fid, fn):
        name = self.names[fid]
        hook = _HOOKS.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([fid, clock(), 0.0, stack[-1] if stack else -1, self.invocation, False])
            stack.append(idx)
            self.open[name] += 1
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                spans[idx][5] = True
                raise
            finally:
                spans[idx][2] = clock()
                stack.pop()
                self.open[name] -= 1
                if hook is not None:
                    hook(self, args, kwargs, result)

        return traced

    # -- statistics -----------------------------------------------------
    def reset(self):
        self.spans.clear()
        self.extras.clear()

    def stats(self):
        """Per-function calls, self seconds and errors, plus the hook counters."""
        calls, errors, self_s = Counter(), Counter(), Counter()
        child = [0.0] * len(self.spans)
        for fid, start, end, parent, _, err in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (fid, start, end, _, _, err) in enumerate(self.spans):
            name = self.names[fid]
            calls[name] += 1
            errors[name] += err
            self_s[name] += (end - start) - child[i]
        return calls, self_s, errors, Counter(self.extras)

    def write(self, path):
        with open(path, "w") as fh:
            for fid, start, end, parent, inv, err in self.spans:
                fh.write(json.dumps([self.names[fid], start, end, parent, inv, err]) + "\n")


def _log_perron(tracer, args, kwargs, result):
    if result is not None and result[3] > FALLBACK_ITERATIONS:
        tracer.extras["transfer.log_perron.fallback_calls"] += 1
    if tracer.open["dual.solve_dual"]:
        tracer.extras["dual.eigensolves"] += 1
    if tracer.open["zerotemp.zero_temp_constrained"] or tracer.open["zerotemp.zero_temp_unconstrained"]:
        tracer.extras["zerotemp.eigensolves"] += 1


def _solve_dual(tracer, args, kwargs, result):
    if result is None:
        return
    tracer.extras["dual.iterations"] += result.iterations
    tracer.extras["dual.solves_returned"] += 1
    if result.marginal_residual > RELAXED_MARGINAL:
        tracer.extras["dual.relaxed_tol_solves"] += 1


def _karp(tracer, args, kwargs, result):
    n, d = args[0].shape
    tracer.extras["tropical.karp_ops"] += n * n * d


def _grid_points(position):
    """Hook counting the beta grid points a zero-temperature call was asked for."""
    def hook(tracer, args, kwargs, result):
        betas = kwargs.get("betas", args[position] if len(args) > position else None)
        tracer.extras["zerotemp.betas"] += len(betas if betas is not None else default_beta_grid())
    return hook


def _dense(tracer, args, kwargs, result):
    if result is not None:
        tracer.extras["transfer.dense_bytes"] += result.q.nbytes   # the n x n chain, 8 n^2


def _render(tracer, args, kwargs, result):
    tracer.extras["report.bytes"] += len(result or "")


_HOOKS = {
    "transfer.log_perron": _log_perron,
    "transfer.gibbs_measure": _dense,
    "dual.solve_dual": _solve_dual,
    "tropical.karp_cycle_mean": _karp,
    "zerotemp.zero_temp_constrained": _grid_points(2),
    "zerotemp.zero_temp_unconstrained": _grid_points(1),
    "report.render_report": _render,
}


def profile_counts(functions, run):
    """Run ``run()`` under cProfile; ``{name: ncalls}`` for the given functions."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    table = pstats.Stats(profiler).stats
    counts = {}
    for name, fn in functions.items():
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        counts[name] = table[key][1] if key in table else 0
    return counts
