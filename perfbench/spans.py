"""Spans around the public functions of omegapair's layers, and the per-layer metrics.

The tracer replaces, inside the package's modules, every reference to a
public module-level function of the layers below with a wrapper that
records a span: name, start, end, parent span and solve id, plus a few
counters read from the return value. Spans stay in memory; the package
source is not touched and the wrappers are removed on exit.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

LAYERS = ("fgm", "bcd", "sdp", "pencil", "regions", "result")

# Counters recorded at the boundary, from the wrapped function's return value.
COUNTERS = {
    "sdp.solve_subproblem": lambda s: (s.barrier_iterations, s.initial_point_used,
                                       s.converged),
    "fgm.solve_hurwitz": lambda r: (r.iterations, r.shifted),
    "bcd.solve_general": lambda r: (r.iterations, r.shifted),
}


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int       # index of the enclosing span in the same list, -1 at top level
    solve: int        # index of the workload operation that caused it
    counters: tuple = ()


class Tracer:
    """Records spans while `recording()` is open, around the layers of `package`."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.solve = -1
        self._stack: list[int] = []
        self._wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package.__name__}.{layer}")
            for fname in mod.__all__:
                fn = getattr(mod, fname)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self._wrapped[fn] = self._wrap(f"{layer}.{fname}", fn)

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self._stack
            span = Span(name, 0, 0, stack[-1] if stack else -1, self.solve)
            stack.append(len(spans))
            spans.append(span)
            span.start_ns = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                span.counters = count(out)
            return out

        return wrapper

    @contextmanager
    def recording(self):
        """Wrap the layers' public functions wherever the package refers to
        them, and yield the fresh list the spans go into; unwrap on exit."""
        self.spans, self._stack = [], []
        prefix = self.package.__name__ + "."
        modules = [m for name, m in list(sys.modules.items())
                   if name == self.package.__name__ or name.startswith(prefix)]
        patched = [(m, attr, val) for m in modules for attr, val in vars(m).items()
                   if inspect.isfunction(val) and val in self._wrapped]
        for m, attr, val in patched:
            setattr(m, attr, self._wrapped[val])
        try:
            yield self.spans
        finally:
            for m, attr, val in patched:
                setattr(m, attr, val)


def write_spans(path, passes):
    """A header line naming the fields, then one JSON array per span;
    `passes` is a list of span lists."""
    with open(path, "w") as fh:
        fh.write(json.dumps(["traced_pass", "name", "start_ns", "end_ns", "parent", "solve",
                             "counters"]) + "\n")
        for i, spans in enumerate(passes):
            for s in spans:
                fh.write(json.dumps([i, s.name, s.start_ns, s.end_ns, s.parent, s.solve,
                                     list(s.counters)]) + "\n")


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans, extra):
    """Per-layer metrics of one traced pass.

    `extra` holds what the spans cannot see: BCD restarts and Q fallbacks
    (from the public `diagnostics=` argument) and FGM iterations to target.
    Ratios with a zero base (a layer that does no work in this workload)
    are reported as 0.
    """
    total, calls, own = {}, {}, {}
    children = [0] * len(spans)
    finalize_in_fgm = 0
    for s in spans:
        d = s.end_ns - s.start_ns
        if s.parent >= 0:
            children[s.parent] += d
            if s.name == "result.finalize_solution" and spans[s.parent].name == "fgm.solve_hurwitz":
                finalize_in_fgm += d
    for s, child in zip(spans, children):
        d = s.end_ns - s.start_ns
        total[s.name] = total.get(s.name, 0) + d
        calls[s.name] = calls.get(s.name, 0) + 1
        own[s.name] = own.get(s.name, 0) + d - child

    def ms(name):
        return total.get(name, 0) / 1e6

    def mean_ms(name):
        return _ratio(ms(name), calls.get(name, 0))

    def n(name):
        return calls.get(name, 0)

    def counter_sum(name, i):
        return sum(s.counters[i] for s in spans if s.name == name and s.counters)

    fgm_iters = counter_sum("fgm.solve_hurwitz", 0)
    sweeps = counter_sum("bcd.solve_general", 0)
    newton = counter_sum("sdp.solve_subproblem", 0)
    cold = counter_sum("sdp.solve_subproblem", 1)
    subproblems = n("sdp.solve_subproblem")
    return {
        "fgm.iterations": (fgm_iters, "count"),
        "fgm.iter_ms": (_ratio(ms("fgm.solve_hurwitz") - finalize_in_fgm / 1e6, fgm_iters), "ms"),
        "fgm.self_ms_per_iter": (_ratio(own.get("fgm.solve_hurwitz", 0) / 1e6, fgm_iters), "ms"),
        "fgm.gradient_us": (1e3 * mean_ms("fgm.gradient"), "us"),
        "fgm.project_us": (1e3 * mean_ms("fgm.project"), "us"),
        "fgm.objective_us": (1e3 * mean_ms("fgm.objective"), "us"),
        "fgm.ls_trials_per_iter": (_ratio(n("fgm.project"), fgm_iters), "ratio"),
        "fgm.lipschitz_calls": (n("fgm.estimate_lipschitz"), "count"),
        "fgm.iters_to_target": (extra["fgm_iters_to_target"], "count"),
        "sdp.subproblems": (subproblems, "count"),
        "sdp.newton_steps": (newton, "count"),
        "sdp.newton_ms": (_ratio(ms("sdp.solve_subproblem"), newton), "ms"),
        "sdp.subproblem_ms": (mean_ms("sdp.solve_subproblem"), "ms"),
        "sdp.cold_starts": (cold, "count"),
        "sdp.warm_start_ratio": (_ratio(subproblems - cold, subproblems), "ratio"),
        "sdp.unconverged": (subproblems - counter_sum("sdp.solve_subproblem", 2), "count"),
        "bcd.sweeps": (sweeps, "count"),
        "bcd.restarts": (extra["bcd_restarts"], "count"),
        "bcd.q_fallbacks": (extra["bcd_q_fallbacks"], "count"),
        "bcd.q_update_ms": (mean_ms("bcd.update_Q"), "ms"),
        "bcd.self_ms_per_sweep": (_ratio(own.get("bcd.solve_general", 0) / 1e6, sweeps), "ms"),
        "pencil.checks": (n("pencil.admissibility_check"), "count"),
        "pencil.check_ms": (mean_ms("pencil.admissibility_check"), "ms"),
        "pencil.spectrum_ms": (mean_ms("pencil.spectrum"), "ms"),
        "pencil.regularity_ms": (mean_ms("pencil.regularity_check"), "ms"),
        "regions.membership_calls": (n("regions.membership"), "count"),
        "regions.membership_us": (1e3 * mean_ms("regions.membership"), "us"),
        "result.finalize_ms": (mean_ms("result.finalize_solution"), "ms"),
        "result.repairs": (counter_sum("fgm.solve_hurwitz", 1)
                           + counter_sum("bcd.solve_general", 1), "count"),
    }


def median_metrics(per_pass):
    """Median of each metric over traced passes (counts repeat exactly)."""
    return {name: (statistics.median(m[name][0] for m in per_pass), unit)
            for name, (_, unit) in per_pass[0].items()}
