"""Span tracer for the traced benchmark run.

It wraps the public functions of the carecontracts modules from outside
the package and rebinds every name that points at them, so calls made
through ``from .lp import solve_linear_system`` are traced too. Each call
records a span (name, start, end, parent span, pass id) in memory; self
times, per-layer totals and counters are derived from the spans after
each pass, and the spans are written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("synthetic", "estimation", "lp", "solvers", "domain", "simulation", "cli")

# Called once per cohort record from inside outcome_rates; a span per call
# would make the trace measure itself rather than the pipeline.
UNTRACED = {"estimation.death_before_discharge"}

CLOSED_FORM = (
    "solvers.solve_free_payment",
    "solvers.solve_non_negative",
    "solvers.solve_non_negative_misclassified",
    "solvers.solve_risk_averse",
)


# Counters read from a call's arguments and result: name -> function of
# (bound arguments, result) returning {counter: increment}.
COUNTERS = {
    "synthetic.generate_cohort": lambda a, r: {"synthetic.rows": len(r[0])},
    "estimation.save_cohort": lambda a, r: {
        "estimation.save_cohort.bytes": os.path.getsize(a.arguments["path"])
    },
    "estimation.load_cohort": lambda a, r: {
        "estimation.load_cohort.bytes": os.path.getsize(a.arguments["path"])
    },
    "estimation.fit_propensity": lambda a, r: {"estimation.fit_propensity.iters": r.iterations},
    "estimation.fit_cox": lambda a, r: {"estimation.fit_cox.iters": r.iterations},
    "estimation.match_one_to_one": lambda a, r: {
        "estimation.match_one_to_one.pairs": len(r.pairs),
        "estimation.match_one_to_one.dropped": len(r.dropped_treated),
    },
    "lp.solve_lp": lambda a, r: {"lp.basic_points": r.n_basic_points},
    "lp.enumerate_basic_points": lambda a, r: {
        "lp.enumerated": len(r),
        "lp.primal_feasible": sum(p.primal_feasible for p in r),
    },
    "simulation.simulate_policy": lambda a, r: {"simulation.draws": a.arguments["n"]},
    "simulation.compare_policies": lambda a, r: {"simulation.draws": a.arguments["n"]},
}

# (metric, unit, better) reported by the traced run, in output order.
LAYER_METRICS = [
    ("synthetic.generate_cohort.s", "s", "lower"),
    ("synthetic.rows", "count", "higher"),
    ("estimation.save_cohort.s", "s", "lower"),
    ("estimation.save_cohort.bytes", "B_computed", "lower"),
    ("estimation.load_cohort.s", "s", "lower"),
    ("estimation.load_cohort.bytes", "B_computed", "lower"),
    ("estimation.fit_propensity.s", "s", "lower"),
    ("estimation.fit_propensity.iters", "count", "lower"),
    ("estimation.fit_cox.s", "s", "lower"),
    ("estimation.fit_cox.iters", "count", "lower"),
    ("estimation.cox_partial_likelihood.calls", "count", "lower"),
    ("estimation.response_scores.s", "s", "lower"),
    ("estimation.outcome_rates.s", "s", "lower"),
    ("estimation.match_one_to_one.s", "s", "lower"),
    ("estimation.match_one_to_one.pairs", "count", "higher"),
    ("estimation.match_one_to_one.dropped", "count", "lower"),
    ("estimation.run_pipeline.self_s", "s", "lower"),
    ("lp.solve_lp.s", "s", "lower"),
    ("lp.solve_lp.calls", "count", "lower"),
    ("lp.basic_points", "count", "lower"),
    ("lp.feasible_ratio", "ratio", "higher"),
    ("lp.solve_linear_system.calls", "count", "lower"),
    ("lp.rref.calls", "count", "lower"),
    ("lp.rref.s", "s", "lower"),
    ("solvers.closed_form.s", "s", "lower"),
    ("solvers.closed_form.calls", "count", "lower"),
    ("solvers.check_binding_solvability.s", "s", "lower"),
    ("domain.build_normalized_system.calls", "count", "lower"),
    ("simulation.s", "s", "lower"),
    ("simulation.draws", "count", "higher"),
] + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS] + [
    ("trace.wall_s", "s", "lower"),
    ("trace.untracked_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]


class Tracer:
    """Collects spans while installed; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, pass id]
        self.stack: list[int] = []
        self.pass_id = -1
        self.first_span = 0
        self.counters: dict[str, float] = defaultdict(float)
        self.matched_pairs: list[tuple] = []
        self._wrapped: dict = {}
        self._rebound: list[tuple] = []

    # --- installation ---------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                for key, value in counter(call, result).items():
                    self.counters[key] += value
                if name == "estimation.match_one_to_one":
                    self.matched_pairs.append(result.pairs)
            return result

        return traced

    def install(self) -> None:
        if not self._wrapped:
            for layer in LAYERS:
                module = importlib.import_module(f"carecontracts.{layer}")
                for attr, obj in vars(module).items():
                    name = f"{layer}.{attr}"
                    if (
                        inspect.isfunction(obj)
                        and obj.__module__ == module.__name__
                        and not attr.startswith("_")
                        and name not in UNTRACED
                    ):
                        self._wrapped[obj] = self._wrap(name, obj)
        for module_name, module in list(sys.modules.items()):
            if module_name != "carecontracts" and not module_name.startswith("carecontracts."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self._wrapped:
                    self._rebound.append((module, attr, obj))
                    setattr(module, attr, self._wrapped[obj])

    def uninstall(self) -> None:
        while self._rebound:
            module, attr, original = self._rebound.pop()
            setattr(module, attr, original)

    # --- derived figures --------------------------------------------------

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.first_span = len(self.spans)
        self.counters.clear()
        self.matched_pairs.clear()

    def pass_metrics(self, wall: float) -> tuple[dict, list[str]]:
        """Per-layer metrics of the current pass, and the problems found.

        The layer self times plus the untracked time must add up to the
        pass wall time, and no span may have negative self time; either
        failure means the spans did not nest.
        """
        first = self.first_span
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child[span[3] - first] += span[2] - span[1]
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        top = closed_form = simulation = 0.0
        least_self = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            duration = end - start
            parent_name = spans[parent - first][0] if parent >= 0 else ""
            inclusive[name] += duration
            own[name] += duration - child[i]
            calls[name] += 1
            layer_self[name.split(".", 1)[0]] += duration - child[i]
            least_self = min(least_self, duration - child[i])
            if parent < 0:
                top += duration
            if name in CLOSED_FORM and parent_name not in CLOSED_FORM:
                closed_form += duration
            if name.startswith("simulation.") and not parent_name.startswith("simulation."):
                simulation += duration
        counters = self.counters
        enumerated = counters["lp.enumerated"]
        metrics = {
            "synthetic.generate_cohort.s": inclusive["synthetic.generate_cohort"],
            "estimation.save_cohort.s": inclusive["estimation.save_cohort"],
            "estimation.load_cohort.s": inclusive["estimation.load_cohort"],
            "estimation.fit_propensity.s": inclusive["estimation.fit_propensity"],
            "estimation.fit_cox.s": inclusive["estimation.fit_cox"],
            "estimation.cox_partial_likelihood.calls": calls["estimation.cox_partial_likelihood"],
            "estimation.response_scores.s": inclusive["estimation.response_scores"],
            "estimation.outcome_rates.s": inclusive["estimation.outcome_rates"],
            "estimation.match_one_to_one.s": inclusive["estimation.match_one_to_one"],
            "estimation.run_pipeline.self_s": own["estimation.run_pipeline"],
            "lp.solve_lp.s": inclusive["lp.solve_lp"],
            "lp.solve_lp.calls": calls["lp.solve_lp"],
            "lp.feasible_ratio": counters["lp.primal_feasible"] / enumerated if enumerated else 0.0,
            "lp.solve_linear_system.calls": calls["lp.solve_linear_system"],
            "lp.rref.calls": calls["lp.rref"],
            "lp.rref.s": inclusive["lp.rref"],
            "solvers.closed_form.s": closed_form,
            "solvers.closed_form.calls": sum(calls[name] for name in CLOSED_FORM),
            "solvers.check_binding_solvability.s": inclusive["solvers.check_binding_solvability"],
            "domain.build_normalized_system.calls": calls["domain.build_normalized_system"],
            "simulation.s": simulation,
            "trace.wall_s": wall,
            "trace.untracked_s": wall - top,
            "trace.spans": len(spans),
        }
        for key in (
            "synthetic.rows",
            "estimation.save_cohort.bytes",
            "estimation.load_cohort.bytes",
            "estimation.fit_propensity.iters",
            "estimation.fit_cox.iters",
            "estimation.match_one_to_one.pairs",
            "estimation.match_one_to_one.dropped",
            "lp.basic_points",
            "simulation.draws",
        ):
            metrics[key] = counters[key]
        for layer, value in layer_self.items():
            metrics[f"{layer}.self_s"] = value
        problems = []
        residual = sum(layer_self.values()) + metrics["trace.untracked_s"] - wall
        if abs(residual) > 1e-6 * max(1.0, wall):
            problems.append(f"layer self times miss the pass wall time by {residual:.3g} s")
        if least_self < -1e-6 or metrics["trace.untracked_s"] < -1e-6:
            problems.append("spans overlap: a self time or the untracked time is negative")
        return metrics, problems

    def write_spans(self, path) -> None:
        """Write every recorded span, with its self time, as gzip CSV."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("pass,index,parent,name,start_s,end_s,self_s\n")
            for index, (name, start, end, parent, pass_id) in enumerate(self.spans):
                fh.write(f"{pass_id},{index},{parent},{name},{start!r},{end!r},{end - start - child[index]!r}\n")
