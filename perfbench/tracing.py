"""Spans around the calls into each formflux module's public functions.

The tracer wraps every binding site of the functions and methods below
(see ``bindings``), records one span per call as ``[name, start, end,
parent, n, extra]`` in memory, and turns the spans into per-layer metrics:
self time (span time minus its child spans), work counts and ratios.
``n`` is the call's work count (points, tuples or samples); ``extra``
carries route, zero and memory data for scaled evaluations.

Scaled evaluations that are not nested in another one run under
``tracemalloc`` to measure their allocation growth; that slows them, and
the tracing overhead reported next to the layer metrics includes it.
"""

from __future__ import annotations

import importlib
import json
import time
import tracemalloc

import numpy as np

from bindings import Rebinding, function_sites, method_sites

SCALED = "alexander_spanier.evaluate_scaled_batch"
ESTIMATE = "seminorms.fixed_theta_seminorm"


def _first_len(args, kwargs, key):
    pts = args[1] if len(args) > 1 else kwargs[key]
    return int(np.shape(pts)[0])


def _points(key):
    return lambda args, kwargs, result: _first_len(args, kwargs, key)


def _sample_count(args, kwargs, result):
    return int(args[1] if len(args) > 1 else kwargs["count"])


def _estimate_samples(args, kwargs, result):
    return int(result.samples)


# span name -> (module, attribute, work count or None)
FUNCTIONS = {
    "forms.mollify": ("formflux.forms", "mollify", None),
    "forms.lp_norm": ("formflux.forms", "lp_norm", None),
    "forms.lp_sphere_norm": ("formflux.forms", "lp_sphere_norm", None),
    "simplex.integrate_form": ("formflux.simplex", "integrate_form", None),
    "simplex.default_rule": ("formflux.simplex", "default_rule", None),
    "exterior.sphere_norm": ("formflux.exterior", "sphere_norm", None),
    "alexander_spanier.stokes_residual":
        ("formflux.alexander_spanier", "stokes_residual", None),
    ESTIMATE: ("formflux.seminorms", "fixed_theta_seminorm", _estimate_samples),
    "seminorms.theta_sweep": ("formflux.seminorms", "theta_sweep", None),
    "seminorms.uniform_bound_check":
        ("formflux.seminorms", "uniform_bound_check", None),
    "experiments.run_experiment":
        ("formflux.experiments", "run_experiment", None),
    "experiments.dd_zero_residual":
        ("formflux.experiments", "dd_zero_residual", None),
}

# span name -> (module, defining class, method, work count or None); every
# subclass override is wrapped too (AxisBox.sample_uniform, the
# contains_batch of each shape, each multifunction's evaluate_scaled_batch)
METHODS = {
    "domains.sample_uniform":
        ("formflux.domains", "Domain", "sample_uniform", _sample_count),
    "domains.contains_batch":
        ("formflux.domains", "Domain", "contains_batch", _points("pts")),
    "domains.dist_to_boundary_batch":
        ("formflux.domains", "Domain", "dist_to_boundary_batch", _points("pts")),
    "forms.coefficients_batch":
        ("formflux.forms", "FormField", "coefficients_batch", _points("pts")),
    "forms.Polynomial.evaluate_batch":
        ("formflux.forms", "Polynomial", "evaluate_batch", _points("pts")),
    SCALED: ("formflux.alexander_spanier", "Multifunction",
             "evaluate_scaled_batch", _points("x0")),
    "alexander_spanier.evaluate":
        ("formflux.alexander_spanier", "Multifunction", "evaluate", None),
}

# spans each workload must reach; a missing one means a binding site was
# not wrapped and the layer metrics would read low
EXPECTED = {
    "sweep-cone": {
        "experiments.run_experiment", "seminorms.theta_sweep", ESTIMATE,
        "domains.sample_uniform", "domains.contains_batch",
        "domains.dist_to_boundary_batch", SCALED, "forms.coefficients_batch",
        "forms.Polynomial.evaluate_batch", "simplex.default_rule",
        "exterior.sphere_norm",
    },
    "sweep-rough": {
        "experiments.run_experiment", "seminorms.theta_sweep", ESTIMATE,
        "domains.sample_uniform", "domains.contains_batch", SCALED,
        "forms.coefficients_batch", "simplex.default_rule",
    },
    "mollifier": {
        "experiments.run_experiment", ESTIMATE, "forms.mollify",
        "domains.sample_uniform", "domains.contains_batch", SCALED,
        "forms.coefficients_batch", "forms.Polynomial.evaluate_batch",
        "simplex.default_rule",
    },
    "checks-small": {
        "alexander_spanier.stokes_residual", "simplex.integrate_form",
        "simplex.default_rule", "forms.coefficients_batch",
        "forms.Polynomial.evaluate_batch", "experiments.dd_zero_residual",
        "alexander_spanier.evaluate", "seminorms.uniform_bound_check",
        ESTIMATE, "forms.lp_norm", SCALED,
    },
}

# per-layer metric -> (unit, better); the order is the output order
LAYER_METRICS = {
    "domains.sample_uniform.s": ("s", "lower"),
    "domains.sample_uniform.accept": ("ratio", "higher"),
    "domains.indicator.s": ("s", "lower"),
    "domains.indicator.points": ("count", "lower"),
    "domains.dist_to_boundary_batch.s": ("s", "lower"),
    "forms.coefficients_batch.s": ("s", "lower"),
    "forms.coefficients_batch.points": ("count", "lower"),
    "forms.Polynomial.evaluate_batch.s": ("s", "lower"),
    "forms.Polynomial.evaluate_batch.points": ("count", "lower"),
    "forms.mollify.s": ("s", "lower"),
    "forms.lp_norm.s": ("s", "lower"),
    "forms.lp_sphere_norm.s": ("s", "lower"),
    "simplex.integrate_form.s": ("s", "lower"),
    "simplex.integrate_form.calls": ("count", "lower"),
    "simplex.default_rule.s": ("s", "lower"),
    "exterior.sphere_norm.s": ("s", "lower"),
    "alexander_spanier.evaluate_scaled_batch.s": ("s", "lower"),
    "alexander_spanier.evaluate_scaled_batch.stokes_tuples": ("count", "higher"),
    "alexander_spanier.evaluate_scaled_batch.face_tuples": ("count", "lower"),
    "alexander_spanier.evaluate_scaled_batch.zero_frac": ("ratio", "lower"),
    "alexander_spanier.evaluate_scaled_batch.peak_mb": ("MB", "lower"),
    "alexander_spanier.evaluate.s": ("s", "lower"),
    "alexander_spanier.evaluate.calls": ("count", "lower"),
    "alexander_spanier.stokes_residual.s": ("s", "lower"),
    "alexander_spanier.stokes_residual.calls": ("count", "lower"),
    "seminorms.fixed_theta_seminorm.s": ("s", "lower"),
    "seminorms.fixed_theta_seminorm.calls": ("count", "lower"),
    "seminorms.fixed_theta_seminorm.tuples": ("count", "higher"),
    "seminorms.fixed_theta_seminorm.tuples_per_s": ("1/s", "higher"),
    "seminorms.fixed_theta_seminorm.acceptance": ("ratio", "higher"),
    "seminorms.theta_sweep.s": ("s", "lower"),
    "experiments.run_experiment.s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class Tracer:
    """Records spans while active; reusable across passes."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._bindings = self._build_bindings()

    def active(self):
        return Rebinding(self._bindings)

    def _build_bindings(self):
        bindings = {}
        for name, (mod, attr, count) in FUNCTIONS.items():
            func = getattr(importlib.import_module(mod), attr)
            wrapper = self._wrap(name, func, count)
            bindings.update((site, wrapper) for site in function_sites(func))
        for name, (mod, cls_name, meth, count) in METHODS.items():
            cls = getattr(importlib.import_module(mod), cls_name)
            for owner, attr in method_sites(cls, meth):
                wrap = self._wrap_scaled if name == SCALED else self._wrap
                bindings[(owner, attr)] = wrap(name, vars(owner)[attr], count)
        return bindings

    def _wrap(self, name, func, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            if name == ESTIMATE:
                span[5] = {"acceptance": float(result.acceptance_ratio)}
            return result

        return traced

    def _wrap_scaled(self, name, func, count):
        """Scaled evaluation: the outermost call also records its route,
        how many outputs are exactly 0, and its allocation growth."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(self_mf, *args, **kwargs):
            parent = stack[-1] if stack else -1
            outer = parent < 0 or spans[parent][0] != SCALED
            span = [name, 0.0, 0.0, parent, 0, None]
            stack.append(len(spans))
            spans.append(span)
            if outer:
                tracemalloc.start()
            span[1] = clock()
            try:
                result = func(self_mf, *args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if outer:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            span[4] = count((self_mf,) + args, kwargs, result)
            if outer:
                route = getattr(self_mf, "stokes_route", None)
                span[5] = {
                    "route": None if route is None else
                    ("stokes" if route else "face"),
                    "zeros": int(np.count_nonzero(np.asarray(result) == 0.0)),
                    "peak_mb": peak / 2**20,
                }
            return result

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, n, extra in self.spans:
                rec = {"name": name, "start": start, "end": end,
                       "parent": parent, "n": n}
                if extra:
                    rec.update(extra)
                fh.write(json.dumps(rec) + "\n")


def fired(spans):
    return {s[0] for s in spans}


def layer_metrics(spans, passes):
    """Per-pass layer metrics from the spans of ``passes`` traced passes."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_s, incl_s, calls, work = {}, {}, {}, {}
    for i, s in enumerate(spans):
        name = s[0]
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
        incl_s[name] = incl_s.get(name, 0.0) + dur[i]
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + s[4]

    def parent_name(s):
        return spans[s[3]][0] if s[3] >= 0 else ""

    # membership tests: inside rejection sampling, or the estimator's
    # variant indicator
    tested = {}
    indicator_s = indicator_pts = 0.0
    for i, s in enumerate(spans):
        if s[0] != "domains.contains_batch":
            continue
        if parent_name(s) == "domains.sample_uniform":
            tested[s[3]] = tested.get(s[3], 0) + s[4]
        elif parent_name(s).startswith("seminorms."):
            indicator_s += dur[i] - child[i]
            indicator_pts += s[4]
    returned = points_tested = 0
    sample_s = 0.0
    for i, s in enumerate(spans):
        if s[0] == "domains.sample_uniform":
            returned += s[4]
            # a box samples without rejection: every point drawn is kept
            points_tested += tested.get(i, s[4])
            sample_s += dur[i]

    outer = [s for s in spans if s[0] == SCALED and s[5] is not None]
    scaled_n = sum(s[4] for s in outer)
    est = [(i, s) for i, s in enumerate(spans) if s[0] == ESTIMATE]
    tuples = sum(s[4] for _, s in est)
    est_time = sum(dur[i] for i, _ in est)

    def ratio(a, b):
        return a / b if b else 0.0

    per_pass = {
        "domains.sample_uniform.s": sample_s,
        "domains.indicator.s": indicator_s,
        "domains.indicator.points": indicator_pts,
        "domains.dist_to_boundary_batch.s":
            self_s.get("domains.dist_to_boundary_batch", 0.0),
        "forms.coefficients_batch.s": self_s.get("forms.coefficients_batch", 0.0),
        "forms.coefficients_batch.points": work.get("forms.coefficients_batch", 0),
        "forms.Polynomial.evaluate_batch.s":
            self_s.get("forms.Polynomial.evaluate_batch", 0.0),
        "forms.Polynomial.evaluate_batch.points":
            work.get("forms.Polynomial.evaluate_batch", 0),
        "forms.mollify.s": self_s.get("forms.mollify", 0.0),
        "forms.lp_norm.s": self_s.get("forms.lp_norm", 0.0),
        "forms.lp_sphere_norm.s": self_s.get("forms.lp_sphere_norm", 0.0),
        "simplex.integrate_form.s": self_s.get("simplex.integrate_form", 0.0),
        "simplex.integrate_form.calls": calls.get("simplex.integrate_form", 0),
        "simplex.default_rule.s": self_s.get("simplex.default_rule", 0.0),
        "exterior.sphere_norm.s": self_s.get("exterior.sphere_norm", 0.0),
        SCALED + ".s": self_s.get(SCALED, 0.0),
        SCALED + ".stokes_tuples":
            sum(s[4] for s in outer if s[5]["route"] == "stokes"),
        SCALED + ".face_tuples":
            sum(s[4] for s in outer if s[5]["route"] == "face"),
        "alexander_spanier.evaluate.s": self_s.get("alexander_spanier.evaluate", 0.0),
        "alexander_spanier.evaluate.calls":
            calls.get("alexander_spanier.evaluate", 0),
        "alexander_spanier.stokes_residual.s":
            self_s.get("alexander_spanier.stokes_residual", 0.0),
        "alexander_spanier.stokes_residual.calls":
            calls.get("alexander_spanier.stokes_residual", 0),
        ESTIMATE + ".s": self_s.get(ESTIMATE, 0.0),
        ESTIMATE + ".calls": calls.get(ESTIMATE, 0),
        ESTIMATE + ".tuples": tuples,
        "seminorms.theta_sweep.s": self_s.get("seminorms.theta_sweep", 0.0),
        "experiments.run_experiment.s":
            self_s.get("experiments.run_experiment", 0.0),
    }
    out = {k: v / passes for k, v in per_pass.items()}
    out["domains.sample_uniform.accept"] = ratio(returned, points_tested)
    out[SCALED + ".zero_frac"] = ratio(sum(s[5]["zeros"] for s in outer), scaled_n)
    out[SCALED + ".peak_mb"] = max((s[5]["peak_mb"] for s in outer), default=0.0)
    out[ESTIMATE + ".tuples_per_s"] = ratio(tuples, est_time)
    out[ESTIMATE + ".acceptance"] = ratio(
        sum(s[5]["acceptance"] * s[4] for _, s in est), tuples
    )
    return out
