"""The benchmark's four workloads.

Each workload is built from the workload seed alone and runs as repeated
passes over the same inputs.  A pass returns a ``PassResult``: operations
attempted and failed, the time of each operation, and a SHA-256 of the
estimate CSV the library produced, so reruns and commits can be compared
bit for bit.

An operation is one fixed-theta estimate or one check case.  It fails if
it raises (``InefficiencyError`` included), returns a non-finite value, or
misses its own check.  A pass that raises fails every operation it had not
yet completed.

Seeds: workload seed ``s`` shifts every seed the acceptance gate uses by
``s``, so ``s = 0`` reproduces today's experiment seeds (17 for the annulus
cone, 13 for the rough closed form, 0 for the mollifier suite, 5 / 6 / 9
for the Stokes, d(dF) and a-priori bound criteria).  Sample counts are
smaller than the experiments' defaults so that a pass takes a few seconds.
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

import formflux.alexander_spanier as alexander_spanier
import formflux.experiments as experiments
import formflux.seminorms as seminorms
from formflux.alexander_spanier import IntegrationMultifunction, UserMultifunction
from formflux.domains import AxisBox
from formflux.experiments import _points_in_unit_ball, _random_form
from formflux.forms import FormField, Polynomial

from bindings import Rebinding, function_sites


@dataclass
class PassResult:
    """One pass: operation counts, the timed operations and the digest.

    ``ops`` holds ``(key, start, end, case)`` per timed operation.  The key
    matches the same operation across passes; ``case`` names the latency
    case it belongs to (several operations may make one case), or is None
    for operations outside the latency percentiles.
    """

    attempted: int = 0
    failed: int = 0
    ops: list = field(default_factory=list)
    digest: str = ""
    notes: dict = field(default_factory=dict)

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.setdefault("failures", []).append(what)

    def timed(self, key, start, end, case):
        self.ops.append((key, start, end, case))


class SetupDone(BaseException):
    """Raised from the first boundary call of a set-up probe; a
    BaseException so that per-operation ``except Exception`` lets it pass."""


@contextmanager
def logged_calls(module, attr, log, stop_at_first=False, before=None):
    """Append (start, end, result or exception) for every call of
    module.attr, at all its binding sites, while the block runs; ``before``
    runs ahead of each call, outside the timed interval."""
    func = getattr(module, attr)

    def timed(*args, **kwargs):
        if stop_at_first:
            raise SetupDone
        if before is not None:
            before()
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        except Exception as exc:
            log.append((start, time.perf_counter(), exc))
            raise
        log.append((start, time.perf_counter(), result))
        return result

    with Rebinding({site: timed for site in function_sites(func)}):
        yield log


def _report_exception(workload, exc):
    print(f"[{workload}] operation raised:", file=sys.stderr)
    traceback.print_exception(exc, file=sys.stderr)


def _finite_estimate(est):
    return not isinstance(est, Exception) and all(
        math.isfinite(v) for v in (est.value, est.stderr, est.power_value,
                                   est.power_stderr)
    )


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    name = ""
    # (module, attribute) whose first call ends set-up
    boundary = (seminorms, "fixed_theta_seminorm")

    def __init__(self, seed, clock=None):
        self.seed = int(seed)
        self.clock = clock

    def _before_op(self):
        """Let the reference clock sample between operations."""
        if self.clock is not None:
            self.clock.before_op()

    def prepare(self):
        """Build the inputs; counted in set-up time."""

    def run_pass(self):
        raise NotImplementedError


class _Sweep(Workload):
    """A named theta-sweep experiment at reduced sample count.  Cases are
    its fixed-theta estimates plus one verdict check."""

    experiment = ""
    base_seed = 0
    samples = 0

    def prepare(self):
        self.thetas = experiments.default_spec(self.experiment).thetas

    def run_pass(self):
        calls = []
        res = PassResult()
        report = None
        with logged_calls(seminorms, "fixed_theta_seminorm", calls,
                          before=self._before_op):
            try:
                report = experiments.run_experiment(
                    self.experiment, samples=self.samples,
                    seed=self.base_seed + self.seed,
                )
            except Exception as exc:
                _report_exception(self.name, exc)
        for j, (start, end, est) in enumerate(calls):
            res.timed(j, start, end, case=j)
            res.record(_finite_estimate(est), f"estimate {j} not finite")
        for j in range(len(calls), len(self.thetas)):
            res.record(False, f"estimate {j} never ran")
        if report is None:
            res.record(False, "experiment raised")
            return res
        res.record(self.verdict(report, res.notes) and report.passed,
                   f"verdict failed: {report.summary()}")
        res.digest = _sha256(report.to_csv())
        return res

    def verdict(self, report, notes):
        raise NotImplementedError


class SweepCone(_Sweep):
    """bbm-annulus-cone: 7 thetas on the Stokes route, cone variant on the
    annulus, constant d omega; target 3 pi^3 / 32."""

    name = "sweep-cone"
    experiment = "bbm-annulus-cone"
    base_seed = 17
    samples = 50_000
    target = 3.0 * math.pi**3 / 32.0

    def verdict(self, report, notes):
        if report.measured is None or not math.isfinite(report.measured):
            return False
        notes["target_rel_err"] = abs(report.measured - self.target) / self.target
        return math.isclose(report.target, self.target, rel_tol=1e-9)


class SweepRough(_Sweep):
    """bbm-square-rough-closed: 5 thetas on the snap-guarded face route with
    sign coefficients; the closed form sweeps to 0."""

    name = "sweep-rough"
    experiment = "bbm-square-rough-closed"
    base_seed = 13
    samples = 2_000

    def verdict(self, report, notes):
        powers = [row.power_value for row in report.rows]
        errors = [row.power_stderr for row in report.rows]
        decreasing = all(
            powers[i + 1] <= powers[i] + 3.0 * (errors[i + 1] + errors[i])
            for i in range(len(powers) - 1)
        )
        return (
            decreasing
            and report.measured is not None
            and abs(report.measured) < 0.05
            and report.target == 0.0
        )


class Mollifier(Workload):
    """run_mollifier_suite: the mollified form's seminorm over the shrunk
    square stays below the rough form's at every theta.  A case is one
    theta: the mollified and the rough estimate and their comparison."""

    name = "mollifier"
    base_seed = 0
    samples = 200

    def run_pass(self):
        calls = []
        res = PassResult()
        report = None
        with logged_calls(experiments, "fixed_theta_seminorm", calls,
                          before=self._before_op):
            try:
                report = experiments.run_experiment(
                    "mollifier", samples=self.samples,
                    seed=self.base_seed + self.seed,
                )
            except Exception as exc:
                _report_exception(self.name, exc)
        thetas = seminorms.DEFAULT_THETAS
        for j, theta in enumerate(thetas):
            pair = calls[2 * j : 2 * j + 2]
            if report is None or len(pair) < 2:
                res.record(False, f"theta {theta} incomplete")
                continue
            for part, (start, end, _) in zip(("mollified", "rough"), pair):
                res.timed((part, j), start, end, case=j)
            (_, _, lhs), (_, _, rhs) = pair
            ok = (
                _finite_estimate(lhs)
                and _finite_estimate(rhs)
                and lhs.value <= rhs.value + 3.0 * (lhs.stderr + rhs.stderr)
                and report.lines[j].endswith("(ok)")
            )
            res.record(ok, f"theta {theta}: {report.lines[j]}")
        if report is not None:
            res.digest = _sha256(report.to_csv())
        return res


# -- checks-small: random cases, one call per case ----------------------------
#
# run_stokes_suite and run_dd_zero_suite draw and check their cases in one
# loop.  The loops below draw the same cases with the suites' own form and
# point generators, so that each case can be timed and checked on its own.


def _stokes_cases(seed, count=1000):
    """The Stokes suite's cases: count planar 1-forms on triangles, then
    count // 10 solid 2-forms on tetrahedra, from one generator."""
    rng = np.random.default_rng(seed)
    cases = []
    for dimension, degree, n_cases in ((2, 1, count), (3, 2, count // 10)):
        for _ in range(n_cases):
            omega = _random_form(rng, dimension, degree)
            cases.append((omega, _points_in_unit_ball(rng, degree + 2, dimension)))
    return cases


def _dd_zero_cases(seed, count=1000):
    """The d(dF) suite's cases: user and integration multifunctions in the
    plane and in 3-space, in turn."""
    rng = np.random.default_rng(seed)
    cases = []
    for case in range(count):
        kind = case % 4
        if kind == 0:
            a, b = rng.normal(size=2)

            def func(pts, a=a, b=b):
                return float(np.sin(a * pts[0] @ pts[-1]) + b * np.prod(pts[:, 0]))

            F = UserMultifunction(2, int(rng.integers(0, 3)), func)
        elif kind == 1:
            F = IntegrationMultifunction(_random_form(rng, 2, 1, 2))
        elif kind == 2:
            c = rng.normal(size=3)

            def func(pts, c=c):
                return float(np.cos(pts[0] @ c) * (1.0 + pts[-1] @ c))

            F = UserMultifunction(3, int(rng.integers(0, 3)), func)
        else:
            F = IntegrationMultifunction(_random_form(rng, 3, 1, 2))
        cases.append((F, rng.normal(size=(F.degree + 3, F.dimension))))
    return cases


def _bound_cases(seed, estimator_seed, count=20, samples=30_000):
    """The a-priori bound criterion's cases: random planar 1- and 2-forms
    with dyadic coefficients over the unit square, across R and theta."""
    rng = np.random.default_rng(seed)
    cases = []
    for case in range(count):
        degree = 1 + case % 2
        comps = {}
        for idx in combinations((1, 2), degree):
            terms = {}
            for _ in range(3):
                expo = tuple(int(e) for e in rng.integers(0, 3, 2))
                terms[expo] = float(rng.integers(-16, 17)) / 16.0
            comps[idx] = Polynomial(2, terms)
        omega = FormField(2, degree, comps, "polynomial")
        R = (0.35, 0.6, 1.0)[case % 3]
        theta = (0.9, 0.95, 0.99)[(case // 3) % 3]
        cfg = seminorms.SeminormConfig(variant="ball", R=R, theta=theta,
                                       samples=samples,
                                       seed=estimator_seed + case)
        cases.append((omega, R, theta, cfg))
    return cases


class ChecksSmall(Workload):
    """Single-tuple and small-batch paths: stokes_residual on 1000 planar
    and 100 solid cases, dd_zero_residual on 1000 cases, and
    uniform_bound_check on 20 cases of 30k tuples, one call per case.
    Case latencies cover the single-tuple calls only."""

    name = "checks-small"
    boundary = (alexander_spanier, "stokes_residual")

    def prepare(self):
        s = self.seed
        self.square = AxisBox([0.0, 0.0], [1.0, 1.0])
        self.stokes = _stokes_cases(5 + s)
        self.dd_zero = _dd_zero_cases(6 + s)
        self.bounds = _bound_cases(9 + s, 900 + 20 * s)

    def run_pass(self):
        res = PassResult()
        lines = []
        now = time.perf_counter
        for j, (omega, simplex) in enumerate(self.stokes):
            self._before_op()
            start = now()
            try:
                r = alexander_spanier.stokes_residual(omega, simplex)
            except Exception as exc:
                _report_exception(self.name, exc)
                res.record(False, f"stokes case {j} raised")
                continue
            res.timed(("stokes", j), start, now(), case=("stokes", j))
            res.record(r.residual < 1e-8, f"stokes case {j}: {r!r}")
            lines.append(f"stokes,{j},{r.residual!r}")
        for j, (F, pts) in enumerate(self.dd_zero):
            self._before_op()
            start = now()
            try:
                value, scale = experiments.dd_zero_residual(F, pts)
            except Exception as exc:
                _report_exception(self.name, exc)
                res.record(False, f"dd-zero case {j} raised")
                continue
            res.timed(("dd-zero", j), start, now(), case=("dd-zero", j))
            rel = value / max(scale, 1e-300)
            res.record(rel <= 1e-12, f"dd-zero case {j}: relative {rel!r}")
            lines.append(f"dd-zero,{j},{rel!r}")
        rows = []
        for j, (omega, R, theta, cfg) in enumerate(self.bounds):
            self._before_op()
            start = now()
            try:
                lhs, rhs = seminorms.uniform_bound_check(
                    omega, self.square, R, theta, cfg=cfg
                )
            except Exception as exc:
                _report_exception(self.name, exc)
                res.record(False, f"bound case {j} raised")
                continue
            res.timed(("bound", j), start, now(), case=None)
            ok = (
                _finite_estimate(lhs)
                and _finite_estimate(rhs)
                and lhs.value <= rhs.value + 3.0 * (lhs.stderr + rhs.stderr)
            )
            res.record(ok, f"bound case {j}: lhs {lhs.value!r} rhs {rhs.value!r}")
            rows.extend((lhs, rhs))
        res.digest = _sha256(
            seminorms.estimates_to_csv(rows) + "\n".join(lines) + "\n"
        )
        return res


WORKLOADS = {w.name: w for w in (SweepCone, SweepRough, Mollifier, ChecksSmall)}
