"""Desk-scale experiment drivers tying the estimators to their targets.

Each driver returns an ExperimentReport carrying the measured quantity,
the target with its own uncertainty, the pass/fail verdict, the estimate
rows for CSV output, and enough configuration echo to reproduce the run
bit for bit.  Pass/fail always combines three statistical standard errors
with the declared systematic tolerance; no bare float comparisons.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field, fields, replace
from itertools import combinations, product

import numpy as np

from .alexander_spanier import (
    CoboundaryMultifunction,
    DifferentialMultifunction,
    IntegrationMultifunction,
    Multifunction,
    UserMultifunction,
    stokes_residual,
)
from .domains import Annulus, AxisBox, domain_from_json, normalize_rows
from .errors import ArgumentError
from .estimates import random_stream, within_3_sigma
from .exterior import sphere_norm
from .forms import (
    FormField,
    Mollifier,
    Polynomial,
    form_from_json,
    form_to_json,
    lp_sphere_norm,
    mollify,
)
from .seminorms import (
    DEFAULT_THETAS,
    SeminormConfig,
    bbm_constant,
    check_thetas,
    estimates_to_csv,
    fixed_theta_seminorm,
    theta_sweep,
)

__all__ = [
    "ExperimentSpec",
    "ExperimentReport",
    "run_bbm",
    "run_stokes_suite",
    "run_dd_zero_suite",
    "run_variant_ordering_check",
    "run_diagonal_vanishing_check",
    "run_mollifier_suite",
    "dd_zero_residual",
    "default_spec",
    "run_experiment",
    "EXPERIMENT_NAMES",
    "SUITE_NAMES",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """A named, serializable experiment: form + domain + estimator grid.

    expected_kind is one of closed-form (expected_value holds the limit of
    the p-th power), oracle (the target is computed from the constant K and
    a sphere-norm integral of d omega), or qualitative (report only).
    Only a closed-form target reads expected_value; the other kinds refuse
    one, as SeminormConfig refuses an R or c that its variant ignores.
    """

    name: str
    form: FormField
    domain: object
    config: SeminormConfig
    thetas: tuple = DEFAULT_THETAS
    expected_kind: str = "oracle"
    expected_value: float | None = None
    tolerance: float = 0.10

    def __post_init__(self):
        if not 0 < self.tolerance < math.inf:
            raise ArgumentError(f"tolerance must be finite and > 0, "
                                f"got {self.tolerance!r}")
        check_thetas(self.thetas)
        if self.expected_kind not in ("closed-form", "oracle", "qualitative"):
            raise ArgumentError(f"unknown expected_kind {self.expected_kind!r}")
        value = self.expected_value
        if self.expected_kind == "closed-form" and not (
                isinstance(value, numbers.Real) and math.isfinite(value)):
            raise ArgumentError(f"closed-form target needs a finite expected_value, "
                                f"got {value!r}")
        if self.expected_kind != "closed-form" and value is not None:
            raise ArgumentError(f"expected_value applies only to a closed-form "
                                f"target, not {self.expected_kind!r}")

    def to_json(self):
        """The spec as a JSON document; the config keeps every field but
        theta and stream, which the sweep sets per grid point."""
        return {
            "name": self.name,
            "form": form_to_json(self.form),
            "domain": self.domain.to_json(),
            "config": {f.name: getattr(self.config, f.name)
                       for f in fields(SeminormConfig)
                       if f.name not in ("theta", "stream")},
            "thetas": list(self.thetas),
            "expected": {"kind": self.expected_kind, "value": self.expected_value},
            "tolerance": self.tolerance,
        }

    def override(self, samples=None, seed=None):
        """This spec with the sample count and the seed that are given."""
        given = {"samples": samples, "seed": seed}
        given = {key: v for key, v in given.items() if v is not None}
        return replace(self, config=replace(self.config, **given)) if given else self

    @classmethod
    def from_json(cls, data):
        """The spec that to_json wrote.  A config key that SeminormConfig
        lacks, such as the removed shards, is an ArgumentError: dropping it
        would silently run a different random stream."""
        config = data.get("config", {})
        unknown = sorted(set(config) - {f.name for f in fields(SeminormConfig)})
        if unknown:
            raise ArgumentError(f"unknown config keys: {', '.join(unknown)}")
        cfg = SeminormConfig(**config)
        expected = data.get("expected", {"kind": "oracle", "value": None})
        return cls(
            name=data["name"],
            form=form_from_json(data["form"]),
            domain=domain_from_json(data["domain"]),
            config=cfg,
            thetas=tuple(data.get("thetas", DEFAULT_THETAS)),
            expected_kind=expected.get("kind", "oracle"),
            expected_value=expected.get("value"),
            tolerance=data.get("tolerance", 0.10),
        )


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    passed: bool
    measured: float | None
    target: float | None
    tolerance: float
    stat_error: float = 0.0
    systematic: float = 0.0
    rows: tuple = ()
    details: dict = field(default_factory=dict)
    lines: tuple = ()

    def summary(self):
        head = f"[{'PASS' if self.passed else 'FAIL'}] {self.name}"
        body = []
        if self.measured is not None:
            body.append(f"measured = {self.measured!r}")
        if self.target is not None:
            body.append(f"target = {self.target!r}")
        body.append(f"tolerance = {self.tolerance!r}")
        body.append(f"stat_error = {self.stat_error!r}")
        out = [head + "  (" + ", ".join(body) + ")"]
        out.extend("  " + line for line in self.lines)
        return "\n".join(out)

    def to_csv(self):
        return estimates_to_csv(self.rows) if self.rows else ""


def _target_power(spec):
    """(target, uncertainty) for the limit of the p-th power of the
    coboundary seminorm: K(p, k+1)^p times the L^p sphere-norm integral of
    d omega.  Constant d omega uses sphere_norm at one point, exact for
    decomposable degrees, and the exact volume; otherwise lp_sphere_norm,
    the closed-form sphere norm under a Monte Carlo spatial integral."""
    if spec.expected_kind == "closed-form":
        return float(spec.expected_value), 0.0
    if spec.expected_kind == "qualitative":
        return None, 0.0
    omega = spec.form
    p = spec.config.p
    K = bbm_constant(p, omega.degree + 1)
    d_omega = omega.exterior_derivative()
    if d_omega.is_constant() or d_omega.is_zero():
        at_origin = d_omega.evaluate(np.zeros(omega.dimension))
        per_point = sphere_norm(at_origin, p)
        target = K**p * per_point.value**p * spec.domain.volume()
        err = K**p * p * per_point.value ** (p - 1) * per_point.error
        err *= spec.domain.volume()
        return target, err
    est = lp_sphere_norm(d_omega, spec.domain, p, seed=spec.config.seed)
    return K**p * est.power_value, K**p * est.power_stderr


def run_bbm(spec):
    """The theta -> 1 limit of the coboundary seminorm against the spec's
    target.  On a non-convex domain a quantitative run needs a cone variant
    with c in (0, 1]."""
    if not spec.domain.is_convex and spec.expected_kind != "qualitative":
        if spec.config.variant not in ("cone", "ball-cone"):
            raise ArgumentError("non-convex quantitative runs need a cone variant")
        if not 0.0 < spec.config.c <= 1.0:
            raise ArgumentError("cone parameter must lie in (0, 1]")
    F = CoboundaryMultifunction(spec.form)
    sweep = theta_sweep(F, spec.domain, spec.config, spec.thetas)
    target, target_err = _target_power(spec)
    lines = sweep.report_lines()
    details = {
        "divergent": sweep.divergent,
        "diagnostics": sweep.diagnostics,
        "config": sweep.estimates[0].config,
        "target_error": target_err,
        "extrapolated_power_stderr": sweep.extrapolated_power_stderr,
        "fit_residual": sweep.fit_residual,
    }
    measured = sweep.extrapolated_power  # None when the sweep is divergent
    if spec.expected_kind == "qualitative":
        passed = True
        lines.append("qualitative run: no target asserted")
    elif sweep.divergent:
        passed = False
    else:
        stat = 3.0 * (sweep.extrapolated_power_stderr + target_err)
        slack = spec.tolerance * abs(target) if target else spec.tolerance
        passed = abs(measured - target) <= slack + stat + sweep.fit_residual
        lines.append(
            f"target {target!r} (slack {slack + stat + sweep.fit_residual!r})"
        )
    return ExperimentReport(
        name=spec.name,
        passed=passed,
        measured=measured,
        target=target,
        tolerance=spec.tolerance,
        stat_error=3.0 * (sweep.extrapolated_power_stderr or 0.0),
        systematic=sweep.fit_residual or 0.0,
        rows=sweep.estimates,
        details=details,
        lines=tuple(lines),
    )


@functools.lru_cache(maxsize=None)
def _exponent_table(dimension, max_total_degree):
    """Every exponent tuple of total degree <= max_total_degree in
    dimension variables, in lexicographic order."""
    return tuple(expo for expo in product(range(max_total_degree + 1), repeat=dimension)
                 if sum(expo) <= max_total_degree)


def _random_form(rng, dimension, degree, max_total_degree=3):
    """A random polynomial form: each component sums 5 terms, each an
    exponent tuple drawn uniformly from _exponent_table with a U[-1, 1)
    coefficient.  A repeated exponent keeps its first position and its last
    coefficient.  The form takes two draws from rng, whatever their values:
    the table positions, then the coefficients, each C(n, k) x 5."""
    table = _exponent_table(dimension, max_total_degree)
    indices = list(combinations(range(1, dimension + 1), degree))
    picks = rng.integers(0, len(table), (len(indices), 5)).tolist()
    coeffs = rng.uniform(-1.0, 1.0, (len(indices), 5)).tolist()
    comps = {
        idx: Polynomial._trusted(dimension, {table[j]: c for j, c in zip(row, cs)})
        for idx, row, cs in zip(indices, picks, coeffs)
    }
    return FormField(dimension, degree, comps, "polynomial")


def _points_in_unit_ball(rng, count, dimension):
    x = normalize_rows(rng.standard_normal((count, dimension)))
    radii = rng.random(count) ** (1.0 / dimension)
    return x * radii[:, np.newaxis]


def run_stokes_suite(count=1000, seed=0):
    """Max |dI_omega - I_{d omega}| over random polynomial forms and
    simplices in the unit ball: count 1-form/triangle cases in the plane
    plus count // 10 2-form/tetrahedron cases in 3-space.  A form truncated
    to the unit square with a straddling simplex is reported alongside but
    excluded from the verdict."""
    if count < 1:
        raise ArgumentError(f"count must be >= 1, got {count}")
    rng = random_stream(seed)
    worst = 0.0
    cases = []
    for dimension, degree, n_cases in ((2, 1, count), (3, 2, max(count // 10, 1))):
        for _ in range(n_cases):
            omega = _random_form(rng, dimension, degree)
            simplex = _points_in_unit_ball(rng, degree + 2, dimension)
            res = stokes_residual(omega, simplex)
            if res.residual > worst:
                worst = res.residual
                cases.append((dimension, degree, res.residual))
    truncated = FormField.from_polynomials(
        2, 1, {(2,): {(1, 0): 1.0}}
    ).with_support(AxisBox([0.0, 0.0], [1.0, 1.0]))
    straddle = np.array([[0.7, 0.5], [1.4, 0.5], [0.7, 1.2]])
    excluded = stokes_residual(truncated, straddle)
    passed = worst < 1e-8
    lines = (
        f"max residual over {count} planar + {max(count // 10, 1)} "
        f"3-space cases: {worst!r}",
        f"truncated straddling case (excluded): residual {excluded.residual!r}, "
        f"containment {excluded.containment}",
    )
    return ExperimentReport(
        name="stokes-suite",
        passed=passed,
        measured=worst,
        target=0.0,
        tolerance=1e-8,
        details={"count": count, "seed": seed,
                 "excluded_residual": excluded.residual},
        lines=lines,
    )


class _Recorded(Multifunction):
    """F, keeping the values of the last batch it was handed."""

    def __init__(self, base: Multifunction):
        super().__init__(base.dimension, base.degree)
        self.base = base
        self.values = None

    def evaluate_batch(self, tuples):
        self.values = self.base.evaluate_batch(tuples)
        return self.values


def dd_zero_residual(F: Multifunction, points):
    """(|ddF(points)|, magnitude scale) where the scale sums |F| over the
    second-order faces, giving the rounding floor of the cancellation.

    d(dF) reaches each of the C(m, 2) second-order faces twice, once per
    order of removal, in the one batch it hands F, so the scale is twice
    the sum over one of each pair, read from that batch.  The batch is face
    major: omitting point a, then point b > a (b - 1 of the rest), is leaf
    (b - 1) m + a.
    """
    leaves = _Recorded(F)
    ddF = DifferentialMultifunction(DifferentialMultifunction(leaves))
    value = abs(ddF.evaluate(points))
    m = len(points)
    first = [(b - 1) * m + a for a, b in combinations(range(m), 2)]
    return value, 2.0 * float(np.sum(np.abs(leaves.values[first])))


def run_dd_zero_suite(count=1000, seed=0):
    """d(dF) at random tuples for a mix of user-defined and
    integration-backed multifunctions; passes when every case cancels to
    1e-12 relative to its face magnitude."""
    if count < 1:
        raise ArgumentError(f"count must be >= 1, got {count}")
    rng = random_stream(seed)
    worst = 0.0
    for case in range(count):
        kind = case % 4
        dimension = 2 if kind < 2 else 3
        if kind == 0:
            a, b = rng.normal(size=2)

            def func(pts, a=a, b=b):
                return float(np.sin(a * pts[0] @ pts[-1]) + b * np.prod(pts[:, 0]))

            F = UserMultifunction(2, int(rng.integers(0, 3)), func)
        elif kind == 1:
            omega = _random_form(rng, 2, 1, max_total_degree=2)
            F = IntegrationMultifunction(omega)
        elif kind == 2:
            c = rng.normal(size=3)

            def func(pts, c=c):
                return float(np.cos(pts[0] @ c) * (1.0 + pts[-1] @ c))

            F = UserMultifunction(3, int(rng.integers(0, 3)), func)
        else:
            omega = _random_form(rng, 3, 1, max_total_degree=2)
            F = IntegrationMultifunction(omega)
        pts = rng.normal(size=(F.degree + 3, F.dimension))
        value, scale = dd_zero_residual(F, pts)
        rel = value / max(scale, 1e-300)
        worst = max(worst, rel)
    passed = worst <= 1e-12
    return ExperimentReport(
        name="dd-zero",
        passed=passed,
        measured=worst,
        target=0.0,
        tolerance=1e-12,
        details={"count": count, "seed": seed},
        lines=(f"max relative double-differential over {count} cases: {worst!r}",),
    )


def run_variant_ordering_check(samples=20000, seed=0):
    """Shared-seed ordering cone-capped <= ball <= full for I_{dx1} on the
    unit square at each theta, plus the exact full = ball(diameter)
    identity."""
    thetas = (0.9, 0.95, 0.99)
    square = AxisBox([0.0, 0.0], [1.0, 1.0])
    F = IntegrationMultifunction(FormField.constant_form(2, {(1,): 1.0}))
    rows = []
    lines = []
    passed = True
    for j, theta in enumerate(thetas):
        common = dict(p=2.0, theta=theta, samples=samples, seed=seed, stream=j)
        full, ball, cone, diam = (
            fixed_theta_seminorm(F, square, SeminormConfig(**common, **variant))
            for variant in ({}, dict(variant="ball", R=0.5),
                            dict(variant="ball-cone", R=0.5, c=0.5),
                            dict(variant="ball", R=square.diameter())))
        rows.extend([cone, ball, full])
        ok_chain = (within_3_sigma(cone.value, cone.stderr, ball.value, ball.stderr)
                    and within_3_sigma(ball.value, ball.stderr, full.value,
                                       full.stderr))
        ok_diam = diam.value == full.value
        passed = passed and ok_chain and ok_diam
        lines.append(
            f"theta={theta}: cone {cone.value:.6f} <= ball {ball.value:.6f} "
            f"<= full {full.value:.6f} ({'ok' if ok_chain else 'VIOLATED'}); "
            f"ball(diam) {'==' if ok_diam else '!='} full"
        )
    return ExperimentReport(
        name="variant-ordering",
        passed=passed,
        measured=None,
        target=None,
        tolerance=0.0 if passed else 1.0,
        rows=tuple(rows),
        details={"samples": samples, "seed": seed, "thetas": thetas},
        lines=tuple(lines),
    )


def run_diagonal_vanishing_check(samples=30000, seed=0):
    """A bounded degree-1 multifunction vanishing whenever |x_1 - x_0| < r
    has ball-variant seminorm tending to 0 along the theta grid."""
    r, tol = 0.25, 0.05
    square = AxisBox([0.0, 0.0], [1.0, 1.0])

    def gap(tuples):
        t = np.linalg.norm(tuples[:, 1] - tuples[:, 0], axis=1)
        return np.maximum(t - r, 0.0) ** 2

    F = UserMultifunction(2, 1, lambda pts: float(gap(pts[np.newaxis])[0]),
                          batch_func=gap)
    cfg = SeminormConfig(p=2.0, variant="ball", R=1.0, samples=samples,
                         seed=seed)
    sweep = theta_sweep(F, square, cfg)
    decreasing = sweep.diagnostics["decreasing"]
    final = float(sweep.powers[-1])
    limit = sweep.extrapolated_power
    small = (limit is not None and abs(limit) <= tol) or final <= tol
    passed = decreasing and small and not sweep.divergent
    return ExperimentReport(
        name="diagonal-vanishing",
        passed=passed,
        measured=limit if limit is not None else final,
        target=0.0,
        tolerance=tol,
        stat_error=3.0 * (sweep.extrapolated_power_stderr or 0.0),
        systematic=sweep.fit_residual or 0.0,
        rows=sweep.estimates,
        details={"r": r, "samples": samples, "seed": seed,
                 "decreasing": decreasing},
        lines=tuple(sweep.report_lines()),
    )


def run_mollifier_suite(samples=4000, seed=0, thetas=None):
    """Seminorm of dI_{eta * omega} over the eps-shrunk square stays below
    the seminorm of dI_omega over the full square at every theta (shared
    ball radius), within 3 combined standard errors."""
    thetas = tuple(DEFAULT_THETAS if thetas is None else thetas)
    eta = Mollifier(2, 0.05)
    square = AxisBox([0.0, 0.0], [1.0, 1.0])
    inner = square.shrink(eta.radius)
    omega = FormField.from_polynomials(2, 1, {(2,): {(1, 0): 1.0}})
    smooth = mollify(omega, eta)
    lhs_F = CoboundaryMultifunction(smooth)
    rhs_F = CoboundaryMultifunction(omega)
    rows = []
    lines = []
    passed = True
    for j, theta in enumerate(thetas):
        cfg = SeminormConfig(p=2.0, variant="ball", R=1.0, theta=theta,
                             samples=samples, seed=seed, stream=j)
        lhs = fixed_theta_seminorm(lhs_F, inner, cfg)
        rhs = fixed_theta_seminorm(rhs_F, square, cfg)
        rows.extend([lhs, rhs])
        ok = within_3_sigma(lhs.value, lhs.stderr, rhs.value, rhs.stderr)
        passed = passed and ok
        lines.append(
            f"theta={theta}: mollified {lhs.value:.6f}+-{lhs.stderr:.1e} "
            f"<= rough {rhs.value:.6f}+-{rhs.stderr:.1e} "
            f"({'ok' if ok else 'VIOLATED'})"
        )
    return ExperimentReport(
        name="mollifier-monotonicity",
        passed=passed,
        measured=None,
        target=None,
        tolerance=0.0 if passed else 1.0,
        rows=tuple(rows),
        details={"eps": eta.radius, "samples": samples, "seed": seed,
                 "thetas": thetas},
        lines=tuple(lines),
    )


# -- named default experiments -------------------------------------------------


def _sign_coefficient(axis):
    def coeff(pts, axis=axis):
        return np.sign(pts[:, axis] - 0.5)

    return coeff


def _square():
    return AxisBox([0.0, 0.0], [1.0, 1.0])


def _annulus():
    return Annulus([0.0, 0.0], 0.5, 1.0)


def _x1dx2():
    return FormField.from_polynomials(2, 1, {(2,): {(1, 0): 1.0}})


# The built-in specs: each builder takes its key as the spec's name.
_SPECS = {
    # the cone variant converges slower in theta (its effective radius
    # shrinks near the boundary), so the grid extends closer to 1
    "bbm-annulus-cone": lambda name: ExperimentSpec(
        name, _x1dx2(), _annulus(),
        SeminormConfig(p=2.0, variant="cone", c=0.5, samples=1000000, seed=17),
        thetas=DEFAULT_THETAS + (0.9975, 0.99875),
        tolerance=0.15,
    ),
    "bbm-annulus-full-qualitative": lambda name: ExperimentSpec(
        name, _x1dx2().with_support(_annulus()), _annulus(),
        SeminormConfig(p=2.0, samples=40000, seed=19),
        expected_kind="qualitative",
        tolerance=1.0,
    ),
    "bbm-square-rough-closed": lambda name: ExperimentSpec(
        name,
        FormField.from_callables(
            2, 1, {(1,): _sign_coefficient(0), (2,): _sign_coefficient(1)}
        ),
        _square(),
        SeminormConfig(p=2.0, samples=40000, seed=13),
        expected_kind="closed-form",
        expected_value=0.0,
        tolerance=0.05,
    ),
    "bbm-square-scalar": lambda name: ExperimentSpec(
        name, FormField.from_polynomials(2, 0, {(): {(1, 0): 1.0}}), _square(),
        SeminormConfig(p=2.0, samples=1000000, seed=7),
        tolerance=0.10,
    ),
    "bbm-square-x1dx2": lambda name: ExperimentSpec(
        name, _x1dx2(), _square(),
        SeminormConfig(p=2.0, samples=1000000, seed=11),
        tolerance=0.10,
    ),
}


def default_spec(name, samples=None, seed=None):
    """Built-in experiment specs by name; samples/seed override defaults."""
    if name not in _SPECS:
        raise ArgumentError(f"unknown experiment {name!r}")
    return _SPECS[name](name).override(samples, seed)


_SUITE_RUNNERS = {
    "stokes": run_stokes_suite,
    "dd-zero": run_dd_zero_suite,
    "variant-ordering": run_variant_ordering_check,
    "diagonal-vanishing": run_diagonal_vanishing_check,
    "mollifier": run_mollifier_suite,
}

SUITE_NAMES = tuple(_SUITE_RUNNERS)
EXPERIMENT_NAMES = tuple(sorted(_SPECS)) + tuple(sorted(SUITE_NAMES))


def run_experiment(name, samples=None, seed=None):
    """Run a named experiment or verification suite with optional
    sample-count and seed overrides."""
    if name in _SPECS:
        return run_bbm(default_spec(name, samples=samples, seed=seed))
    if name in _SUITE_RUNNERS:
        kwargs = {}
        if samples is not None:
            key = "count" if name in ("stokes", "dd-zero") else "samples"
            kwargs[key] = samples
        if seed is not None:
            kwargs["seed"] = seed
        return _SUITE_RUNNERS[name](**kwargs)
    raise ArgumentError(f"unknown experiment {name!r}")
