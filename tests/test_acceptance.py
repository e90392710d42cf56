"""Acceptance gate: one test per headline property, at full sample size.

Each test prints one PASS line with the measured quantity, its target, and
the error budget (statistical and systematic parts separately), so the
-rA / captured output reads as a report.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from formflux.alexander_spanier import IntegrationMultifunction
from formflux.domains import AxisBox
from formflux.exterior import sphere_norm
from formflux.experiments import (
    run_dd_zero_suite,
    run_experiment,
    run_mollifier_suite,
    run_stokes_suite,
    run_variant_ordering_check,
)
from formflux.forms import FormField, Polynomial, form_to_json
from formflux.seminorms import (
    DEFAULT_THETAS,
    SeminormConfig,
    bbm_constant,
    epsilon_theta,
    near_far_split,
    theta_sweep,
    uniform_bound_check,
)

UNIT_SQUARE = AxisBox([0.0, 0.0], [1.0, 1.0])
EXTENDED_THETAS = DEFAULT_THETAS + (0.9975, 0.99875)


def _report_line(label, measured, target, tolerance, stat, systematic):
    print(
        f"PASS {label}: measured {measured:.6g}, target {target:.6g}, "
        f"tolerance {tolerance:.3g}, statistical {stat:.3g}, "
        f"systematic {systematic:.3g}"
    )


def test_criterion_01_scalar_limit_is_half_pi():
    report = run_experiment("bbm-square-scalar")
    target = math.pi / 2
    assert report.target == pytest.approx(target, rel=1e-9)
    assert report.measured is not None
    assert abs(report.measured - target) <= 0.10 * target
    assert report.passed
    _report_line(
        "criterion 1 (scalar limit pi/2)",
        report.measured, target, 0.10 * target,
        report.stat_error, report.systematic,
    )


def test_criterion_02_form_limit_matches_sphere_norm_oracle():
    report = run_experiment("bbm-square-x1dx2")
    # oracle target: K(2,2)^2 ||dx1^dx2|_{S,2}|^2 over the unit square
    oracle = math.pi**2 / 8
    assert report.target == pytest.approx(oracle, rel=1e-9)
    assert report.measured is not None
    assert abs(report.measured - oracle) <= 0.10 * oracle
    assert report.passed
    _report_line(
        "criterion 2 (form limit, sphere-norm oracle)",
        report.measured, oracle, 0.10 * oracle,
        report.stat_error, report.systematic,
    )


def test_criterion_03_norm_equivalence_constants():
    cases = [
        ("dx1", FormField.constant_form(2, {(1,): 1.0}),
         math.sqrt(math.pi / 2)),
        ("dx1^dx2", FormField.constant_form(2, {(1, 2): 1.0}),
         math.sqrt(math.pi**2 / 8)),
        ("3dx1+4dx2", FormField.constant_form(2, {(1,): 3.0, (2,): 4.0}),
         math.sqrt(25 * math.pi / 2)),
    ]
    for name, omega, closed_form in cases:
        k = omega.degree
        per_point = sphere_norm(omega.evaluate(np.zeros(2)), 2.0)
        oracle = bbm_constant(2.0, k) * per_point.value
        assert oracle == pytest.approx(closed_form, rel=1e-9)
        sweep = theta_sweep(
            IntegrationMultifunction(omega),
            UNIT_SQUARE,
            SeminormConfig(p=2.0, samples=400000, seed=23),
            EXTENDED_THETAS,
        )
        value = sweep.extrapolated_value
        assert value is not None
        assert abs(value - oracle) <= 0.05 * oracle
        _report_line(
            f"criterion 3 (norm equivalence, {name})",
            value, oracle, 0.05 * oracle,
            3.0 * sweep.extrapolated_power_stderr, sweep.fit_residual,
        )


def test_criterion_04_nonconvex_cone_limit():
    report = run_experiment("bbm-annulus-cone")
    oracle = 3 * math.pi**3 / 32
    assert report.target == pytest.approx(oracle, rel=1e-9)
    assert report.measured is not None
    assert abs(report.measured - oracle) <= 0.15 * oracle
    assert report.passed
    _report_line(
        "criterion 4 (annulus cone limit)",
        report.measured, oracle, 0.15 * oracle,
        report.stat_error, report.systematic,
    )


def test_criterion_05_stokes_residuals_at_quadrature_precision():
    report = run_stokes_suite(count=1000, seed=5)
    assert report.passed
    assert report.measured < 1e-8
    _report_line(
        "criterion 5 (Stokes residuals, 1000 planar + 100 solid)",
        report.measured, 0.0, 1e-8, 0.0, 0.0,
    )


def test_criterion_06_double_differential_vanishes():
    report = run_dd_zero_suite(count=1000, seed=6)
    assert report.passed
    assert report.measured <= 1e-12
    _report_line(
        "criterion 6 (d(dF) = 0, 1000 cases)",
        report.measured, 0.0, 1e-12, 0.0, 0.0,
    )


def test_criterion_07_closed_rough_form_sweeps_to_zero():
    report = run_experiment("bbm-square-rough-closed")
    powers = np.array([row.power_value for row in report.rows])
    errors = np.array([row.power_stderr for row in report.rows])
    decreasing = all(
        powers[i + 1] <= powers[i] + 3.0 * (errors[i + 1] + errors[i])
        for i in range(len(powers) - 1)
    )
    assert decreasing
    assert report.measured is not None
    assert abs(report.measured) < 0.05
    assert report.passed
    _report_line(
        "criterion 7 (closed rough form limit)",
        report.measured, 0.0, 0.05,
        report.stat_error, report.systematic,
    )


def test_criterion_08_variant_ordering_and_diameter_identity():
    report = run_variant_ordering_check(samples=50000, seed=8)
    assert report.passed
    assert len(report.rows) == 9
    assert all("ok" in line for line in report.lines)
    print(
        "PASS criterion 8 (variant ordering + diameter identity): "
        "cone <= ball <= full at 3 thetas, full == ball(diameter) bitwise"
    )


def _random_polynomial_form(rng, degree):
    from itertools import combinations

    comps = {}
    for idx in combinations((1, 2), degree):
        terms = {}
        for _ in range(3):
            expo = tuple(int(e) for e in rng.integers(0, 3, 2))
            terms[expo] = float(rng.integers(-16, 17)) / 16.0
        comps[idx] = Polynomial(2, terms)
    return FormField(2, degree, comps, "polynomial")


def test_criterion_09_uniform_bound_for_random_forms():
    rng = np.random.default_rng(9)
    worst = -np.inf
    for case in range(20):
        omega = _random_polynomial_form(rng, degree=1 + case % 2)
        R = (0.35, 0.6, 1.0)[case % 3]
        theta = (0.9, 0.95, 0.99)[(case // 3) % 3]
        lhs, rhs = uniform_bound_check(
            omega, UNIT_SQUARE, R, theta,
            cfg=SeminormConfig(variant="ball", R=R, theta=theta,
                               samples=30000, seed=900 + case),
        )
        slack = 3.0 * (lhs.stderr + rhs.stderr)
        assert lhs.value <= rhs.value + slack
        if rhs.value > 0:
            worst = max(worst, (lhs.value - slack) / rhs.value)
    assert worst <= 1.0
    print(
        f"PASS criterion 9 (a-priori bound, 20 random forms): "
        f"worst lhs/rhs ratio after 3-sigma slack {worst:.4f} <= 1"
    )


def test_criterion_10_far_part_decays_and_epsilon_matches():
    F = IntegrationMultifunction(FormField.constant_form(2, {(1,): 1.0}))
    fars = []
    for j, theta in enumerate(DEFAULT_THETAS):
        cfg = SeminormConfig(p=2.0, variant="ball", R=1.0, theta=theta,
                             samples=200000, seed=10, stream=j)
        near, far = near_far_split(F, UNIT_SQUARE, cfg)
        fars.append(far)
    powers = [f.power_value for f in fars]
    errors = [f.power_stderr for f in fars]
    for i in range(len(powers) - 1):
        assert powers[i + 1] <= powers[i] + 3.0 * (errors[i + 1] + errors[i])
    eps = epsilon_theta(0.99)
    assert abs(eps - math.exp(-10.0)) <= 1e-18
    print(
        "PASS criterion 10 (far part decays along grid): powers "
        + " > ".join(f"{p:.5f}" for p in powers)
        + f"; epsilon(0.99) = {eps!r} matches exp(-10) within 1e-18"
    )


def test_criterion_11_mollifier_monotone_at_every_theta():
    report = run_mollifier_suite()
    assert report.passed
    assert len(report.rows) == 2 * len(DEFAULT_THETAS)
    assert all("ok" in line for line in report.lines)
    print(
        "PASS criterion 11 (mollifier monotonicity): lhs <= rhs within "
        "3 combined sigma at all default thetas"
    )


def test_criterion_12_cli_runs_are_byte_identical(tmp_path):
    form_path = tmp_path / "dx1.json"
    form_path.write_text(
        json.dumps(form_to_json(FormField.constant_form(2, {(1,): 1.0})))
    )
    domain_path = tmp_path / "square.json"
    domain_path.write_text(json.dumps(UNIT_SQUARE.to_json()))
    outputs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        proc = subprocess.run(
            [
                sys.executable, "-m", "formflux.cli", "sweep",
                "--form", str(form_path), "--domain", str(domain_path),
                "--k", "1", "--samples", "20000", "--seed", "3",
                "--out", str(out_dir),
            ],
            capture_output=True,
            check=True,
        )
        outputs.append(
            (
                proc.stdout,
                (out_dir / "sweep.csv").read_bytes(),
                (out_dir / "sweep.svg").read_bytes(),
            )
        )
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    assert outputs[0][2] == outputs[1][2]
    assert outputs[0][0].decode().startswith("variant,")
    print(
        "PASS criterion 12 (CLI determinism): stdout, CSV, and SVG "
        "byte-identical across repeated invocations"
    )
