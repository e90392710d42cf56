import json

import numpy as np
import pytest

from formflux.alexander_spanier import IntegrationMultifunction, UserMultifunction
from formflux.domains import Annulus, AxisBox
from formflux.errors import ArgumentError, UnsupportedOperationError
from formflux.experiments import (
    EXPERIMENT_NAMES,
    SUITE_NAMES,
    ExperimentReport,
    ExperimentSpec,
    dd_zero_residual,
    default_spec,
    run_bbm,
    run_dd_zero_suite,
    run_experiment,
    run_mollifier_suite,
    run_diagonal_vanishing_check,
    run_stokes_suite,
    run_variant_ordering_check,
)
from formflux.forms import FormField
from formflux.seminorms import SeminormConfig


def small_scalar_spec(samples=20000, seed=3):
    return ExperimentSpec(
        name="scalar-on-square",
        form=FormField.from_polynomials(2, 0, {(): {(1, 0): 1.0}}),
        domain=AxisBox([0.0, 0.0], [1.0, 1.0]),
        config=SeminormConfig(p=2.0, samples=samples, seed=seed),
    )


def test_spec_rejects_bad_tolerance():
    with pytest.raises(ArgumentError):
        ExperimentSpec(
            name="bad",
            form=FormField.from_polynomials(2, 0, {(): {(0, 0): 1.0}}),
            domain=AxisBox([0.0, 0.0], [1.0, 1.0]),
            config=SeminormConfig(),
            tolerance=0.0,
        )


def test_spec_rejects_empty_theta_grid():
    with pytest.raises(ArgumentError):
        ExperimentSpec(
            name="bad",
            form=FormField.from_polynomials(2, 0, {(): {(0, 0): 1.0}}),
            domain=AxisBox([0.0, 0.0], [1.0, 1.0]),
            config=SeminormConfig(),
            thetas=(),
        )


def test_spec_rejects_unknown_expectation_kind():
    with pytest.raises(ArgumentError):
        ExperimentSpec(
            name="bad",
            form=FormField.from_polynomials(2, 0, {(): {(0, 0): 1.0}}),
            domain=AxisBox([0.0, 0.0], [1.0, 1.0]),
            config=SeminormConfig(),
            expected_kind="hunch",
        )


def test_closed_form_expectation_needs_a_value():
    with pytest.raises(ArgumentError):
        ExperimentSpec(
            name="bad",
            form=FormField.from_polynomials(2, 0, {(): {(0, 0): 1.0}}),
            domain=AxisBox([0.0, 0.0], [1.0, 1.0]),
            config=SeminormConfig(),
            expected_kind="closed-form",
        )


def test_spec_json_round_trip_through_text():
    spec = default_spec("bbm-annulus-cone")
    back = ExperimentSpec.from_json(json.loads(json.dumps(spec.to_json())))
    assert back.name == spec.name
    assert back.config == spec.config
    assert back.thetas == spec.thetas
    assert back.tolerance == spec.tolerance
    pts = np.array([[0.3, 0.7], [0.6, 0.2], [-0.4, 0.1]])
    np.testing.assert_array_equal(
        back.form.coefficients_batch(pts), spec.form.coefficients_batch(pts)
    )


def test_spec_json_names_every_unknown_config_key():
    doc = default_spec("bbm-annulus-cone").to_json()
    doc["config"].update(shards=4, chunk=700, k=1)
    with pytest.raises(ArgumentError, match="unknown config keys: chunk, k, shards"):
        ExperimentSpec.from_json(doc)


def test_spec_json_keeps_form_support():
    spec = default_spec("bbm-annulus-full-qualitative")
    back = ExperimentSpec.from_json(json.loads(json.dumps(spec.to_json())))
    assert isinstance(back.form.support, Annulus)
    pts = np.array([[0.7, 0.0], [0.1, 0.1], [0.0, -0.8]])
    np.testing.assert_array_equal(
        back.form.coefficients_batch(pts), spec.form.coefficients_batch(pts)
    )


def test_rough_form_spec_does_not_serialize():
    spec = default_spec("bbm-square-rough-closed")
    with pytest.raises(UnsupportedOperationError):
        spec.to_json()


def test_nonconvex_quantitative_run_needs_cone_variant():
    spec = ExperimentSpec(
        name="bad-variant",
        form=FormField.from_polynomials(2, 1, {(2,): {(1, 0): 1.0}}),
        domain=Annulus([0.0, 0.0], 0.5, 1.0),
        config=SeminormConfig(variant="full"),
    )
    with pytest.raises(ArgumentError):
        run_bbm(spec)


def test_scalar_limit_experiment_passes_and_brackets_target():
    report = run_bbm(small_scalar_spec())
    assert report.passed
    assert report.target == pytest.approx(np.pi / 2, rel=1e-12)
    assert abs(report.measured - report.target) < 0.25
    assert len(report.rows) == 5
    assert "PASS" in report.summary()
    assert report.to_csv().count("\n") == 6


def test_qualitative_spec_never_fails_on_value():
    spec = ExperimentSpec(
        name="scalar-qualitative",
        form=FormField.from_polynomials(2, 0, {(): {(1, 0): 1.0}}),
        domain=AxisBox([0.0, 0.0], [1.0, 1.0]),
        config=SeminormConfig(p=2.0, samples=2000, seed=3),
        expected_kind="qualitative",
    )
    report = run_bbm(spec)
    assert report.passed
    assert report.target is None


def test_closed_rough_form_sweeps_to_exact_zero():
    report = run_experiment("bbm-square-rough-closed", samples=4000)
    assert report.passed
    assert report.measured == 0.0
    assert all(row.power_value == 0.0 for row in report.rows)


def test_stokes_suite_passes_and_reports_straddling_case():
    report = run_stokes_suite(count=60, seed=1)
    assert report.passed
    assert report.measured < 1e-8
    assert report.details["excluded_residual"] > 1e-3
    assert "excluded" in report.summary()


def test_dd_zero_suite_cancels_to_rounding():
    report = run_dd_zero_suite(count=60, seed=2)
    assert report.passed
    assert report.measured <= 1e-12


def test_dd_zero_residual_scale_is_positive():
    F = IntegrationMultifunction(
        FormField.from_polynomials(2, 1, {(2,): {(1, 0): 1.0}})
    )
    rng = np.random.default_rng(9)
    value, scale = dd_zero_residual(F, rng.normal(size=(4, 2)))
    assert scale > 0
    assert value <= 1e-12 * scale


def test_variant_ordering_check_passes():
    report = run_variant_ordering_check(samples=6000, seed=0)
    assert report.passed
    assert len(report.rows) == 9
    assert all("ok" in line for line in report.lines)


def test_diagonal_vanishing_multifunction_sweeps_down():
    report = run_diagonal_vanishing_check(samples=6000, seed=0)
    assert report.passed
    assert report.details["decreasing"]
    assert abs(report.measured) < 0.05


def test_mollifier_suite_small_run_passes():
    report = run_mollifier_suite(samples=500, seed=0, thetas=(0.9, 0.95))
    assert report.passed
    assert len(report.rows) == 4
    assert all("ok" in line for line in report.lines)


def test_run_experiment_rejects_unknown_name():
    with pytest.raises(ArgumentError):
        run_experiment("no-such-thing")


def test_default_spec_applies_overrides():
    spec = default_spec("bbm-square-scalar", samples=777, seed=42)
    assert spec.config.samples == 777
    assert spec.config.seed == 42
    base = default_spec("bbm-square-scalar")
    assert base.config.samples == 1000000
    assert base.override() is base
    assert base.override(seed=5).config == SeminormConfig(p=2.0, samples=1000000, seed=5)
    assert base.override(samples=10).config.seed == 7


def test_experiment_and_suite_names_keep_their_order():
    assert EXPERIMENT_NAMES == (
        "bbm-annulus-cone", "bbm-annulus-full-qualitative",
        "bbm-square-rough-closed", "bbm-square-scalar", "bbm-square-x1dx2",
        "dd-zero", "diagonal-vanishing", "mollifier", "stokes",
        "variant-ordering",
    )
    assert SUITE_NAMES == (
        "stokes", "dd-zero", "variant-ordering", "diagonal-vanishing",
        "mollifier",
    )


def test_experiment_names_cover_both_kinds():
    assert "bbm-square-scalar" in EXPERIMENT_NAMES
    assert "stokes" in EXPERIMENT_NAMES
    assert len(EXPERIMENT_NAMES) == len(set(EXPERIMENT_NAMES))


def test_repeated_runs_are_bit_identical():
    a = run_bbm(small_scalar_spec(samples=5000))
    b = run_bbm(small_scalar_spec(samples=5000))
    assert a.measured == b.measured
    assert [r.value for r in a.rows] == [r.value for r in b.rows]


def test_report_csv_empty_without_rows():
    report = ExperimentReport(
        name="x", passed=True, measured=None, target=None,
        tolerance=1.0, stat_error=0.0, systematic=0.0,
    )
    assert report.to_csv() == ""
