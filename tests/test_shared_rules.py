"""Rules that several entry points share, checked at each of them.

A seed is a numpy Generator or an integer >= 0; a sweep's theta grid is at
least three numbers in (0, 1), strictly increasing; a polynomial form holds
Polynomials and the other backends callables; a Stokes check reports a
vertex outside the support as uncontained; and the 3 sigma comparison
a <= b + 3 (sa + sb) sets a sweep's increasing and decreasing flags.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from formflux.alexander_spanier import IntegrationMultifunction, stokes_residual
from formflux.domains import Annulus, AxisBox, Ball, SetDifference
from formflux.errors import ArgumentError
from formflux.estimates import SeminormEstimate
from formflux.experiments import (
    ExperimentSpec,
    default_spec,
    run_bbm,
    run_dd_zero_suite,
    run_diagonal_vanishing_check,
    run_stokes_suite,
)
from formflux.forms import FormField, Polynomial, lp_norm
from formflux.seminorms import SeminormConfig, SweepResult, theta_sweep
from formflux.simplex import integrate_form, monte_carlo_rule, stratified_segment_rule

UNIT_BOX = AxisBox([0.0, 0.0], [1.0, 1.0])
DISC = Ball([0.0, 0.0], 1.0)
DX1 = FormField.constant_form(2, {(1,): 1.0})

SEEDED = {
    "box sampler": lambda seed: UNIT_BOX.sample_uniform(3, seed=seed),
    "rejection sampler": lambda seed: DISC.sample_uniform(3, seed=seed),
    "lp_norm": lambda seed: lp_norm(DX1, UNIT_BOX, 2.0, samples=4, seed=seed),
    "monte_carlo_rule": lambda seed: monte_carlo_rule(2, samples=4, seed=seed),
    "stratified_segment_rule": lambda seed: stratified_segment_rule(4, seed=seed),
    "stokes suite": lambda seed: run_stokes_suite(count=1, seed=seed),
    "dd-zero suite": lambda seed: run_dd_zero_suite(count=1, seed=seed),
}


@pytest.mark.parametrize("entry", sorted(SEEDED))
def test_every_entry_point_refuses_a_seed_that_is_not_a_count(entry):
    for seed in (-1, 1.5, True):
        with pytest.raises(ArgumentError, match="seed"):
            SEEDED[entry](seed)
    SEEDED[entry](2)


@pytest.mark.parametrize("domain", [UNIT_BOX, DISC], ids=["box", "disc"])
def test_samplers_take_a_generator_as_it_is(domain):
    rng = np.random.default_rng(np.random.SeedSequence(5))
    drawn = domain.sample_uniform(6, seed=rng)
    assert np.array_equal(drawn, domain.sample_uniform(6, seed=5))
    with pytest.raises(ArgumentError, match="seed"):
        domain.sample_uniform(3, seed=-2)


def _spec_json(thetas):
    doc = default_spec("bbm-square-scalar", samples=1000).to_json()
    doc["thetas"] = list(thetas)
    return doc


SWEEP_ENTRIES = {
    "theta_sweep": lambda thetas: theta_sweep(
        IntegrationMultifunction(DX1), UNIT_BOX, SeminormConfig(samples=100), thetas),
    "ExperimentSpec": lambda thetas: replace(default_spec("bbm-square-scalar"),
                                             thetas=tuple(thetas)),
    "ExperimentSpec.from_json": lambda thetas: ExperimentSpec.from_json(
        _spec_json(thetas)),
}


@pytest.mark.parametrize("entry", sorted(SWEEP_ENTRIES))
def test_every_sweep_entry_point_checks_its_grid_alike(entry):
    build = SWEEP_ENTRIES[entry]
    for thetas in (("0.9", "0.95", "0.99"), (0.9, None, 0.99), (True, 0.95, 0.99)):
        with pytest.raises(ArgumentError, match="thetas must be numbers"):
            build(thetas)
    for thetas in ((0.9, 0.95), (0.9,), (), (0.99, 0.95, 0.9), (0.9, 0.9, 0.95),
                   (0.5, 0.9, 1.0)):
        with pytest.raises(ArgumentError, match="at least 3 thetas in \\(0, 1\\)"):
            build(thetas)


def test_a_polynomial_backend_holds_polynomials_of_its_dimension_only():
    with pytest.raises(ArgumentError, match="Polynomials in 2 variables"):
        FormField(2, 1, {(1,): lambda p: p[:, 0]}, "polynomial")
    with pytest.raises(ArgumentError, match="Polynomials in 2 variables"):
        FormField(2, 1, {(1,): Polynomial(3, {(1, 0, 0): 1.0})}, "polynomial")
    with pytest.raises(ArgumentError, match="Polynomials in 2 variables"):
        FormField.from_polynomials(2, 1, {(1,): Polynomial(3, {(1, 0, 0): 1.0})})
    for backend in ("analytic", "rough"):
        with pytest.raises(ArgumentError, match="the other backends callables"):
            FormField(2, 1, {(1,): Polynomial(2, {(1, 0): 1.0})}, backend)


def test_an_empty_constant_form_is_an_argument_error():
    with pytest.raises(ArgumentError, match="at least one coefficient"):
        FormField.constant_form(2, {})


X1DX2 = FormField.from_polynomials(2, 1, {(2,): {(1, 0): 1.0}})


@pytest.mark.parametrize("support", [
    Annulus([0.0, 0.0], 0.5, 1.0),
    SetDifference(UNIT_BOX, Ball([0.5, 0.5], 0.2)),
], ids=["annulus", "box minus disc"])
def test_a_vertex_outside_the_support_is_not_contained(support):
    """The first triangle reaches past the annulus's outer circle and the
    box's right side; the annulus's Stokes residual is 0.356 there."""
    omega = X1DX2.with_support(support)
    res = stokes_residual(omega, [[0.7, 0.0], [1.5, 0.0], [0.7, 0.3]])
    assert res.containment is False
    assert res.residual > 1e-3
    inside = stokes_residual(omega, [[0.75, 0.05], [0.9, 0.05], [0.75, 0.2]])
    assert inside.containment in (True, None)
    assert inside.residual < 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_top_degree_forms_have_a_stokes_residual(n):
    """d of an n-form in R^n is the zero (n+1)-form, so I_{d omega} is 0.0
    and dI_omega cancels to rounding."""
    rng = np.random.default_rng(n)
    top = tuple(range(1, n + 1))
    for _ in range(3):
        omega = FormField.from_polynomials(
            n, n, {top: {tuple(rng.integers(0, 3, n)): float(rng.normal())}})
        points = rng.uniform(-1.0, 1.0, size=(n + 2, n))
        res = stokes_residual(omega, points)
        assert res.rhs == 0.0
        assert res.residual < 1e-12
        assert res.containment is True
    zero = omega.exterior_derivative()
    assert integrate_form(zero, points) == 0.0
    with pytest.raises(ArgumentError):
        integrate_form(zero, points[:-1])


def _sweep(powers, errors):
    estimates = tuple(
        SeminormEstimate(value=np.sqrt(p), stderr=0.0, power_value=p,
                         power_stderr=e, samples=100, acceptance_ratio=1.0)
        for p, e in zip(powers, errors))
    return SweepResult(thetas=(0.9, 0.95, 0.975, 0.99)[:len(powers)],
                       estimates=estimates, p=2.0, extrapolated_power=None,
                       extrapolated_power_stderr=None, fit_residual=None,
                       divergent=True, diagnostics={"fit_window": 4})


def test_sweep_flags_read_the_3_sigma_rule():
    wiggle = _sweep([1.0, 0.95, 1.05, 1.0], [0.02] * 4)
    assert not np.all(np.diff(wiggle.powers) >= 0)
    assert not np.all(np.diff(wiggle.powers) <= 0)
    assert wiggle.diagnostics == {"fit_window": 4, "increasing": True,
                                  "decreasing": True, "heavy_tail": False}
    rising = _sweep([1.0, 2.0, 3.0], [0.01, 0.01, 2.0])
    assert rising.diagnostics["increasing"] is True
    assert rising.diagnostics["decreasing"] is False
    assert rising.diagnostics["heavy_tail"] is True
    # 1.75 <= 1.0 + 3 (0.125 + 0.125) holds with equality; 1.875 does not
    assert _sweep([1.0, 1.75], [0.125] * 2).diagnostics["decreasing"] is True
    assert _sweep([1.0, 1.875], [0.125] * 2).diagnostics["decreasing"] is False


PER_THETA = re.compile(r"theta=[0-9.]+: power = \S+ \+- \S+$")


def test_every_sweep_report_writes_the_same_per_theta_lines():
    spec = default_spec("bbm-square-scalar", samples=2000)
    bbm = run_bbm(spec)
    diagonal = run_diagonal_vanishing_check(samples=2000)
    for report, count in ((bbm, len(spec.thetas)), (diagonal, 5)):
        assert all(PER_THETA.match(line) for line in report.lines[:count])
        assert report.lines[count].startswith(("extrapolated power = ", "DIVERGENT"))
