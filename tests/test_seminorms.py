import math
from dataclasses import replace

import numpy as np
import pytest

from formflux.alexander_spanier import (
    CoboundaryMultifunction,
    IntegrationMultifunction,
    UserMultifunction,
)
from formflux.domains import AxisBox, Ball
from formflux.errors import ArgumentError, InefficiencyError
from formflux.forms import FormField
from formflux.seminorms import (
    DEFAULT_THETAS,
    SeminormConfig,
    _detect_divergence,
    bbm_constant,
    csv_header,
    csv_row,
    epsilon_theta,
    estimates_to_csv,
    fixed_theta_seminorm,
    near_far_split,
    theta_sweep,
    uniform_bound_check,
)

UNIT_SQUARE = AxisBox([0.0, 0.0], [1.0, 1.0])


def form_dx1():
    return FormField.constant_form(2, {(1,): 1.0})


def scalar_x1():
    return FormField.from_polynomials(2, 0, {(): {(1, 0): 1.0}})


def square_exit_time(X, Y, cos_phi, sin_phi):
    """Distance from (X, Y) inside the unit square to the boundary along
    direction (cos_phi, sin_phi); shapes broadcast."""
    with np.errstate(divide="ignore"):
        tx = np.where(
            cos_phi > 0,
            (1.0 - X) / cos_phi,
            np.where(cos_phi < 0, -X / cos_phi, np.inf),
        )
        ty = np.where(
            sin_phi > 0,
            (1.0 - Y) / sin_phi,
            np.where(sin_phi < 0, -Y / sin_phi, np.inf),
        )
    return np.minimum(tx, ty)


def scalar_full_variant_oracle(theta, nodes=48, angles=720):
    """Deterministic quadrature of the squared full-variant seminorm of
    dI_f, f(x) = x_1, on the unit square:
    (1/2) int_square int_{S^1} cos(phi)^2 t(x, phi)^{2(1-theta)}."""
    gx, gw = np.polynomial.legendre.leggauss(nodes)
    x = 0.5 * (gx + 1.0)
    wx = 0.5 * gw
    X, Y = np.meshgrid(x, x, indexing="ij")
    W = np.outer(wx, wx)
    phi = (np.arange(angles) + 0.5) * (2.0 * np.pi / angles)
    total = 0.0
    for c, s in zip(np.cos(phi), np.sin(phi)):
        t = square_exit_time(X, Y, c, s)
        total += c * c * float(np.sum(W * t ** (2.0 * (1.0 - theta))))
    return 0.5 * total * (2.0 * np.pi / angles)


def test_k0_seminorm_is_plain_lp_norm():
    f = FormField.constant_form(2, {(): 1.0})
    F = IntegrationMultifunction(f)
    cfg = SeminormConfig(p=2.0, theta=0.9, samples=2000, seed=1)
    est = fixed_theta_seminorm(F, UNIT_SQUARE, cfg)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.acceptance_ratio == 1.0


def test_zero_multifunction_gives_exact_zero():
    F = UserMultifunction(2, 1, lambda p: 0.0,
                          batch_func=lambda t: np.zeros(len(t)))
    cfg = SeminormConfig(p=2.0, theta=0.95, samples=3000, seed=3)
    est = fixed_theta_seminorm(F, UNIT_SQUARE, cfg)
    assert est.value == 0.0
    assert est.stderr == 0.0
    assert est.power_value == 0.0


def test_scalar_case_matches_quadrature_oracle_at_theta_099():
    theta = 0.99
    F = CoboundaryMultifunction(scalar_x1())
    cfg = SeminormConfig(p=2.0, theta=theta, samples=80000, seed=11)
    est = fixed_theta_seminorm(F, UNIT_SQUARE, cfg)
    oracle = scalar_full_variant_oracle(theta)
    tol = 3.0 * est.power_stderr + 0.05 * oracle
    assert abs(est.power_value - oracle) <= tol


def test_scalar_sweep_extrapolates_to_half_pi():
    F = CoboundaryMultifunction(scalar_x1())
    cfg = SeminormConfig(p=2.0, samples=60000, seed=5)
    result = theta_sweep(F, UNIT_SQUARE, cfg)
    assert not result.divergent
    assert result.extrapolated_power == pytest.approx(math.pi / 2.0, rel=0.10)
    assert result.extrapolated_value == pytest.approx(
        math.sqrt(math.pi / 2.0), rel=0.06
    )


def test_sweep_of_zero_is_zero():
    F = UserMultifunction(2, 1, lambda p: 0.0,
                          batch_func=lambda t: np.zeros(len(t)))
    cfg = SeminormConfig(p=2.0, samples=900, seed=2)
    result = theta_sweep(F, UNIT_SQUARE, cfg, thetas=(0.9, 0.95, 0.99))
    assert result.extrapolated_power == 0.0
    assert result.extrapolated_value == 0.0
    assert not result.divergent


def test_sweep_needs_three_increasing_thetas():
    F = UserMultifunction(2, 1, lambda p: 0.0)
    cfg = SeminormConfig(samples=100, seed=0)
    with pytest.raises(ArgumentError):
        theta_sweep(F, UNIT_SQUARE, cfg, thetas=(0.9, 0.95))
    with pytest.raises(ArgumentError):
        theta_sweep(F, UNIT_SQUARE, cfg, thetas=(0.9, 0.95, 0.93))
    with pytest.raises(ArgumentError):
        theta_sweep(F, UNIT_SQUARE, cfg, thetas=(0.9, 0.95, 1.0))


def test_divergence_detector_flags_superlinear_growth():
    thetas = (0.9, 0.95, 0.975, 0.99, 0.995)
    g = 1.0 / (1.0 - np.asarray(thetas))
    powers = g**1.5
    errors = 0.01 * powers
    assert _detect_divergence(thetas, powers, errors)
    linear = 2.0 + 0.0 * g
    assert not _detect_divergence(thetas, linear, 0.01 * (1 + linear))
    decreasing = powers[::-1]
    assert not _detect_divergence(thetas, decreasing, errors)


def test_sweep_withholds_extrapolation_when_divergent():
    calls = {"i": 0}
    growth = [1.0, 2.0, 5.0, 20.0, 100.0]

    def batch(tuples):
        return np.full(len(tuples), growth[calls["i"]])

    class Growing(UserMultifunction):
        def evaluate_scaled_batch(self, x0, vs, rs):
            return np.full(len(x0), growth[calls["i"]])

    F = Growing(2, 1, lambda p: 0.0, batch_func=batch)
    cfg = SeminormConfig(p=2.0, samples=400, seed=0)

    def run(theta, j):
        calls["i"] = j
        return fixed_theta_seminorm(F, UNIT_SQUARE, replace(cfg, theta=theta, stream=j))

    # emulate the sweep by hand so each theta sees a growing plateau
    import formflux.seminorms as sn

    estimates = [run(t, j) for j, t in enumerate(DEFAULT_THETAS)]
    powers = np.array([e.power_value for e in estimates])
    errors = np.array([e.power_stderr for e in estimates])
    assert sn._detect_divergence(DEFAULT_THETAS, powers, errors)


def test_bbm_constant_frozen_values():
    assert bbm_constant(2.0, 0) == 1.0
    assert bbm_constant(2.0, 1) == pytest.approx(2.0 ** -0.5, abs=1e-15)
    assert bbm_constant(2.0, 2) == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(ArgumentError):
        bbm_constant(0.5, 1)
    with pytest.raises(ArgumentError):
        bbm_constant(2.0, -1)


def test_epsilon_theta_value_at_099():
    assert abs(epsilon_theta(0.99) - math.exp(-10.0)) <= 1e-18
    with pytest.raises(ArgumentError):
        epsilon_theta(1.0)


def test_full_variant_equals_ball_at_diameter():
    F = IntegrationMultifunction(form_dx1())
    full_cfg = SeminormConfig(p=2.0, theta=0.95, samples=4000, seed=17)
    ball_cfg = SeminormConfig(
        p=2.0,
        theta=0.95,
        samples=4000,
        seed=17,
        variant="ball",
        R=UNIT_SQUARE.diameter(),
    )
    a = fixed_theta_seminorm(F, UNIT_SQUARE, full_cfg)
    b = fixed_theta_seminorm(F, UNIT_SQUARE, ball_cfg)
    assert a.value == b.value
    assert a.power_value == b.power_value
    assert a.acceptance_ratio == b.acceptance_ratio


def test_variant_ordering_on_shared_seed():
    F = IntegrationMultifunction(form_dx1())
    common = dict(p=2.0, theta=0.95, samples=20000, seed=23)
    full = fixed_theta_seminorm(F, UNIT_SQUARE, SeminormConfig(**common))
    ball = fixed_theta_seminorm(
        F, UNIT_SQUARE, SeminormConfig(variant="ball", R=0.5, **common)
    )
    cone = fixed_theta_seminorm(
        F,
        UNIT_SQUARE,
        SeminormConfig(variant="ball-cone", R=0.5, c=0.5, **common),
    )
    assert cone.value <= ball.value + 3 * (cone.stderr + ball.stderr)
    assert ball.value <= full.value + 3 * (ball.stderr + full.stderr)


def test_homogeneity_power_of_two_is_exact():
    F = IntegrationMultifunction(form_dx1())
    cfg = SeminormConfig(p=2.0, theta=0.9, samples=3000, seed=29)
    one = fixed_theta_seminorm(F, UNIT_SQUARE, cfg)
    two = fixed_theta_seminorm(2.0 * F, UNIT_SQUARE, cfg)
    assert two.value == 2.0 * one.value
    assert two.power_value == 4.0 * one.power_value


def test_triangle_inequality_within_error():
    omega1 = form_dx1()
    omega2 = FormField.constant_form(2, {(2,): 1.0})
    F = IntegrationMultifunction(omega1)
    G = IntegrationMultifunction(omega2)
    cfg = SeminormConfig(p=2.0, theta=0.9, samples=20000, seed=31)
    both = fixed_theta_seminorm(F + G, UNIT_SQUARE, cfg)
    a = fixed_theta_seminorm(F, UNIT_SQUARE, cfg)
    b = fixed_theta_seminorm(G, UNIT_SQUARE, cfg)
    slack = 3 * (both.stderr + a.stderr + b.stderr)
    assert both.value <= a.value + b.value + slack


def test_determinism_for_fixed_config():
    F = IntegrationMultifunction(form_dx1())
    cfg = SeminormConfig(p=2.0, theta=0.95, samples=5000, seed=37)
    a = fixed_theta_seminorm(F, UNIT_SQUARE, cfg)
    b = fixed_theta_seminorm(F, UNIT_SQUARE, cfg)
    assert a.value == b.value
    assert a.stderr == b.stderr
    assert csv_row(a) == csv_row(b)


def test_near_far_split_sums_to_ball_estimate():
    F = IntegrationMultifunction(form_dx1())
    cfg = SeminormConfig(
        p=2.0, theta=0.95, samples=8000, seed=41, variant="ball", R=1.0
    )
    near, far = near_far_split(F, UNIT_SQUARE, cfg)
    total = fixed_theta_seminorm(F, UNIT_SQUARE, cfg)
    combined = near.power_value + far.power_value
    assert combined == pytest.approx(total.power_value, rel=1e-12)
    assert near.config["part"] == "near"
    assert far.config["split_radius"] == pytest.approx(
        epsilon_theta(0.95), rel=1e-15
    )


def test_near_far_split_of_zero():
    F = UserMultifunction(2, 1, lambda p: 0.0,
                          batch_func=lambda t: np.zeros(len(t)))
    cfg = SeminormConfig(
        p=2.0, theta=0.9, samples=500, seed=1, variant="ball", R=1.0
    )
    near, far = near_far_split(F, UNIT_SQUARE, cfg)
    assert near.value == 0.0
    assert far.value == 0.0


def test_near_far_split_requires_ball_variant():
    F = IntegrationMultifunction(form_dx1())
    with pytest.raises(ArgumentError):
        near_far_split(F, UNIT_SQUARE, SeminormConfig(samples=100))


def test_far_part_decreases_along_theta_grid():
    F = IntegrationMultifunction(form_dx1())
    fars = []
    for j, theta in enumerate((0.9, 0.975, 0.995)):
        cfg = SeminormConfig(
            p=2.0,
            theta=theta,
            samples=30000,
            seed=43,
            variant="ball",
            R=1.0,
            stream=j,
        )
        _, far = near_far_split(F, UNIT_SQUARE, cfg)
        fars.append(far)
    values = [f.power_value for f in fars]
    errors = [f.power_stderr for f in fars]
    assert values[1] <= values[0] + 3 * (errors[1] + errors[0])
    assert values[2] <= values[1] + 3 * (errors[2] + errors[1])
    assert values[2] < values[0]


def test_inefficiency_error_on_hopeless_indicator():
    F = IntegrationMultifunction(form_dx1())
    cfg = SeminormConfig(
        p=2.0, theta=0.5, samples=4000, seed=7, variant="ball", R=1e5
    )
    with pytest.raises(InefficiencyError) as info:
        fixed_theta_seminorm(F, UNIT_SQUARE, cfg)
    assert info.value.acceptance_ratio < 1e-4


def test_rejected_tuples_are_never_evaluated():
    """A tuple with a point outside the domain weighs 0 and is not handed to
    F.  This F's value outside is so large that |g|^p overflows to inf, and
    inf * 0 would make the estimate NaN."""
    outside_seen = []

    def batch(t):
        inside = UNIT_SQUARE.contains_batch(t.reshape(-1, 2)).reshape(len(t), -1)
        outside_seen.append(int(np.count_nonzero(~inside.all(axis=1))))
        return np.where(inside.all(axis=1), t[:, 1, 0] - t[:, 0, 0], 1e300)

    F = UserMultifunction(2, 1, None, batch)
    cfg = SeminormConfig(p=2.0, theta=0.9, samples=2000, seed=1, variant="full")
    est = fixed_theta_seminorm(F, UNIT_SQUARE, cfg)
    assert est.acceptance_ratio < 0.9
    assert sum(outside_seen) == 0
    assert math.isfinite(est.value) and math.isfinite(est.stderr)


def test_non_finite_values_fail_the_estimate():
    """F is inf on every tuple whose x0 has x0_1 < 0.25 (369 accepted ones):
    the estimate fails instead of counting them as 0."""
    def batch(t):
        return np.where(t[:, 0, 0] < 0.25, np.inf, t[:, 1, 0] - t[:, 0, 0])

    F = UserMultifunction(2, 1, None, batch)
    cfg = SeminormConfig(p=2.0, theta=0.9, samples=2000, seed=1, variant="full")
    with pytest.raises(FloatingPointError,
                       match="^369 of 2000 weights are not finite at theta=0.9$"):
        fixed_theta_seminorm(F, UNIT_SQUARE, cfg)


def test_overflowing_power_fails_the_estimate():
    class Huge(UserMultifunction):
        def evaluate_scaled_batch(self, x0, vs, rs):
            return np.full(len(x0), 1e200)  # finite, but |g|^2 is not

    F = Huge(2, 1, None)
    cfg = SeminormConfig(p=2.0, theta=0.9, samples=200, seed=1, variant="full")
    with pytest.raises(FloatingPointError, match="weights are not finite"):
        with np.errstate(over="ignore"):
            fixed_theta_seminorm(F, UNIT_SQUARE, cfg)


def test_config_validation():
    with pytest.raises(ArgumentError):
        SeminormConfig(p=0.5)
    with pytest.raises(ArgumentError):
        SeminormConfig(theta=1.0)
    with pytest.raises(ArgumentError):
        SeminormConfig(samples=1)
    with pytest.raises(ArgumentError):
        SeminormConfig(variant="sphere")
    with pytest.raises(ArgumentError):
        SeminormConfig(variant="ball")
    with pytest.raises(ArgumentError):
        SeminormConfig(variant="cone")
    with pytest.raises(ArgumentError):
        SeminormConfig(variant="ball-cone", R=1.0)


@pytest.mark.parametrize("samples", [2, 3])
def test_fewer_samples_than_streams_estimate(samples):
    """Streams left without a tuple are skipped."""
    F = IntegrationMultifunction(form_dx1())
    est = fixed_theta_seminorm(F, UNIT_SQUARE, SeminormConfig(samples=samples))
    assert est.samples == samples
    assert math.isfinite(est.value) and math.isfinite(est.stderr)


def test_dimension_mismatch_raises():
    F = IntegrationMultifunction(form_dx1())
    ball3 = Ball(np.zeros(3), 1.0)
    with pytest.raises(ArgumentError):
        fixed_theta_seminorm(F, ball3, SeminormConfig(samples=100))


def test_uniform_bound_holds_for_constant_form():
    lhs, rhs = uniform_bound_check(
        form_dx1(),
        UNIT_SQUARE,
        R=UNIT_SQUARE.diameter(),
        theta=0.9,
        cfg=SeminormConfig(
            variant="ball", R=UNIT_SQUARE.diameter(), theta=0.9,
            samples=20000, seed=3,
        ),
    )
    sigma = 3.0 * (lhs.stderr + rhs.stderr)
    assert lhs.value <= rhs.value + sigma
    assert lhs.value > 0


def test_uniform_bound_zero_form():
    zero = FormField.from_polynomials(2, 1, {})
    lhs, rhs = uniform_bound_check(
        zero, UNIT_SQUARE, R=1.0, theta=0.9,
        cfg=SeminormConfig(variant="ball", R=1.0, theta=0.9, samples=500),
    )
    assert lhs.value == 0.0
    assert rhs.value == 0.0


def test_uniform_bound_rhs_grows_with_R():
    _, rhs1 = uniform_bound_check(
        form_dx1(), UNIT_SQUARE, R=1.0, theta=0.9,
        cfg=SeminormConfig(variant="ball", R=1.0, theta=0.9, samples=2000),
    )
    _, rhs2 = uniform_bound_check(
        form_dx1(), UNIT_SQUARE, R=2.0, theta=0.9,
        cfg=SeminormConfig(variant="ball", R=2.0, theta=0.9, samples=2000),
    )
    assert rhs2.value > rhs1.value


def test_csv_round_trip_and_header():
    F = IntegrationMultifunction(form_dx1())
    cfg = SeminormConfig(
        p=2.0, theta=0.95, samples=2000, seed=13, variant="ball", R=0.75
    )
    est = fixed_theta_seminorm(F, UNIT_SQUARE, cfg)
    text = estimates_to_csv([est])
    lines = text.strip().split("\n")
    assert lines[0] == csv_header()
    cells = lines[1].split(",")
    assert cells[0] == "ball"
    assert float(cells[4]) == 0.75
    assert float(cells[8]) == est.value
    assert float(cells[9]) == est.stderr
    assert cells[5] == ""


def test_high_theta_stays_finite():
    F = CoboundaryMultifunction(form_dx1())
    cfg = SeminormConfig(p=2.0, theta=0.9999, samples=3000, seed=19)
    est = fixed_theta_seminorm(F, UNIT_SQUARE, cfg)
    assert np.isfinite(est.value)
    assert np.isfinite(est.stderr)
