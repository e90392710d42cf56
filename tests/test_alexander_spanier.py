from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formflux.alexander_spanier import (
    CoboundaryMultifunction,
    DifferentialMultifunction,
    IntegrationMultifunction,
    UserMultifunction,
    stokes_residual,
)
from formflux.domains import Annulus, Ball, SlitBox
from formflux.errors import ArgumentError
from formflux.experiments import _points_in_unit_ball, _random_form, dd_zero_residual
from formflux.forms import FormField, Polynomial
from formflux.simplex import default_rule, monte_carlo_rule


def poly_form(dimension, degree, entries):
    return FormField.from_polynomials(dimension, degree, entries)


def random_dyadic_polynomial(rng, dimension, max_degree=2):
    coeffs = {}
    for _ in range(4):
        expo = tuple(int(e) for e in rng.integers(0, max_degree + 1, dimension))
        coeffs[expo] = float(rng.integers(-16, 17)) / 16.0
    return Polynomial(dimension, coeffs)


def test_segment_integral_of_dx1_is_length():
    omega = poly_form(2, 1, {(1,): {(0, 0): 1.0}})
    F = IntegrationMultifunction(omega)
    assert F(np.array([[0.0, 0.0], [1.0, 0.0]])) == pytest.approx(1.0, abs=1e-14)


def test_degree_zero_integration_is_evaluation():
    f = poly_form(2, 0, {(): {(2, 1): 3.0}})
    F = IntegrationMultifunction(f)
    x = np.array([[0.5, 2.0]])
    assert F(x) == pytest.approx(3.0 * 0.25 * 2.0, abs=1e-15)


def test_vertical_segment_kills_dx2_coefficient_x1():
    omega = poly_form(2, 1, {(2,): {(1, 0): 1.0}})
    F = IntegrationMultifunction(omega)
    val = F(np.array([[0.0, 0.0], [0.0, 1.0]]))
    assert val == pytest.approx(0.0, abs=1e-15)


def test_segment_antisymmetry_under_swap():
    rng = np.random.default_rng(7)
    omega = poly_form(
        2, 1, {(1,): {(1, 1): 0.5}, (2,): {(2, 0): -0.75}}
    )
    F = IntegrationMultifunction(omega)
    for _ in range(10):
        a, b = rng.normal(size=(2, 2))
        assert F(np.array([a, b])) == pytest.approx(
            -F(np.array([b, a])), abs=1e-13
        )


def test_differential_of_point_evaluation():
    f = poly_form(2, 0, {(): {(1, 0): 1.0, (0, 2): 2.0}})
    dF = CoboundaryMultifunction(f)
    x = np.array([0.1, 0.2])
    y = np.array([0.7, -0.4])
    expected = (0.7 + 2 * 0.16) - (0.1 + 2 * 0.04)
    assert dF(np.array([x, y])) == pytest.approx(expected, abs=1e-14)


def test_coboundary_of_x1_dx2_on_unit_triangle():
    omega = poly_form(2, 1, {(2,): {(1, 0): 1.0}})
    dF = CoboundaryMultifunction(omega)
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert dF(tri) == pytest.approx(0.5, abs=1e-13)
    assert dF.arity == 3


def test_double_differential_vanishes_exactly():
    rng = np.random.default_rng(11)

    def func(points):
        return float(np.sin(points[0] @ points[-1]) + np.prod(points[:, 0]))

    for degree in (0, 1, 2):
        F = UserMultifunction(3, degree, func)
        ddF = DifferentialMultifunction(DifferentialMultifunction(F))
        for _ in range(34):
            pts = rng.normal(size=(ddF.arity, 3))
            scale = sum(abs(func(np.delete(np.delete(pts, i, 0), j, 0)))
                        for i in range(len(pts)) for j in range(len(pts) - 1))
            assert abs(ddF(pts)) <= 1e-14 * (1.0 + scale)


def test_double_differential_of_integration_vanishes():
    rng = np.random.default_rng(13)
    omega = poly_form(2, 1, {(1,): {(0, 1): 1.0}, (2,): {(2, 0): 0.5}})
    ddF = DifferentialMultifunction(CoboundaryMultifunction(omega))
    for _ in range(25):
        pts = rng.normal(size=(4, 2))
        assert ddF(pts) == pytest.approx(0.0, abs=1e-13)


def test_differential_is_linear():
    rng = np.random.default_rng(5)
    F = UserMultifunction(2, 1, lambda p: float(p[0] @ p[1]))
    G = UserMultifunction(2, 1, lambda p: float(np.cos(p[0, 0] - p[1, 1])))
    lhs = DifferentialMultifunction(2.5 * F - 0.75 * G)
    dF, dG = DifferentialMultifunction(F), DifferentialMultifunction(G)
    for _ in range(10):
        pts = rng.normal(size=(3, 2))
        want = 2.5 * dF(pts) - 0.75 * dG(pts)
        assert lhs(pts) == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_combination_requires_matching_shape():
    F = UserMultifunction(2, 1, lambda p: 0.0)
    G = UserMultifunction(2, 2, lambda p: 0.0)
    with pytest.raises(ArgumentError):
        _ = F + G


def test_evaluate_rejects_wrong_shape():
    F = UserMultifunction(2, 1, lambda p: 0.0)
    with pytest.raises(ArgumentError):
        F(np.zeros((3, 2)))
    with pytest.raises(ArgumentError):
        F(np.zeros((2, 3)))


def test_multifunction_shape_is_read_as_integers():
    for dimension, degree, name in ((2.7, 1, "dimension"), (2, 1.2, "degree")):
        with pytest.raises(ArgumentError, match=f"multifunction {name} must be "
                                                f"an integer"):
            UserMultifunction(dimension, degree, lambda p: 0.0)
    F = UserMultifunction(2.0, 1.0, lambda p: 0.0)
    assert (F.dimension, F.degree) == (2, 1)
    assert type(F.dimension) is int and type(F.degree) is int


def test_rule_order_must_match_form_degree():
    omega = poly_form(2, 1, {(2,): {(1, 0): 1.0}})
    with pytest.raises(ArgumentError):
        IntegrationMultifunction(omega, rule=default_rule(2))


def test_scaled_integration_matches_plain_quotient():
    rng = np.random.default_rng(3)
    omega = poly_form(
        3, 2, {(1, 2): {(1, 0, 1): 1.0}, (1, 3): {(0, 2, 0): -0.5}}
    )
    F = IntegrationMultifunction(omega)
    N = 40
    x0 = rng.uniform(-1, 1, size=(N, 3))
    vs = rng.normal(size=(N, 2, 3))
    vs /= np.linalg.norm(vs, axis=2, keepdims=True)
    rs = rng.uniform(0.05, 0.3, size=(N, 2))
    scaled = F.evaluate_scaled_batch(x0, vs, rs)
    tuples = np.concatenate(
        [x0[:, None, :], x0[:, None, :] + rs[..., None] * vs], axis=1
    )
    plain = F.evaluate_batch(tuples) / np.prod(rs, axis=1)
    assert np.allclose(scaled, plain, rtol=1e-10, atol=1e-12)


def test_scaled_integration_finite_at_tiny_radii():
    omega = poly_form(2, 1, {(2,): {(1, 0): 1.0}})
    F = IntegrationMultifunction(omega)
    x0 = np.array([[0.25, 0.5]])
    vs = np.array([[[0.0, 1.0]]])
    rs = np.array([[1e-300]])
    val = F.evaluate_scaled_batch(x0, vs, rs)
    assert val[0] == pytest.approx(0.25, abs=1e-12)
    assert F.evaluate_scaled_batch(x0, vs, np.array([[0.0]]))[0] == pytest.approx(
        0.25, abs=1e-12
    )


def test_coboundary_stokes_route_matches_face_sums():
    rng = np.random.default_rng(23)
    omega = FormField.from_polynomials(
        2,
        1,
        {
            (1,): random_dyadic_polynomial(rng, 2),
            (2,): random_dyadic_polynomial(rng, 2),
        },
    )
    dF = CoboundaryMultifunction(omega)
    assert dF.stokes_route
    N = 30
    x0 = rng.uniform(-0.5, 0.5, size=(N, 2))
    vs = rng.normal(size=(N, 2, 2))
    vs /= np.linalg.norm(vs, axis=2, keepdims=True)
    rs = rng.uniform(0.05, 0.2, size=(N, 2))
    scaled = dF.evaluate_scaled_batch(x0, vs, rs)
    tuples = np.concatenate(
        [x0[:, None, :], x0[:, None, :] + rs[..., None] * vs], axis=1
    )
    plain = dF.evaluate_batch(tuples) / np.prod(rs, axis=1)
    assert np.allclose(scaled, plain, rtol=1e-8, atol=1e-10)


def test_coboundary_scalar_stokes_route_stable_at_float_floor():
    f = poly_form(2, 0, {(): {(2, 0): 1.0}})
    dF = CoboundaryMultifunction(f)
    x0 = np.array([[0.3, 0.0]])
    vs = np.array([[[1.0, 0.0]]])
    out = dF.evaluate_scaled_batch(x0, vs, np.array([[1e-280]]))
    assert out[0] == pytest.approx(0.6, rel=1e-12)


def test_face_route_snap_floors_closed_rough_form():
    def coeff_sign_x(pts):
        return np.sign(pts[:, 0] - 0.5)

    def coeff_sign_y(pts):
        return np.sign(pts[:, 1] - 0.5)

    omega = FormField.from_callables(
        2, 1, {(1,): coeff_sign_x, (2,): coeff_sign_y}
    )
    rule = monte_carlo_rule(1, 256, seed=4)
    dF = CoboundaryMultifunction(omega, face_rule=rule)
    assert not dF.stokes_route
    rng = np.random.default_rng(8)
    x0 = rng.uniform(0.6, 0.9, size=(50, 2))
    vs = rng.normal(size=(50, 2, 2))
    vs /= np.linalg.norm(vs, axis=2, keepdims=True)
    rs = np.full((50, 2), 1e-3)
    vals = dF.evaluate_scaled_batch(x0, vs, rs)
    assert np.all(vals == 0.0)


def test_face_route_keeps_genuine_jump_signal():
    def coeff_sign_y(pts):
        return np.sign(pts[:, 1] - 0.5)

    omega = FormField.from_callables(2, 1, {(1,): coeff_sign_y})
    rule = monte_carlo_rule(1, 512, seed=9)
    dF = CoboundaryMultifunction(omega, face_rule=rule)
    x0 = np.array([[0.5, 0.5]])
    vs = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    rs = np.array([[0.2, 0.2]])
    val = dF.evaluate_scaled_batch(x0, vs, rs)
    assert abs(val[0]) > 1.0


def test_stokes_residual_triangle_x1_dx2():
    omega = poly_form(2, 1, {(2,): {(1, 0): 1.0}})
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    res = stokes_residual(omega, tri)
    assert res < 1e-12
    assert res.containment is True
    assert res.lhs == pytest.approx(0.5, abs=1e-13)
    assert res.rhs == pytest.approx(0.5, abs=1e-13)


def test_stokes_residual_random_polynomial_forms():
    rng = np.random.default_rng(41)
    for _ in range(10):
        omega = FormField.from_polynomials(
            2,
            1,
            {
                (1,): random_dyadic_polynomial(rng, 2, max_degree=3),
                (2,): random_dyadic_polynomial(rng, 2, max_degree=3),
            },
        )
        center = rng.uniform(-0.3, 0.3, size=2)
        tri = center + 0.5 * rng.uniform(-1, 1, size=(3, 2))
        assert stokes_residual(omega, tri) < 1e-8


@st.composite
def high_degree_stokes_cases(draw):
    """A polynomial k-form in R^n, n = 2 or 3 and k < n, of total degree at
    most 0-15, and k + 2 points in the unit ball, from the Stokes suite's
    generators."""
    n = draw(st.integers(2, 3))
    k = draw(st.integers(0, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    omega = _random_form(rng, n, k, max_total_degree=draw(st.integers(0, 15)))
    return omega, _points_in_unit_ball(rng, k + 2, n)


@settings(max_examples=80, deadline=5000)
@given(high_degree_stokes_cases())
def test_stokes_residual_is_at_quadrature_precision_at_any_degree(case):
    """Criterion 5's 1e-8, for forms of any degree: both sides integrate
    their polynomials exactly.  Degree-7 rules miss it for some forms above
    degree 7."""
    omega, pts = case
    assert stokes_residual(omega, pts) < 1e-8


def test_stokes_residual_detects_support_straddling():
    support = Ball(np.zeros(2), 1.0)
    omega = poly_form(2, 1, {(2,): {(1, 0): 1.0}}).with_support(support)
    inside = np.array([[0.0, 0.0], [0.3, 0.0], [0.0, 0.3]])
    res_in = stokes_residual(omega, inside)
    assert res_in.containment is True
    assert res_in < 1e-10
    straddle = np.array([[0.7, 0.0], [1.4, 0.0], [0.7, 0.7]])
    res_out = stokes_residual(omega, straddle)
    assert res_out.containment is False
    assert res_out > 1e-3


def test_stokes_residual_decides_annulus_containment_in_3d():
    support = Annulus(np.zeros(3), 0.5, 1.0)
    omega = poly_form(3, 1, {(2,): {(1, 0, 0): 1.0}}).with_support(support)
    far = np.array([[0.6, 0.0, 0.0], [0.9, 0.0, 0.0], [0.6, 0.3, 0.0]])
    res_in = stokes_residual(omega, far)
    assert res_in.containment is True
    assert res_in < 1e-10
    # the plane x + y + z = 0.7 passes the center at 0.7/sqrt(3) < 0.5
    dips = np.array([[0.7, 0.0, 0.0], [0.0, 0.7, 0.0], [0.0, 0.0, 0.7]])
    res_out = stokes_residual(omega, dips)
    assert res_out.containment is False
    assert res_out > 1e-3


def test_stokes_residual_flags_unknown_containment():
    support = SlitBox(np.zeros(2), np.ones(2), [0.5, 0.5], [1.0, 0.5])
    omega = poly_form(2, 1, {(2,): {(1, 0): 1.0}}).with_support(support)
    tri = np.array([[0.1, 0.1], [0.3, 0.1], [0.1, 0.3]])
    res = stokes_residual(omega, tri)
    assert res.containment is None


def test_stokes_residual_requires_derivative():
    omega = FormField.from_callables(2, 1, {(1,): lambda pts: np.sign(pts[:, 0])})
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ArgumentError):
        stokes_residual(omega, tri)


def test_generic_differential_batch_matches_single():
    rng = np.random.default_rng(2)
    F = UserMultifunction(2, 1, lambda p: float(np.tanh(p[0, 0] * p[1, 1])))
    dF = DifferentialMultifunction(F)
    tuples = rng.normal(size=(12, 3, 2))
    batch = dF.evaluate_batch(tuples)
    singles = np.array([dF(t) for t in tuples])
    assert np.allclose(batch, singles, rtol=1e-12, atol=1e-14)


def test_user_scaled_fallback_guards_zero_radii():
    F = UserMultifunction(2, 1, lambda p: float(p[1, 0] - p[0, 0]))
    x0 = np.zeros((2, 2))
    vs = np.array([[[1.0, 0.0]], [[1.0, 0.0]]])
    rs = np.array([[0.5], [0.0]])
    out = F.evaluate_scaled_batch(x0, vs, rs)
    assert out[0] == pytest.approx(1.0, abs=1e-14)
    assert out[1] == 0.0


PROPERTY = settings(max_examples=40, deadline=2000)


def _user(n, degree, c):
    return UserMultifunction(
        n, degree, lambda p: float(np.cos(p @ c).prod() + p[-1] @ c)
    )


@st.composite
def multifunction_cases(draw):
    """A random user or integration multifunction and a random tuple long
    enough for its second differential."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    degree = draw(st.integers(0, n))
    if draw(st.booleans()):
        F = _user(n, degree, rng.normal(size=n))
    else:
        F = IntegrationMultifunction(FormField.from_polynomials(n, degree, {
            idx: random_dyadic_polynomial(rng, n)
            for idx in combinations(range(1, n + 1), degree)
        }))
    return F, rng


@PROPERTY
@given(multifunction_cases())
def test_dd_vanishes_relative_to_second_faces(case):
    F, rng = case
    points = rng.normal(size=(F.degree + 3, F.dimension))
    value, scale = dd_zero_residual(F, points)
    assert value <= 1e-12 * scale


def parent_dd_zero_residual(F, points):
    """dd_zero_residual with F evaluated again on the second-order faces,
    in combinations order, the reference for its scale."""
    value = abs(DifferentialMultifunction(DifferentialMultifunction(F)).evaluate(points))
    m = len(points)
    keep = [[t for t in range(m) if t not in pair]
            for pair in combinations(range(m), 2)]
    faces = np.take(points, np.array(keep, dtype=np.intp), axis=0)
    return value, 2.0 * float(np.sum(np.abs(F.evaluate_batch(faces))))


@PROPERTY
@given(multifunction_cases())
def test_dd_scale_is_read_from_the_batch_dd_evaluates(case):
    F, rng = case
    points = rng.normal(size=(F.degree + 3, F.dimension))
    assert dd_zero_residual(F, points) == parent_dd_zero_residual(F, points)


def test_dd_zero_residual_evaluates_f_once():
    """One batch of m(m-1) = 20 second-order faces for m = 5 points."""
    batches = []

    def batch(tuples):
        batches.append(len(tuples))
        return np.cos(tuples[:, 0, 0]) + tuples[:, -1, 1]

    F = UserMultifunction(2, 2, None, batch_func=batch)
    dd_zero_residual(F, np.random.default_rng(3).normal(size=(5, 2)))
    assert batches == [20]


def _subnormal_case():
    rng = np.random.default_rng(1)
    return _user(2, 1, rng.normal(size=2)), rng


@PROPERTY
@given(multifunction_cases(), st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
@example(_subnormal_case(), 0.0, 5e-324)
def test_differential_is_linear_on_random_multifunctions(case, a, b):
    F, rng = case
    G = _user(F.dimension, F.degree, rng.normal(size=F.dimension))
    tuples = rng.normal(size=(5, F.degree + 2, F.dimension))
    lhs = DifferentialMultifunction(a * F + b * G).evaluate_batch(tuples)
    dF = DifferentialMultifunction(F).evaluate_batch(tuples)
    dG = DifferentialMultifunction(G).evaluate_batch(tuples)
    faces = [np.delete(tuples, i, axis=1) for i in range(F.degree + 2)]
    scale = sum(
        np.abs(a * F.evaluate_batch(f)) + np.abs(b * G.evaluate_batch(f))
        for f in faces
    )
    # Rounding model fl(x op y) = (x op y)(1 + d) + e.  The scale bounds the
    # relative part; the absolute part, |e| <= smallest_subnormal / 2 from
    # underflow, comes with each product: two per face on the left (a F and
    # b G), two on the right, (m + 1) smallest_subnormal in all.
    tiny = (F.degree + 3) * np.finfo(float).smallest_subnormal
    assert np.all(np.abs(lhs - (a * dF + b * dG)) <= 1e-12 * scale + tiny)


@st.composite
def vertex_swap_cases(draw):
    """A random polynomial k-form (k = 1, 2, n = 2, 3, integrand degree
    <= 6, so the degree-7 rule is exact), integration or coboundary, a
    random tuple and two distinct vertex positions to swap."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 3))
    k = draw(st.integers(1, 2))
    omega = FormField.from_polynomials(n, k, {
        idx: random_dyadic_polynomial(rng, n)
        for idx in combinations(range(1, n + 1), k)
    })
    coboundary = draw(st.booleans())
    arity = k + 2 if coboundary else k + 1
    i, j = draw(st.lists(st.integers(0, arity - 1), min_size=2, max_size=2,
                         unique=True))
    return omega, coboundary, rng.normal(size=(arity, n)), i, j


@settings(max_examples=60, deadline=2000)
@given(vertex_swap_cases())
def test_vertex_swap_negates_integration_and_coboundary(case):
    omega, coboundary, points, i, j = case
    swapped = points.copy()
    swapped[[i, j]] = points[[j, i]]
    # rounding scale: the quadrature mass sum_q |w_q| |integrand_q| of every
    # simplex integrated, which bounds |value| and cannot cancel
    if coboundary:
        F = CoboundaryMultifunction(omega)
        faces = np.stack([np.delete(points, m, axis=0) for m in range(len(points))])
    else:
        F = IntegrationMultifunction(omega)
        faces = points[np.newaxis]
    _, mass = IntegrationMultifunction(omega).evaluate_batch_with_mass(faces)
    assert abs(F.evaluate(swapped) + F.evaluate(points)) <= 1e-12 * mass.sum()
