"""Tests for form fields: evaluation, d, pullback, mollify, L^p norms."""

import gc
import math

import numpy as np
import pytest

from formflux import forms
from formflux.domains import AxisBox
from formflux.errors import ArgumentError, UnsupportedOperationError
from formflux.estimates import SeminormEstimate
from formflux.forms import (
    FormField,
    Mollifier,
    Polynomial,
    form_from_json,
    form_to_json,
    lp_norm,
    lp_sphere_norm,
    mollify,
)
from formflux.simplex import SimplexQuadratureRule, edge_integrals, integrate_form

UNIT_BOX = AxisBox([0.0, 0.0], [1.0, 1.0])


def x1_dx2(n=2):
    return FormField.from_polynomials(
        n, 1, {(2,): Polynomial.coordinate(n, 1)}
    )


def random_dyadic_polynomial(rng, n, max_degree=3):
    # dyadic coefficients m/16 keep every derivative product exact in floats,
    # so d(d omega) cancels to literal zero
    terms = {}
    for _ in range(4):
        powers = tuple(int(rng.integers(0, max_degree + 1)) for _ in range(n))
        terms[powers] = float(rng.integers(-32, 33)) / 16.0
    return Polynomial(n, terms)


def test_polynomial_evaluate_and_partial():
    p = Polynomial(2, {(2, 1): 3.0, (0, 0): -1.0})  # 3 x^2 y - 1
    assert p([2.0, 5.0]) == pytest.approx(59.0)
    assert p.partial(1)([2.0, 5.0]) == pytest.approx(60.0)  # 6 x y
    assert p.partial(2)([2.0, 5.0]) == pytest.approx(12.0)  # 3 x^2
    assert p.partial(2).partial(2).is_zero()


@pytest.mark.parametrize("shape", [(5, 1), (5, 3), (5,)])
def test_polynomial_batch_rejects_wrong_point_shape(shape):
    p = Polynomial(2, {(1, 0): 1.0, (0, 2): 3.0})
    with pytest.raises(ArgumentError):
        p.evaluate_batch(np.ones(shape))


@pytest.mark.parametrize("build, field", [
    (lambda: Polynomial(2, {(1.5, 0): 1.0}), "exponent"),
    (lambda: Polynomial(2, {(True, 0): 1.0}), "exponent"),
    (lambda: Polynomial(2.5, {}), "polynomial dimension"),
    (lambda: FormField.from_polynomials(2, 1, {(1.7,): 1.0}), "multi-index entry"),
    (lambda: FormField.from_polynomials(2, 1, {(math.nan,): 1.0}),
     "multi-index entry"),
    (lambda: FormField.from_polynomials(2, 1.5, {}), "form degree"),
])
def test_integer_fields_are_never_truncated(build, field):
    with pytest.raises(ArgumentError, match=f"^{field} must be an integer"):
        build()


def test_adding_polynomials_in_other_variables_is_refused():
    # + builds without checking exponent tuples, so it checks the dimension
    with pytest.raises(ArgumentError, match="cannot add polynomials in 2 and 3"):
        Polynomial(2, {(1, 0): 1.0}) + Polynomial(3, {(0, 0, 1): 1.0})


def test_integral_floats_read_as_integers():
    omega = FormField.from_polynomials(2.0, 1.0, {(2.0,): {(1.0, np.int64(0)): 1.0}})
    assert (omega.dimension, omega.degree, omega.indices) == (2, 1, [(2,)])
    assert omega.components[(2,)].terms == {(1, 0): 1.0}
    assert type(omega.dimension) is int
    assert all(type(e) is int for e in next(iter(omega.components[(2,)].terms)))


def test_polynomial_batch_leaves_no_reference_cycle():
    # the power ladder is a plain loop; a self-referencing helper would leave
    # one cycle per call for the collector, which the pullback calls per block
    poly = Polynomial(3, {(3, 0, 1): 2.0, (0, 5, 2): -1.0, (1, 1, 1): 0.5})
    pts = np.random.default_rng(0).normal(size=(64, 3))
    gc.collect()
    gc.disable()
    try:
        poly.evaluate_batch(pts)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_evaluate_form():
    w = x1_dx2()
    cov = w.evaluate([2.0, 5.0])
    assert cov.coeffs == {(2,): 2.0}
    assert w.evaluate([0.0, 9.0]).is_zero()


def test_constant_form_evaluation():
    w = FormField.constant_form(2, {(1,): 1.0})
    assert w.evaluate([17.0, -3.0]).coeffs == {(1,): 1.0}


def test_zero_extension_outside_support():
    w = x1_dx2().with_support(UNIT_BOX)
    assert w.evaluate([0.5, 0.5]).coeffs == {(2,): 0.5}
    assert w.evaluate([3.0, 3.0]).is_zero()


def test_exterior_derivative_x1_dx2():
    dw = x1_dx2().exterior_derivative()
    assert dw.degree == 2
    assert dw.evaluate([7.0, -2.0]).coeffs == {(1, 2): 1.0}


def test_exterior_derivative_split_variables_closed():
    # f(x1) dx1 + g(x2) dx2 is closed for any f, g
    w = FormField.from_polynomials(
        2,
        1,
        {
            (1,): Polynomial(2, {(3, 0): 2.0, (1, 0): -1.0}),
            (2,): Polynomial(2, {(0, 2): 5.0, (0, 0): 4.0}),
        },
    )
    assert w.exterior_derivative().is_zero()


def test_exterior_derivative_top_degree_is_zero():
    w = FormField.from_polynomials(2, 2, {(1, 2): Polynomial.coordinate(2, 1)})
    dd = w.exterior_derivative()
    assert dd.degree == 3 and dd.is_zero()


def test_d_of_d_is_exactly_zero():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(0, n))
        idxs = [()] if k == 0 else [
            tuple(sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False)))
        ]
        comps = {idx: random_dyadic_polynomial(rng, n) for idx in idxs}
        w = FormField.from_polynomials(n, k, comps)
        dd = w.exterior_derivative().exterior_derivative()
        assert dd.is_zero()


def test_rough_backend_refuses_derivative():
    w = FormField.from_callables(
        2, 1, {(1,): lambda pts: np.sign(pts[:, 0] - 0.5)}, smooth=False
    )
    with pytest.raises(UnsupportedOperationError):
        w.exterior_derivative()


def test_analytic_without_partials_refuses_derivative():
    w = FormField.from_callables(
        2, 1, {(1,): lambda pts: np.sin(pts[:, 0])}, smooth=True
    )
    with pytest.raises(UnsupportedOperationError):
        w.exterior_derivative()


def pullback_at(omega, base, edges, s):
    """omega_{phi(s)}(edges) with phi(s) = base + s . edges, at each row of s:
    the pullback kernel under a one-node rule of weight 1."""
    base, edges = np.array([base], dtype=float), np.array([edges], dtype=float)
    rules = (SimplexQuadratureRule("node", len(row), np.array([row]), np.ones(1))
             for row in np.asarray(s, dtype=float))
    return np.array([edge_integrals(omega, rule, base, edges)[0] for rule in rules])


def test_pullback_constant_one_form():
    w = FormField.constant_form(2, {(1,): 1.0})
    s = np.array([[0.0], [0.3], [1.0]])
    assert np.allclose(pullback_at(w, [0.0, 0.0], [[1.0, 0.0]], s), 1.0)


def test_pullback_top_form():
    w = FormField.constant_form(2, {(1, 2): 1.0})
    s = np.array([[0.2, 0.3], [0.0, 0.0]])
    assert np.allclose(pullback_at(w, [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], s), 1.0)


def test_pullback_linear_coefficient():
    # along phi(s) = (s, s) the coefficient x1 restricts to s
    s = np.array([[0.0], [0.25], [0.9]])
    assert np.allclose(pullback_at(x1_dx2(), [0.0, 0.0], [[1.0, 1.0]], s), s[:, 0])


def test_pullback_edge_count_mismatch():
    with pytest.raises(ArgumentError):
        integrate_form(x1_dx2(), [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_pullback_of_a_function_takes_an_empty_edge_list():
    # a 0-form pulls back to its value at the base point
    f = FormField.from_polynomials(2, 0, {(): {(1, 0): 2.0, (0, 2): 1.0}})
    assert integrate_form(f, [[0.5, -1.5]]) == 3.25
    with pytest.raises(ArgumentError):
        integrate_form(x1_dx2(), [[0.0, 0.0]])


def test_mollifier_profile_properties():
    eta = Mollifier(2, 0.1)
    ys, ws = eta.convolution_rule()
    assert ws.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.linalg.norm(ys, axis=1) < 0.1)
    far = np.array([[0.1, 0.0], [0.2, 0.2]])
    assert np.allclose(eta.profile(far), 0.0)


@pytest.mark.parametrize("n,bad", [
    pytest.param(2, [0.1, 0.2, 0.3], id="3-vector in the plane"),
    pytest.param(1, [0.0, 0.1, 0.2], id="3-vector on the line"),
    pytest.param(2, 0.1, id="scalar"),
    pytest.param(2, np.zeros((2, 3)), id="wide batch"),
    pytest.param(2, np.zeros((1, 2, 2)), id="3-d array"),
])
def test_mollifier_profile_refuses_what_is_not_a_point_or_a_batch(n, bad):
    with pytest.raises(ArgumentError, match=rf"\(N, {n}\)"):
        Mollifier(n, 0.5).profile(bad)


@pytest.mark.parametrize("n", [1, 2])
def test_mollifier_profile_of_a_point_is_its_value_in_a_batch(n):
    eta = Mollifier(n, 0.5)
    pts = np.random.default_rng(n).uniform(-0.3, 0.3, size=(3, n))
    values = eta.profile(pts)
    assert values.shape == (3,) and np.all(values > 0.0)
    at_points = [eta.profile(x) for x in pts]
    assert all(type(v) is float for v in at_points) and at_points == list(values)


def test_mollify_constant_form_is_identity():
    eta = Mollifier(2, 0.25)
    w = FormField.constant_form(2, {(1,): 1.0})
    m = mollify(w, eta)
    pts = np.array([[0.0, 0.0], [2.0, -1.0]])
    assert np.allclose(m.coefficients_batch(pts), 1.0, atol=1e-12)


def test_mollify_linear_coefficient_unchanged():
    # odd moments of the symmetric kernel cancel, so x1 dx2 is reproduced
    eta = Mollifier(2, 0.25)
    m = mollify(x1_dx2(), eta)
    pts = np.array([[0.3, 0.9], [-1.0, 2.0], [4.0, 0.0]])
    assert np.allclose(m.coefficients_batch(pts)[:, 0], pts[:, 0], atol=1e-10)


def test_mollify_shrinks_support():
    w = x1_dx2().with_support(UNIT_BOX)
    m = mollify(w, Mollifier(2, 0.1))
    inside = m.coefficients_batch(np.array([[0.5, 0.5]]))
    assert abs(inside[0, 0]) > 0.1
    outside = m.coefficients_batch(np.array([[1.2, 0.5], [0.5, -0.11]]))
    assert np.allclose(outside, 0.0)


def test_mollify_commutes_with_d():
    eta = Mollifier(2, 0.2)
    w = FormField.from_polynomials(
        2,
        1,
        {
            (1,): Polynomial(2, {(0, 2): 1.0}),  # x2^2 dx1
            (2,): Polynomial(2, {(1, 1): 2.0}),  # 2 x1 x2 dx2
        },
    )
    lhs = mollify(w, eta).exterior_derivative()
    rhs = mollify(w.exterior_derivative(), eta)
    pts = np.array([[0.1, 0.4], [1.0, -0.5], [0.0, 0.0]])
    assert np.allclose(
        lhs.coefficients_batch(pts), rhs.coefficients_batch(pts), atol=1e-6
    )


def test_mollified_rough_form_has_derivative():
    rough = FormField.from_callables(
        2, 1, {(1,): lambda pts: np.sign(pts[:, 0] - 0.5)}, smooth=False
    )
    m = mollify(rough, Mollifier(2, 0.05))
    assert m.has_derivative()
    d = m.exterior_derivative()
    assert d.degree == 2


def test_partials_must_cover_every_axis_that_d_reads():
    """d of f dx1 in the plane reads d_2 f only; a missing key is refused at
    construction, not met as a KeyError in evaluation."""
    f = {(1,): lambda pts: np.sin(pts[:, 1])}
    with pytest.raises(ArgumentError, match=r"\(\(1,\), 2\)"):
        FormField.from_callables(2, 1, f, smooth=True,
                                 partials={((1,), 1): lambda pts: 0.0 * pts[:, 0]})
    w = FormField.from_callables(2, 1, f, smooth=True,
                                 partials={((1,), 2): lambda pts: np.cos(pts[:, 1])})
    pts = np.array([[0.0, 0.5], [1.0, -2.0]])
    assert np.array_equal(w.exterior_derivative().coefficients_batch(pts)[:, 0],
                          -np.cos(pts[:, 1]))


@pytest.mark.parametrize("build", [
    pytest.param(lambda f, d: FormField.from_callables(2, 1, f, smooth=False,
                                                       partials=d),
                 id="not-smooth"),
    pytest.param(lambda f, d: FormField(2, 1, f, "rough", partials=d), id="rough"),
    pytest.param(lambda f, d: FormField(2, 1, {(1,): Polynomial(2, {(0, 1): 1.0})},
                                        "polynomial", partials=d),
                 id="polynomial"),
])
def test_partials_off_the_analytic_backend_are_refused(build):
    """Only an analytic form reads its partials; given to any other, they
    would be dropped or ignored without a word."""
    f = {(1,): lambda pts: np.sin(pts[:, 1])}
    d = {((1,), 2): lambda pts: np.cos(pts[:, 1])}
    with pytest.raises(ArgumentError, match="partials apply only to the analytic"):
        build(f, d)


def test_mollified_d_runs_one_vector_product_per_partial_it_reads(monkeypatch):
    """d of a mollified 1-form in R^3 reads d_j omega_i for the 6 pairs with
    j != i: one convolution each, reduced against one weight column."""
    omega = FormField.from_polynomials(3, 1, {
        (1,): {(0, 1, 0): 1.0}, (2,): {(0, 0, 1): 2.0}, (3,): {(1, 0, 0): -1.0},
    })
    d = mollify(omega, Mollifier(3, 0.25, nodes=24)).exterior_derivative()
    shapes = []
    row_dot = forms.row_dot
    monkeypatch.setattr(forms, "row_dot",
                        lambda a, w: shapes.append(w.shape) or row_dot(a, w))
    d.coefficients_batch(np.random.default_rng(0).uniform(-1.0, 1.0, size=(5, 3)))
    assert len(shapes) == 6 and all(len(shape) == 1 for shape in shapes)


@pytest.mark.parametrize("args", [
    pytest.param((2, 0.05, 0), id="no nodes"),
    pytest.param((2, 0.05, -3), id="negative nodes"),
    pytest.param((0, 0.05), id="dimension 0"),
    pytest.param((2, math.nan), id="nan radius"),
    pytest.param((2, math.inf), id="infinite radius"),
    pytest.param((2, 0.0), id="zero radius"),
])
def test_mollifier_rejects_bad_arguments(args):
    with pytest.raises(ArgumentError, match="finite radius > 0"):
        Mollifier(*args)


def test_mollifier_checks_its_mass_against_a_cached_refined_grid():
    """The refined grid of a shape (dimension, radius, nodes) is built once;
    every construction still checks its own grid against it, and keeps the
    nodes and weights of a construction with nothing cached."""
    forms._refined_mass.cache_clear()
    cold = Mollifier(2, 0.05)
    warm = Mollifier(2, 0.05)
    info = forms._refined_mass.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    for a, b in zip(cold.convolution_rule(), warm.convolution_rule()):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    # a grid that has not converged is refused on every construction, the
    # refined mass being cached after the first
    for _ in range(3):
        with pytest.raises(ArgumentError, match="has not converged"):
            Mollifier(2, 0.05, nodes=16)
    assert forms._refined_mass.cache_info().hits == 3


def convolution_closure(smooth, part):
    """The mollified dx2 component's value closure, or its partial in x1."""
    if part == "components":
        return smooth.components[(2,)]
    return smooth.partials[((2,), 1)]


@pytest.mark.parametrize("pts", [np.zeros((3, 3)), np.zeros(2), np.zeros((1, 2, 2))])
@pytest.mark.parametrize("part", ["components", "partials"])
def test_convolution_closures_need_an_n_column_batch(pts, part):
    closure = convolution_closure(mollify(x1_dx2(), Mollifier(2, 0.05)), part)
    with pytest.raises(ArgumentError):
        closure(pts)


@pytest.mark.parametrize("case,per_point", [
    ("x1 dx2", 48), ("constant", 1), ("supported", 1200),
])
@pytest.mark.parametrize("part", ["components", "partials"])
def test_convolution_evaluates_each_distinct_shift_once(monkeypatch, case,
                                                        per_point, part):
    """x1 - y_q1 takes 48 values over the 1,200 nodes of Mollifier(2, 0.05):
    x1 dx2 is evaluated at 48 shifts per point, a constant at one, and a
    supported form, which reads every coordinate, at every node."""
    omega = {
        "x1 dx2": x1_dx2(),
        "constant": FormField.constant_form(2, {(2,): 3.0}),
        "supported": x1_dx2().with_support(UNIT_BOX),
    }[case]
    eta = Mollifier(2, 0.05)
    assert len(eta.convolution_rule()[0]) == 1200
    closure = convolution_closure(mollify(omega, eta), part)
    rows = []
    evaluate = Polynomial.evaluate_batch
    monkeypatch.setattr(Polynomial, "evaluate_batch",
                        lambda poly, pts, *out: rows.append(len(pts))
                        or evaluate(poly, pts, *out))
    closure(np.random.default_rng(0).uniform(0.0, 1.0, size=(7, 2)))
    assert sum(rows) == 7 * per_point


def test_lp_norm_constant_form():
    est = lp_norm(
        FormField.constant_form(2, {(1,): 1.0}), UNIT_BOX, 2.0,
        samples=2000, seed=0,
    )
    assert isinstance(est, SeminormEstimate)
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_lp_norm_linear_coefficient():
    est = lp_norm(x1_dx2(), UNIT_BOX, 2.0, samples=200000, seed=1)
    assert abs(est.value - 1.0 / math.sqrt(3.0)) < 4.0 * max(est.stderr, 1e-6)


def test_lp_norm_zero_form():
    zero = FormField.from_polynomials(2, 1, {(1,): Polynomial(2, {})})
    est = lp_norm(zero, UNIT_BOX, 2.0, samples=500, seed=0)
    assert est.value == 0.0


@pytest.mark.parametrize("norm", [lp_norm, lp_sphere_norm])
def test_lp_norms_check_p_and_samples(norm):
    w = FormField.constant_form(2, {(1,): 1.0})
    for bad in (0.5, math.nan, math.inf):
        with pytest.raises(ArgumentError, match="p must be >= 1"):
            norm(w, UNIT_BOX, bad)
    with pytest.raises(ArgumentError, match="at least 2 samples"):
        norm(w, UNIT_BOX, 2.0, samples=1)


def test_lp_sphere_norm_constant_forms():
    cfg = dict(samples=4000, seed=2)
    one = lp_sphere_norm(FormField.constant_form(2, {(1,): 1.0}), UNIT_BOX, 2.0, **cfg)
    assert one.value == pytest.approx(math.sqrt(math.pi), rel=1e-9)
    top = lp_sphere_norm(
        FormField.constant_form(2, {(1, 2): 1.0}), UNIT_BOX, 2.0, **cfg
    )
    assert top.value == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-9)


def test_lp_sphere_norm_zero():
    zero = FormField.from_polynomials(2, 1, {})
    est = lp_sphere_norm(zero, UNIT_BOX, 2.0, samples=200, seed=0)
    assert est.value == 0.0


def test_lp_sphere_norm_needs_a_decomposable_degree():
    box = AxisBox(np.zeros(4), np.ones(4))
    cfg = dict(samples=200, seed=0)
    one = lp_sphere_norm(FormField.constant_form(4, {(2,): 2.0}), box, 2.0, **cfg)
    # int_{S^3} v1^2 = area(S^3) / 4 = pi^2 / 2
    assert one.value == pytest.approx(2.0 * math.pi / math.sqrt(2.0), rel=1e-12)
    assert one.config["kind"] == "lp_sphere_norm"
    with pytest.raises(UnsupportedOperationError):
        lp_sphere_norm(FormField.constant_form(4, {(1, 2): 1.0}), box, 2.0, **cfg)


def test_lp_sphere_over_lp_constant_across_constant_one_forms():
    cfg = dict(samples=3000, seed=5)
    ratios = []
    for coeffs in ({(1,): 1.0}, {(2,): 2.0}, {(1,): 3.0, (2,): 4.0}):
        w = FormField.constant_form(2, coeffs)
        ratios.append(
            lp_sphere_norm(w, UNIT_BOX, 2.0, **cfg).value
            / lp_norm(w, UNIT_BOX, 2.0, **cfg).value
        )
    assert np.ptp(ratios) < 1e-9


def test_lp_norm_zero_extension_superset():
    w = FormField.constant_form(2, {(1,): 1.0}).with_support(UNIT_BOX)
    big = AxisBox([-1.0, -1.0], [2.0, 2.0])
    on_small = lp_norm(w, UNIT_BOX, 2.0, samples=120000, seed=3)
    on_big = lp_norm(w, big, 2.0, samples=120000, seed=4)
    tol = 4.0 * (on_small.stderr + on_big.stderr)
    assert abs(on_small.value - on_big.value) < tol


def test_json_round_trip():
    w = FormField.from_polynomials(
        3,
        2,
        {
            (1, 2): Polynomial(3, {(1, 0, 0): 1.0, (0, 0, 2): -0.5}),
            (1, 3): Polynomial(3, {(0, 1, 0): 2.0}),
        },
    )
    doc = form_to_json(w)
    back = form_from_json(doc)
    assert form_to_json(back) == doc
    pts = np.array([[0.1, 0.2, 0.3], [1.0, -1.0, 2.0]])
    assert np.allclose(back.coefficients_batch(pts), w.coefficients_batch(pts))


def test_form_field_validation():
    with pytest.raises(ArgumentError):
        FormField.from_polynomials(2, 1, {(1, 2): 1.0})
    with pytest.raises(ArgumentError):
        FormField.from_polynomials(2, 3, {(1, 2, 3): 1.0})
