"""Tests for simplex quadrature and form integration."""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formflux import simplex
from formflux.alexander_spanier import (
    CoboundaryMultifunction,
    IntegrationMultifunction,
)
from formflux.domains import Ball
from formflux.errors import ArgumentError
from formflux.experiments import _points_in_unit_ball, _random_form
from formflux.exterior import _batch_det
from formflux.forms import FormField, Polynomial
from formflux.simplex import (
    default_rule,
    edge_integrals,
    grundmann_moller_rule,
    integrate_form,
    monte_carlo_rule,
)
from oracles import (
    compose_affine,
    integrate_polynomial_form_exact,
    reference_monomial_integral,
)


def random_polynomial_form(rng, n, k, max_degree=3):
    idx = tuple(sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False)))
    terms = {}
    for _ in range(3):
        powers = tuple(int(rng.integers(0, max_degree + 1)) for _ in range(n))
        terms[powers] = float(rng.standard_normal())
    return FormField.from_polynomials(n, k, {idx: Polynomial(n, terms)})


def test_simplex_tuple_validation():
    w = FormField.from_polynomials(1, 1, {(1,): {(1,): 1.0}})
    for integrate in (integrate_form, integrate_polynomial_form_exact):
        assert integrate(w, [[0.0], [1.0]]) == pytest.approx(0.5)
        with pytest.raises(ArgumentError, match="need k <= n"):
            integrate(w, [[0.0], [1.0], [2.0]])  # k=2 in R^1
        with pytest.raises(ArgumentError, match=r"\(k\+1, n\) array"):
            integrate(w, [0.0, 1.0])


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_gm_weights_sum(k):
    rule = grundmann_moller_rule(k, degree=7)
    assert abs(rule.weights.sum() - 1.0 / math.factorial(k)) < 1e-12
    assert np.all(rule.points >= 0.0)
    assert np.all(rule.points.sum(axis=1) <= 1.0 + 1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_mc_weights_sum(k):
    rule = monte_carlo_rule(k, samples=1024, seed=0)
    assert abs(rule.weights.sum() - 1.0 / math.factorial(k)) < 1e-12
    assert np.all(rule.points >= 0.0)
    assert np.all(rule.points.sum(axis=1) <= 1.0)


@pytest.mark.parametrize("k,smooth", [(1, True), (2, True), (1, False), (2, False)])
def test_default_rule_is_shared_and_read_only(k, smooth):
    rule = default_rule(k, smooth=smooth)
    assert default_rule(k, smooth=smooth) is rule
    with pytest.raises(ValueError):
        rule.points[0, 0] = 0.0
    with pytest.raises(ValueError):
        rule.weights[0] = 0.0


@pytest.mark.parametrize("k,degree", [(1, 1), (2, 3), (3, 15)])
def test_default_rule_of_a_degree_is_shared_and_read_only(k, degree):
    rule = default_rule(k, degree=degree)
    assert default_rule(k, degree=degree) is rule
    assert rule is not default_rule(k)
    assert np.array_equal(rule.weights, grundmann_moller_rule(k, degree).weights)
    assert not rule.points.flags.writeable and not rule.weights.flags.writeable


def test_default_rule_is_one_rule_however_the_call_spells_it():
    rule = default_rule(1)
    assert default_rule(1, True, 7) is rule
    assert default_rule(1, smooth=True, degree=7) is rule
    assert default_rule(k=1, degree=7) is rule
    assert default_rule(2, False) is default_rule(2, smooth=False)


def test_gm_rejects_even_degree():
    with pytest.raises(ArgumentError):
        grundmann_moller_rule(2, degree=4)


@pytest.mark.parametrize("k,degree", [(1, 5), (2, 7), (3, 7)])
def test_gm_monomial_exactness(k, degree):
    rule = grundmann_moller_rule(k, degree=degree)
    for alpha in itertools.product(range(degree + 1), repeat=k):
        if sum(alpha) > degree:
            continue
        approx = float(
            np.sum(rule.weights * np.prod(rule.points ** np.asarray(alpha), axis=1))
        )
        exact = reference_monomial_integral(alpha)
        assert approx == pytest.approx(exact, rel=1e-12, abs=1e-15)


def test_reference_monomial_integral():
    assert reference_monomial_integral((0,)) == pytest.approx(1.0)
    assert reference_monomial_integral((1,)) == pytest.approx(0.5)
    assert reference_monomial_integral((0, 0)) == pytest.approx(0.5)
    assert reference_monomial_integral((1, 1)) == pytest.approx(1.0 / 24.0)


def test_integrate_form_segment():
    w = FormField.constant_form(2, {(1,): 1.0})
    assert integrate_form(w, [[0.0, 0.0], [1.0, 0.0]]) == pytest.approx(1.0)


def test_integrate_form_vertical_segment():
    w = FormField.from_polynomials(2, 1, {(2,): Polynomial.coordinate(2, 1)})
    assert integrate_form(w, [[1.0, 0.0], [1.0, 1.0]]) == pytest.approx(1.0)
    assert integrate_form(w, [[0.0, 0.0], [0.0, 1.0]]) == pytest.approx(0.0)


def test_integrate_form_triangle():
    w = FormField.constant_form(2, {(1, 2): 1.0})
    tri = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    assert integrate_form(w, tri) == pytest.approx(0.5)


def test_integrate_form_k0_is_evaluation():
    f = FormField.from_polynomials(2, 0, {(): Polynomial(2, {(2, 0): 1.0})})
    assert integrate_form(f, [[3.0, 1.0]]) == pytest.approx(9.0)


def test_integrate_form_degenerate_simplex():
    w = FormField.constant_form(2, {(1, 2): 1.0})
    assert integrate_form(w, [[0, 0], [1, 0], [2, 0]]) == pytest.approx(0.0)


def test_orientation_signs():
    rng = np.random.default_rng(12)
    for _ in range(10):
        w = random_polynomial_form(rng, 3, 2)
        pts = rng.standard_normal((3, 3))
        base = integrate_form(w, pts)
        swapped = integrate_form(w, pts[[0, 2, 1]])
        assert swapped == pytest.approx(-base, rel=1e-10, abs=1e-12)
        cycled = integrate_form(w, pts[[1, 2, 0]])  # even permutation
        assert cycled == pytest.approx(base, rel=1e-10, abs=1e-12)


def test_gm_exact_on_random_polynomial_forms():
    rng = np.random.default_rng(77)
    for _ in range(40):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(1, n + 1))
        # per-variable degree 2 keeps the total degree within the rule
        w = random_polynomial_form(rng, n, k, max_degree=2)
        pts = rng.standard_normal((k + 1, n))
        exact = integrate_polynomial_form_exact(w, pts)
        approx = integrate_form(w, pts, grundmann_moller_rule(k, degree=7))
        assert approx == pytest.approx(exact, rel=1e-10, abs=1e-12)


# Nodes per k = 1, 2, 3 of the rule a polynomial form of total degree d
# gets: Grundmann-Moller of degree d | 1, the least odd degree >= max(d, 1).
NODES_BY_DEGREE = {0: (1, 1, 1), 1: (1, 1, 1), 2: (3, 4, 5), 3: (3, 4, 5),
                   4: (6, 10, 15), 5: (6, 10, 15)}


def _rule_of_integrate_form(omega, pts, rule=None):
    """The rule integrate_form hands the pullback kernel."""
    seen = []

    def kernel(omega, rule, *args, **kwargs):
        seen.append(rule)
        return edge_integrals(omega, rule, *args, **kwargs)

    with mock.patch.object(simplex, "edge_integrals", kernel):
        integrate_form(omega, pts, rule)
    return seen[0]


@pytest.mark.parametrize("d", sorted(NODES_BY_DEGREE))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_polynomial_form_gets_the_rule_of_its_degree(k, d):
    omega = FormField.from_polynomials(3, k, {
        tuple(range(1, k + 1)): {(d, 0, 0): 2.0, (0, d // 2, 0): -1.0},
    })
    rule = default_rule(k, True, d | 1)
    assert len(rule.weights) == NODES_BY_DEGREE[d][k - 1]
    assert IntegrationMultifunction(omega).rule is rule
    pts = np.eye(4, 3)[: k + 1]
    assert _rule_of_integrate_form(omega, pts) is rule
    # d of x1^(d+1) dx2 is (d+1) x1^d dx1^dx2: the Stokes volume's rule
    lifted = FormField.from_polynomials(2, 1, {(2,): {(d + 1, 0): 1.0}})
    volume = CoboundaryMultifunction(lifted)._volume
    assert volume.rule is default_rule(2, True, d | 1)
    assert len(volume.rule.weights) == NODES_BY_DEGREE[d][1]


def test_other_forms_keep_their_rules_and_an_explicit_rule_is_honoured():
    x1_dx2 = FormField.from_polynomials(2, 1, {(2,): {(1, 0): 1.0}})
    cases = [
        (FormField.from_callables(2, 1, {(1,): lambda p: p[:, 0]}, smooth=True),
         default_rule(1, smooth=True)),
        (x1_dx2.with_support(Ball(np.zeros(2), 2.0)), default_rule(1, smooth=True)),
        (FormField.from_callables(2, 1, {(1,): lambda p: np.sign(p[:, 0])}),
         default_rule(1, smooth=False)),
        (FormField.from_callables(3, 2, {(1, 2): lambda p: np.sign(p[:, 0])}),
         default_rule(2, smooth=False)),
    ]
    for omega, rule in cases:
        pts = np.eye(omega.degree + 1, omega.dimension)
        assert IntegrationMultifunction(omega).rule is rule
        assert _rule_of_integrate_form(omega, pts) is rule
    assert len(default_rule(1).weights) == 10
    assert default_rule(1, smooth=False).kind == "stratified"
    assert default_rule(2, smooth=False).kind == "monte-carlo"
    explicit = monte_carlo_rule(1, samples=7)
    assert IntegrationMultifunction(x1_dx2, explicit).rule is explicit
    assert _rule_of_integrate_form(x1_dx2, np.eye(2), explicit) is explicit
    smooth_d = FormField.from_callables(
        2, 1, {(2,): lambda p: p[:, 0]}, smooth=True,
        partials={((2,), 1): lambda p: np.ones(len(p))})
    assert CoboundaryMultifunction(smooth_d)._volume.rule is default_rule(
        2, smooth=True)


def _abs_pullback_integral(omega, idx, pts):
    """The pullback of the component idx with |base|, |edges| and |c| in
    place of base, edges and c: a bound on every partial sum the exact
    oracle adds, so eps times it bounds the oracle's own rounding."""
    poly = omega.components[idx]
    base, edges = pts[0], pts[1:] - pts[0]
    pulled = compose_affine(Polynomial(omega.dimension, {
        p: abs(c) for p, c in poly.terms.items()}), np.abs(base), np.abs(edges))
    return sum(c * reference_monomial_integral(p) for p, c in pulled.terms.items())


@st.composite
def high_degree_cases(draw):
    """A polynomial k-form in R^n, n = 2 or 3, of total degree at most
    0-15, and a k-simplex in the unit ball, from the Stokes suite's
    generators."""
    n = draw(st.integers(2, 3))
    k = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    omega = _random_form(rng, n, k, max_total_degree=draw(st.integers(0, 15)))
    return omega, _points_in_unit_ball(rng, k + 1, n)


def omega_degree(omega):
    """The largest exponent sum of a term of any component."""
    return max((sum(p) for c in omega.components.values() for p in c.terms),
               default=0)


@settings(max_examples=80, deadline=5000)
@given(high_degree_cases())
def test_integrate_form_is_exact_at_any_degree(case):
    """Up to rounding against the symbolic oracle, whose own error is
    bounded by eps times the absolute-valued pullback: the bound is
    64 eps k! sum_idx |det_idx| (sum|w| sum|c_idx| + that integral), fixed
    before the first run.  A degree-7 rule misses x1^8 dx1^dx2 on the unit
    triangle by 1.6e-3 relative."""
    omega, pts = case
    k = omega.degree
    rule = grundmann_moller_rule(k, omega_degree(omega) | 1)
    edges = (pts[1:] - pts[0])[np.newaxis]
    scale = 0.0
    for idx in omega.indices:
        det = abs(float(_batch_det(edges[:, :, [i - 1 for i in idx]])[0]))
        terms = sum(abs(c) for c in omega.components[idx].terms.values())
        scale += det * (np.abs(rule.weights).sum() * terms
                        + _abs_pullback_integral(omega, idx, pts))
    tol = 64 * np.finfo(float).eps * math.factorial(k) * scale
    exact = integrate_polynomial_form_exact(omega, pts)
    assert abs(integrate_form(omega, pts) - exact) <= tol


def test_mc_rule_rate():
    # RMSE over repeated seeds should fall like N^{-1/2}
    w = FormField.from_polynomials(
        2, 1, {(2,): Polynomial(2, {(2, 1): 1.0})}
    )
    pts = np.array([[0.1, -0.2], [1.3, 0.7]])
    exact = integrate_polynomial_form_exact(w, pts)
    rmse = {}
    for n_samples in (100, 1000, 10000):
        errs = [
            integrate_form(w, pts, monte_carlo_rule(1, n_samples, seed=s)) - exact
            for s in range(24)
        ]
        rmse[n_samples] = float(np.sqrt(np.mean(np.square(errs))))
    r1 = rmse[100] / rmse[1000]
    r2 = rmse[1000] / rmse[10000]
    expected = math.sqrt(10.0)
    assert expected / 2.2 < r1 < expected * 2.2
    assert expected / 2.2 < r2 < expected * 2.2


def test_form_rule_mismatch_raises():
    w = FormField.constant_form(2, {(1,): 1.0})
    with pytest.raises(ArgumentError):
        integrate_form(w, [[0.0, 0.0], [1.0, 0.0]], grundmann_moller_rule(2))
    with pytest.raises(ArgumentError):
        integrate_form(w, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_pullback_memory_is_the_integrand_and_one_node_block():
    # 2048 segments on the 1024-node rough rule: 2^21 nodes, a 16 MiB
    # integrand.  sin(3 x2) changes along every segment, so every row is
    # crossed and keeps its integrand; positions and coefficients exist one
    # node block at a time.
    rng = np.random.default_rng(3)
    omega = FormField.from_callables(2, 1, {
        (1,): lambda p: np.sign(p[:, 0] - 0.1),
        (2,): lambda p: np.sin(3.0 * p[:, 1]),
    })
    base = rng.uniform(-1.0, 1.0, size=(2048, 2))
    edges = rng.normal(size=(2048, 1, 2))
    tracemalloc.start()
    try:
        edge_integrals(omega, default_rule(1, smooth=False), base, edges,
                       with_mass=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2048 * 1024 * 8


@pytest.mark.parametrize("refined", [True, False], ids=["every-row", "no-row"])
def test_screened_pullback_memory_is_the_integrand_and_one_node_block(refined):
    # The same 2048 segments through the rough-face screen: a smooth
    # component changes along every segment, so every stretch of every row
    # is evaluated after the screen, one node block at a time, and each node
    # once; jump lines the segments never reach leave every row constant on
    # its 65 screen nodes, and no (N, Q) array exists: the peak is the
    # (N, 65) screen values and one node block of 32 x 1024 nodes, whose
    # scratch holds 5 doubles a node (2 coordinates, a product term and 2
    # coefficient columns), and as much again for the callables' temporaries.
    rng = np.random.default_rng(3)
    points = []

    def counted(f):
        return lambda p: points.append(len(p)) or f(p)

    if refined:
        comps = {(1,): lambda p: np.sign(p[:, 0] - 0.1),
                 (2,): lambda p: np.sin(3.0 * p[:, 1])}
    else:
        comps = {(1,): lambda p: np.sign(p[:, 0] - 100.0),
                 (2,): lambda p: np.sign(p[:, 1] + 100.0)}
    omega = FormField.from_callables(2, 1, {
        (1,): counted(comps[(1,)]), (2,): comps[(2,)],
    })
    base = rng.uniform(-1.0, 1.0, size=(2048, 2))
    edges = rng.normal(size=(2048, 1, 2))
    tracemalloc.start()
    try:
        edge_integrals(omega, default_rule(1, smooth=False), base, edges,
                       with_mass=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if refined:
        assert peak < 1.5 * 2048 * 1024 * 8
        assert sum(points) == 2048 * 1024
    else:
        assert peak < 2048 * 65 * 8 + 2 * 5 * 32 * 1024 * 8
        assert sum(points) == 2048 * 65
