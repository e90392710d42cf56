"""Tests for simplex quadrature and form integration."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from formflux.errors import ArgumentError
from formflux.forms import FormField, Polynomial
from formflux.simplex import (
    default_rule,
    edge_integrals,
    grundmann_moller_rule,
    integrate_form,
    integrate_polynomial_form_exact,
    monte_carlo_rule,
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
    # integrand.  Positions and coefficients exist one node block at a time.
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
