"""Tests for alternating covectors, wedge, and sphere norms.

Frozen reference values are exact integrals computed by hand:
  int_{S^1} |cos|^2 = pi                    -> |dx1|_{S,2} = sqrt(pi) in R^2
  int_{S^1 x S^1} sin^2(a-b) = 2 pi^2       -> |dx1^dx2|_{S,2} = pi sqrt(2)
  int_{S^2} v1^2 = 4 pi / 3                 -> |dx1|_{S,2} = sqrt(4 pi / 3) in R^3
  E[det(v1,v2,v3)^2] = 2/9 on (S^2)^3       -> top norm = sqrt((4 pi)^3 * 2/9)
  int_{S^1} |cos|^4 = 3 pi / 4              -> |dx1|_{S,4} = (3 pi / 4)^{1/4}

The closed form of sphere_norm is also checked against a product-quadrature
oracle kept here (trapezoid on S^1, Gauss-Legendre x trapezoid on S^2).
"""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formflux.errors import ArgumentError
from formflux.exterior import (
    Covector,
    euclidean_norm,
    minor_dets,
    sort_with_sign,
    sphere_norm,
    sphere_power_constant,
    unit_sphere_area,
    wedge,
)


def test_sort_with_sign():
    assert sort_with_sign((1, 2)) == ((1, 2), 1)
    assert sort_with_sign((2, 1)) == ((1, 2), -1)
    assert sort_with_sign((3, 1, 2)) == ((1, 2, 3), 1)
    assert sort_with_sign((1, 1)) == ((1, 1), 0)


def test_covector_rejects_bad_index():
    with pytest.raises(ArgumentError):
        Covector(2, 2, {(2, 1): 1.0})
    with pytest.raises(ArgumentError):
        Covector(2, 1, {(3,): 1.0})


def test_evaluate_basis_one_form():
    a = Covector.basis(3, (2,))
    assert a.evaluate([[0.5, -2.0, 7.0]]) == -2.0


def test_evaluate_two_form_is_determinant():
    a = Covector.basis(2, (1, 2))
    v = [[1.0, 2.0], [3.0, 4.0]]
    assert a.evaluate(v) == pytest.approx(1.0 * 4.0 - 2.0 * 3.0)


def test_evaluate_antisymmetry():
    rng = np.random.default_rng(7)
    a = Covector(3, 2, {(1, 2): 0.3, (1, 3): -1.1, (2, 3): 2.0})
    for _ in range(20):
        v1, v2 = rng.standard_normal(3), rng.standard_normal(3)
        assert a.evaluate([v1, v2]) == pytest.approx(-a.evaluate([v2, v1]))
        assert a.evaluate([v1, v1]) == pytest.approx(0.0, abs=1e-12)


def test_evaluate_linearity():
    rng = np.random.default_rng(11)
    a = Covector(3, 2, {(1, 2): 1.0, (2, 3): -0.5})
    v1, v2, w = rng.standard_normal((3, 3))
    lhs = a.evaluate([2.0 * v1 + 3.0 * w, v2])
    rhs = 2.0 * a.evaluate([v1, v2]) + 3.0 * a.evaluate([w, v2])
    assert lhs == pytest.approx(rhs)


def test_degree_zero_is_scalar():
    c = Covector(5, 0, {(): 3.5})
    assert c.evaluate([]) == 3.5
    assert sphere_norm(c).value == 3.5


def test_wedge_basis():
    dx1 = Covector.basis(3, (1,))
    dx2 = Covector.basis(3, (2,))
    w = wedge(dx1, dx2)
    assert w.coeffs == {(1, 2): 1.0}
    assert wedge(dx2, dx1).coeffs == {(1, 2): -1.0}
    assert wedge(dx1, dx1).is_zero()


def test_wedge_graded_antisymmetry():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = Covector(4, 1, {(i,): rng.standard_normal() for i in range(1, 5)})
        b = Covector(
            4, 2, {(1, 2): rng.standard_normal(), (3, 4): rng.standard_normal()}
        )
        ab = wedge(a, b)
        ba = wedge(b, a)
        # (-1)^{1*2} = +1
        for idx in set(ab.coeffs) | set(ba.coeffs):
            assert ab.coeffs.get(idx, 0.0) == pytest.approx(ba.coeffs.get(idx, 0.0))


def test_wedge_beyond_top_degree_vanishes():
    a = Covector.basis(2, (1, 2))
    b = Covector.basis(2, (1,))
    assert wedge(a, b).is_zero()


def test_euclidean_norm():
    a = Covector(2, 1, {(1,): 3.0, (2,): 4.0})
    assert euclidean_norm(a) == pytest.approx(5.0)
    assert euclidean_norm(Covector.zero(3, 2)) == 0.0


def test_unit_sphere_area():
    assert unit_sphere_area(2) == pytest.approx(2.0 * math.pi)
    assert unit_sphere_area(3) == pytest.approx(4.0 * math.pi)
    assert unit_sphere_area(4) == pytest.approx(2.0 * math.pi**2)


def test_sphere_norm_dx1_r2():
    a = Covector.basis(2, (1,))
    est = sphere_norm(a, 2.0)
    assert est.value == pytest.approx(math.sqrt(math.pi), rel=1e-10)


def test_sphere_norm_top_form_r2():
    a = Covector.basis(2, (1, 2))
    est = sphere_norm(a, 2.0)
    assert est.value == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-10)


def test_sphere_norm_dx1_r3():
    a = Covector.basis(3, (1,))
    est = sphere_norm(a, 2.0)
    assert est.value == pytest.approx(math.sqrt(4.0 * math.pi / 3.0), rel=1e-8)


def test_sphere_norm_top_form_r3():
    a = Covector.basis(3, (1, 2, 3), coeff=-2.0)
    est = sphere_norm(a, 2.0)
    exact = 2.0 * math.sqrt((4.0 * math.pi) ** 3 * 2.0 / 9.0)
    assert est.value == pytest.approx(exact, rel=1e-8)


def test_sphere_norm_needs_p_at_least_one():
    with pytest.raises(ArgumentError, match="p must be >= 1"):
        sphere_norm(Covector.basis(2, (1,)), 0.5)


def test_sphere_norm_p4():
    a = Covector.basis(2, (1,))
    est = sphere_norm(a, 4.0)
    assert est.value == pytest.approx((3.0 * math.pi / 4.0) ** 0.25, rel=1e-10)


def test_sphere_norm_zero_covector():
    est = sphere_norm(Covector.zero(2, 1))
    assert est.value == 0.0


def test_sphere_norm_homogeneity():
    a = Covector(2, 1, {(1,): 1.25, (2,): -0.5})
    assert sphere_norm(3.0 * a, 2.0).value == pytest.approx(
        3.0 * sphere_norm(a, 2.0).value, rel=1e-12
    )


def test_sphere_norm_one_covector_proportional_to_euclidean():
    # for 1-covectors the sphere norm is a fixed multiple of the coefficient
    # norm, by rotation invariance of the sphere measure
    rng = np.random.default_rng(42)
    ratios = []
    for _ in range(50):
        coeffs = {(i,): rng.standard_normal() for i in range(1, 4)}
        a = Covector(3, 1, coeffs)
        ratios.append(sphere_norm(a, 2.0).value / euclidean_norm(a))
    assert np.ptp(ratios) < 1e-8
    assert ratios[0] == pytest.approx(math.sqrt(4.0 * math.pi / 3.0), rel=1e-8)


def test_sphere_norm_comparable_to_euclidean():
    # c1 * |a|_2 <= |a|_{S,p} <= c2 * |a|_2 across random 2-covectors in R^3
    rng = np.random.default_rng(2024)
    ratios = []
    for _ in range(1000):
        coeffs = {
            idx: rng.standard_normal() for idx in [(1, 2), (1, 3), (2, 3)]
        }
        a = Covector(3, 2, coeffs)
        en = euclidean_norm(a)
        if en < 1e-12:
            continue
        ratios.append(sphere_norm(a, 2.0).value / en)
    ratios = np.array(ratios)
    assert ratios.min() > 0.1
    assert ratios.max() / ratios.min() < 10.0


def test_sphere_norm_monte_carlo_matches_quadrature():
    # non-decomposable degree: Monte Carlo, checked against the exact p = 2
    # value (distinct basis minors are orthogonal on the sphere, so
    # |alpha|_{S,2}^2 = C(n, k, 2) |alpha|_2^2 for every covector)
    rng = np.random.default_rng(8)
    indices = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    for a in (
        Covector(4, 2, {(1, 2): 1.0, (3, 4): 1.0}),
        Covector(4, 2, {idx: rng.standard_normal() for idx in indices}),
    ):
        mc = sphere_norm(a, 2.0)
        exact = math.sqrt(sphere_power_constant(4, 2, 2.0)) * euclidean_norm(a)
        assert mc.error > 0.0
        assert abs(mc.value - exact) < 4.0 * mc.error


def test_sphere_norm_monte_carlo_high_dimension():
    # a 1-covector is decomposable in any dimension, so exact:
    # int_{S^4} v1^2 = area(S^4) / 5
    est = sphere_norm(Covector.basis(5, (1,)), 2.0)
    assert est.value == pytest.approx(math.sqrt(unit_sphere_area(5) / 5.0), rel=1e-12)
    assert est.error == 0.0


def test_sphere_norm_error_estimate_brackets_truth():
    a = Covector.basis(2, (1,))
    est = sphere_norm(a, 3.0)
    # int_0^{2pi} |cos|^3 = 8/3
    exact = (8.0 / 3.0) ** (1.0 / 3.0)
    assert abs(est.value - exact) <= max(est.error, 1e-9)


def quadrature_oracle(alpha, p, nodes):
    """|alpha|_{S,p}^p by product quadrature on the M^k tensor grid, and its
    relative error: the change to the half-resolution rule plus the change
    under a half-step turn of the azimuth grid, times 10 for non-even p
    (|.|^p has a kink).

    The turn is there because the trapezoid error of |cos(phi - phi0)|^p
    is a sum of modes cos(j M phi0): where the coarse rule's leading mode
    vanishes the half-resolution change nearly cancels, but a half-step
    turn then changes the fine rule by about twice its error.
    """
    n, k = alpha.dimension, alpha.degree
    coeffs = np.array(list(alpha.coeffs.values()))

    def integrate(m, turn=0.0):
        m_phi = m if n == 2 else 2 * m
        phi = 2.0 * math.pi * (np.arange(m_phi) + turn) / m_phi
        if n == 2:
            pts = np.stack([np.cos(phi), np.sin(phi)], axis=1)
            wts = np.full(m, 2.0 * math.pi / m)
        else:
            u, gl_w = np.polynomial.legendre.leggauss(m)
            su = np.sqrt(np.maximum(0.0, 1.0 - u**2))
            pts = np.stack(
                [np.outer(su, np.cos(phi)), np.outer(su, np.sin(phi)),
                 np.repeat(u[:, None], m_phi, axis=1)],
                axis=2,
            ).reshape(-1, 3)
            wts = np.repeat(gl_w * (2.0 * math.pi / m_phi), m_phi)
        combo = np.stack(
            np.unravel_index(np.arange(len(pts) ** k), (len(pts),) * k), axis=1
        )
        dets = minor_dets(list(alpha.coeffs), pts[combo])
        return float(np.abs(dets @ coeffs) ** p @ np.prod(wts[combo], axis=1))

    full = integrate(nodes)
    change = abs(full - integrate(max(2, nodes // 2)))
    change += abs(full - integrate(nodes, turn=0.5))
    rel = change / max(abs(full), 1e-300)
    if p != 2.0 * round(p / 2.0):
        rel *= 10.0
    return full, rel


@st.composite
def decomposable_covectors(draw):
    n = draw(st.integers(2, 3))
    k = draw(st.integers(1, n))
    basis = list(combinations(range(1, n + 1), k))
    chosen = draw(st.lists(st.sampled_from(basis), min_size=1, unique=True))
    magnitudes = st.floats(0.1, 4.0) | st.floats(-4.0, -0.1)
    alpha = Covector(n, k, {idx: draw(magnitudes) for idx in chosen})
    # the M^k grid stays at or below 32,768 combinations.  On S^1, M is a
    # power of two from 8: for odd M / 2 the coarse nodes alias the fine ones
    # modulo pi, and the turn cannot show it for dx1^dx2, which the turn
    # leaves invariant.  On S^2, m starts at 4: the m = 3 and m = 2 rules
    # agree on dx1^dx2 at p = 3 to 2e-4 while both miss it by 6e-3
    if n == 2:
        nodes = 2 ** draw(st.integers(3, 15 if k == 1 else 7))
    else:
        nodes = draw(st.integers(4, {1: 128, 2: 9, 3: 4}[k]))
    return alpha, draw(st.sampled_from([1.5, 2.0, 3.0])), nodes


@settings(max_examples=60, deadline=2000)
@given(decomposable_covectors())
def test_closed_form_sphere_norm_matches_product_quadrature(case):
    alpha, p, nodes = case
    power, rel = quadrature_oracle(alpha, p, nodes)
    exact = sphere_norm(alpha, p).value ** p
    # the half-resolution error, floored at the oracle's rounding
    assert abs(exact - power) <= max(rel, 1e-12) * power
