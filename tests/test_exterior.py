"""Tests for alternating covectors, wedge, and sphere norms.

Frozen reference values are exact integrals computed by hand:
  int_{S^1} |cos|^2 = pi                    -> |dx1|_{S,2} = sqrt(pi) in R^2
  int_{S^1 x S^1} sin^2(a-b) = 2 pi^2       -> |dx1^dx2|_{S,2} = pi sqrt(2)
  int_{S^2} v1^2 = 4 pi / 3                 -> |dx1|_{S,2} = sqrt(4 pi / 3) in R^3
  E[det(v1,v2,v3)^2] = 2/9 on (S^2)^3       -> top norm = sqrt((4 pi)^3 * 2/9)
  int_{S^1} |cos|^4 = 3 pi / 4              -> |dx1|_{S,4} = (3 pi / 4)^{1/4}
"""

import math
import tracemalloc

import numpy as np
import pytest

from formflux import exterior
from formflux.errors import ArgumentError
from formflux.exterior import (
    Covector,
    SphereNormConfig,
    euclidean_norm,
    sort_with_sign,
    sphere_norm,
    sphere_power_integrals,
    sphere_quadrature,
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


def test_sphere_quadrature_weights_sum_to_area():
    for n in (2, 3):
        pts, wts = sphere_quadrature(n, 32)
        assert wts.sum() == pytest.approx(unit_sphere_area(n), rel=1e-12)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)


def test_sphere_quadrature_unsupported_dimension():
    with pytest.raises(ArgumentError):
        sphere_quadrature(4, 16)


def test_sphere_norm_dx1_r2():
    a = Covector.basis(2, (1,))
    est = sphere_norm(a, SphereNormConfig(p=2.0, nodes_or_samples=64))
    assert est.value == pytest.approx(math.sqrt(math.pi), rel=1e-10)


def test_sphere_norm_top_form_r2():
    a = Covector.basis(2, (1, 2))
    est = sphere_norm(a, SphereNormConfig(p=2.0, nodes_or_samples=64))
    assert est.value == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-10)


def test_sphere_norm_dx1_r3():
    a = Covector.basis(3, (1,))
    est = sphere_norm(a, SphereNormConfig(p=2.0, nodes_or_samples=24))
    assert est.value == pytest.approx(math.sqrt(4.0 * math.pi / 3.0), rel=1e-8)


def test_sphere_norm_top_form_r3():
    a = Covector.basis(3, (1, 2, 3), coeff=-2.0)
    est = sphere_norm(a, SphereNormConfig(p=2.0, nodes_or_samples=8))
    exact = 2.0 * math.sqrt((4.0 * math.pi) ** 3 * 2.0 / 9.0)
    assert est.value == pytest.approx(exact, rel=1e-8)


def test_sphere_norm_p4():
    a = Covector.basis(2, (1,))
    est = sphere_norm(a, SphereNormConfig(p=4.0, nodes_or_samples=64))
    assert est.value == pytest.approx((3.0 * math.pi / 4.0) ** 0.25, rel=1e-10)


def test_sphere_norm_zero_covector():
    est = sphere_norm(Covector.zero(2, 1))
    assert est.value == 0.0


def test_sphere_norm_homogeneity():
    a = Covector(2, 1, {(1,): 1.25, (2,): -0.5})
    cfg = SphereNormConfig(p=2.0, nodes_or_samples=64)
    assert sphere_norm(3.0 * a, cfg).value == pytest.approx(
        3.0 * sphere_norm(a, cfg).value, rel=1e-12
    )


def test_sphere_norm_one_covector_proportional_to_euclidean():
    # for 1-covectors the sphere norm is a fixed multiple of the coefficient
    # norm, by rotation invariance of the sphere measure
    rng = np.random.default_rng(42)
    cfg = SphereNormConfig(p=2.0, nodes_or_samples=64)
    ratios = []
    for _ in range(50):
        coeffs = {(i,): rng.standard_normal() for i in range(1, 4)}
        a = Covector(3, 1, coeffs)
        ratios.append(sphere_norm(a, cfg).value / euclidean_norm(a))
    assert np.ptp(ratios) < 1e-8
    assert ratios[0] == pytest.approx(math.sqrt(4.0 * math.pi / 3.0), rel=1e-8)


def test_sphere_norm_comparable_to_euclidean():
    # c1 * |a|_2 <= |a|_{S,p} <= c2 * |a|_2 across random 2-covectors in R^3
    rng = np.random.default_rng(2024)
    cfg = SphereNormConfig(p=2.0, nodes_or_samples=8)
    ratios = []
    for _ in range(1000):
        coeffs = {
            idx: rng.standard_normal() for idx in [(1, 2), (1, 3), (2, 3)]
        }
        a = Covector(3, 2, coeffs)
        en = euclidean_norm(a)
        if en < 1e-12:
            continue
        ratios.append(sphere_norm(a, cfg).value / en)
    ratios = np.array(ratios)
    assert ratios.min() > 0.1
    assert ratios.max() / ratios.min() < 10.0


def test_sphere_norm_monte_carlo_matches_quadrature():
    a = Covector(2, 1, {(1,): 1.0, (2,): 2.0})
    q = sphere_norm(a, SphereNormConfig(p=2.0, nodes_or_samples=64))
    mc = sphere_norm(
        a, SphereNormConfig(p=2.0, method="monte-carlo", nodes_or_samples=200000)
    )
    assert abs(mc.value - q.value) < 4.0 * max(mc.error, 1e-12)


def test_sphere_norm_monte_carlo_high_dimension():
    a = Covector.basis(5, (1,))
    est = sphere_norm(
        a, SphereNormConfig(p=2.0, method="monte-carlo", nodes_or_samples=200000)
    )
    # int_{S^4} v1^2 = area(S^4) / 5
    exact = math.sqrt(unit_sphere_area(5) / 5.0)
    assert abs(est.value - exact) < 4.0 * est.error


def test_sphere_norm_error_estimate_brackets_truth():
    a = Covector.basis(2, (1,))
    est = sphere_norm(a, SphereNormConfig(p=3.0, nodes_or_samples=256))
    # int_0^{2pi} |cos|^3 = 8/3
    exact = (8.0 / 3.0) ** (1.0 / 3.0)
    assert abs(est.value - exact) <= max(est.error, 1e-9)


def _traced_sphere_powers(coeffs, indices):
    tracemalloc.start()
    try:
        values, _ = sphere_power_integrals(coeffs, indices, 3, 3.0, 12)
        return values, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sphere_power_memory_follows_the_grid_chunk(monkeypatch):
    # 288 nodes on S^2, so 82,944 combinations: one chunk at the default
    # size, 21 chunks of 4,096
    coeffs = np.random.default_rng(5).normal(size=(3, 3))
    indices = [(1, 2), (1, 3), (2, 3)]
    one_chunk, one_peak = _traced_sphere_powers(coeffs, indices)
    monkeypatch.setattr(exterior, "_GRID_CHUNK", 4096)
    chunked, chunked_peak = _traced_sphere_powers(coeffs, indices)
    assert np.allclose(chunked, one_chunk, rtol=1e-13, atol=0.0)
    assert chunked_peak < 0.1 * one_peak
