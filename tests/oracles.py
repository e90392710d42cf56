"""Exact references that the tests compare the program against.

Each one computes its answer a second, independent way: symbolically
(polynomial pullbacks, monomial integrals over the reference simplex, the
wedge product) or as a batch of one of the kernel it checks.  They live
here, not in the package, so that no program path can come to rely on a
reference, and a reference cannot drift along with the code it checks.
"""

import math

import numpy as np

from formflux.domains import _dist_to_simplices
from formflux.errors import ArgumentError
from formflux.exterior import Covector, _batch_det, sort_with_sign
from formflux.forms import Polynomial
from formflux.simplex import _points


def _product(a, b):
    """The product of two polynomials in the same variables."""
    out = {}
    for pa, ca in a.terms.items():
        for pb, cb in b.terms.items():
            key = tuple(x + y for x, y in zip(pa, pb))
            out[key] = out.get(key, 0.0) + ca * cb
    return Polynomial(a.dimension, out)


def compose_affine(poly, base, edges):
    """The polynomial s -> poly(base + s @ edges), in the s variables.

    edges has shape (k, n); the result lives in dimension k.  Exact
    (symbolic expansion).
    """
    base = np.asarray(base, dtype=float)
    edges = np.atleast_2d(np.asarray(edges, dtype=float))
    k = edges.shape[0]
    lines = []
    for j in range(poly.dimension):
        terms = {(0,) * k: float(base[j])}
        for i in range(k):
            key = tuple(1 if t == i else 0 for t in range(k))
            terms[key] = float(edges[i, j])
        lines.append(Polynomial(k, terms))
    out = Polynomial(k, {})
    for powers, c in poly.terms.items():
        term = Polynomial.constant(k, c)
        for j, e in enumerate(powers):
            for _ in range(e):
                term = _product(term, lines[j])
        out = out + term
    return out


def reference_monomial_integral(alpha):
    """Exact integral of prod s_i^{alpha_i} over Delta_k:
    prod(alpha_i!) / (|alpha| + k)!."""
    alpha = tuple(int(a) for a in alpha)
    k = len(alpha)
    num = 1
    for a in alpha:
        num *= math.factorial(a)
    return num / math.factorial(sum(alpha) + k)


def integrate_polynomial_form_exact(omega, simplex):
    """Symbolic reference for simplex.integrate_form on polynomial backends.

    Expands the pullback coefficients in the simplex coordinates and
    integrates monomial by monomial.
    """
    if omega.backend != "polynomial":
        raise ArgumentError("exact integration needs a polynomial backend")
    pts = _points(simplex)
    k = pts.shape[0] - 1
    if omega.degree != k:
        raise ArgumentError("form degree does not match simplex order")
    base = pts[0]
    edges = pts[1:] - pts[0]
    total = 0.0
    for idx in omega.indices:
        poly = omega.components[idx]
        if not isinstance(poly, Polynomial):
            raise ArgumentError("exact integration needs polynomial coefficients")
        if k == 0:
            total += sum(
                c * float(np.prod(base ** np.asarray(p)))
                for p, c in poly.terms.items()
            )
            continue
        cols = [i - 1 for i in idx]
        det = float(_batch_det(edges[:, cols][np.newaxis, :, :])[0])
        if det == 0.0:
            continue
        pulled = compose_affine(poly, base, edges)
        total += det * sum(
            c * reference_monomial_integral(p) for p, c in pulled.terms.items()
        )
    return total


def wedge(alpha, beta):
    """Wedge product of two covectors on the same R^n."""
    if alpha.dimension != beta.dimension:
        raise ArgumentError("wedge requires covectors on the same space")
    n = alpha.dimension
    degree = alpha.degree + beta.degree
    if degree > n:
        return Covector.zero(n, degree)
    out = {}
    for ia, ca in alpha.coeffs.items():
        for ib, cb in beta.coeffs.items():
            merged, sign = sort_with_sign(ia + ib)
            if sign == 0:
                continue
            out[merged] = out.get(merged, 0.0) + sign * ca * cb
    return Covector(n, degree, out)


def dist_point_to_simplex(x, vertices):
    """Exact Euclidean distance from x to the convex hull of `vertices`:
    `domains._dist_to_simplices` on a batch of one."""
    return float(_dist_to_simplices([x], [vertices])[0])
