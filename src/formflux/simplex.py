"""Integration over affine k-simplices.

The reference simplex is Delta_k = {s in R^k : s_i >= 0, sum s_i <= 1} with
Lebesgue measure m_k(Delta_k) = 1/k!.  A simplex in R^n is the ordered tuple
(x_0, ..., x_k); quadrature happens on Delta_k through the affine chart
phi(s) = x_0 + sum_i s_i (x_i - x_0).

Three rules: Grundmann-Moller (odd degree, default 7) for smooth
integrands, jittered-stratified nodes for rough segment integrands, and a
sorted-uniform-spacings Monte Carlo rule for rough higher orders.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError
from .exterior import _batch_det, contract_minors, minor_dets
from .forms import Polynomial, _block_rows, _padded_rows, row_dot

__all__ = [
    "SimplexQuadratureRule",
    "grundmann_moller_rule",
    "monte_carlo_rule",
    "stratified_segment_rule",
    "default_rule",
    "integrate_form",
    "edge_integrals",
    "integrate_polynomial_form_exact",
    "reference_monomial_integral",
]


def _points(simplex):
    """The (k+1, n) corner array of a simplex given as k+1 points in R^n,
    k <= n; its orientation is the listed order."""
    pts = np.asarray(simplex, dtype=float)
    if pts.ndim != 2:
        raise ArgumentError("simplex points must form a (k+1, n) array")
    if pts.shape[0] - 1 > pts.shape[1]:
        raise ArgumentError("need k <= n")
    return pts


@dataclass(frozen=True)
class SimplexQuadratureRule:
    """Nodes and weights on the reference simplex Delta_k.

    Weights sum to m_k(Delta_k) = 1/k!.
    """

    kind: str
    order: int
    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.points.shape != (len(self.weights), self.order):
            raise ArgumentError("rule nodes and weights are inconsistent")


def _compositions(total, parts):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def grundmann_moller_rule(k, degree=7):
    """The Grundmann-Moller rule of odd degree on Delta_k.

    Exact for polynomials of total degree <= degree; weights (which mix
    signs) sum to 1/k!.
    """
    if k < 0:
        raise ArgumentError("simplex order must be >= 0")
    if k == 0:
        return SimplexQuadratureRule(
            "grundmann-moller", 0, np.zeros((1, 0)), np.array([1.0])
        )
    if degree < 1 or degree % 2 == 0:
        raise ArgumentError("grundmann-moller degree must be odd")
    s = (degree - 1) // 2
    d = degree
    pts = []
    wts = []
    for i in range(s + 1):
        coef = (
            (-1.0) ** i
            * 2.0 ** (-2 * s)
            * float(d + k - 2 * i) ** d
            / (math.factorial(i) * math.factorial(d + k - i))
        )
        denom = float(d + k - 2 * i)
        for beta in _compositions(s - i, k + 1):
            bary = (2.0 * np.asarray(beta, dtype=float) + 1.0) / denom
            pts.append(bary[1:])
            wts.append(coef)
    return SimplexQuadratureRule(
        "grundmann-moller", k, np.asarray(pts), np.asarray(wts)
    )


def monte_carlo_rule(k, samples=1024, seed=0):
    """Uniform nodes on Delta_k by sorted-uniform spacings, equal weights."""
    if k < 0:
        raise ArgumentError("simplex order must be >= 0")
    if k == 0:
        return SimplexQuadratureRule(
            "monte-carlo", 0, np.zeros((1, 0)), np.array([1.0])
        )
    if samples < 1:
        raise ArgumentError("need at least one sample")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    u = np.sort(rng.random((samples, k)), axis=1)
    pts = np.diff(u, axis=1, prepend=0.0)
    wts = np.full(samples, 1.0 / (math.factorial(k) * samples))
    return SimplexQuadratureRule("monte-carlo", k, pts, wts)


def stratified_segment_rule(samples=1024, seed=0):
    """Jittered equispaced nodes on [0, 1], one per cell, equal weights.

    For an integrand that is smooth apart from finitely many jumps the
    error is at most (number of jumps) * sup|f| / samples with probability
    one, since only the cells containing a jump misestimate their piece.
    That hard bound (against the soft 1/sqrt(samples) of iid sampling) is
    what lets the coboundary snap guard separate quadrature noise from
    genuine jump signal.
    """
    if samples < 1:
        raise ArgumentError("need at least one sample")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pts = ((np.arange(samples) + rng.random(samples)) / samples)[:, np.newaxis]
    wts = np.full(samples, 1.0 / samples)
    return SimplexQuadratureRule("stratified", 1, pts, wts)


@functools.lru_cache(maxsize=32)
def default_rule(k, smooth=True):
    """Grundmann-Moller degree 7 for smooth integrands; stratified nodes
    for rough segments, plain MC 1024 for rough higher orders.

    The rules are deterministic (the rough ones use seed 0), so each is
    built once and shared; its points and weights are read-only.
    """
    if smooth:
        rule = grundmann_moller_rule(k, degree=7)
    elif k == 1:
        rule = stratified_segment_rule(samples=1024)
    else:
        rule = monte_carlo_rule(k, samples=1024)
    rule.points.flags.writeable = False
    rule.weights.flags.writeable = False
    return rule


def integrate_form(omega, simplex, rule=None):
    """The oriented integral of the k-form omega over the simplex.

    Pulls back through the affine chart: sum_q w_q omega_{phi(s_q)}(edges),
    computed by edge_integrals as a batch of one.  Odd permutations of the
    corners negate the value.
    """
    pts = _points(simplex)
    k = pts.shape[0] - 1
    if omega.degree != k:
        raise ArgumentError(
            f"form degree {omega.degree} does not match simplex order {k}"
        )
    if omega.dimension != pts.shape[1]:
        raise ArgumentError("form and simplex dimension mismatch")
    if rule is None:
        rule = default_rule(k, smooth=omega.backend != "rough")
    if rule.order != k:
        raise ArgumentError("rule order does not match simplex order")
    edges = (pts[1:] - pts[0])[np.newaxis]
    return float(edge_integrals(omega, rule, pts[:1], edges)[0])


def edge_integrals(omega, rule, base, edges, unit_vectors=None, with_mass=False):
    """sum_q w_q omega_{base + s_q . edges}(det edges) for each of N simplices.

    base is (N, n) and edges (N, k, n).  When unit_vectors is given the
    determinant part uses it instead of edges (the radii having been
    factored out analytically).  With with_mass, also returns the quadrature
    mass sum_q |w_q| |integrand_q|.

    The nodes are evaluated one block of rows at a time (forms._NODE_BLOCK
    nodes), so the positions and coefficients never exist for the whole
    batch; only the (N, Q) integrand does, allocated with the zero rows
    that forms.row_dot pads with.  Every step computes row by row, so a
    simplex gets the same bits in any batch.  Positions are built only for
    the coordinates the coefficients read (FormField._reads).  Constant
    coefficients read none: they are evaluated once, and each row's
    contraction is broadcast across its Q nodes, with the bits of
    contracting every node.
    """
    n = omega.dimension
    k = omega.degree
    P, W = rule.points, rule.weights
    if k == 0:
        if not omega.indices:
            out = np.zeros(len(base))
            return (out, np.zeros(len(base))) if with_mass else out
        out = omega.coefficients_batch(base)[:, 0]
        return (out, np.abs(out)) if with_mass else out
    N, Q = len(base), len(P)
    det_source = edges if unit_vectors is None else unit_vectors
    dets = minor_dets(omega.indices, det_source)
    integrand = np.empty((_padded_rows(N), Q))
    integrand[N:] = 0.0
    rows = _block_rows(Q)
    reads = omega._reads
    const = None if reads else omega.coefficients_batch(np.zeros((1, n)))
    buf = np.empty(n * min(rows, N) * Q if reads else 0)
    for lo in range(0, N, rows):
        hi = min(lo + rows, N)
        if const is not None:  # one contraction per row, broadcast to its nodes
            integrand[lo:hi] = contract_minors(const, dets[lo:hi, np.newaxis])
            continue
        # pos[c] = sum_j outer(edges[:, j, c], P[:, j]) + base[:, c], summed
        # in order j = 0, 1, ... without fused multiply-adds, for each read c.
        # Coordinate-major, so the coefficients read the column-major
        # (rows * Q, n) view and return column-major (rows * Q, m) values.
        pos = buf[: n * (hi - lo) * Q].reshape(n, hi - lo, Q)
        for c in reads:
            np.multiply.outer(edges[lo:hi, 0, c], P[:, 0], out=pos[c])
            for j in range(1, k):
                pos[c] += np.multiply.outer(edges[lo:hi, j, c], P[:, j])
            pos[c] += base[lo:hi, c, np.newaxis]
        coeffs = omega.coefficients_batch(pos.reshape(n, -1).T).reshape(
            hi - lo, Q, -1
        )
        contract_minors(coeffs, dets[lo:hi, np.newaxis], out=integrand[lo:hi])
    out = row_dot(integrand, W)[:N]
    if not with_mass:
        return out
    return out, row_dot(np.abs(integrand, out=integrand), np.abs(W))[:N]


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
    """Symbolic reference for integrate_form on polynomial backends.

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
        pulled = poly.compose_affine(base, edges)
        total += det * sum(
            c * reference_monomial_integral(p) for p, c in pulled.terms.items()
        )
    return total
