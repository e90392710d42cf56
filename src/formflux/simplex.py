"""Integration over affine k-simplices.

The reference simplex is Delta_k = {s in R^k : s_i >= 0, sum s_i <= 1} with
Lebesgue measure m_k(Delta_k) = 1/k!.  A simplex in R^n is the ordered tuple
(x_0, ..., x_k); quadrature happens on Delta_k through the affine chart
phi(s) = x_0 + sum_i s_i (x_i - x_0).

Three rules: Grundmann-Moller (odd degree: an unsupported polynomial
form's own, so exact up to rounding, else 7) for smooth integrands,
jittered-stratified nodes for rough segment integrands, and a
sorted-uniform-spacings Monte Carlo rule for rough higher orders.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError
from .estimates import check_integer, random_stream
from .exterior import contract_minors, minor_dets
from .forms import _block_rows, row_dot

__all__ = [
    "SimplexQuadratureRule",
    "grundmann_moller_rule",
    "monte_carlo_rule",
    "stratified_segment_rule",
    "default_rule",
    "integrate_form",
    "edge_integrals",
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
    k = check_integer(k, "simplex order")
    degree = check_integer(degree, "grundmann-moller degree")
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
    k = check_integer(k, "simplex order")
    samples = check_integer(samples, "samples")
    rng = random_stream(seed)
    if k < 0:
        raise ArgumentError("simplex order must be >= 0")
    if k == 0:
        return SimplexQuadratureRule(
            "monte-carlo", 0, np.zeros((1, 0)), np.array([1.0])
        )
    if samples < 1:
        raise ArgumentError("need at least one sample")
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
    genuine jump signal.  edge_integrals screens a face at every 16th node
    and the last, and evaluates the nodes between two adjacent screen nodes
    only when the values at those two differ.  So under it the bound holds
    wherever each jump lies between two screen nodes whose values differ; a
    piece that lies between two screen nodes with equal values on both
    sides is not seen, whether or not the face crosses a jump elsewhere.
    """
    samples = check_integer(samples, "samples")
    if samples < 1:
        raise ArgumentError("need at least one sample")
    rng = random_stream(seed)
    pts = ((np.arange(samples) + rng.random(samples)) / samples)[:, np.newaxis]
    wts = np.full(samples, 1.0 / samples)
    return SimplexQuadratureRule("stratified", 1, pts, wts)


def default_rule(k, smooth=True, degree=7):
    """Grundmann-Moller of odd `degree` for smooth integrands; stratified
    nodes for rough segments, plain MC 1024 for rough higher orders.

    A lower degree is better conditioned: sum|w| * k! is 1.0 at degree 1,
    6.2 / 8.7 / 11.9 at 7 (k = 1 / 2 / 3), and about doubles with each step
    of 2, to 119 / 173 / 251 at 15.  The rules are deterministic (the rough
    ones use seed 0), so each is built once per (k, smooth, degree),
    however the call spells them, and shared; its points and weights are
    read-only.
    """
    return _shared_rule(k, bool(smooth), degree)


@functools.lru_cache(maxsize=64)
def _shared_rule(k, smooth, degree):
    if smooth:
        rule = grundmann_moller_rule(k, degree=degree)
    elif k == 1:
        rule = stratified_segment_rule(samples=1024)
    else:
        rule = monte_carlo_rule(k, samples=1024)
    rule.points.flags.writeable = False
    rule.weights.flags.writeable = False
    return rule


def _form_rule(omega):
    """default_rule for omega: degree d | 1, the least odd degree >= max(d,
    1), for a polynomial form of total degree d with no support, whose
    pullback it integrates exactly (one node if d <= 1); else the default."""
    if omega.backend != "polynomial" or omega.support is not None:
        return default_rule(omega.degree, smooth=omega.backend != "rough")
    top = max((p.total_degree for p in omega.components.values()), default=0)
    return default_rule(omega.degree, True, top | 1)


def integrate_form(omega, simplex, rule=None):
    """The oriented integral of the k-form omega over the simplex.

    Pulls back through the affine chart: sum_q w_q omega_{phi(s_q)}(edges),
    computed by edge_integrals as a batch of one, under _form_rule(omega)
    when no rule is given.  Odd permutations of the corners negate the value.
    A form of degree above n is zero: 0.0 over any degree + 1 points.
    """
    if (omega.degree > omega.dimension
            and np.shape(simplex) == (omega.degree + 1, omega.dimension)):
        return 0.0
    pts = _points(simplex)
    k = pts.shape[0] - 1
    if omega.degree != k:
        raise ArgumentError(
            f"form degree {omega.degree} does not match simplex order {k}"
        )
    if omega.dimension != pts.shape[1]:
        raise ArgumentError("form and simplex dimension mismatch")
    if rule is None:
        rule = _form_rule(omega)
    if rule.order != k:
        raise ArgumentError("rule order does not match simplex order")
    edges = (pts[1:] - pts[0])[np.newaxis]
    return float(edge_integrals(omega, rule, pts[:1], edges)[0])


# Stride of the rough-face screen: every _SCREEN-th node of a stratified
# segment rule, and its last node, are evaluated first.  The nodes strictly
# between two adjacent screen nodes form a stretch.
_SCREEN = 16


def _read_span(omega):
    """The coordinates from the first the coefficients read to the last, as a
    slice (empty for a form that reads none; FormField._reads)."""
    reads = omega._reads
    return slice(reads[0], reads[-1] + 1) if reads else slice(0, 0)


def _block_buffer(omega, rows, Q):
    """Scratch for _integrand_block on blocks of up to `rows` rows of Q nodes:
    n position columns, then the m coefficient columns, which hold the
    product term's columns, one per coordinate of _read_span, while the
    positions are built (k > 1)."""
    n, span = omega.dimension, _read_span(omega)
    term = span.stop - span.start if omega.degree > 1 else 0
    return np.empty((n + max(len(omega.indices), term)) * rows * Q)


def _integrand_block(omega, P, base, edges, dets, buf, out):
    """The integrand at the nodes P of a block of rows, into out (rows, Q).

    P is (Q, k), the same nodes for every row, or (rows, Q, k), each row's
    own nodes.  buf is from _block_buffer.  pos[c] = edges[:, 0, c] *
    P[..., 0] + edges[:, 1, c] * P[..., 1] + ... + base[:, c], in that
    order and without fused multiply-adds, for the coordinates c of
    _read_span all at once: one broadcast multiply and one add per edge, and
    one add of base.  The coefficients read no other coordinate.
    Coordinate-major, so the coefficients read the column-major (rows * Q,
    n) view, and write column-major (rows * Q, m) values.  The positions,
    the product term and the values all live in buf.
    """
    n, m = omega.dimension, len(omega.indices)
    rows, Q = out.shape
    size = rows * Q
    pos = buf[: n * size].reshape(n, rows, Q)
    if omega._reads:
        span = _read_span(omega)
        at = pos[span]
        e = edges.transpose(1, 2, 0)[:, span, :, np.newaxis]  # (k, span, rows, 1)
        np.multiply(e[0], P[..., 0], out=at)
        if len(e) > 1:
            term = buf[n * size : (n + len(at)) * size].reshape(at.shape)
        for j in range(1, len(e)):
            at += np.multiply(e[j], P[..., j], out=term)
        at += base.T[span, :, np.newaxis]
    coeffs = buf[n * size : (n + m) * size].reshape(m, size).T
    omega.coefficients_batch(pos.reshape(n, -1).T, out=coeffs)
    contract_minors(coeffs.reshape(rows, Q, m), dets[:, np.newaxis], out=out)


def _crossed_integrand(omega, P, stops, base, edges, dets, vals):
    """The (rows, Q) integrand of rows whose values `vals` at the screen
    nodes `stops` differ.

    A stretch whose two end values are equal (==) takes that value at every
    node; the others are evaluated, a node block of stretches at a time, as
    rows of their own nodes.  A row's screen and evaluated nodes are each
    computed once.
    """
    rows, Q = len(vals), len(P)
    integrand = np.empty((rows, Q))
    whole = (Q - 1) // _SCREEN  # stretches of the full stride
    integrand[:, : whole * _SCREEN].reshape(rows, whole, _SCREEN)[...] = (
        vals[:, :whole, np.newaxis])
    integrand[:, whole * _SCREEN :] = vals[:, whole, np.newaxis]
    integrand[:, -1] = vals[:, -1]
    changed = vals[:, 1:] != vals[:, :-1]
    gaps = np.diff(stops)
    # the last stretch may be shorter than the rest: one pass per length
    for gap in np.unique(gaps[gaps > 1]):
        # each changed stretch of this length as row * len(gaps) + stretch
        pairs = np.flatnonzero(changed & (gaps == gap))
        step = _block_rows(gap - 1)
        buf = _block_buffer(omega, min(step, len(pairs)), gap - 1)
        block = np.empty((min(step, len(pairs)), gap - 1))
        for lo in range(0, len(pairs), step):
            r, j = np.divmod(pairs[lo : lo + step], len(gaps))
            nodes = stops[j, np.newaxis] + np.arange(1, gap)
            _integrand_block(omega, P[nodes], base[r], edges[r], dets[r], buf,
                             block[: len(r)])
            integrand[r[:, np.newaxis], nodes] = block[: len(r)]
    return integrand


def _screen_values(omega, P, stops, base, edges, dets):
    """The (N, len(stops)) integrand at the screen nodes P[stops], in blocks
    of as many nodes as a block of the whole rule holds."""
    vals = np.empty((len(base), len(stops)))
    step = _block_rows(len(P)) * len(P) // len(stops)
    buf = _block_buffer(omega, min(step, len(base)), len(stops))
    for lo in range(0, len(base), step):
        hi = lo + step
        _integrand_block(omega, P[stops], base[lo:hi], edges[lo:hi],
                         dets[lo:hi], buf, vals[lo:hi])
    return vals


def _screened_integrals(omega, rule, base, edges, dets, with_mass):
    """edge_integrals on a stratified segment rule of more than 2 * _SCREEN
    nodes, for a form whose coefficients read the positions."""
    P, W = rule.points, rule.weights
    stops = np.append(np.arange(0, len(P) - 1, _SCREEN), len(P) - 1)
    vals = _screen_values(omega, P, stops, base, edges, dets)
    busy = np.flatnonzero((vals != vals[:, :1]).any(axis=1))
    integrand = _crossed_integrand(omega, P, stops, base[busy], edges[busy],
                                   dets[busy], vals[busy])
    out = vals[:, 0] * W.sum()
    out[busy] = row_dot(integrand, W)
    if not with_mass:
        return out
    mass = np.abs(vals[:, 0]) * np.abs(W).sum()
    mass[busy] = row_dot(np.abs(integrand, out=integrand), np.abs(W))
    return out, mass


def edge_integrals(omega, rule, base, edges, unit_vectors=None, with_mass=False):
    """sum_q w_q omega_{base + s_q . edges}(det edges) for each of N simplices.

    base is (N, n) and edges (N, k, n).  When unit_vectors is given the
    determinant part uses it instead of edges (the radii having been
    factored out analytically).  With with_mass, also returns the quadrature
    mass sum_q |w_q| |integrand_q|.

    The nodes are evaluated one block of rows at a time (forms._block_rows:
    forms._NODE_BLOCK nodes, or forms._MIN_BLOCK_ROWS rows of a long rule),
    in one scratch buffer per call, so the positions and coefficients never
    exist for the whole batch; only the (N, Q) integrand does, reduced in
    one forms.row_dot call.  Every step computes row by row, so a simplex
    gets the same bits in any batch.  Positions are built only from the
    first coordinate the coefficients read to the last (_read_span), and
    not at all for a form that reads none.

    On a stratified segment rule of more than 2 * _SCREEN nodes each row is
    first evaluated at the screen nodes 0, _SCREEN, 2 * _SCREEN, ... and
    Q - 1 (65 of the default rule's 1,024), in blocks of as many nodes as a
    block of the full rule holds.  A row whose screen values are all equal
    (==, so a NaN never is) integrates in closed form: its value v gives
    v * sum(W), and its mass |v| * sum(|W|); under the default rule sum(W)
    is exactly 1.  Only the other rows, the crossed ones, get an (rows, Q)
    integrand.  In it each stretch between two adjacent screen nodes takes
    the value of its ends when they are equal, and only the stretches whose
    ends differ are evaluated, in node blocks.  A crossed row keeps the bits
    of evaluating every node unless a stretch (at most 15 nodes, 16/1024 of
    a segment under the default rule) holds a value that differs from its
    equal ends; a constant row is within rounding of summing its nodes.
    Other rules have no node order along the simplex that would make a
    sparse screen safe, and are evaluated whole.
    """
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
    if omega._reads and rule.kind == "stratified" and Q > 2 * _SCREEN:
        return _screened_integrals(omega, rule, base, edges, dets, with_mass)
    integrand = np.empty((N, Q))
    rows = _block_rows(Q)
    buf = _block_buffer(omega, min(rows, N), Q)
    for lo in range(0, N, rows):
        hi = lo + rows
        _integrand_block(omega, P, base[lo:hi], edges[lo:hi], dets[lo:hi],
                         buf, integrand[lo:hi])
    out = row_dot(integrand, W)
    if not with_mass:
        return out
    return out, row_dot(np.abs(integrand, out=integrand), np.abs(W))
