"""The batched pullback and polynomial kernels against their plain formulas.

The kernels are restructured for speed but must return the same bits as
the straightforward numpy expressions kept here as references:

  node positions     base + einsum("qk,nkd->nqd", P, edges), all rows at once
  polynomials        sum_terms c * x_1^e_1 * x_2^e_2 * ..., each power x^e
                     and each monomial multiplied out left to right, no pow
  convolution        omega(pts[:, None, :] - ys[None]) @ weights
  row reductions     each row of A @ w as in a 4-row GEMV, zero-padded; a
                     matrix w one column at a time (forms.row_dot)
  face route         one face at a time, signed sum in face order, snap guard
  minor contraction  zeros, then coefficient * det added per basis index, in
                     order; with at most two indices also the bits of
                     einsum("nqm,nm->nq"), which the sweeps' digests pin

Single-tuple evaluation is a batch of one, so it must also give the bits of
the same tuple evaluated inside a larger batch wherever the base computes
row by row.  The pullback and the convolution do, so any split of a batch
gives the same bits, and the estimator evaluates only the accepted tuples.
Likewise they evaluate their nodes in blocks of forms._NODE_BLOCK, and no
block size may move a bit.  Nor may the memory layout: coefficient arrays
are column-major, and the points may come in either order.  Nor may the read set: the kernels build only the
coordinates a form reads, contract a constant form once per row, and
convolve by evaluating each distinct shift once and gathering, while the
references build and evaluate every coordinate of every node.

The sampler's row arithmetic works one coordinate column at a time: its
row norm, row all and row product give the bits of numpy's reductions over
the last axis in any layout, and the estimator builds the same tuple
points, directions and radii as the row-major code it replaced, kept here.
"""

import math
import tracemalloc
from functools import lru_cache
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from formflux import forms
from formflux.alexander_spanier import (
    CoboundaryMultifunction,
    DifferentialMultifunction,
    IntegrationMultifunction,
    UserMultifunction,
)
from formflux import seminorms
from formflux.domains import (
    Annulus,
    AxisBox,
    Ball,
    ConvexPolytope,
    normalize_rows,
    row_all,
    row_norm,
    row_product,
)
from formflux.exterior import (
    Covector,
    _batch_det,
    sphere_norm,
    unit_sphere_area,
)
from formflux.forms import (
    FormField,
    Mollifier,
    Polynomial,
    lp_norm,
    lp_sphere_norm,
    mollify,
    row_dot,
)
from formflux.seminorms import SeminormConfig
from formflux.simplex import (
    default_rule,
    edge_integrals,
    integrate_form,
    monte_carlo_rule,
)

PROPERTY = settings(max_examples=60, deadline=2000)


def reference_polynomial(poly, pts):
    out = np.zeros(pts.shape[0])
    for powers, c in poly.terms.items():
        monomial = None
        for j, e in enumerate(powers):
            for i in range(e):
                power = pts[:, j] if i == 0 else power * pts[:, j]
            if e:
                monomial = power if monomial is None else monomial * power
        out += c if monomial is None else c * monomial
    return out


def reference_coefficients(omega, pts):
    out = np.empty((pts.shape[0], len(omega.indices)))
    for col, idx in enumerate(omega.indices):
        comp = omega.components[idx]
        if isinstance(comp, Polynomial):
            out[:, col] = reference_polynomial(comp, pts)
        else:
            out[:, col] = np.asarray(comp(pts), dtype=float)
    if omega.support is not None:
        out *= omega.support.contains_batch(pts)[:, np.newaxis]
    return out


def ordered_contraction(coeffs, dets):
    integrand = np.zeros(coeffs.shape[:2])
    for col in range(dets.shape[1]):
        integrand += coeffs[:, :, col] * dets[:, np.newaxis, col]
    return integrand


def einsum_contraction(coeffs, dets):
    return np.einsum("nqm,nm->nq", coeffs, dets)


def four_row_product(a, w):
    """a @ w, each row computed by GEMV in a zero-padded batch of 4 rows,
    and a matrix w one column at a time.  4 rows stay far below the size
    at which OpenBLAS's GEMV goes multi-threaded (about 460k entries), so
    one thread computes them whatever the thread count."""
    if w.ndim == 2:
        return np.stack([four_row_product(a, np.ascontiguousarray(c)) for c in w.T],
                        axis=1)
    out = np.empty(len(a))
    for lo in range(0, len(a), 4):
        rows = a[lo : lo + 4]
        block = np.zeros((4, a.shape[1]))
        block[: len(rows)] = rows
        out[lo : lo + 4] = (block @ w)[: len(rows)]
    return out


def reference_edge_integrals(F, base, edges, unit_vectors=None, with_mass=False,
                             contraction=ordered_contraction):
    n = F.dimension
    P, W = F.rule.points, F.rule.weights
    disp = np.einsum("qk,nkd->nqd", P, edges)
    pos = (base[:, np.newaxis, :] + disp).reshape(-1, n)
    coeffs = reference_coefficients(F.omega, pos).reshape(len(base), len(P), -1)
    det_source = edges if unit_vectors is None else unit_vectors
    dets = np.empty((len(base), len(F.omega.indices)))
    for col, idx in enumerate(F.omega.indices):
        dets[:, col] = _batch_det(det_source[:, :, [i - 1 for i in idx]])
    integrand = contraction(coeffs, dets)
    if with_mass:
        return (four_row_product(integrand, W),
                four_row_product(np.abs(integrand), np.abs(W)))
    return four_row_product(integrand, W)


coordinates = st.floats(-4.0, 4.0, allow_nan=False, width=64)
coefficients = st.floats(-8.0, 8.0, allow_nan=False, width=64)


@st.composite
def sparse_polynomials(draw, dimension, max_degree=7, skip=None):
    """Up to 6 terms; no factor of x_{skip + 1} when skip is given."""
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        total = draw(st.integers(0, max_degree))
        powers = [0] * dimension
        for _ in range(total):
            j = draw(st.integers(0, dimension - 1))
            if j != skip:
                powers[j] += 1
        terms[tuple(powers)] = draw(coefficients)
    return Polynomial(dimension, terms)


# The node kernels build only the coordinates a form reads (FormField._reads),
# so the polynomial forms come in four kinds: any; constant, which reads no
# coordinate; one whose components all skip the same coordinate; and one
# truncated by a support, which reads every coordinate.
polynomial_kinds = st.sampled_from(["any", "constant", "skip", "truncated"])


def supports(n):
    return st.sampled_from(
        [Ball(np.full(n, 0.1), 0.7), AxisBox(np.full(n, -0.4), np.full(n, 0.6))]
    )


@st.composite
def polynomial_forms(draw, n, k, indices, kind, max_degree=5):
    skip = draw(st.integers(0, n - 1)) if kind == "skip" else None
    degree = 0 if kind == "constant" else max_degree
    omega = FormField.from_polynomials(n, k, {
        idx: draw(sparse_polynomials(n, max_degree=degree, skip=skip))
        for idx in indices
    })
    return omega.with_support(draw(supports(n))) if kind == "truncated" else omega


@st.composite
def polynomial_cases(draw):
    n = draw(st.integers(1, 3))
    rows = draw(st.integers(1, 40))
    pts = draw(hnp.arrays(np.float64, (rows, n), elements=coordinates))
    return draw(sparse_polynomials(n)), pts


@PROPERTY
@given(polynomial_cases())
def test_polynomial_batch_matches_reference(case):
    poly, pts = case
    assert np.array_equal(poly.evaluate_batch(pts), reference_polynomial(poly, pts))


def _rough_component(shift):
    return lambda p: np.sin(3.0 * p[:, 0] + shift) * np.sign(p[:, -1] - 0.1)


@st.composite
def layout_cases(draw):
    """A form with polynomial or rough components, with or without a
    support, and row-major points."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, n))
    indices = draw(basis_indices(n, k))
    if draw(st.booleans()):
        omega = FormField.from_polynomials(
            n, k, {idx: draw(sparse_polynomials(n, max_degree=5)) for idx in indices}
        )
    else:
        omega = FormField.from_callables(
            n, k, {idx: _rough_component(0.5 * i) for i, idx in enumerate(indices)}
        )
    if draw(st.booleans()):
        omega = omega.with_support(Ball(np.full(n, 0.1), 2.0))
    rows = draw(st.integers(1, 40))
    return omega, draw(hnp.arrays(np.float64, (rows, n), elements=coordinates))


@PROPERTY
@given(layout_cases())
def test_coefficients_are_column_major_whatever_the_point_layout(case):
    omega, pts = case
    rows = omega.coefficients_batch(pts)
    columns = omega.coefficients_batch(np.asfortranarray(pts))
    assert rows.flags.f_contiguous and columns.flags.f_contiguous
    assert np.array_equal(rows, columns)


def test_lp_norm_keeps_its_bits_on_column_major_coefficients():
    omega = FormField.from_polynomials(3, 2, {
        (1, 2): {(1, 0, 0): 1.5, (0, 2, 1): -0.7},
        (1, 3): {(0, 0, 0): 0.3, (3, 1, 0): 2.0},
        (2, 3): {(0, 1, 2): -1.1},
    })
    cube = AxisBox(np.full(3, -1.0), np.ones(3))
    config = dict(samples=5000, seed=4)
    coefficients = FormField.coefficients_batch
    row_major = mock.patch.object(
        FormField, "coefficients_batch",
        lambda self, pts: np.ascontiguousarray(coefficients(self, pts)),
    )
    for p in (1.0, 2.0, 3.5):
        got = lp_norm(omega, cube, p, **config)
        with row_major:
            want = lp_norm(omega, cube, p, **config)
        assert (got.value, got.stderr) == (want.value, want.stderr)


@st.composite
def basis_indices(draw, n, k):
    """A non-empty subset of the degree-k basis indices of R^n."""
    return [
        idx for idx in combinations(range(1, n + 1), k) if draw(st.booleans())
    ] or [tuple(range(1, k + 1))]


@st.composite
def integration_cases(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k, 3))
    smooth = draw(st.booleans())
    # one form in ten has no components (m = 0), whose integrals are zeros
    indices = draw(basis_indices(n, k)) if draw(st.integers(0, 9)) else []
    if smooth:
        omega = draw(polynomial_forms(n, k, indices, draw(polynomial_kinds)))
    else:
        omega = FormField.from_callables(
            n, k, {idx: _rough_component(0.5 * i) for i, idx in enumerate(indices)}
        )
    rows = draw(st.integers(1, 6 if smooth else 2))
    x0 = draw(hnp.arrays(np.float64, (rows, n), elements=coordinates))
    vs = draw(hnp.arrays(np.float64, (rows, k, n), elements=coordinates))
    rs = draw(hnp.arrays(
        np.float64, (rows, k), elements=st.floats(0.0, 2.0, width=64)
    ))
    return IntegrationMultifunction(omega, default_rule(k, smooth=smooth)), x0, vs, rs


def assert_matches_references(got, F, base, edges, unit_vectors=None):
    """got has the bits of the ordered reference and, with at most two
    basis indices, also those of the einsum contraction."""
    assert np.array_equal(
        got, reference_edge_integrals(F, base, edges, unit_vectors)
    )
    if len(F.omega.indices) <= 2:
        assert np.array_equal(got, reference_edge_integrals(
            F, base, edges, unit_vectors, contraction=einsum_contraction
        ))


@PROPERTY
@given(integration_cases())
def test_integration_batch_matches_ordered_reference(case):
    F, x0, vs, _ = case
    tuples = np.concatenate([x0[:, np.newaxis, :], x0[:, np.newaxis, :] + vs], axis=1)
    edges = tuples[:, 1:, :] - tuples[:, :1, :]
    assert_matches_references(F.evaluate_batch(tuples), F, x0, edges)


@PROPERTY
@given(integration_cases())
def test_scaled_integration_matches_ordered_reference(case):
    F, x0, vs, rs = case
    assert_matches_references(
        F.evaluate_scaled_batch(x0, vs, rs), F, x0, rs[..., np.newaxis] * vs,
        unit_vectors=vs,
    )


def _node_block(rows, nodes):
    """Patch the node block to `rows` rows of `nodes` nodes, or to a single
    node (one row per block) when rows is 0.  The convolution counts a
    block's nodes in distinct shifts, so a component it evaluates at m of
    its `nodes` nodes gets rows * nodes // m rows per block; rows = 0 still
    gives one row per block."""
    return mock.patch.object(forms, "_NODE_BLOCK", max(1, rows * nodes))


# rows per block: 1 node, and 1, 2 or 4 rows, which leave a partial last
# block on batches of 3, 5 and 6 rows
block_rows = st.sampled_from([0, 1, 2, 4])


@PROPERTY
@given(integration_cases(), block_rows)
def test_pullback_node_blocks_keep_the_bits(case, rows):
    F, x0, vs, rs = case
    edges = rs[..., np.newaxis] * vs
    with _node_block(rows, len(F.rule.weights)):
        plain = edge_integrals(F.omega, F.rule, x0, vs)
        scaled = edge_integrals(F.omega, F.rule, x0, edges, unit_vectors=vs)
        plain_mass = edge_integrals(F.omega, F.rule, x0, vs, with_mass=True)
        scaled_mass = edge_integrals(
            F.omega, F.rule, x0, edges, unit_vectors=vs, with_mass=True
        )
    want_plain = reference_edge_integrals(F, x0, vs, with_mass=True)
    want_scaled = reference_edge_integrals(
        F, x0, edges, unit_vectors=vs, with_mass=True
    )
    assert np.array_equal(plain, want_plain[0])
    assert np.array_equal(scaled, want_scaled[0])
    for got, want in ((plain_mass, want_plain), (scaled_mass, want_scaled)):
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


# mollify before the coordinate-major layout: row-major shifted nodes, whose
# polynomial values test_polynomial_batch_matches_reference ties to the plain
# formula.  Chunks of 2^22 shifted nodes only bound the memory: every row is
# reduced as in a 4-row GEMV.
def reference_convolution(omega, idx, ys, weights, pts):
    out = np.zeros((len(pts),) + weights.shape[1:])
    chunk = max(1, (1 << 22) // max(1, len(ys)))
    for lo in range(0, len(pts), chunk):
        shifted = pts[lo : lo + chunk, np.newaxis, :] - ys[np.newaxis, :, :]
        flat = shifted.reshape(-1, omega.dimension)
        vals = omega.coefficients_batch(flat)[:, omega.indices.index(idx)]
        out[lo : lo + chunk] = four_row_product(vals.reshape(-1, len(ys)), weights)
    return out


@lru_cache(maxsize=None)
def _mollifier(n, odd=False):
    """Gauss nodes per axis: the even counts, or odd ones, which put a node
    at 0.0 on each axis."""
    return Mollifier(n, 0.25, nodes={1: (24, 25), 2: (40, 41), 3: (24, 27)}[n][odd])


@st.composite
def mollifier_cases(draw):
    """The convolution evaluates each distinct shift once and gathers; the
    kinds cover every read set: rough callables, with or without a support,
    read every coordinate (every node distinct, so the gather only reorders);
    "last" reads only x_n in R^3, so its gather is not a run of equal values;
    and the polynomial kinds."""
    # One case in ten spans a chunk boundary.  That takes about 4M shifted
    # nodes whatever n is, so it uses the cheapest component: a linear
    # polynomial (the chunk split does not depend on the component).
    across = draw(st.sampled_from([False] * 9 + [True]))
    kind = "any" if across else draw(
        st.sampled_from(["rough", "supported rough", "last"]) | polynomial_kinds
    )
    n = 3 if kind == "last" else draw(st.integers(1, 3))
    eta = _mollifier(n, draw(st.booleans()))
    chunk = (1 << 22) // len(eta.convolution_rule()[0])
    if kind in ("rough", "supported rough"):
        support = draw(supports(n)) if kind == "supported rough" else None
        omega = FormField.from_callables(n, 0, {(): _rough_component(0.3)},
                                         support=support)
    elif kind == "last":
        powers = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
        omega = FormField.from_polynomials(n, 0, {(): {
            (0, 0, e): draw(coefficients.filter(bool)) for e in powers
        }})
    else:
        omega = draw(polynomial_forms(n, 0, [()], kind, max_degree=1 if across else 5))
    rows = draw(st.integers(chunk - 2, chunk + 3) if across else st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(-1.2, 1.2, size=(rows, n))
    if draw(st.booleans()):
        pts = np.asfortranarray(pts)  # the layout the pullback passes
    return omega, eta, pts, draw(st.booleans())


def _across_case(n, gradient):
    eta = _mollifier(n)
    rows = (1 << 22) // len(eta.convolution_rule()[0]) + 3
    pts = np.random.default_rng(n).uniform(-1.2, 1.2, size=(rows, n))
    poly = {(1,) + (0,) * (n - 1): 1.5, (0,) * n: -0.5}
    return FormField.from_polynomials(n, 0, {(): poly}), eta, pts, gradient


def _mollified_closure(omega, eta, gradient):
    """The rule and the closure of mollify(omega, eta) for its value or its
    gradient."""
    smooth = mollify(omega, eta)
    if gradient:
        return eta.gradient_rule() + (smooth.partials[()],)
    return eta.convolution_rule() + (smooth.components[()],)


@settings(max_examples=24, deadline=5000)
@given(mollifier_cases())
@example(_across_case(2, gradient=True))
def test_mollified_closures_match_broadcast_reference(case):
    omega, eta, pts, gradient = case
    ys, weights, closure = _mollified_closure(omega, eta, gradient)
    expected = reference_convolution(omega, (), ys, weights, pts)
    assert np.array_equal(closure(pts), expected)


@st.composite
def blocked_mollifier_cases(draw):
    """A mollifier case and rows per node block; a batch across a chunk
    boundary gets 997-row blocks, which leave a partial block in each chunk."""
    case = draw(mollifier_cases())
    return case, draw(block_rows if len(case[2]) <= 8 else st.just(997))


@settings(max_examples=24, deadline=5000)
@given(blocked_mollifier_cases())
@example((_across_case(2, gradient=False), 997))
def test_convolution_node_blocks_keep_the_bits(blocked):
    (omega, eta, pts, gradient), rows = blocked
    ys, weights, closure = _mollified_closure(omega, eta, gradient)
    with _node_block(rows, len(ys)):
        got = closure(pts)
    assert np.array_equal(got, reference_convolution(omega, (), ys, weights, pts))


def meshgrid_grid(eta, m):
    """Mollifier._grid with its tensor weights as np.prod over stacked
    meshgrids, the reference."""
    x, w = np.polynomial.legendre.leggauss(m)
    x = x * eta.radius
    w = w * eta.radius
    grids = np.meshgrid(*([x] * eta.dimension), indexing="ij")
    ys = np.stack([g.reshape(-1) for g in grids], axis=1)
    ws = np.prod(
        np.stack(np.meshgrid(*([w] * eta.dimension), indexing="ij"), axis=0),
        axis=0,
    ).reshape(-1)
    keep = np.linalg.norm(ys, axis=1) < eta.radius
    return ys[keep], ws[keep]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("nodes", [1, 2, 5, 12, 48, 96])
def test_mollifier_rule_keeps_the_meshgrid_bits(n, nodes):
    """Every grid the constructor may build, and the rule of each node count
    that converges; (3, 96) would check its mass on a 192^3 grid."""
    eta = _mollifier(n)
    assert all(map(same_bits, eta._grid(nodes), meshgrid_grid(eta, nodes)))
    if nodes >= 48 and (n, nodes) != (3, 96):
        eta = Mollifier(n, eta.radius, nodes)
        ys, ws = meshgrid_grid(eta, nodes)
        raw = eta._bump(ys)
        weights = ws * raw / float(np.sum(ws * raw))
        assert all(map(same_bits, eta.convolution_rule(), (ys, weights)))


@st.composite
def batch_cuts(draw, rows):
    """Boundaries [0, ..., rows] of a split into up to 5 batches, some of
    them perhaps empty."""
    return [0, *sorted(draw(st.lists(st.integers(0, rows), max_size=4))), rows]


def in_batches(f, cuts, *arrays):
    """f applied to the rows [cuts[i], cuts[i + 1]) of the arrays, batch by
    batch, the results stacked."""
    return np.concatenate([f(*(x[lo:hi] for x in arrays))
                           for lo, hi in zip(cuts, cuts[1:])])


def _row_dot_case(rows, nodes, strided, columns, cuts, seed):
    """A (rows, nodes) matrix, contiguous or every second row of a wider one,
    a right-hand side of `columns` columns (0 for a vector), and batch
    boundaries."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(((1 + strided) * rows, nodes))[:: 1 + strided]
    w = rng.standard_normal((nodes, columns) if columns else nodes)
    return a, w, cuts


@st.composite
def row_dot_cases(draw):
    rows = draw(st.integers(1, 100))
    return _row_dot_case(
        rows, draw(st.integers(1, 1200)), draw(st.booleans()),
        draw(st.sampled_from([0, 2])), draw(batch_cuts(rows)),
        draw(st.integers(0, 2**32 - 1)),
    )


# OpenBLAS's GEMV goes multi-threaded from about 460k entries, when more than
# one thread is available: so do 401 and 416 rows of 1,200 nodes.  16 rows
# are a whole padded batch with one or two threads, so strided rows reach
# GEMV without a copy.
@settings(max_examples=150, deadline=5000)
@given(row_dot_cases())
@example(_row_dot_case(401, 1200, False, 0, [0, 3, 50, 51, 401], 0))
@example(_row_dot_case(416, 1200, True, 2, [0, 8, 24, 88, 400, 416], 1))
@example(_row_dot_case(16, 1023, True, 0, [0, 8, 16], 2))
def test_row_dot_bits_do_not_depend_on_the_batch(case):
    """Every row of row_dot has the bits of a 4-row GEMV, in any batch at
    any offset.  If a BLAS breaks this premise, row_dot must fall back to
    the ordered row sum (a * w).sum(1)."""
    a, w, cuts = case
    want = four_row_product(a, w)
    assert same_bits(row_dot(a, w), want), "GEMV row bits depend on the batch"
    assert same_bits(in_batches(lambda x: row_dot(x, w), cuts, a), want), (
        "GEMV row bits depend on the batch split"
    )


def _split_integration_case(F, rows, seed, cuts):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-2.0, 2.0, (rows, F.dimension))
    vs = rng.uniform(-2.0, 2.0, (rows, F.degree, F.dimension))
    rs = rng.uniform(0.0, 2.0, (rows, F.degree))
    return F, x0, vs, rs, cuts


@st.composite
def split_integration_cases(draw):
    """An integration case of up to 60 tuples drawn from a seed, and the
    boundaries of a split of them."""
    rows = draw(st.integers(1, 60))
    return _split_integration_case(
        draw(integration_cases())[0], rows, draw(st.integers(0, 2**32 - 1)),
        draw(batch_cuts(rows)),
    )


# 458 segments of the 1024-node rule take the threaded GEMV
@PROPERTY
@given(split_integration_cases())
@example(_split_integration_case(
    IntegrationMultifunction(FormField.from_callables(
        2, 1, {(1,): _rough_component(0.0), (2,): _rough_component(0.5)}
    )), 458, 0, [0, 1, 230, 457, 458],
))
def test_edge_integrals_keep_their_bits_in_any_split(case):
    F, x0, vs, rs, cuts = case

    def integrals(x0, vs, rs):
        scaled = edge_integrals(F.omega, F.rule, x0, rs[..., np.newaxis] * vs,
                                unit_vectors=vs, with_mass=True)
        return np.stack([*scaled, edge_integrals(F.omega, F.rule, x0, vs)], axis=1)

    assert same_bits(in_batches(integrals, cuts, x0, vs, rs), integrals(x0, vs, rs))


@st.composite
def split_mollifier_cases(draw):
    """A polynomial 1-form in the plane, up to 40 points drawn from a seed,
    and the boundaries of a split of them."""
    omega = draw(polynomial_forms(2, 1, [(1,), (2,)], draw(polynomial_kinds)))
    rows = draw(st.integers(1, 40))
    return omega, rows, draw(st.integers(0, 2**32 - 1)), draw(batch_cuts(rows))


# 563 points of the 840-node rule take the threaded GEMV
@settings(max_examples=24, deadline=5000)
@given(split_mollifier_cases())
@example((FormField.from_polynomials(2, 1, {(1,): {(0, 2): 1.5}, (2,): {(1, 1): -0.5}}),
          563, 0, [0, 5, 200, 397, 563]))
def test_mollified_coefficients_keep_their_bits_in_any_split(case):
    """A mollified 1-form's coefficients and those of its d, whose partials
    reduce against a two-column gradient rule."""
    omega, rows, seed, cuts = case
    smooth = mollify(omega, _mollifier(2))
    pts = np.random.default_rng(seed).uniform(-1.2, 1.2, size=(rows, 2))
    for field in (smooth, smooth.exterior_derivative()):
        assert same_bits(in_batches(field.coefficients_batch, cuts, pts),
                         field.coefficients_batch(pts))


def test_read_sets():
    x1_dx2 = FormField.from_polynomials(2, 1, {(2,): {(1, 0): 1.0}})
    assert x1_dx2._reads == (0,)
    assert FormField.constant_form(3, {(1, 2): 2.0, (2, 3): -1.0})._reads == ()
    assert FormField.from_polynomials(3, 2, {})._reads == ()
    rough = FormField.from_callables(3, 1, {(2,): _rough_component(0.0)})
    assert rough._reads == (0, 1, 2)
    assert x1_dx2.with_support(Ball(np.zeros(2), 1.0))._reads == (0, 1)
    constant = FormField.constant_form(2, {(1,): 3.0})
    assert constant.with_support(AxisBox(np.zeros(2), np.ones(2)))._reads == (0, 1)
    mixed = FormField.from_polynomials(3, 1, {(1,): {(0, 2, 0): 1.0}, (3,): 2.0})
    assert mixed._reads == (1,)
    assert mixed._reads_of([(3,)]) == ()


def test_each_convolution_shifts_what_its_component_reads():
    """Components reading different coordinates (x2, x1 x3, none) keep the
    bits of the all-coordinate reference, value and gradient."""
    omega = FormField.from_polynomials(3, 1, {
        (1,): {(0, 2, 0): 1.5}, (2,): {(1, 0, 1): -0.5}, (3,): 2.0,
    })
    eta = _mollifier(3)
    smooth = mollify(omega, eta)
    pts = np.random.default_rng(3).uniform(-1.2, 1.2, size=(5, 3))
    ys, ws = eta.convolution_rule()
    _, grad_ws = eta.gradient_rule()
    for idx in omega.indices:
        for closure, weights in ((smooth.components[idx], ws),
                                 (smooth.partials[idx], grad_ws)):
            expected = reference_convolution(omega, idx, ys, weights, pts)
            assert np.array_equal(closure(pts), expected)


def test_constant_pullback_memory_is_the_integrand():
    """A constant 2-form at N x Q = 2^21 nodes allocates its (N, Q)
    integrand and little else: no node positions, no per-node coefficients."""
    rule = monte_carlo_rule(2, samples=32)
    rows = (1 << 21) // 32
    omega = FormField.constant_form(3, {(1, 2): 1.0, (1, 3): -2.0, (2, 3): 0.5})
    rng = np.random.default_rng(0)
    base, edges = rng.normal(size=(rows, 3)), rng.normal(size=(rows, 2, 3))
    for with_mass in (False, True):
        tracemalloc.start()
        try:
            edge_integrals(omega, rule, base, edges, with_mass=with_mass)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * rows * 32 * 8


# CoboundaryMultifunction's face route written out plainly: each face
# integrated on its own, the signed face values added in face order, the
# snap guard against the summed mass, then the division by the radii.
def reference_face_route(dF, x0, vs, rs):
    faces = IntegrationMultifunction(dF.omega, dF.face_rule)
    tuples = np.concatenate(
        [x0[:, np.newaxis, :], x0[:, np.newaxis, :] + rs[..., np.newaxis] * vs],
        axis=1,
    )
    m = dF.arity
    total = np.zeros(len(tuples))
    mass = np.zeros(len(tuples))
    for omit in range(m):
        keep = [j for j in range(m) if j != omit]
        vals, face_mass = faces.evaluate_batch_with_mass(tuples[:, keep, :])
        mass += face_mass
        total += (-1.0 if omit % 2 else 1.0) * vals
    total = np.where(np.abs(total) < dF.snap_tol * mass, 0.0, total)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = total / np.prod(rs, axis=1)
    return np.where(np.isfinite(out), out, 0.0)


@st.composite
def face_route_cases(draw):
    k = draw(st.integers(0, 1))
    n = draw(st.integers(max(k, 1), 3))
    indices = draw(basis_indices(n, k))
    if draw(st.booleans()):
        omega = FormField.from_callables(
            n, k, {idx: _rough_component(0.5 * i) for i, idx in enumerate(indices)}
        )
    else:
        omega = FormField.from_polynomials(
            n, k, {idx: draw(sparse_polynomials(n, max_degree=5)) for idx in indices}
        ).with_support(draw(supports(n)))
    # the estimator's tuple shape: unit directions, radii up to 1, and one
    # radius in five at 0, 1e-300 or 1e-12
    rows = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x0 = rng.uniform(-1.0, 1.0, size=(rows, n))
    vs = rng.normal(size=(rows, k + 1, n))
    vs /= np.linalg.norm(vs, axis=2, keepdims=True)
    rs = rng.uniform(0.0, 1.0, size=(rows, k + 1))
    tiny = rng.random(rs.shape) < 0.2
    rs[tiny] = rng.choice([0.0, 1e-300, 1e-12], size=int(tiny.sum()))
    return CoboundaryMultifunction(omega), x0, vs, rs


@PROPERTY
@given(face_route_cases())
def test_face_route_matches_per_face_reference(case):
    dF, x0, vs, rs = case
    assert not dF.stokes_route
    expected = reference_face_route(dF, x0, vs, rs)
    assert np.array_equal(dF.evaluate_scaled_batch(x0, vs, rs), expected)


@PROPERTY
@given(integration_cases())
def test_integrate_form_is_a_batch_of_one(case):
    F, x0, vs, _ = case
    pts = np.concatenate([x0[:1], x0[:1] + vs[0]])
    kernel = edge_integrals(F.omega, F.rule, pts[:1], (pts[1:] - pts[0])[np.newaxis])
    value = integrate_form(F.omega, pts, F.rule)
    assert value == kernel[0]
    assert F.evaluate(pts) == value


def _row_by_row(n, degree, shift):
    return UserMultifunction(
        n, degree, lambda p: float(np.sin(p @ np.arange(1.0, n + 1.0) + shift).sum())
    )


@st.composite
def user_multifunction_cases(draw):
    n = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 2))
    F = _row_by_row(n, degree, 0.0)
    kind = draw(st.sampled_from(["d", "combination", "dd", "d of combination"]))
    if kind == "combination":
        G = draw(coefficients) * F - _row_by_row(n, degree, 1.0)
    elif kind == "dd":
        G = DifferentialMultifunction(DifferentialMultifunction(F))
    elif kind == "d of combination":
        G = DifferentialMultifunction(
            F + draw(coefficients) * _row_by_row(n, degree, 2.0)
        )
    else:
        G = DifferentialMultifunction(F)
    rows = draw(st.integers(1, 6))
    tuples = draw(hnp.arrays(np.float64, (rows, G.arity, n), elements=coordinates))
    return G, tuples


@PROPERTY
@given(user_multifunction_cases())
def test_single_tuple_matches_its_batch_row(case):
    G, tuples = case
    batch = G.evaluate_batch(tuples)
    singles = np.array([G.evaluate(t) for t in tuples])
    assert np.array_equal(singles, batch)
    assert np.array_equal(G.evaluate_batch(tuples[:1]), batch[:1])


# Covector.evaluate_batch and FormField.apply_batch before the shared minor
# table: one determinant and one added term per basis index, in order.
def reference_covector(alpha, vs):
    out = np.zeros(len(vs))
    for idx, c in alpha.coeffs.items():
        out += c * _batch_det(vs[:, :, [i - 1 for i in idx]])
    return out


@st.composite
def minor_cases(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k, 3))
    indices = draw(basis_indices(n, k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 12))
    return n, k, indices, rng, rows


@PROPERTY
@given(minor_cases())
def test_covector_evaluation_matches_loop_reference(case):
    n, k, indices, rng, rows = case
    alpha = Covector(n, k, {idx: rng.normal() for idx in indices})
    vs = rng.normal(size=(rows, k, n))
    assert np.array_equal(alpha.evaluate_batch(vs), reference_covector(alpha, vs))


@st.composite
def constant_form_cases(draw):
    n = draw(st.integers(2, 3))
    k = draw(st.integers(1, n))
    indices = draw(basis_indices(n, k))
    magnitudes = st.floats(0.1, 4.0) | st.floats(-4.0, -0.1)
    omega = FormField.constant_form(n, {idx: draw(magnitudes) for idx in indices})
    return omega, draw(st.sampled_from([1.5, 2.0, 3.0]))


@settings(max_examples=30, deadline=2000)
@given(constant_form_cases())
def test_lp_sphere_norm_power_is_the_pointwise_sphere_norm(case):
    omega, p = case
    n = omega.dimension
    box = AxisBox(np.zeros(n), np.ones(n))
    est = lp_sphere_norm(omega, box, p, samples=2)
    pointwise = sphere_norm(omega.evaluate(np.zeros(n)), p)
    assert abs(est.power_value - pointwise.value**p) <= 1e-12 * pointwise.value**p


# -- row arithmetic one coordinate column at a time -------------------------


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (
        got.shape == want.shape
        and got.dtype == want.dtype
        and np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
    )


def in_layout(x, layout):
    """x itself (row-major), its column-major copy, or a view of every
    second entry of a wider array."""
    if layout == "C":
        return np.ascontiguousarray(x)
    if layout == "F":
        return np.asfortranarray(x)
    wide = np.zeros(x.shape[:-1] + (2 * x.shape[-1],), dtype=x.dtype)
    wide[..., ::2] = x
    return wide[..., ::2]


@st.composite
def row_arrays(draw, dtype=np.float64):
    """(rows, n) or (rows, k, n) arrays, n = 1..10, in any layout.  Floats
    are mantissas in [-2, 2], random or drawn, scaled by one power of two
    from the subnormal range to 1e300, so that a row's sum rounds; or any
    finite floats."""
    n = draw(st.integers(1, 10))
    shape = draw(st.sampled_from([(), (1,), (2,), (3,)]))
    shape = (draw(st.integers(1, 30)),) + shape + (n,)
    kind = "bool" if dtype is bool else draw(st.sampled_from(["random", "drawn", "any"]))
    if kind == "bool":
        x = draw(hnp.arrays(bool, shape))
    elif kind != "any":
        if kind == "random":
            mantissas = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(
                -2.0, 2.0, shape
            )
        else:
            mantissas = draw(
                hnp.arrays(np.float64, shape, elements=st.floats(-2.0, 2.0))
            )
        x = np.ldexp(mantissas, draw(st.integers(-1074, 996)))
    else:
        x = draw(hnp.arrays(np.float64, shape, elements=st.floats(
            -1e300, 1e300, allow_nan=False, allow_infinity=False
        )))
    return in_layout(x, draw(st.sampled_from(["C", "F", "strided"])))


ROWS = settings(max_examples=200, deadline=2000)


@ROWS
@given(row_arrays(), st.booleans())
def test_row_norm_is_numpys_row_norm(x, centred):
    center = x[0].reshape(-1, x.shape[-1])[0][::-1].copy() if centred else None
    with np.errstate(all="ignore"):
        got = row_norm(x, center)
        want = np.linalg.norm(x if center is None else x - center, axis=-1)
    assert same_bits(got, want)


@ROWS
@given(row_arrays())
def test_normalize_rows_is_division_by_numpys_norm(x):
    with np.errstate(all="ignore"):
        want = x / np.linalg.norm(x, axis=-1, keepdims=True)
        got = normalize_rows(x.copy(order="K"))
    assert same_bits(got, want)


@ROWS
@given(row_arrays(dtype=bool))
def test_row_all_is_numpys_all(mask):
    assert same_bits(row_all(mask), np.all(mask, axis=-1))


@ROWS
@given(row_arrays())
def test_row_product_is_numpys_product(x):
    with np.errstate(all="ignore"):
        assert same_bits(row_product(x), np.prod(x, axis=-1))


def parent_estimate(F, domain, cfg, split_radius=None):
    """seminorms._estimate with row-major tuple arithmetic, the reference.
    F evaluates the accepted tuples only, picked by a boolean mask, and a
    rejected tuple's g is 0."""
    k, R = seminorms._resolve(F, domain, cfg)
    n = domain.dimension
    p = cfg.p
    a = p * (1.0 - cfg.theta)
    sphere_area = unit_sphere_area(n)
    volume = domain.volume()
    cone = cfg.variant in ("cone", "ball-cone")
    capped = cfg.variant in ("full", "ball", "ball-cone")
    channels = [seminorms._Accumulator()]
    if split_radius is not None:
        channels.append(seminorms._Accumulator())
    accepted = 0
    total = 0
    streams = seminorms._STREAMS
    base = cfg.samples // streams
    counts = [
        base + (1 if s < cfg.samples % streams else 0)
        for s in range(streams)
    ]
    for stream, count in enumerate(counts):
        rng = np.random.default_rng(
            np.random.SeedSequence(cfg.seed, spawn_key=(cfg.stream, stream))
        )
        done = 0
        while done < count:
            m = min(seminorms._CHUNK, count - done)
            done += m
            total += m
            x0 = domain.sample_uniform(m, seed=rng)
            vs = rng.standard_normal((m, k, n))
            vs /= np.linalg.norm(vs, axis=2, keepdims=True)
            u = rng.random((m, k))
            if cone:
                reach = cfg.c * domain.dist_to_boundary_batch(x0)
                r_eff = np.minimum(reach, R) if capped else reach
            else:
                r_eff = np.full(m, R)
            rs = r_eff[:, np.newaxis] * u ** (1.0 / a)
            pts = x0[:, np.newaxis, :] + rs[..., np.newaxis] * vs
            inside = (
                domain.contains_batch(pts.reshape(-1, n))
                .reshape(m, k)
                .all(axis=1)
            )
            accepted += int(np.count_nonzero(inside))
            g = np.zeros(m)
            g[inside] = F.evaluate_scaled_batch(x0[inside], vs[inside], rs[inside])
            w = (
                volume
                * (sphere_area / p) ** k
                * r_eff**(a * k)
                * np.abs(g) ** p
                * inside
            )
            if split_radius is None:
                channels[0].add(w)
            else:
                near = (rs <= split_radius).all(axis=1)
                w_near = np.where(near, w, 0.0)
                channels[0].add(w_near)
                channels[1].add(w - w_near)
    echo = seminorms._config_echo(cfg, k, R)
    return [seminorms._finalize(acc, p, echo, accepted / total) for acc in channels]


class Recorder:
    """A domain or multifunction that keeps a copy of every tuple point it
    tests and every (x0, vs, rs) it evaluates."""

    def __init__(self, inner):
        self.inner = inner
        self.seen = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def contains_batch(self, pts):
        self.seen.append(pts.copy())
        return self.inner.contains_batch(pts)

    def evaluate_scaled_batch(self, x0, vs, rs):
        self.seen.extend(np.array(a, copy=True) for a in (x0, vs, rs))
        return self.inner.evaluate_scaled_batch(x0, vs, rs)


SQUARE = AxisBox([0.0, 0.0], [1.0, 1.0])
ESTIMATE_CASES = {
    "annulus cone": (Annulus([0.0, 0.0], 0.5, 1.0), dict(variant="cone", c=0.5)),
    "square ball": (SQUARE, dict(variant="ball", R=0.3)),
    "square full": (SQUARE, dict(variant="full")),
    "polytope ball-cone": (
        ConvexPolytope([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0]),
        dict(variant="ball-cone", R=0.4, c=0.8),
    ),
}


def _multifunction(k):
    """Degree k in the plane: k = 0, 1 through the generic quotient by the
    radii, k = 2 through the Stokes route of dI_omega."""
    if k == 2:
        omega = FormField.from_polynomials(2, 1, {(2,): {(1, 0): 1.0}})
        return CoboundaryMultifunction(omega)
    return UserMultifunction(
        2, k, None,
        lambda t: np.sin(3.0 * t[:, 0, 0]) + t[:, -1, 1] * t[:, 0, 1] - t[:, -1, 0],
    )


@pytest.mark.parametrize("case", sorted(ESTIMATE_CASES))
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("split", [False, True])
@settings(max_examples=5, deadline=10000)
@given(seed=st.integers(0, 2**32 - 1))
def test_estimate_keeps_the_row_major_bits(case, k, split, seed):
    """700-tuple batches give each stream two draws, the second partial."""
    domain, variant = ESTIMATE_CASES[case]
    cfg = SeminormConfig(theta=0.95, samples=3001, seed=seed, **variant)
    split_radius = 0.05 if split else None
    runs = []
    with mock.patch.object(seminorms, "_CHUNK", 700):
        for estimate in (seminorms._estimate, parent_estimate):
            D, F = Recorder(domain), Recorder(_multifunction(k))
            runs.append((estimate(F, D, cfg, split_radius), D.seen, F.seen))
    (got, got_pts, got_args), (want, want_pts, want_args) = runs
    assert len(got_pts) == len(want_pts) and len(got_args) == len(want_args)
    assert all(same_bits(g, w) for g, w in zip(got_pts + got_args, want_pts + want_args))
    for g, w in zip(got, want):
        assert (g.value, g.stderr, g.power_value, g.power_stderr, g.samples,
                g.acceptance_ratio) == (w.value, w.stderr, w.power_value,
                                        w.power_stderr, w.samples, w.acceptance_ratio)
        assert math.isfinite(g.value)
