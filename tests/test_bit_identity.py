"""The batched pullback and polynomial kernels against their plain formulas.

The kernels are restructured for speed but must return the same bits as
the straightforward numpy expressions kept here as references:

  node positions     base + einsum("qk,nkd->nqd", P, edges), all rows at once
  polynomials        sum_terms c * x_1^e_1 * x_2^e_2 * ..., each power x^e
                     and each monomial multiplied out left to right, no pow
  convolution        omega(pts[:, None, :] - shifts[None]) @ summed weights,
                     over the distinct shifts; within rounding of the
                     every-node sum omega(pts[:, None, :] - ys[None]) @ weights
  row reductions     each row of A @ w, w a vector, as in a 4-row GEMV,
                     zero-padded (forms.row_dot)
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
are column-major, the points may come in either order, and a polynomial or
a form may write into a column of a caller's buffer.  Nor may the read
set: the kernels build only the coordinates from the first a form reads
to the last, and convolve by evaluating each distinct shift once, while the references
build and evaluate every coordinate of every node (for the convolution,
of every distinct shift).  Nor may the
rough-face screen, wherever each jump of a face's integrand leaves a
screen node on each side: the pullback evaluates a stretch between two of
a stratified face's 65 screen nodes only when their values disagree.  A
face whose 65 screen values all agree integrates in closed form, its value
v times sum(W), and the reference takes the same closed form for it.

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
    _alternating_sum,
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
    contract_minors,
    minor_dets,
    sort_with_sign,
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
from formflux.errors import ArgumentError
from formflux.estimates import SeminormEstimate
from formflux.seminorms import SeminormConfig
from formflux.simplex import (
    default_rule,
    edge_integrals,
    integrate_form,
    monte_carlo_rule,
    stratified_segment_rule,
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
    """a @ w for a vector w, each row computed by GEMV in a zero-padded
    batch of 4 rows.  4 rows stay far below the size at which OpenBLAS's
    GEMV goes multi-threaded (about 460k entries), so one thread computes
    them whatever the thread count."""
    out = np.empty(len(a))
    for lo in range(0, len(a), 4):
        rows = a[lo : lo + 4]
        block = np.zeros((4, a.shape[1]))
        block[: len(rows)] = rows
        out[lo : lo + 4] = (block @ w)[: len(rows)]
    return out


def screen_nodes(Q):
    """The screen of a Q-node stratified rule (simplex._SCREEN = 16): every
    16th node and the last."""
    return list(range(0, Q - 1, 16)) + [Q - 1]


SCREEN = screen_nodes(1024)


def reference_integrand(F, base, edges, unit_vectors=None,
                        contraction=ordered_contraction):
    """The (N, Q) integrand at every node of the rule."""
    n = F.dimension
    P = F.rule.points
    disp = np.einsum("qk,nkd->nqd", P, edges)
    pos = (base[:, np.newaxis, :] + disp).reshape(-1, n)
    coeffs = reference_coefficients(F.omega, pos).reshape(
        len(base), len(P), len(F.omega.indices)
    )
    det_source = edges if unit_vectors is None else unit_vectors
    dets = np.empty((len(base), len(F.omega.indices)))
    for col, idx in enumerate(F.omega.indices):
        dets[:, col] = _batch_det(det_source[:, :, [i - 1 for i in idx]])
    return contraction(coeffs, dets)


def reference_edge_integrals(F, base, edges, unit_vectors=None, with_mass=False,
                             contraction=ordered_contraction, every_node=False):
    """The integrand at every node, each row reduced as in a 4-row GEMV.

    Unless every_node, a row that the pullback screens (a form that reads
    the positions, on a stratified rule of more than 32 nodes) and whose
    screen values all agree takes the closed form v * sum(W), and its mass
    |v| * sum(|W|)."""
    W = F.rule.weights
    integrand = reference_integrand(F, base, edges, unit_vectors, contraction)
    value = four_row_product(integrand, W)
    mass = four_row_product(np.abs(integrand), np.abs(W))
    if (not every_node and F.rule.kind == "stratified" and len(W) > 32
            and F.omega._reads):
        v = integrand[:, 0]
        screen = integrand[:, screen_nodes(len(W))]
        constant = (screen == v[:, np.newaxis]).all(axis=1)
        value[constant] = v[constant] * W.sum()
        mass[constant] = np.abs(v[constant]) * np.abs(W).sum()
    return (value, mass) if with_mass else value


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


def bits(a):
    """The float64 bit patterns of a, so that -0.0 differs from 0.0 and a NaN
    equals itself."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def with_negative_zeros(draw, pts):
    """pts with a drawn set of its entries replaced by -0.0."""
    mask = draw(hnp.arrays(np.bool_, pts.shape))
    return np.where(mask, -0.0, pts)


@st.composite
def column_buffers(draw, rows, width):
    """A column-major (rows, width + extra) buffer of drawn bits (NaNs and
    -0.0 among them) and the column offset at which width columns start."""
    extra = draw(st.integers(0, 3))
    filler = st.floats(width=64) | st.sampled_from([-0.0, np.nan])
    buf = np.asfortranarray(
        draw(hnp.arrays(np.float64, (rows, width + extra), elements=filler)))
    return buf, draw(st.integers(0, extra))


@PROPERTY
@given(polynomial_cases(), st.data())
def test_polynomial_into_a_column_keeps_the_bits(case, data):
    poly, pts = case
    pts = with_negative_zeros(data.draw, pts)
    buf, col = data.draw(column_buffers(len(pts), 1))
    before = bits(buf).copy()
    got = poly.evaluate_batch(pts, out=buf[:, col])
    assert np.shares_memory(got, buf)
    assert np.array_equal(bits(buf[:, col]), bits(poly.evaluate_batch(pts)))
    assert np.array_equal(bits(buf[:, col]), bits(reference_polynomial(poly, pts)))
    others = np.arange(buf.shape[1]) != col
    assert np.array_equal(bits(buf)[:, others], before[:, others])


# The sums below write their first term straight into the output and add
# 0.0, which is what adding that term to a zero fill does: a first term of
# -0.0 gives +0.0.  Their references sum onto zeros.
ZERO_FILL_POLYNOMIALS = [
    Polynomial(2, {(1, 0): 2.0}),                  # 2.0 * -0.0 first
    Polynomial(2, {(1, 1): -1.0, (0, 2): 3.0}),    # -1.0 * x1 * x2 first
    Polynomial(2, {(0, 0): -3.5}),                 # constant only
    Polynomial(2, {(0, 0): 1.5, (1, 0): -2.0}),    # constant first
    Polynomial(2, {}),                             # no terms
]


@pytest.mark.parametrize("poly", ZERO_FILL_POLYNOMIALS, ids=repr)
def test_polynomial_sums_as_if_onto_zeros(poly):
    """A first term of -0.0 reads +0.0, and a constant-only or empty
    polynomial fills every entry: on its own, into a buffer of NaNs, and
    through a form's power ladder shared with a component of higher
    exponents."""
    pts = np.array([[-0.0, -0.0], [0.0, 0.0], [1.0, -0.0], [-0.0, 1.0],
                    [-2.0, 0.5]])
    want = reference_polynomial(poly, pts)
    assert np.array_equal(bits(poly.evaluate_batch(pts)), bits(want))
    buf = np.full(len(pts), np.nan)
    poly.evaluate_batch(pts, out=buf)
    assert np.array_equal(bits(buf), bits(want))
    omega = FormField.from_polynomials(2, 1, {(1,): poly, (2,): {(3, 3): 1.0}})
    assert np.array_equal(bits(omega.coefficients_batch(pts)[:, 0]), bits(want))


signed_entries = (st.floats(-8.0, 8.0, allow_nan=False, width=64)
                  | st.sampled_from([-0.0, 0.0]))


@st.composite
def contraction_cases(draw):
    """coeffs (rows, Q, m) and dets (rows, m), m = 0 to 4, with signed
    zeros among the entries."""
    rows, Q, m = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(0, 4))
    coeffs = draw(hnp.arrays(np.float64, (rows, Q, m), elements=signed_entries))
    dets = draw(hnp.arrays(np.float64, (rows, m), elements=signed_entries))
    return coeffs, dets


@PROPERTY
@given(contraction_cases())
@example((np.full((1, 2, 1), -0.0), np.ones((1, 1))))
@example((np.full((2, 3, 2), -0.0), np.array([[1.0, -0.0], [-1.0, 0.0]])))
@example((np.empty((2, 3, 0)), np.empty((2, 0))))
def test_contract_minors_sums_as_if_onto_zeros(case):
    coeffs, dets = case
    want = ordered_contraction(coeffs, dets)
    assert same_bits(contract_minors(coeffs, dets[:, np.newaxis]), want)
    out = np.full(coeffs.shape[:2], np.nan)
    got = contract_minors(coeffs, dets[:, np.newaxis], out=out)
    assert got is out and same_bits(out, want)


@st.composite
def one_vector_cases(draw):
    """(N, 1, n) vectors with signed zeros, and the basis 1-covectors of a
    non-empty subset of the axes."""
    n = draw(st.integers(1, 3))
    vectors = draw(hnp.arrays(np.float64, (draw(st.integers(1, 8)), 1, n),
                              elements=signed_entries))
    return vectors, draw(st.lists(st.integers(1, n), min_size=1, max_size=n,
                                  unique=True))


@PROPERTY
@given(one_vector_cases())
def test_one_vector_minors_are_the_batch_det_columns(case):
    vectors, entries = case
    indices = [(i,) for i in sorted(entries)]
    want = np.stack([_batch_det(vectors[:, :, [i - 1]]) for i, in indices], axis=1)
    got = minor_dets(indices, vectors)
    assert same_bits(got, want)
    assert not np.shares_memory(got, vectors)


def negated_add_sum(face_values):
    """The alternating face sum as it was: negated copies added to zeros."""
    out = np.zeros(face_values.shape[1:])
    for i, vals in enumerate(face_values):
        out += -vals if i % 2 else vals
    return out


@PROPERTY
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 6)),
                  elements=signed_entries))
@example(np.array([[-0.0, -0.0, 0.0], [0.0, -0.0, -0.0], [-0.0, 0.0, -0.0]]))
def test_alternating_sum_is_the_negated_add(face_values):
    assert same_bits(_alternating_sum(face_values), negated_add_sum(face_values))


@PROPERTY
@given(layout_cases(), st.data())
def test_coefficients_into_a_buffer_keep_the_bits(case, data):
    omega, pts = case
    pts = with_negative_zeros(data.draw, pts)
    m = len(omega.indices)
    buf, lo = data.draw(column_buffers(len(pts), m))
    before = bits(buf).copy()
    omega.coefficients_batch(np.asfortranarray(pts), out=buf[:, lo : lo + m])
    assert np.array_equal(bits(buf[:, lo : lo + m]),
                          bits(omega.coefficients_batch(pts)))
    others = (np.arange(buf.shape[1]) < lo) | (np.arange(buf.shape[1]) >= lo + m)
    assert np.array_equal(bits(buf)[:, others], before[:, others])


# Polynomial.partial, + and * skip __init__'s checks of the exponent tuples.
# The references build through __init__ as before; the term order is the
# order in which evaluate_batch adds the terms, so it must match too.
def validated_partial(poly, j):
    out = {}
    for powers, c in poly.terms.items():
        if powers[j - 1]:
            lowered = list(powers)
            lowered[j - 1] -= 1
            out[tuple(lowered)] = out.get(tuple(lowered), 0.0) + c * powers[j - 1]
    return Polynomial(poly.dimension, out)


def validated_sum(a, b):
    out = dict(a.terms)
    for powers, c in b.terms.items():
        out[powers] = out.get(powers, 0.0) + c
    return Polynomial(a.dimension, out)


def validated_scaled(poly, scalar):
    return Polynomial(poly.dimension,
                      {p: c * float(scalar) for p, c in poly.terms.items()})


def validated_derivative(omega):
    out = {}
    for idx, poly in omega.components.items():
        for j in range(1, omega.dimension + 1):
            dj = validated_partial(poly, j)
            merged, sign = sort_with_sign((j,) + idx)
            if dj.terms and sign:
                cur = out.get(merged)
                dj = validated_scaled(dj, sign)
                out[merged] = dj if cur is None else validated_sum(cur, dj)
    return {idx: p for idx, p in out.items() if p.terms}


def outcome(build):
    """The terms of build(), in order, or the type of what it raised."""
    try:
        return list(build().terms.items())
    except ArgumentError as exc:
        return type(exc)


@st.composite
def polynomial_pairs(draw):
    """Two polynomials in n variables and an axis; the second negates some
    terms of the first, so that their sum drops those terms."""
    n = draw(st.integers(1, 3))
    a, b = draw(sparse_polynomials(n)), draw(sparse_polynomials(n))
    cancel = {p: -c for p, c in a.terms.items() if draw(st.booleans())}
    return a, Polynomial(n, {**b.terms, **cancel}), draw(st.integers(1, n))


# a product that overflows to inf is refused on both sides; one that
# underflows to zero drops its term
scalars = coefficients | st.sampled_from([0.0, -0.0, 3, 1e-320, 4e307, -1.5e308])


@PROPERTY
@given(polynomial_pairs(), scalars)
def test_derived_polynomials_keep_the_validated_terms(case, scalar):
    a, b, j = case
    assert outcome(lambda: a.partial(j)) == outcome(lambda: validated_partial(a, j))
    assert outcome(lambda: a + b) == outcome(lambda: validated_sum(a, b))
    assert outcome(lambda: a * scalar) == outcome(lambda: validated_scaled(a, scalar))
    assert outcome(lambda: scalar * b) == outcome(lambda: validated_scaled(b, scalar))


@st.composite
def differentiable_forms(draw):
    """A polynomial form of any kind and of a degree below n."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, n - 1))
    return draw(polynomial_forms(n, k, draw(basis_indices(n, k)),
                                 draw(polynomial_kinds)))


@PROPERTY
@given(differentiable_forms())
def test_exterior_derivative_keeps_the_validated_terms(omega):
    got = omega.exterior_derivative()
    want = validated_derivative(omega)
    assert list(got.components) == list(want)
    for idx, poly in want.items():
        assert list(got.components[idx].terms.items()) == list(poly.terms.items())


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


# 1.5 dx1^dx2 - 2 dx1^dx3 has constant coefficients and reads no coordinate
# (FormField._reads is empty), so its scaled integral builds no scaled edges.
# Its own rule has one node; under the 20-node degree-7 rule every node's
# contraction must still give the reference's bits.
CONSTANT_CASE = (
    IntegrationMultifunction(FormField.constant_form(3, {(1, 2): 1.5, (1, 3): -2.0})),
    np.array([[0.1, -0.4, 2.0], [3.0, 1.0, -1.0], [0.0, 0.0, 0.0]]),
    np.array([[[0.6, 0.8, 0.0], [0.0, 0.6, -0.8]], [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
              [[0.0, 1.0, 0.0], [0.6, 0.0, 0.8]]]),
    np.array([[0.25, 1e-300], [0.0, 2.0], [1.5, 0.75]]),
)


def test_the_constant_example_reads_no_coordinate():
    assert CONSTANT_CASE[0].omega._reads == ()
    assert len(CONSTANT_CASE[0].rule.weights) == 1


@PROPERTY
@given(integration_cases())
@example(CONSTANT_CASE)
@example((IntegrationMultifunction(CONSTANT_CASE[0].omega, default_rule(2)),
          *CONSTANT_CASE[1:]))
def test_scaled_integration_matches_ordered_reference(case):
    F, x0, vs, rs = case
    assert_matches_references(
        F.evaluate_scaled_batch(x0, vs, rs), F, x0, rs[..., np.newaxis] * vs,
        unit_vectors=vs,
    )


def _node_block(rows, nodes):
    """Patch the node block to `rows` rows of `nodes` nodes, or to a single
    node (one row per block) when rows is 0, with no floor on the rows of a
    block (forms._MIN_BLOCK_ROWS), which would lift them all to 32.  The
    convolution counts a block's nodes in distinct shifts, so a component
    it evaluates at m of its `nodes` nodes gets rows * nodes // m rows per
    block; rows = 0 still gives one row per block."""
    return mock.patch.multiple(forms, _NODE_BLOCK=max(1, rows * nodes),
                               _MIN_BLOCK_ROWS=1)


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


@pytest.mark.parametrize("rows", [0, 1, 2, 4])
def test_the_patched_node_block_has_the_rows_it_names(rows):
    """The block properties above run on blocks of 1, 2 and 4 rows, not on
    the floor's 32."""
    omega = FormField.from_polynomials(2, 1, {(1,): {(1, 0): 1.0},
                                              (2,): {(0, 2): -0.5}})
    rule = default_rule(1)
    seen = []
    coefficients = FormField.coefficients_batch

    def counted(self, pts, out=None):
        seen.append(len(pts))
        return coefficients(self, pts, out)

    Q = len(rule.weights)
    with _node_block(rows, Q), mock.patch.object(
            FormField, "coefficients_batch", counted):
        edge_integrals(omega, rule, np.zeros((9, 2)), np.ones((9, 1, 2)))
    step = max(1, rows)
    assert seen == [Q * min(step, 9 - lo) for lo in range(0, 9, step)]


# mollify written out plainly: the m distinct rows of the nodes on the
# coordinates the component reads, in np.unique's order of their bits, and
# each row's weight summed over its nodes in node order by np.bincount; then
# the every-node sum below over those m rows.
def reference_convolution(omega, idx, ys, weights, pts):
    bits = np.ascontiguousarray(ys[:, list(omega._reads_of([idx]))]).view(np.uint64)
    _, first, index = np.unique(bits, axis=0, return_index=True, return_inverse=True)
    shifts = ys[first]
    aggregated = np.bincount(index.reshape(-1), weights=weights,
                             minlength=len(shifts))
    return every_node_convolution(omega, idx, shifts, aggregated, pts)


def shifted_values(omega, idx, ys, pts):
    """omega_idx(x - y_q) for each point x and node y_q, (len(pts), len(ys))."""
    shifted = pts[:, np.newaxis, :] - ys[np.newaxis, :, :]
    vals = omega.coefficients_batch(shifted.reshape(-1, omega.dimension))
    return vals[:, omega.indices.index(idx)].reshape(len(pts), len(ys))


# The convolution before its weights were summed per shift: sum_q w_q f(x - y_q)
# over every node y_q, from row-major shifted points of every coordinate, whose
# polynomial values test_polynomial_batch_matches_reference ties to the plain
# formula, each row reduced as in a 4-row GEMV.  Chunks of 2^22 shifted points
# only bound the memory.
def every_node_convolution(omega, idx, ys, weights, pts):
    out = np.zeros(len(pts))
    chunk = max(1, (1 << 22) // max(1, len(ys)))
    for lo in range(0, len(pts), chunk):
        vals = shifted_values(omega, idx, ys, pts[lo : lo + chunk])
        out[lo : lo + chunk] = four_row_product(vals, weights)
    return out


@lru_cache(maxsize=None)
def _mollifier(n, odd=False):
    """Gauss nodes per axis: the even counts, or odd ones, which put a node
    at 0.0 on each axis."""
    return Mollifier(n, 0.25, nodes={1: (24, 25), 2: (40, 41), 3: (24, 27)}[n][odd])


def _strided(component):
    """The component's values as a strided view, every second entry of a
    wider array."""
    return lambda p: np.repeat(component(p)[:, np.newaxis], 2, axis=1)[:, 1]


@st.composite
def mollifier_cases(draw, large=True):
    """The convolution evaluates each distinct shift once, against the
    weights summed per shift; the kinds cover every read set: rough
    callables, with or without a support, read every coordinate (every node
    its own shift, so the summed weights are only reordered), and some
    return a strided array; "last" reads only x_n in R^3, so a shift's nodes
    are not a run of adjacent ones; and the polynomial kinds."""
    # With `large`, one case in ten is a batch of several thousand points,
    # about 4M shifted nodes whatever n is, which the convolution evaluates
    # in many node blocks.  It uses the cheapest component: a polynomial of
    # degree at most 1.
    across = large and draw(st.sampled_from([False] * 9 + [True]))
    kind = "any" if across else draw(
        st.sampled_from(["rough", "supported rough", "last"]) | polynomial_kinds
    )
    n = 3 if kind == "last" else draw(st.integers(1, 3))
    eta = _mollifier(n, draw(st.booleans()))
    chunk = (1 << 22) // len(eta.convolution_rule()[0])
    if kind in ("rough", "supported rough"):
        support = draw(supports(n)) if kind == "supported rough" else None
        component = _rough_component(0.3)
        if draw(st.booleans()):
            component = _strided(component)
        omega = FormField.from_callables(n, 0, {(): component}, support=support)
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
    return omega, eta, pts, draw(st.integers(1, n)) if draw(st.booleans()) else 0


def _across_case(n, axis):
    eta = _mollifier(n)
    rows = (1 << 22) // len(eta.convolution_rule()[0]) + 3
    pts = np.random.default_rng(n).uniform(-1.2, 1.2, size=(rows, n))
    poly = {(1,) + (0,) * (n - 1): 1.5, (0,) * n: -0.5}
    return FormField.from_polynomials(n, 0, {(): poly}), eta, pts, axis


def _mollified_closure(omega, eta, axis):
    """The rule and the closure of mollify(omega, eta) for its value (axis
    0) or its partial along x_axis, whose weights are that gradient column."""
    smooth = mollify(omega, eta)
    if axis:
        ys, grad_ws = eta.gradient_rule()
        weights = np.ascontiguousarray(grad_ws[:, axis - 1])
        return ys, weights, smooth.partials[((), axis)]
    return eta.convolution_rule() + (smooth.components[()],)


@settings(max_examples=24, deadline=5000)
@given(mollifier_cases())
@example(_across_case(2, axis=2))
def test_mollified_closures_match_broadcast_reference(case):
    omega, eta, pts, axis = case
    ys, weights, closure = _mollified_closure(omega, eta, axis)
    expected = reference_convolution(omega, (), ys, weights, pts)
    assert np.array_equal(closure(pts), expected)


# f = 2^-1074: each w_q f of the every-node sum underflows to 0, while the
# summed weights give 1.0 * f = f, the exact value
@settings(max_examples=40, deadline=5000)
@given(mollifier_cases(large=False))
@example((FormField.from_polynomials(1, 0, {(): 5e-324}), _mollifier(1),
          np.array([[0.3]]), 0))
def test_mollified_closures_stay_near_the_every_node_sum(case):
    """Summing the weights per shift first moves a value by rounding only:
    each of the two sums is within nodes * (u * sum_q |w_q f(x - y_q)| + h)
    of the exact one (u = 2^-53, and h = 2^-1075, half the subnormal
    spacing, for a product that underflows), so they are within twice that
    of each other.  The every-node sum finds no distinct shift and sums no
    weight, so this check shares no summation with the code under test."""
    omega, eta, pts, axis = case
    ys, weights, closure = _mollified_closure(omega, eta, axis)
    vals = shifted_values(omega, (), ys, pts)
    bound = len(ys) * (2 * 2.0**-53 * (np.abs(vals) @ np.abs(weights)) + 2.0**-1074)
    assert np.all(np.abs(closure(pts) - four_row_product(vals, weights)) <= bound)


@st.composite
def blocked_mollifier_cases(draw):
    """A mollifier case and rows per node block; a batch of several thousand
    points gets 7 * nodes // m rows per block, so several blocks and a
    partial last one whenever its component reads a coordinate."""
    case = draw(mollifier_cases())
    return case, draw(block_rows if len(case[2]) <= 8 else st.just(7))


@settings(max_examples=24, deadline=5000)
@given(blocked_mollifier_cases())
@example((_across_case(2, axis=0), 7))
def test_convolution_node_blocks_keep_the_bits(blocked):
    (omega, eta, pts, axis), rows = blocked
    ys, weights, closure = _mollified_closure(omega, eta, axis)
    with _node_block(rows, len(ys)):
        got = closure(pts)
    assert np.array_equal(got, reference_convolution(omega, (), ys, weights, pts))


def meshgrid_grid(eta, m):
    """forms._grid with its tensor weights as np.prod over stacked
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
    assert all(map(same_bits, forms._grid(n, eta.radius, nodes),
                   meshgrid_grid(eta, nodes)))
    if nodes >= 48 and (n, nodes) != (3, 96):
        eta = Mollifier(n, eta.radius, nodes)
        ys, ws = meshgrid_grid(eta, nodes)
        raw = forms._bump(ys, eta.radius)
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


def _row_dot_case(rows, nodes, strided, cuts, seed):
    """A (rows, nodes) matrix, contiguous or every second row of a wider one,
    a vector right-hand side, and batch boundaries."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(((1 + strided) * rows, nodes))[:: 1 + strided]
    return a, rng.standard_normal(nodes), cuts


@st.composite
def row_dot_cases(draw):
    rows = draw(st.integers(1, 100))
    return _row_dot_case(
        rows, draw(st.integers(1, 1200)), draw(st.booleans()),
        draw(batch_cuts(rows)), draw(st.integers(0, 2**32 - 1)),
    )


# OpenBLAS's GEMV goes multi-threaded from about 460k entries, when more than
# one thread is available: so do 401 and 416 rows of 1,200 nodes.  16 rows
# are a whole padded batch with one or two threads, so strided rows reach
# GEMV without a copy.
@settings(max_examples=150, deadline=5000)
@given(row_dot_cases())
@example(_row_dot_case(401, 1200, False, [0, 3, 50, 51, 401], 0))
@example(_row_dot_case(416, 1200, True, [0, 8, 24, 88, 400, 416], 1))
@example(_row_dot_case(16, 1023, True, [0, 8, 16], 2))
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
    reduce against the columns of the gradient rule."""
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


def test_first_use_memos_read_the_same_every_time():
    """_reads and total_degree are computed on the first read, kept on the
    instance, and read back unchanged; a form with a support is a new form
    whose read set is its own, read before or after its parent's."""
    poly = Polynomial(2, {(2, 1): 1.0, (0, 4): -2.0})
    assert "total_degree" not in vars(poly)
    assert poly.total_degree == 4
    assert vars(poly)["total_degree"] == 4 and poly.total_degree == 4
    assert poly.partial(2).total_degree == 3 and poly.total_degree == 4
    omega = FormField.from_polynomials(2, 1, {(2,): {(1, 0): 1.0}})
    supported = omega.with_support(Ball(np.zeros(2), 1.0))
    assert supported._reads == (0, 1)
    assert omega._reads == (0,) and omega._reads == (0,)
    assert omega.with_support(Ball(np.zeros(2), 1.0))._reads == (0, 1)
    assert omega.exterior_derivative()._reads == ()
    assert omega._reads == (0,) and supported._reads == (0, 1)


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
        closures = [(smooth.components[idx], ws)] + [
            (smooth.partials[(idx, j)], np.ascontiguousarray(grad_ws[:, j - 1]))
            for j in (1, 2, 3)
        ]
        for closure, weights in closures:
            expected = reference_convolution(omega, idx, ys, weights, pts)
            assert np.array_equal(closure(pts), expected)


def test_constant_pullback_memory_is_the_integrand():
    """A constant 2-form at N x Q = 2^21 nodes allocates its (N, Q)
    integrand and little else: one node block's scratch."""
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


# -- the rough-face screen --------------------------------------------------
#
# On a stratified segment rule edge_integrals first evaluates each row at
# the screen nodes 0, 16, 32, ..., 1008 and 1023 (simplex._SCREEN).  A row
# whose screen values all agree integrates in closed form.  In the other
# rows a stretch, the nodes strictly between two adjacent screen nodes, is
# evaluated only when the values at its two ends differ, and otherwise
# takes their value.  The references evaluate every node, so a crossed face
# whose integrand is constant between jumps, each jump inside a stretch
# whose ends differ, keeps their bits.


def _jump_component(terms):
    """sum of c sign(a . x + b) over terms (a, b, c), elementwise."""
    def component(p):
        out = np.zeros(len(p))
        for a, b, c in terms:
            level = np.full(len(p), b)
            for j, aj in enumerate(a):
                level += aj * p[:, j]
            out += c * np.sign(level)
        return out
    return component


# jump heights from 8 down to 1e-30, which any tolerance would flatten
levels = st.one_of(coefficients, st.floats(1e-30, 1e-20))


@st.composite
def jump_forms(draw, n):
    """A rough 1-form in R^n whose components each jump across 1-3 random
    lines (planes in R^3) through the sampled region."""
    unit = st.floats(-1.0, 1.0, width=64)
    return FormField.from_callables(n, 1, {
        idx: _jump_component([
            (draw(hnp.arrays(np.float64, n, elements=unit)), draw(unit),
             draw(levels))
            for _ in range(draw(st.integers(1, 3)))
        ])
        for idx in draw(basis_indices(n, 1))
    })


def _screen_case(omega, rows, seed):
    """omega and `rows` segments drawn from a seed.  Radii are 0, about
    1e-300, short (rarely straddling a jump) or up to 2 (mostly straddling)."""
    n = omega.dimension
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1.5, 1.5, size=(rows, n))
    vs = rng.normal(size=(rows, 1, n))
    vs /= np.linalg.norm(vs, axis=2, keepdims=True)
    kind = rng.integers(0, 4, size=(rows, 1))
    u = rng.random((rows, 1))
    rs = np.choose(kind, [0.0 * u, 1e-300 * u, 0.05 * u, 2.0 * u])
    F = IntegrationMultifunction(omega, default_rule(1, smooth=False))
    return F, x0, vs, rs


@st.composite
def screen_cases(draw):
    """A jump form and N segments: N = 0, 1, a few, or more than the 32
    rows of one node block."""
    omega = draw(jump_forms(draw(st.integers(2, 3))))
    rows = draw(st.sampled_from([0, 1, 2, 5, 33, 50, 80]))
    return _screen_case(omega, rows, draw(st.integers(0, 2**32 - 1)))


# more than one node block of refined rows, plain and scaled
@settings(max_examples=40, deadline=5000)
@given(screen_cases())
@example(_screen_case(FormField.from_callables(2, 1, {
    (1,): _jump_component([((1.0, 0.5), 0.1, 2.0)]),
    (2,): _jump_component([((0.0, 1.0), -0.2, -1.5), ((1.0, 1.0), 0.0, 1e-25)]),
}), 120, 0))
def test_screened_faces_match_the_reference(case):
    """Plain, scaled and with mass: the bits of evaluating every node on a
    crossed face, the closed form on a constant one."""
    F, x0, vs, rs = case
    edges = rs[..., np.newaxis] * vs
    for args, unit in (((x0, vs), None), ((x0, edges), vs)):
        want = reference_edge_integrals(F, *args, unit_vectors=unit, with_mass=True)
        got = edge_integrals(F.omega, F.rule, *args, unit_vectors=unit)
        got_mass = edge_integrals(F.omega, F.rule, *args, unit_vectors=unit,
                                  with_mass=True)
        assert np.array_equal(got, want[0])
        assert np.array_equal(got_mass[0], want[0])
        assert np.array_equal(got_mass[1], want[1])


def _screened_segments(component, lengths, rule=None, every_node=False):
    """edge_integrals of component dx1 over the segments from 0 along x1,
    the reference's, and the x1 of every point the kernel evaluated."""
    rule = rule or default_rule(1, smooth=False)
    calls = []
    omega = FormField.from_callables(2, 1, {
        (1,): lambda p: calls.append(p.copy()) or component(p),
    })
    base = np.zeros((len(lengths), 2))
    edges = np.zeros((len(lengths), 1, 2))
    edges[:, 0, 0] = lengths
    got = edge_integrals(omega, rule, base, edges)
    seen = np.concatenate(calls)[:, 0]
    want = reference_edge_integrals(
        IntegrationMultifunction(omega, rule), base, edges, every_node=every_node
    )
    return got, want, seen


def _evaluated_nodes(values):
    """The nodes the pullback evaluates on a face whose integrand takes
    `values` at the 1,024 nodes: the screen, and the inside of every
    stretch whose two ends differ; ascending."""
    inside = [np.arange(a + 1, b) for a, b in zip(SCREEN, SCREEN[1:])
              if not values[a] == values[b]]
    return np.sort(np.concatenate([SCREEN, *inside]))


def test_screen_refines_only_the_rows_it_sees_change():
    """sign(x1 - 0.5) is constant on [0, 0.3]: 65 evaluations, at the
    screen nodes.  On [0, 1] the screen sees the jump between its nodes 496
    and 512, and only the 15 nodes between them are evaluated after it; so
    too for a one-ulp step."""
    s = default_rule(1, smooth=False).points[:, 0]
    got, want, seen = _screened_segments(lambda p: np.sign(p[:, 0] - 0.5), [0.3])
    assert np.array_equal(got, want)
    assert np.array_equal(seen, 0.3 * s[SCREEN])
    for step in (lambda p: np.sign(p[:, 0] - 0.5),
                 lambda p: np.where(p[:, 0] > 0.5, np.nextafter(1.0, 2.0), 1.0)):
        got, want, seen = _screened_segments(step, [1.0])
        assert np.array_equal(got, want)
        assert np.array_equal(seen, np.concatenate([s[SCREEN], s[497:512]]))
    got, want, seen = _screened_segments(
        lambda p: np.sign(p[:, 0] - 0.5), [0.3, 1.0, 0.2]
    )
    assert np.array_equal(got, want)
    assert len(seen) == 3 * len(SCREEN) + 15


@pytest.mark.parametrize("rule", [monte_carlo_rule(1, samples=1024),
                                  stratified_segment_rule(samples=32)],
                         ids=["monte-carlo", "32-node-stratified"])
def test_only_a_long_stratified_rule_is_screened(rule):
    got, want, seen = _screened_segments(lambda p: np.sign(p[:, 0] - 0.5), [0.3],
                                         rule)
    assert np.array_equal(got, want)
    assert np.array_equal(seen, 0.3 * rule.points[:, 0])


@pytest.mark.parametrize("node", [0, 1023])
def test_the_screen_reads_both_end_nodes(node):
    """A jump between the first two nodes, or the last two, is refined: the
    15 nodes inside the first stretch, or the 14 inside the last."""
    s = default_rule(1, smooth=False).points[:, 0]
    cut = (s[node] + s[node + (1 if node == 0 else -1)]) / 2
    got, want, seen = _screened_segments(lambda p: np.sign(p[:, 0] - cut), [1.0])
    assert np.array_equal(got, want)
    inside = list(range(1, 16) if node == 0 else range(1009, 1023))
    assert np.array_equal(np.sort(seen), s[sorted(SCREEN + inside)])


# (0.52, 0.552) falls between the screen nodes of a 64-node stride
@settings(max_examples=40, deadline=5000)
@given(st.floats(0.0, 1.0), st.floats(2 * 16 / 1024, 0.9), st.floats(1e-3, 8.0))
@example(0.52 / (1 - 1 / 32), 1 / 32, 1.0)
def test_an_interval_spanning_two_screen_gaps_is_refined(at, width, length):
    """The indicator of a stretch of the segment at least two screen gaps
    (2 x 16/1024) wide, and at most 0.9 of it, holds a screen node and
    leaves one out: always refined, with the reference's bits.  Only the
    stretches that hold its ends are evaluated past the screen."""
    lo = at * (1.0 - width) * length
    hi = lo + width * length
    indicator = lambda p: ((p[:, 0] > lo) & (p[:, 0] < hi)).astype(float)
    got, want, seen = _screened_segments(indicator, [length])
    assert np.array_equal(got, want)
    s = default_rule(1, smooth=False).points
    nodes = _evaluated_nodes(indicator(length * s))
    assert len(nodes) <= len(SCREEN) + 2 * 15
    assert np.array_equal(np.sort(seen), length * s[nodes, 0])


# cut points along x1 in [0, 1.2]: several may share a stretch
cut_lists = st.lists(st.floats(0.0, 1.2), min_size=1, max_size=6)


@settings(max_examples=40, deadline=5000)
@given(cut_lists, st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8))
@example([0.5, 0.502, 0.8], [1.0, 0.3])
def test_no_node_is_evaluated_twice(cuts, lengths):
    """A step function of x1 that jumps at each cut, over segments of
    several lengths, segment i from (0, i) along x1: each segment's screen
    and the inside of each of its stretches whose ends differ are
    evaluated, each node once."""
    steps = np.sort(cuts)
    step = lambda p: np.searchsorted(steps, p[:, 0]).astype(float)
    calls = []
    omega = FormField.from_callables(2, 1, {
        (1,): lambda p: calls.append(p.copy()) or step(p),
    })
    rule = default_rule(1, smooth=False)
    base = np.zeros((len(lengths), 2))
    base[:, 1] = np.arange(len(lengths))
    edges = np.zeros((len(lengths), 1, 2))
    edges[:, 0, 0] = lengths
    edge_integrals(omega, rule, base, edges)
    seen = np.concatenate(calls)
    s = rule.points
    want = np.concatenate([
        np.column_stack([length * s[nodes, 0], np.full(len(nodes), float(i))])
        for i, length in enumerate(lengths)
        for nodes in [_evaluated_nodes(step(length * s))]
    ])
    assert len(np.unique(seen, axis=0)) == len(seen)
    assert np.array_equal(np.unique(seen, axis=0), np.unique(want, axis=0))
    assert len(seen) == len(want)


# values of a face, away from underflow, so that v * w_q = v / 1024 is exact
face_values = (st.floats(1e-100, 1e100) | st.floats(-1e100, -1e-100)
               | st.just(0.0))


@settings(max_examples=60, deadline=2000)
@given(face_values, st.integers(0, 2**32 - 1))
def test_a_constant_face_integrates_in_closed_form(value, seed):
    """A face with one integrand value v at every node gives exactly
    v * sum(W), and mass |v| * sum(|W|), from its 65 screen nodes; sum(W) is
    1.0 under the default rule.  Summing every node rounds, by at most
    Higham's bound for any order of summation, gamma_{Q-1} sum_q |v w_q|
    with gamma_{Q-1} < Q u and u = 2^-53.  (Measured on OpenBLAS's GEMV: up
    to 64 ulp of v, about 7e-15 relative.)"""
    calls = []
    omega = FormField.from_callables(2, 1, {
        (1,): lambda p: calls.append(len(p)) or np.full(len(p), value),
    })
    F, x0, vs, rs = _screen_case(omega, 6, seed)
    edges = rs[..., np.newaxis] * vs
    W = F.rule.weights
    assert W.sum() == 1.0
    got, mass = edge_integrals(F.omega, F.rule, x0, edges, unit_vectors=vs,
                               with_mass=True)
    assert sum(calls) == 6 * len(SCREEN)
    v = reference_integrand(F, x0, edges, vs)
    assert (v == v[:, :1]).all()
    v = v[:, 0]
    assert np.array_equal(got, v * W.sum())
    assert np.array_equal(mass, np.abs(v) * np.abs(W).sum())
    every = reference_edge_integrals(F, x0, edges, unit_vectors=vs,
                                     with_mass=True, every_node=True)
    bound = len(W) * 2.0**-53 * np.abs(v)
    assert (np.abs(got - every[0]) <= bound).all()
    assert (np.abs(mass - every[1]) <= bound).all()


@settings(max_examples=40, deadline=5000)
@given(screen_cases(), block_rows)
def test_stretch_node_blocks_keep_the_bits(case, rows):
    """Crossed rows evaluated in blocks of 1, 2 or 4 stretches (0: one
    stretch of 15 nodes per block), screened 15 rows at a time: every
    crossed row has the bits of evaluating every node, every constant row
    the closed form."""
    F, x0, vs, rs = case
    edges = rs[..., np.newaxis] * vs
    with _node_block(rows, 15):
        got = edge_integrals(F.omega, F.rule, x0, edges, unit_vectors=vs,
                             with_mass=True)
        plain = edge_integrals(F.omega, F.rule, x0, vs)
    want = reference_edge_integrals(F, x0, edges, unit_vectors=vs,
                                    with_mass=True)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(plain, reference_edge_integrals(F, x0, vs))


def test_a_nan_coefficient_still_gives_nan():
    rule = default_rule(1, smooth=False)
    base, edges = np.zeros((1, 2)), np.array([[[1.0, 0.0]]])
    for component in (lambda p: np.where(p[:, 0] > 0.5, np.nan, 1.0),
                      lambda p: np.full(len(p), np.nan)):
        omega = FormField.from_callables(2, 1, {(1,): component})
        value, mass = edge_integrals(omega, rule, base, edges, with_mass=True)
        assert np.isnan(value[0]) and np.isnan(mass[0])


@settings(max_examples=40, deadline=2000)
@given(st.floats(0.001, 0.99), levels)
def test_a_nan_at_a_screen_node_gives_nan(cut, level):
    """NaN past x1 = cut reaches node 1023 of the face [0, 1], a screen
    node, so its value and mass are NaN wherever the cut falls; the face
    [0, cut / 2] in the same batch stays finite."""
    omega = FormField.from_callables(2, 1, {
        (1,): lambda p: np.where(p[:, 0] > cut, np.nan, level),
    })
    base, edges = np.zeros((2, 2)), np.zeros((2, 1, 2))
    edges[:, 0, 0] = [1.0, cut / 2]
    value, mass = edge_integrals(omega, default_rule(1, smooth=False), base,
                                 edges, with_mass=True)
    assert np.isnan(value[0]) and np.isnan(mass[0])
    assert np.isfinite(value[1]) and np.isfinite(mass[1])


def test_a_sliver_between_screen_nodes_is_missed():
    """The screen's documented blind spot (README, "Rough faces"): the
    indicator of 0.502 < x1 < 0.514 covers 12 of the 1,024 nodes on the
    segment from (0, 0) to (1, 0) but no screen node, so it integrates to
    0 where evaluating every node gives 12/1024.  It is missed on a face
    that crosses a jump elsewhere too, since the stretch that holds it has
    equal ends: that face gets the bits of the same face without it."""
    sliver = lambda p: ((p[:, 0] > 0.502) & (p[:, 0] < 0.514)).astype(float)
    got, want, seen = _screened_segments(sliver, [1.0], every_node=True)
    assert got[0] == 0.0 and want[0] == 12 / 1024
    assert len(seen) == len(SCREEN)
    step = lambda p: (p[:, 0] > 0.8).astype(float)
    got, want, seen = _screened_segments(lambda p: sliver(p) + step(p), [1.0],
                                         every_node=True)
    without, _, _ = _screened_segments(step, [1.0])
    assert np.array_equal(got, without)
    assert want[0] - got[0] == 12 / 1024
    assert len(seen) == len(SCREEN) + 15


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
    rejected tuple's g is 0.  Each channel sums w and w^2 block by block
    in Python floats; the p-th root takes the delta-method error."""
    k = F.degree
    R = domain.diameter() if cfg.variant == "full" else cfg.R
    n = domain.dimension
    p = cfg.p
    a = p * (1.0 - cfg.theta)
    sphere_area = unit_sphere_area(n)
    volume = domain.volume()
    cone = cfg.variant in ("cone", "ball-cone")
    capped = cfg.variant in ("full", "ball", "ball-cone")
    channels = [[0.0, 0.0] for _ in range(1 if split_radius is None else 2)]
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
                parts = [w]
            else:
                near = (rs <= split_radius).all(axis=1)
                w_near = np.where(near, w, 0.0)
                parts = [w_near, w - w_near]
            for sums, part in zip(channels, parts):
                sums[0] += float(np.sum(part))
                sums[1] += float(np.sum(part * part))
    echo = {"variant": cfg.variant, "p": p, "k": k, "theta": cfg.theta, "R": R,
            "c": cfg.c, "samples": cfg.samples, "seed": cfg.seed,
            "stream": cfg.stream}
    estimates = []
    for sw, sw2 in channels:
        mean = sw / total
        var = max(sw2 - total * mean * mean, 0.0) / max(total - 1, 1)
        power_stderr = math.sqrt(var / total)
        value = mean ** (1.0 / p) if mean > 0.0 else 0.0
        stderr = power_stderr * value / (p * mean) if mean > 0.0 else 0.0
        estimates.append(SeminormEstimate(
            value=value, stderr=stderr, power_value=max(mean, 0.0),
            power_stderr=power_stderr, samples=total,
            acceptance_ratio=accepted / total, config=dict(echo),
        ))
    return estimates


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
    """700-tuple blocks give each stream two draws, the second partial.  The
    estimate packs its blocks into tiles, so D and F see the reference's
    rows, in order, in fewer batches: the rows are compared concatenated."""
    domain, variant = ESTIMATE_CASES[case]
    cfg = SeminormConfig(theta=0.95, samples=3001, seed=seed, stream=1, **variant)
    split_radius = 0.05 if split else None
    runs = []
    with mock.patch.object(seminorms, "_CHUNK", 700):
        for estimate in (seminorms._estimate, parent_estimate):
            D, F = Recorder(domain), Recorder(_multifunction(k))
            runs.append((estimate(F, D, cfg, split_radius), D.seen, F.seen))
    (got, got_pts, got_args), (want, want_pts, want_args) = runs
    # the annulus cone keeps every tuple, so F sees the blocks' own arrays;
    # the square ball rejects some, so F sees the gathered kept rows
    if case == "annulus cone":
        assert all(g.acceptance_ratio == 1.0 for g in got)
    if case == "square ball" and k:
        assert all(g.acceptance_ratio < 1.0 for g in got)
    assert same_bits(np.concatenate(got_pts), np.concatenate(want_pts))
    for i in range(3):  # x0, vs and rs
        assert same_bits(np.concatenate(got_args[i::3]),
                         np.concatenate(want_args[i::3]))
    for g, w in zip(got, want):
        assert (g.value, g.stderr, g.power_value, g.power_stderr, g.samples,
                g.acceptance_ratio, g.config) == (
                    w.value, w.stderr, w.power_value, w.power_stderr, w.samples,
                    w.acceptance_ratio, w.config)
        assert math.isfinite(g.value)


def _estimate_fields(est):
    return (est.value, est.stderr, est.power_value, est.power_stderr,
            est.samples, est.acceptance_ratio, est.config)


@pytest.mark.parametrize("case", sorted(ESTIMATE_CASES))
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("split", [False, True])
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_estimate_does_not_depend_on_its_tiles(case, k, split, seed):
    """Tiles of 1, 97 and 700 rows give the bits of the default tiles, which
    also bound the packs.  On 700-tuple blocks the default tiles pack all
    3001 tuples into one tile; 700-row tiles take each block alone, with
    one tile, 97-row tiles with eight, the last partial, and 1-row tiles
    with one per tuple."""
    domain, variant = ESTIMATE_CASES[case]
    cfg = SeminormConfig(theta=0.95, samples=3001, seed=seed, stream=1, **variant)
    split_radius = 0.05 if split else None
    F = _multifunction(k)
    with mock.patch.object(seminorms, "_CHUNK", 700):
        want = seminorms._estimate(F, domain, cfg, split_radius)
        for rows in (1, 97, 700):
            with mock.patch.object(seminorms, "_tile_rows", lambda k, n: rows):
                got = seminorms._estimate(F, domain, cfg, split_radius)
            assert [_estimate_fields(g) for g in got] == [
                _estimate_fields(w) for w in want]
