"""Tests for the domain shapes and their exact geometry."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from formflux.domains import (
    Annulus,
    AxisBox,
    Ball,
    ConvexPolytope,
    Domain,
    SetDifference,
    SlitBox,
    _HOLE_BLOCK,
    _dist_point_to_segments,
    _dist_to_simplices,
    _root_threshold,
    domain_from_json,
    unit_ball_volume,
)
from formflux.errors import ArgumentError, InefficiencyError, UnsupportedOperationError
from oracles import dist_point_to_simplex

UNIT_BOX = AxisBox([0.0, 0.0], [1.0, 1.0])
UNIT_BALL = Ball([0.0, 0.0], 1.0)
ANNULUS = Annulus([0.0, 0.0], 0.5, 1.0)

TRIANGLE = ConvexPolytope(
    normals=[[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0], [1.0, 0.0]],
    offsets=[0.0, 0.0, 1.0, 5.0],  # x <= 5 is redundant
)
TRIANGLE_HOLE = ConvexPolytope(
    normals=[[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], offsets=[-0.4, -0.4, 1.0]
)
CUBE_HOLE = ConvexPolytope(np.vstack([np.eye(3), -np.eye(3)]), [0.6] * 3 + [-0.4] * 3)
BOX_MINUS_TRIANGLE = SetDifference(AxisBox([0.0, 0.0], [2.0, 2.0]), TRIANGLE_HOLE)
CUBE_MINUS_CUBE = SetDifference(AxisBox([0.0] * 3, [1.0] * 3), CUBE_HOLE)


def test_unit_ball_volume():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def test_membership_examples():
    assert UNIT_BALL.contains([0.0, 0.0])
    assert not UNIT_BALL.contains([1.0, 0.0])  # boundary excluded
    assert ANNULUS.contains([0.75, 0.0])
    assert not ANNULUS.contains([0.4, 0.0])
    assert UNIT_BOX.contains([0.5, 0.5])
    assert not UNIT_BOX.contains([0.5, 1.0])


def test_dist_to_boundary_examples():
    assert UNIT_BOX.dist_to_boundary([0.5, 0.5]) == pytest.approx(0.5)
    assert UNIT_BALL.dist_to_boundary([0.25, 0.0]) == pytest.approx(0.75)
    assert UNIT_BOX.dist_to_boundary([2.0, 2.0]) == 0.0  # outside -> 0
    assert ANNULUS.dist_to_boundary([0.75, 0.0]) == pytest.approx(0.25)


def test_volume():
    assert UNIT_BOX.volume() == pytest.approx(1.0)
    assert UNIT_BALL.volume() == pytest.approx(math.pi)
    assert ANNULUS.volume() == pytest.approx(0.75 * math.pi)
    assert TRIANGLE.volume() == pytest.approx(0.5)


def test_diameter():
    assert UNIT_BOX.diameter() == pytest.approx(math.sqrt(2.0))
    assert Ball([1.0, 2.0], 0.5).diameter() == pytest.approx(1.0)
    assert ANNULUS.diameter() == pytest.approx(2.0)
    assert TRIANGLE.diameter() == pytest.approx(math.sqrt(2.0))


def test_polytope_drops_redundant_halfspace():
    assert len(TRIANGLE.offsets) == 3
    assert TRIANGLE.dist_to_boundary([0.25, 0.25]) == pytest.approx(0.25)


def test_polytope_rejects_unbounded():
    with pytest.raises(ArgumentError):
        ConvexPolytope([[1.0, 0.0]], [1.0])


def test_shrink_examples():
    small = UNIT_BOX.shrink(0.1)
    assert np.allclose(small.lo, 0.1) and np.allclose(small.hi, 0.9)
    assert UNIT_BALL.shrink(0.25).radius == pytest.approx(0.75)
    with pytest.raises(ArgumentError):
        UNIT_BOX.shrink(0.5)
    with pytest.raises(ArgumentError):
        UNIT_BALL.shrink(1.5)
    with pytest.raises(UnsupportedOperationError):
        ANNULUS.shrink(0.01)


@pytest.mark.parametrize("domain", [UNIT_BOX, UNIT_BALL, TRIANGLE])
def test_shrink_matches_distance(domain):
    eps = 0.15
    small = domain.shrink(eps)
    pts = domain.sample_uniform(2000, seed=5)
    inside_small = small.contains_batch(pts)
    deep = domain.dist_to_boundary_batch(pts) > eps
    assert np.array_equal(inside_small, deep)


def test_shrunk_polytope_distance_consistent():
    small = TRIANGLE.shrink(0.05)
    pts = small.sample_uniform(500, seed=3)
    d_small = small.dist_to_boundary_batch(pts)
    d_big = TRIANGLE.dist_to_boundary_batch(pts)
    assert np.allclose(d_big - d_small, 0.05, atol=1e-9)


def test_sample_uniform_box_mean():
    pts = UNIT_BOX.sample_uniform(10000, seed=0)
    assert np.all(np.abs(pts.mean(axis=0) - 0.5) < 0.015)


def test_sample_uniform_deterministic():
    a = ANNULUS.sample_uniform(500, seed=123)
    b = ANNULUS.sample_uniform(500, seed=123)
    assert np.array_equal(a, b)
    c = ANNULUS.sample_uniform(500, seed=124)
    assert not np.array_equal(a, c)


def test_sample_uniform_annulus_members():
    pts = ANNULUS.sample_uniform(2000, seed=1)
    r = np.linalg.norm(pts, axis=1)
    assert np.all((r > 0.5) & (r < 1.0))


def test_sample_uniform_inefficient_raises():
    thin = Annulus([0.0, 0.0], 0.99995, 1.0)
    with pytest.raises(InefficiencyError):
        thin.sample_uniform(5000, seed=0)


def reference_sample_uniform(domain, count, rng):
    """Domain.sample_uniform with every candidate of every batch tested."""
    lo, hi = domain.bounding_box()
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    out = np.empty((count, domain.dimension))
    got = 0
    attempts = 0
    while got < count:
        batch = max(4 * (count - got), 4096)
        pts = rng.uniform(lo, hi, size=(batch, domain.dimension))
        keep = pts[domain.contains_batch(pts)]
        take = min(len(keep), count - got)
        out[got : got + take] = keep[:take]
        got += take
        attempts += batch
        if attempts >= 20000 and got / attempts < 1e-3:
            raise InefficiencyError("", acceptance_ratio=got / attempts, samples=got)
    return out


def _sample_or_error(sample, domain, count, seed, generator=np.random.default_rng):
    rng = generator(seed)
    try:
        result = sample(domain, count, rng)
    except InefficiencyError as err:
        result = (err.acceptance_ratio, err.samples)
    return result, rng.bit_generator.state


SAMPLED_DOMAINS = {
    "box": AxisBox([-1.0, 0.0, 0.5], [1.0, 0.5, 2.0]),
    "disc": Ball([0.2, -0.1], 0.8),
    "ball": Ball([0.0, 0.0, 0.0], 1.0),
    "annulus": ANNULUS,
    "thin annulus": Annulus([0.0, 0.0], 0.9, 1.0),
    "hair annulus": Annulus([0.0, 0.0], 0.99995, 1.0),
}


# Candidates are tested 4096 at a time: the counts straddle the first
# sub-block (1024 fills one batch of 4096 at acceptance 1), several
# sub-blocks of one batch, and several batches at low acceptance.
@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(SAMPLED_DOMAINS)),
    st.integers(0, 9000),
    st.integers(0, 2**32 - 1),
)
@example("box", 1024, 0)
@example("box", 1025, 0)
@example("disc", 3217, 1)
@example("annulus", 2000, 2)
@example("thin annulus", 5000, 3)
@example("hair annulus", 5000, 0)
def test_sub_block_sampler_matches_reference(name, count, seed):
    domain = SAMPLED_DOMAINS[name]
    got, state = _sample_or_error(Domain.sample_uniform, domain, count, seed)
    want, want_state = _sample_or_error(reference_sample_uniform, domain, count, seed)
    assert state == want_state
    assert type(got) is type(want)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert np.array_equal(got, want)


def _buffered_pcg64(seed):
    """A PCG64 generator holding a buffered uint32 (a float32 draw leaves
    the other half of its 64-bit step), which advance would drop."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rng.random(dtype=np.float32)
    assert rng.bit_generator.state["has_uint32"]
    return rng


# Only PCG64 and PCG64DXSM without a buffered uint32 skip the untested
# candidates by advance; the others draw them, and every one must end in
# the state of the whole-batch reference.
GENERATORS = {
    "philox": lambda seed: np.random.Generator(np.random.Philox(seed)),
    "sfc64": lambda seed: np.random.Generator(np.random.SFC64(seed)),
    "pcg64 with a buffered uint32": _buffered_pcg64,
    "pcg64dxsm": lambda seed: np.random.Generator(np.random.PCG64DXSM(seed)),
}


@pytest.mark.parametrize("generator", sorted(GENERATORS))
@pytest.mark.parametrize(
    "name, count, seed",
    [("box", 1025, 0), ("disc", 3217, 1), ("annulus", 2000, 2),
     ("thin annulus", 5000, 3), ("hair annulus", 5000, 0)],
)
def test_sub_block_sampler_matches_reference_on_other_generators(
    generator, name, count, seed
):
    domain = SAMPLED_DOMAINS[name]
    make = GENERATORS[generator]
    got, state = _sample_or_error(Domain.sample_uniform, domain, count, seed, make)
    want, want_state = _sample_or_error(
        reference_sample_uniform, domain, count, seed, make
    )
    np.testing.assert_equal(state, want_state)  # Philox keeps arrays
    assert type(got) is type(want)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert np.array_equal(got, want)


# Domain invariants as properties, over the sampled shapes plus a polytope,
# a slit box and a set difference.
PROPERTY_DOMAINS = dict(
    SAMPLED_DOMAINS,
    **{
        "triangle": TRIANGLE,
        "slit box": SlitBox([0.0, 0.0], [1.0, 1.0], [0.25, 0.5], [0.75, 0.5], 0.1),
        "box minus disc": SetDifference(UNIT_BOX, Ball([0.5, 0.5], 0.2)),
        "box minus triangle": BOX_MINUS_TRIANGLE,
        "cube minus cube": CUBE_MINUS_CUBE,
    },
)
DOMAIN_PROPERTY = settings(max_examples=30, deadline=5000)
property_domains = st.sampled_from(sorted(PROPERTY_DOMAINS))
seeds = st.integers(0, 2**32 - 1)


# Every shape that samples by rejection (a box draws without it).
REJECTION_DOMAINS = {
    name: domain for name, domain in PROPERTY_DOMAINS.items()
    if not isinstance(domain, AxisBox)
}


# Counts on the edges of a 4096-row chunk, into a fresh array and into a
# given one: a chunk's members go straight into out when they fit.
@pytest.mark.parametrize("given_out", [False, True])
@pytest.mark.parametrize("count", [4095, 4096, 4097])
@pytest.mark.parametrize("name", sorted(REJECTION_DOMAINS))
def test_rejection_sampler_matches_reference_at_the_chunk_edges(name, count, given_out):
    domain = REJECTION_DOMAINS[name]
    out = np.full((count, domain.dimension), np.nan) if given_out else None

    def sample(domain, count, rng):
        got = domain.sample_uniform(count, seed=rng, out=out)
        assert got is out or not given_out
        return got

    got, state = _sample_or_error(sample, domain, count, count)
    want, want_state = _sample_or_error(reference_sample_uniform, domain, count, count)
    assert state == want_state
    assert type(got) is type(want)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert np.array_equal(got, want)


def _box(domain):
    lo, hi = domain.bounding_box()
    return np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)


@DOMAIN_PROPERTY
@given(property_domains, st.integers(1, 3000), seeds)
def test_samples_lie_in_the_domain_and_its_bounding_box(name, count, seed):
    domain = PROPERTY_DOMAINS[name]
    lo, hi = _box(domain)
    try:
        pts = domain.sample_uniform(count, seed=seed)
    except InefficiencyError:
        # only a shape that fills under 1e-3 of its box may be refused
        assert domain.volume() < 1e-3 * np.prod(hi - lo)
        return
    assert pts.shape == (count, domain.dimension)
    assert domain.contains_batch(pts).all()
    assert np.all((pts >= lo) & (pts <= hi))


@DOMAIN_PROPERTY
@given(property_domains, seeds)
def test_membership_is_exactly_positive_boundary_distance(name, seed):
    domain = PROPERTY_DOMAINS[name]
    lo, hi = _box(domain)
    rng = np.random.default_rng(seed)
    pad = 0.25 * (hi - lo)
    pts = rng.uniform(lo - pad, hi + pad, size=(512, domain.dimension))
    # half the points on a 1/16 lattice, which puts some on the walls
    lattice = rng.random(len(pts)) < 0.5
    pts[lattice] = np.round(16.0 * pts[lattice]) / 16.0
    assert np.array_equal(
        domain.contains_batch(pts), domain.dist_to_boundary_batch(pts) > 0.0
    )


# A statistical check: derandomized, so a run fails only if the code does.
@settings(DOMAIN_PROPERTY, derandomize=True)
@given(property_domains, seeds)
def test_monte_carlo_volume_is_within_four_sigma(name, seed):
    domain = PROPERTY_DOMAINS[name]
    lo, hi = _box(domain)
    box = float(np.prod(hi - lo))
    p = domain.volume() / box
    # at least 100 expected hits, so that the hit count is near normal
    m = max(40000, math.ceil(100.0 / p))
    rng = np.random.default_rng(seed)
    hits = sum(
        int(np.count_nonzero(domain.contains_batch(
            rng.uniform(lo, hi, size=(min(1 << 16, m - i), domain.dimension))
        )))
        for i in range(0, m, 1 << 16)
    )
    sigma = box * math.sqrt(p * (1.0 - p) / m)
    assert abs(box * hits / m - domain.volume()) <= 4.0 * sigma


def test_dist_lipschitz_along_segments():
    rng = np.random.default_rng(9)
    for domain in (ANNULUS, UNIT_BALL, TRIANGLE, BOX_MINUS_TRIANGLE, CUBE_MINUS_CUBE):
        pts = domain.sample_uniform(200, seed=17)
        for _ in range(50):
            i, j = rng.integers(0, len(pts), size=2)
            d = abs(
                domain.dist_to_boundary(pts[i]) - domain.dist_to_boundary(pts[j])
            )
            assert d <= np.linalg.norm(pts[i] - pts[j]) + 1e-12


SLIT_ARGS = ([0.0, 0.0], [1.0, 1.0], [0.5, 0.0], [0.5, 0.5])


@pytest.mark.parametrize("build, field", [
    pytest.param(lambda: Ball([0.0, 0.0], math.inf), "ball radius", id="ball-radius"),
    pytest.param(lambda: Ball([0.0, math.nan], 1.0), "ball center", id="ball-center"),
    pytest.param(lambda: AxisBox([0.0, 0.0], [1.0, math.inf]), "box hi", id="box-hi"),
    pytest.param(lambda: AxisBox([-math.inf, 0.0], [1.0, 1.0]), "box lo", id="box-lo"),
    pytest.param(lambda: Annulus([0.0, 0.0], 0.5, math.inf), "annulus r_out",
                 id="annulus-r_out"),
    pytest.param(lambda: Annulus([0.0, 0.0], math.nan, 1.0), "annulus r_in",
                 id="annulus-r_in"),
    pytest.param(lambda: Annulus([[0.0, 0.0]], 0.5, 1.0), "annulus center must be",
                 id="annulus-matrix-center"),
    pytest.param(lambda: SlitBox(*SLIT_ARGS, delta=math.nan), "slit delta", id="slit-delta"),
    pytest.param(lambda: SlitBox(*SLIT_ARGS[:3], [0.5, math.inf]), "slit seg_end",
                 id="slit-seg_end"),
    pytest.param(lambda: ConvexPolytope([[1.0, 1.0], [-1.0, 0.0], [0.0, math.nan]],
                                        [1.0, 1.0, 1.0]), "polytope normals",
                 id="polytope-normals"),
    pytest.param(lambda: ConvexPolytope(TRIANGLE.normals, [1.0, 1.0, math.inf]),
                 "polytope offsets", id="polytope-offsets"),
    pytest.param(lambda: SetDifference(AxisBox([-1.0, -1.0], [1.0, 1.0]),
                                       Ball([0.0, 0.0], math.nan)),
                 "ball radius", id="set-difference-hole"),
])
def test_a_non_finite_or_misshapen_parameter_is_refused_by_name(build, field):
    with pytest.raises(ArgumentError, match=field):
        build()


def test_dist_point_to_simplex():
    tri = np.array([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    assert dist_point_to_simplex(np.array([0.0, 0.0]), tri) == pytest.approx(1.0)
    assert dist_point_to_simplex(np.array([1.2, 0.2]), tri) == pytest.approx(0.0)
    assert dist_point_to_simplex(np.array([1.5, -1.0]), tri) == pytest.approx(1.0)
    seg = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert dist_point_to_simplex(np.array([0.5, 0.25]), seg) == pytest.approx(0.25)


def old_dist_point_to_simplex(x, vertices):
    """The recursive single-point distance that _dist_to_simplices replaced:
    one lstsq projection, then the facets if it falls outside.

    The projection takes one step of iterative refinement, which the old
    code did not: a plain lstsq misses by a few ulps of the edge length, and
    on a long segment that can exceed the ulps of the coordinates the test
    allows (4.4e-15 for the point (-1.75, 1.75, 0.25) on the segment ending
    there, where the distance is 0)."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(vertices, dtype=float)
    m = len(v)
    if m == 1:
        return float(np.linalg.norm(x - v[0]))
    e = (v[1:] - v[0]).T  # (n, m-1)
    s, *_ = np.linalg.lstsq(e, x - v[0], rcond=None)
    s = s + np.linalg.lstsq(e, (x - v[0]) - e @ s, rcond=None)[0]
    lam0 = 1.0 - float(np.sum(s))
    if lam0 >= -1e-12 and np.all(s >= -1e-12):
        return float(np.linalg.norm(x - (v[0] + e @ s)))
    return min(
        old_dist_point_to_simplex(x, np.delete(v, i, axis=0)) for i in range(m)
    )


@st.composite
def simplex_batches(draw):
    """Points and simplices in R^1..R^3 with 1..n+1 vertices: coordinates on
    a 1/4 lattice or arbitrary floats in [-2, 2]; some rows get a repeated
    vertex, a vertex on the line through two others, or a point inside."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, n + 1))
    rows = draw(st.integers(1, 12))
    lattice = st.integers(-8, 8).map(lambda k: k / 4.0)
    elements = draw(st.sampled_from([lattice, st.floats(-2.0, 2.0)]))
    x = draw(hnp.arrays(np.float64, (rows, n), elements=elements))
    verts = draw(hnp.arrays(np.float64, (rows, m, n), elements=elements))
    for row in range(rows):
        kind = draw(st.sampled_from(["plain", "repeated", "collinear", "inside"]))
        if kind == "repeated" and m >= 2:
            i, j = draw(st.permutations(range(m)))[:2]
            verts[row, j] = verts[row, i]
        elif kind == "collinear" and m >= 3:
            t = draw(st.sampled_from([-1.0, 0.5, 2.0]))
            verts[row, 2] = verts[row, 0] + t * (verts[row, 1] - verts[row, 0])
        elif kind == "inside":
            w = np.array(draw(st.lists(st.integers(0, 4), min_size=m, max_size=m)))
            w = w / w.sum() if w.sum() else np.full(m, 1.0 / m)
            x[row] = w @ verts[row]
    return x, verts


# The reference reads barycentric coordinates >= -1e-12 as inside, also on a
# segment, where the kernel clips exactly: so it may read a point up to 1e-12
# of the diameter outside a segment as on it (0 for x = 0 and the segment
# [1e-13, 1]).  Beyond a few ulps the kernel may only be larger, by that much.
@settings(max_examples=300, deadline=5000)
@given(simplex_batches())
@example((np.array([[0.0, 0.0]]), np.array([[[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]]])))
@example((np.array([[0.5, 0.5]]), np.array([[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]])))
@example((np.array([[0.0]]), np.array([[[1e-13], [1.0]]])))
@example((np.array([[-1.75, 1.75, 0.25]]), np.array([[[2.0, -2.0, -0.25], [-1.75, 1.75, 0.25]]])))
# a degenerate triangle whose projection lies 1e-12 outside it: a tolerance
# of -1e-12 on the barycentric coordinates read 1.0e-12 for 1.414e-12
@example((np.array([[0.0, 0.0]]), np.array([[[1.0, 1e-12], [1e-12, 1e-12], [1e-12, 1e-12]]])))
def test_simplex_distance_matches_the_recursive_lstsq(batch):
    x, verts = batch
    got = _dist_to_simplices(x, verts)
    want = np.array([old_dist_point_to_simplex(p, v) for p, v in zip(x, verts)])
    ulps = 8 * np.finfo(float).eps * max(1.0, np.abs(x).max(), np.abs(verts).max())
    slack = 1e-12 * np.linalg.norm(np.ptp(verts, axis=1), axis=-1)
    assert got.shape == want.shape
    assert np.all(got >= want - ulps)
    assert np.all(got <= want + ulps + slack)
    for p, v, d in zip(x, verts, got):
        assert dist_point_to_simplex(p, v) == d  # a batch of one, same bits


def test_annulus_hull_check():
    tuples = np.array(
        [
            [[0.7, 0.0], [0.8, 0.1], [0.75, 0.2]],  # hull stays far out
            [[0.6, 0.0], [-0.6, 0.1], [0.0, 0.6]],  # hull covers the center
            [[0.52, 0.0], [0.0, 0.52], [0.6, 0.6]],  # chord dips into the hole
        ]
    )
    flags = ANNULUS.hull_check_batch(tuples)
    assert flags.tolist() == [True, False, False]


def test_annulus_hull_check_segments():
    tuples = np.array(
        [
            [[0.7, 0.0], [0.0, 0.7]],  # chord at distance 0.7/sqrt(2) < 0.5
            [[0.9, 0.0], [0.9, 0.3]],
        ]
    )
    flags = ANNULUS.hull_check_batch(tuples)
    assert flags.tolist() == [False, True]


ANNULUS_3D = Annulus([0.0, 0.0, 0.0], 0.5, 1.0)


@pytest.mark.parametrize(
    "tuple_, flag",
    [
        ([[0.7, 0.0, 0.0]], True),  # one member point
        ([[0.7, 0.0, 0.0], [0.0, 0.7, 0.0]], False),  # chord at 0.7/sqrt(2)
        ([[0.8, 0.0, 0.0], [0.0, 0.8, 0.0]], True),  # chord at 0.8/sqrt(2)
        ([[0.6, 0.0, 0.0], [0.0, 0.6, 0.0], [0.0, 0.0, 0.6]], False),  # 0.6/sqrt(3)
        ([[0.9, 0.0, 0.0], [0.0, 0.9, 0.0], [0.0, 0.0, 0.9]], True),  # 0.9/sqrt(3)
        ([[0.7, 0.0, 0.0], [0.8, 0.1, 0.0], [0.75, 0.0, 0.2]], True),
        # tetrahedra: around the center, far out, and one whose near face dips in
        ([[0.6, 0.0, -0.3], [-0.6, 0.0, -0.3], [0.0, 0.6, 0.3], [0.0, -0.6, 0.3]],
         False),
        ([[0.7, 0.0, 0.0], [0.8, 0.1, 0.0], [0.75, 0.0, 0.2], [0.9, 0.1, 0.1]], True),
        ([[0.6, 0.0, 0.0], [0.0, 0.6, 0.0], [0.0, 0.0, 0.6], [0.5, 0.5, 0.5]], False),
        # a repeated point: the hulls are a chord and a triangle
        ([[0.8, 0.0, 0.0], [0.8, 0.0, 0.0], [0.0, 0.8, 0.0]], True),
        ([[0.7, 0.0, 0.0], [0.0, 0.7, 0.0], [0.7, 0.0, 0.0]], False),
        ([[0.9, 0.0, 0.0], [0.0, 0.9, 0.0], [0.0, 0.0, 0.9], [0.0, 0.9, 0.0]], True),
    ],
)
def test_annulus_hull_check_3d(tuple_, flag):
    tuples = np.array([tuple_])
    assert ANNULUS_3D.contains_batch(tuples[0]).all()
    assert ANNULUS_3D.hull_check_batch(tuples).tolist() == [flag]


def test_annulus_hull_check_3d_batch_and_too_many_points():
    rng = np.random.default_rng(4)
    tuples = rng.uniform(-1.0, 1.0, size=(200, 4, 3))
    flags = ANNULUS_3D.hull_check_batch(tuples)
    want = [old_dist_point_to_simplex(np.zeros(3), t) > 0.5 for t in tuples]
    assert flags.tolist() == want
    assert ANNULUS_3D.hull_check_batch(np.zeros((3, 5, 3)) + 0.7) is None


@pytest.mark.parametrize("domain", [BOX_MINUS_TRIANGLE, CUBE_MINUS_CUBE],
                         ids=["triangle", "cube"])
def test_points_strictly_inside_a_polytope_hole_are_not_members(domain):
    hole = domain.inner
    lo, hi = hole.bounding_box()
    pts = np.random.default_rng(6).uniform(lo, hi, size=(2000, domain.dimension))
    pts = pts[hole.contains_batch(pts)]
    assert len(pts) > 300
    assert not domain.contains_batch(pts).any()
    assert np.all(domain.dist_to_boundary_batch(pts) == 0.0)
    assert all(domain.dist_to_boundary(p) == 0.0 for p in pts[:20])


def test_polytope_hole_memory_is_bounded_by_its_block():
    pts = np.random.default_rng(0).random((65_536, 3))
    tracemalloc.start()
    try:
        CUBE_MINUS_CUBE.contains_batch(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_polytope_hole_blocks_keep_the_bits():
    pts = np.random.default_rng(1).random((10_000, 3))
    hole = CUBE_MINUS_CUBE.inner
    outside = np.any(hole.offsets - pts @ hole.normals.T < 0, axis=-1)
    assert outside.sum() > 2 * _HOLE_BLOCK  # three blocks
    want = np.zeros(len(pts))
    want[outside] = _dist_to_simplices(pts[outside, np.newaxis], hole._facets).min(1)
    assert CUBE_MINUS_CUBE._dist_to_inner(pts).tobytes() == want.tobytes()


def test_convex_hull_check_always_true():
    tuples = np.zeros((4, 3, 2)) + 0.5
    assert UNIT_BOX.hull_check_batch(tuples).all()


def test_slit_box_interior_slit():
    d = SlitBox([0.0, 0.0], [1.0, 1.0], [0.25, 0.5], [0.75, 0.5], delta=0.1)
    assert d.volume() == pytest.approx(1.0 - 0.5 * 0.2 - math.pi * 0.01)
    assert d.diameter() == pytest.approx(math.sqrt(2.0))
    assert d.contains([0.5, 0.65])
    assert not d.contains([0.5, 0.55])
    assert d.dist_to_boundary([0.5, 0.7]) == pytest.approx(0.1)


def test_slit_box_wall_slit():
    d = SlitBox([0.0, 0.0], [1.0, 1.0], [0.0, 0.5], [0.5, 0.5], delta=0.1)
    # rectangle strip plus one interior half disk
    assert d.volume() == pytest.approx(1.0 - 0.5 * 0.2 - 0.5 * math.pi * 0.01)


def test_slit_box_measure_zero_slit():
    d = SlitBox([0.0, 0.0], [1.0, 1.0], [0.0, 0.5], [0.5, 0.5], delta=0.0)
    assert d.volume() == pytest.approx(1.0)
    assert not d.contains([0.25, 0.5])  # exactly on the slit
    assert d.contains([0.25, 0.5000001])


def test_slit_box_validation():
    with pytest.raises(ArgumentError):  # not axis aligned
        SlitBox([0.0, 0.0], [1.0, 1.0], [0.1, 0.1], [0.5, 0.5], delta=0.0)
    with pytest.raises(ArgumentError):  # capsule clipped sideways
        SlitBox([0.0, 0.0], [1.0, 1.0], [0.25, 0.05], [0.75, 0.05], delta=0.1)


def test_slit_box_capsule_may_not_hold_a_corner():
    # a wall slit delta from the wall sideways reaches the corner (0, 0)
    with pytest.raises(ArgumentError, match="box corners"):
        SlitBox([0.0, 0.0], [1.0, 1.0], [0.0, 0.1], [0.5, 0.1], delta=0.1)


def test_set_difference():
    hole = Ball([0.5, 0.5], 0.2)
    d = SetDifference(UNIT_BOX, hole)
    assert d.volume() == pytest.approx(1.0 - math.pi * 0.04)
    assert d.diameter() == pytest.approx(math.sqrt(2.0))
    assert not d.contains([0.5, 0.5])
    assert d.contains([0.9, 0.9])
    assert d.dist_to_boundary([0.5, 0.8]) == pytest.approx(0.1)


def test_set_difference_polytope_hole():
    hole = ConvexPolytope(
        normals=[[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
        offsets=[-0.4, -0.4, 1.0],
    )
    d = SetDifference(AxisBox([0.0, 0.0], [2.0, 2.0]), hole)
    assert d.volume() == pytest.approx(4.0 - hole.volume())
    assert not d.contains([0.45, 0.45])
    assert d.contains([1.5, 1.5])
    assert d.dist_to_boundary([0.45, 0.3]) == pytest.approx(0.1)


def test_set_difference_requires_containment():
    with pytest.raises(ArgumentError):
        SetDifference(UNIT_BOX, Ball([0.9, 0.9], 0.2))


def test_json_round_trip():
    domains = [
        UNIT_BOX,
        UNIT_BALL,
        ANNULUS,
        TRIANGLE,
        SlitBox([0.0, 0.0], [1.0, 1.0], [0.25, 0.5], [0.75, 0.5], delta=0.1),
        SetDifference(UNIT_BOX, Ball([0.5, 0.5], 0.2)),
    ]
    for d in domains:
        rebuilt = domain_from_json(d.to_json())
        assert rebuilt.to_json() == d.to_json()
        assert rebuilt.volume() == pytest.approx(d.volume())
        pts = d.sample_uniform(50, seed=2)
        assert np.array_equal(
            rebuilt.contains_batch(pts), d.contains_batch(pts)
        )


@pytest.mark.parametrize("doc, key", [
    ({"shape": "ball", "params": {"center": [0.0, 0.0], "radius": 1.0,
                                  "radus": 2.0}}, "radus"),
    ({"shape": "ball", "params": {"center": [0.0, 0.0]}}, "radius"),
    ({"shape": "set-difference", "params": {
        "outer": UNIT_BOX.to_json(),
        "inner": {"shape": "axis-box", "params": {"lo": [0.4, 0.4]}}}}, "hi"),
    ({"shape": "slit-box", "params": {"lo": [0.0, 0.0], "hi": [1.0, 1.0],
                                      "seg_start": [0.5, 0.0]}}, "seg_end"),
])
def test_unknown_or_missing_param_is_named(doc, key):
    with pytest.raises(ArgumentError, match=repr(key)):
        domain_from_json(doc)


def test_membership_inside_bounding_box():
    for d in (ANNULUS, TRIANGLE, UNIT_BALL):
        pts = d.sample_uniform(300, seed=8)
        lo, hi = d.bounding_box()
        assert np.all(pts >= lo) and np.all(pts <= hi)


def test_negative_sample_count_is_an_argument_error():
    for domain in (UNIT_BOX, ANNULUS):
        with pytest.raises(ArgumentError):
            domain.sample_uniform(-3, seed=0)
        assert domain.sample_uniform(0, seed=0).shape == (0, 2)


def test_predicates_take_nested_lists():
    pts = [[0.5, 0.5], [0.1, 0.2], [2.0, 0.0]]
    for domain in (UNIT_BOX, UNIT_BALL, ANNULUS, TRIANGLE,
                   SetDifference(UNIT_BOX, AxisBox([0.4, 0.4], [0.6, 0.6]))):
        arr = np.array(pts)
        assert np.array_equal(domain.contains_batch(pts), domain.contains_batch(arr))
        assert np.array_equal(
            domain.dist_to_boundary_batch(pts), domain.dist_to_boundary_batch(arr)
        )


# -- the column-wise predicates against the row-major code they replaced ----


def old_segments(x, a, b):
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - a
    denom = np.sum(d * d, axis=-1)
    num = np.sum((x - a) * d, axis=-1)
    t = np.where(denom > 0, num / np.where(denom > 0, denom, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    proj = a + t[..., np.newaxis] * d
    return np.linalg.norm(x - proj, axis=-1)


def old_dist_to_inner(inner, pts):
    if isinstance(inner, Ball):
        return np.maximum(
            0.0, np.linalg.norm(pts - inner.center, axis=-1) - inner.radius
        )
    gap = np.maximum(inner.lo - pts, 0.0) + np.maximum(pts - inner.hi, 0.0)
    return np.linalg.norm(gap, axis=-1)


def old_contains(domain, pts):
    if isinstance(domain, Ball):
        return np.linalg.norm(pts - domain.center, axis=-1) < domain.radius
    if isinstance(domain, AxisBox):
        return np.all((pts > domain.lo) & (pts < domain.hi), axis=-1)
    if isinstance(domain, Annulus):
        r = np.linalg.norm(pts - domain.center, axis=-1)
        return (r > domain.r_in) & (r < domain.r_out)
    if isinstance(domain, SlitBox):
        seg = old_segments(pts, domain.seg_start, domain.seg_end)
        return old_contains(domain.box, pts) & (seg > domain.delta)
    return old_contains(domain.outer, pts) & (old_dist_to_inner(domain.inner, pts) > 0)


def old_dist(domain, pts):
    if isinstance(domain, Ball):
        return np.maximum(
            0.0, domain.radius - np.linalg.norm(pts - domain.center, axis=-1)
        )
    if isinstance(domain, AxisBox):
        margins = np.minimum(pts - domain.lo, domain.hi - pts)
        return np.maximum(0.0, np.min(margins, axis=-1))
    if isinstance(domain, Annulus):
        r = np.linalg.norm(pts - domain.center, axis=-1)
        return np.maximum(0.0, np.minimum(r - domain.r_in, domain.r_out - r))
    if isinstance(domain, SlitBox):
        inner = old_segments(pts, domain.seg_start, domain.seg_end) - domain.delta
        return np.maximum(0.0, np.minimum(old_dist(domain.box, pts), inner))
    d = np.minimum(old_dist(domain.outer, pts), old_dist_to_inner(domain.inner, pts))
    return np.maximum(0.0, d)


def shapes(n):
    """Each column-wise shape in R^n (a slit box from n = 2), all in the
    box [-0.3, 1.3]^n."""
    half = np.full(n, 0.5)
    box = AxisBox(np.zeros(n), np.ones(n))
    out = {
        "ball": Ball(half, 0.5),
        "box": AxisBox(np.linspace(-0.3, 0.0, n), np.linspace(1.0, 1.3, n)),
        "annulus": Annulus(half, 0.25, 0.5),
        "box minus ball": SetDifference(box, Ball(half, 0.2)),
        "box minus box": SetDifference(box, AxisBox(half - 0.25, half + 0.125)),
    }
    if n >= 2:
        ends = [np.concatenate([[t], half[1:]]) for t in (0.25, 0.75)]
        out["slit box"] = SlitBox(np.zeros(n), np.ones(n), *ends, 0.1)
        out["wall slit box"] = SlitBox(
            np.zeros(n), np.ones(n), np.concatenate([[0.0], half[1:]]), ends[1]
        )
    return out


def bits(x):
    return np.ascontiguousarray(x).tobytes()


def in_layout(pts, layout):
    if layout == "F":
        return np.asfortranarray(pts)
    if layout == "strided":
        wide = np.zeros((len(pts), 2 * pts.shape[1]))
        wide[:, ::2] = pts
        return wide[:, ::2]
    return pts


# Row-major points in n = 1..10; column-major and strided ones below 8
# coordinates, where numpy sums a row in order whatever the layout.
@settings(max_examples=150, deadline=5000)
@given(
    st.integers(1, 10),
    st.sampled_from(["ball", "box", "annulus", "box minus ball", "box minus box",
                     "slit box", "wall slit box"]),
    st.sampled_from(["C", "F", "strided"]),
    seeds,
)
def test_column_wise_predicates_keep_the_row_major_bits(n, name, layout, seed):
    domain = shapes(n).get(name)
    if domain is None or (n >= 8 and layout != "C"):
        return
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.3, 1.3, size=(300, n))
    # a third on a 1/8 lattice, so some sit on walls and centres; a few -0.0
    lattice = rng.random(len(pts)) < 1.0 / 3.0
    pts[lattice] = np.round(8.0 * pts[lattice]) / 8.0
    pts[pts == 0.0] = rng.choice([0.0, -0.0], size=int(np.sum(pts == 0.0)))
    want_in, want_dist = old_contains(domain, pts), old_dist(domain, pts)
    pts = in_layout(pts, layout)
    assert np.array_equal(domain.contains_batch(pts), want_in)
    assert bits(domain.dist_to_boundary_batch(pts)) == bits(want_dist)


# -- square-root-free ball and annulus membership against a sqrt oracle -----


def least_sum_with_root_at_least(r):
    """The least double s with sqrt(s) >= r, stepped to from r * r."""
    s = r * r
    while s > 0.0 and math.sqrt(s) >= r:
        s = math.nextafter(s, -math.inf)
    while math.sqrt(s) < r:
        s = math.nextafter(s, math.inf)
    return s


def point_at_square_sum(center, target):
    """A point whose row of squared offsets from center numpy sums to
    exactly target: the first offset squares to just below it, the second
    fills the gap, every other coordinate is the center's."""
    p = center.copy()
    p[0] = center[0] + math.sqrt(target)
    while (p[0] - center[0]) ** 2 >= target:
        p[0] = math.nextafter(p[0], -math.inf)
    p[1] = center[1] + math.sqrt(target - (p[0] - center[0]) ** 2)
    for _ in range(64):
        total = np.add.reduce((p - center) ** 2)
        if total == target:
            return p
        p[1] = math.nextafter(p[1], math.inf if total < target else center[1])
    raise AssertionError(f"no point at squared distance {target!r}")


# Radii with inexact squares (1/3, 2/3), with exact ones, and far apart.
RADII = [(1.0 / 3.0, 2.0 / 3.0), (0.5, 1.0), (0.1, 0.7), (2.0 / 3.0, 1.0 - 1e-15)]


@settings(max_examples=60, deadline=5000)
@given(
    st.sampled_from([1, 2, 3, 8, 9]),
    st.sampled_from(RADII),
    st.booleans(),
    seeds,
)
@example(2, RADII[0], False, 0)
@example(8, RADII[0], True, 1)
def test_ball_and_annulus_membership_match_the_square_root(n, radii, centred, seed):
    """Ball and Annulus compare sums of squares against thresholds; they
    must say what comparing the square root (linalg.norm) with the radius
    says, at points on and one ulp beside both spheres, at points whose
    sum is exactly a threshold, and at NaN and infinite rows."""
    r_in, r_out = radii
    rng = np.random.default_rng(seed)
    center = np.zeros(n) if centred else rng.uniform(-2.0, 2.0, n)
    u = rng.standard_normal((40, n))
    u /= np.linalg.norm(u, axis=-1)[:, np.newaxis]
    axes = np.vstack([np.eye(n), -np.eye(n)])
    rows = []
    for r in radii:
        for scale in (math.nextafter(r, 0.0), r, math.nextafter(r, 2.0)):
            rows += [center + scale * u, center + scale * axes]
    if n >= 2:
        # the sums just below and at each threshold: >= against > and
        # < against <= differ only there
        for r in (math.nextafter(r_in, math.inf), r_out):
            t = least_sum_with_root_at_least(r)
            rows.append([point_at_square_sum(center, s)
                         for s in (math.nextafter(t, 0.0), t, math.nextafter(t, math.inf))])
    odd = np.tile(center, (4, 1))
    odd[:, n - 1] = [math.nan, math.inf, -math.inf, math.nan]
    odd[3, 0] = math.inf
    pts = np.vstack(rows + [odd])

    radius = np.linalg.norm(pts - center, axis=-1)
    annulus = Annulus(center, r_in, r_out)
    assert np.array_equal(annulus.contains_batch(pts), (radius > r_in) & (radius < r_out))
    assert np.array_equal(Ball(center, r_out).contains_batch(pts), radius < r_out)
    assert np.array_equal(Ball(center, r_in).contains_batch(pts), radius < r_in)
    want_dist = np.maximum(0.0, np.minimum(radius - r_in, r_out - radius))
    assert bits(annulus.dist_to_boundary_batch(pts)) == bits(want_dist)
    assert bits(annulus.dist_to_boundary_batch(pts[0])) == bits(want_dist[0])
    if n >= 2:
        inner = least_sum_with_root_at_least(math.nextafter(r_in, math.inf))
        assert np.any(np.add.reduce((pts - center) ** 2, axis=-1) == inner)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, allow_infinity=True))
@example(5e-324)
@example(1e-170)  # its square underflows to 0
@example(1e-160)  # its square is subnormal
@example(1e200)  # its square overflows
@example(1.7976931348623157e308)
@example(1.0 / 3.0)
def test_root_threshold_is_the_least_sum_with_root_at_least_r(r):
    t = _root_threshold(r)
    assert t == least_sum_with_root_at_least(r)
    assert math.sqrt(t) >= r
    assert t == 0.0 or math.sqrt(math.nextafter(t, -math.inf)) < r


def regular_polytope(facets, turn=0.1):
    """The polygon whose facet normals point at `facets` equally spaced
    angles, each facet at distance 1 from the origin."""
    angles = turn + 2.0 * math.pi * np.arange(facets) / facets
    return ConvexPolytope(np.c_[np.cos(angles), np.sin(angles)], np.ones(facets))


POLYTOPES = {
    "triangle": TRIANGLE,
    "pentagon": regular_polytope(5),
    "octagon": regular_polytope(8),
    "cube": CUBE_HOLE,
}


@settings(max_examples=10, deadline=5000)
@given(st.sampled_from(sorted(POLYTOPES)), st.sampled_from(["C", "F", "strided"]),
       st.integers(1, 700), seeds)
def test_polytope_margins_do_not_depend_on_the_batch(name, layout, tile, seed):
    """A polytope's membership and distance of a row are its ordered margin
    sums b_i - (x_1 a_i1 + x_2 a_i2 + ...), in any batch and layout: the
    5,000 rows at once, in tiles, and one at a time."""
    polytope = POLYTOPES[name]
    n = polytope.dimension
    pts = np.random.default_rng(seed).uniform(-1.2, 1.2, size=(5000, n))
    margins = np.empty((len(pts), len(polytope.offsets)))
    for i, (a, b) in enumerate(zip(polytope.normals, polytope.offsets)):
        dot = pts[:, 0] * a[0]
        for j in range(1, n):
            dot = dot + pts[:, j] * a[j]
        margins[:, i] = b - dot
    want_in, want_dist = np.all(margins > 0, axis=-1), np.maximum(0.0, margins.min(-1))
    pts = in_layout(pts, layout)
    assert np.array_equal(polytope.contains_batch(pts), want_in)
    assert bits(polytope.dist_to_boundary_batch(pts)) == bits(want_dist)
    tiles = [pts[lo:lo + tile] for lo in range(0, len(pts), tile)]
    assert bits(np.concatenate([polytope.dist_to_boundary_batch(t) for t in tiles])) \
        == bits(want_dist)
    assert [polytope.dist_to_boundary(p) for p in pts[:50]] == want_dist[:50].tolist()


@settings(max_examples=150, deadline=5000)
@given(
    st.integers(1, 10),
    st.booleans(),
    hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.just(3)),
               elements=st.floats(-4.0, 4.0)),
    seeds,
)
def test_segment_distance_keeps_the_row_major_bits(n, batch_point, pick, seed):
    """Both batchings: many points against one segment (the slit box) and
    one point against many segments (the annulus hull check)."""
    rng = np.random.default_rng(seed)
    x, a, b = (rng.uniform(-1.0, 1.0, size=(len(pick), n)) for _ in range(3))
    x[:, 0], a[:, 0], b[:, 0] = pick.T  # hypothesis's corner values
    b[::3] = a[::3]  # degenerate segments
    if batch_point:
        a, b = a[0], b[0]
    else:
        x = x[0]
    assert bits(_dist_point_to_segments(x, a, b)) == bits(old_segments(x, a, b))


SAMPLE_GENERATORS = {
    "pcg64": np.random.PCG64,
    "pcg64dxsm": np.random.PCG64DXSM,
    "philox": np.random.Philox,
    "sfc64": np.random.SFC64,
}


@settings(max_examples=100, deadline=5000)
@given(
    st.sampled_from(sorted(SAMPLE_GENERATORS)),
    seeds,
    st.integers(0, 5000),
    st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(1e-6, 1e6)),
             min_size=1, max_size=4),
)
def test_box_sample_is_numpys_uniform_draw(generator, seed, count, sides):
    lo = np.array([s[0] for s in sides])
    hi = lo + np.array([s[1] for s in sides])
    box = AxisBox(lo, hi)
    got_rng, want_rng = (
        np.random.Generator(SAMPLE_GENERATORS[generator](seed)) for _ in range(2)
    )
    got = box.sample_uniform(count, seed=got_rng)
    want = want_rng.uniform(lo, hi, size=(count, len(lo)))
    assert bits(got) == bits(want)
    np.testing.assert_equal(got_rng.bit_generator.state, want_rng.bit_generator.state)
