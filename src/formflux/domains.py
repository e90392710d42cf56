"""Bounded open regions of R^n.

Every domain knows membership (open-set convention: the boundary is
excluded), exact distance to its boundary, exact volume and diameter, a
bounding box, and uniform sampling by rejection from the bounding box.
Convex shapes additionally support shrink (the eps-inset).

Shapes: ball, axis box, convex polytope (normalized halfspaces), annulus,
slit box (box minus a thickened axis-aligned segment), and set difference
of two convex shapes.

Points are rows of n coordinates, n = 2 or 3 in practice, and numpy's
inner loop over such a row runs 2-3 elements long.  So the membership and
distance predicates of the ball, box, annulus, slit box and set difference
(with a ball or box hole) work on whole coordinate columns, through
`row_norm`, and the box draw `uniform_box` scales one column at a time.
They return the bits of the row-wise numpy code they replace:
elementwise operations are exact, and numpy sums fewer than 8 entries of
a row in order.  From 8 coordinates on numpy sums pairwise and its
unrolled min orders signed zeros its own way, so such rows go back to
numpy's reductions.  `ConvexPolytope` keeps its margins `pts @ normals.T`,
one BLAS call whose bits depend on the BLAS kernel; a column-wise sum
would move them.

Distances to simplices go through one batched kernel, `_dist_to_simplices`:
the annulus hull check (the center against every tuple), a polytope hole
(each point against the hull facets kept at construction) and
`dist_point_to_simplex` (a batch of one).  A point with no negative margin
to a polytope hole is in the closed hole, at distance exactly 0.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ArgumentError, InefficiencyError, UnsupportedOperationError

__all__ = [
    "Domain",
    "Ball",
    "AxisBox",
    "ConvexPolytope",
    "Annulus",
    "SlitBox",
    "SetDifference",
    "domain_from_json",
    "unit_ball_volume",
    "dist_point_to_simplex",
]

_REJECTION_FLOOR = 1e-3
_MIN_ATTEMPTS = 20000


def unit_ball_volume(n):
    """Volume of the unit ball in R^n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


# ---------------------------------------------------------------------------
# row arithmetic one coordinate column at a time

# numpy sums this many or more entries of a row pairwise, fewer in order
_PAIRWISE = 8


def _ordered_sum(terms):
    """terms[0] + terms[1] + ... left to right; the bits of numpy's sum over
    a row that holds them, in order below _PAIRWISE terms and over a
    row-major stack of them from there on."""
    if len(terms) >= _PAIRWISE:
        return np.sum(np.stack(np.broadcast_arrays(*terms), axis=-1), axis=-1)
    total = terms[0] if len(terms) == 1 else terms[0] + terms[1]
    for term in terms[2:]:
        total += term
    return total


def _column_norm(cols):
    """Euclidean norms of the rows whose coordinate columns are cols."""
    return np.sqrt(_ordered_sum([c * c for c in cols]))


def row_norm(x, center=None):
    """The Euclidean norms of the rows of x - center, with the bits of
    numpy's linalg.norm over the last axis, one coordinate column at a
    time; rows of _PAIRWISE or more coordinates go to numpy."""
    x = np.asarray(x)
    n = x.shape[-1]
    if not 0 < n < _PAIRWISE:
        return np.linalg.norm(x if center is None else x - center, axis=-1)
    if center is None:
        return _column_norm([x[..., j] for j in range(n)])
    return _column_norm([x[..., j] - center[j] for j in range(n)])


def normalize_rows(x):
    """Divide each row of x by its row_norm, in place, column by column."""
    norms = row_norm(x)
    for j in range(x.shape[-1]):
        x[..., j] /= norms
    return x


def row_all(mask):
    """np.all(mask, axis=-1) for a boolean mask, one column at a time."""
    out = np.ones(mask.shape[:-1], dtype=bool)
    for j in range(mask.shape[-1]):
        out &= mask[..., j]
    return out


def row_product(x):
    """np.prod(x, axis=-1), bit for bit: numpy multiplies a row in order."""
    out = np.ones(x.shape[:-1])
    for j in range(x.shape[-1]):
        out *= x[..., j]
    return out


def uniform_box(rng, lo, hi, rows):
    """rng.uniform(lo, hi, size=(rows, len(lo))), bit for bit and leaving
    rng in the same state: numpy draws lo + (hi - lo) * U with U from
    rng.random() in row-major order; this scales each column in place."""
    out = rng.random((rows, len(lo)))
    for j in range(len(lo)):
        col = out[:, j]
        col *= hi[j] - lo[j]
        col += lo[j]
    return out


# ---------------------------------------------------------------------------
# small exact geometry helpers


def _dist_point_to_segments(x, a, b):
    """Distances from point x to segments a->b, all arrays batched on axis 0."""
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    cols = range(x.shape[-1])
    d = [b[..., j] - a[..., j] for j in cols]
    denom = _ordered_sum([dj * dj for dj in d])
    num = _ordered_sum([(x[..., j] - a[..., j]) * d[j] for j in cols])
    t = np.where(denom > 0, num / np.where(denom > 0, denom, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    return _column_norm([x[..., j] - (a[..., j] + t * d[j]) for j in cols])


@functools.lru_cache(maxsize=32)
def _face_index(m):
    """Row i lists the points of face i of an m-tuple: all but point i."""
    keep = np.array([[j for j in range(m) if j != i] for i in range(m)], dtype=np.intp)
    keep.flags.writeable = False
    return keep


def _dist_to_simplices(x, verts):
    """Euclidean distances from the points x (..., n) to the convex hulls of
    the vertex sets verts (..., m, n), whose leading axes broadcast.

    Every simplex is projected on by one stacked pseudoinverse with lstsq's
    cutoff, so repeated or collinear vertices are handled as a least-squares
    solve handles them; verts that broadcast over many points, such as the
    facets of a polytope, are inverted once.  A projection with barycentric
    coordinates >= -1e-12 is the closest point; the other rows recurse on
    their m facets.  One vertex is a point distance, two the segment one.
    """
    x = np.asarray(x, dtype=float)
    verts = np.asarray(verts, dtype=float)
    m, n = verts.shape[-2:]
    if m == 1:
        return row_norm(x - verts[..., 0, :])
    if m == 2:
        return _dist_point_to_segments(x, verts[..., 0, :], verts[..., 1, :])
    v0 = verts[..., 0, :]
    e = np.swapaxes(verts[..., 1:, :] - v0[..., np.newaxis, :], -1, -2)
    rcond = np.finfo(float).eps * max(n, m - 1)
    s = (np.linalg.pinv(e, rcond=rcond) @ (x - v0)[..., np.newaxis])[..., 0]
    inside = row_all(s >= -1e-12) & (1.0 - s.sum(axis=-1) >= -1e-12)
    out = row_norm(x - (v0 + (e @ s[..., np.newaxis])[..., 0]))
    rest = ~inside
    xs = np.broadcast_to(x, rest.shape + (n,))[rest]
    # gather the rest rows one facet at a time; all m vertices at once peak higher
    faces = (verts[..., face, :] for face in _face_index(m))
    out[rest] = functools.reduce(np.minimum, (
        _dist_to_simplices(xs, np.broadcast_to(f, rest.shape + f.shape[-2:])[rest])
        for f in faces
    ))
    return out


def dist_point_to_simplex(x, vertices):
    """Exact Euclidean distance from x to the convex hull of `vertices`:
    `_dist_to_simplices` on a batch of one."""
    return float(_dist_to_simplices([x], [vertices])[0])


def _skip_uniform(rng, rows, lo, hi):
    """Move rng past rng.uniform(lo, hi, size=(rows, len(lo))): by advance
    where that equals drawing (PCG64 and PCG64DXSM step once per double,
    unless a uint32 is buffered, which advance drops), else by drawing."""
    bits = rng.bit_generator
    stepped = type(bits) in (np.random.PCG64, np.random.PCG64DXSM)
    if stepped and not bits.state["has_uint32"]:
        bits.advance(rows * len(lo))
    else:
        uniform_box(rng, lo, hi, rows)


def _generator(count, seed):
    """The generator a sampler draws count points from: seed itself, or a
    fresh one seeded from the integer."""
    if count < 0:
        raise ArgumentError(f"cannot sample {count} points")
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(np.random.SeedSequence(seed))


# ---------------------------------------------------------------------------


class Domain:
    """Base class; concrete shapes fill in the geometric predicates."""

    dimension: int
    is_convex: bool = False
    shape_name: str = "domain"

    # -- predicates, batched where the estimator needs them ----------------

    def contains(self, x) -> bool:
        return bool(self.contains_batch(np.asarray(x, dtype=float)[np.newaxis])[0])

    def contains_batch(self, pts):
        raise NotImplementedError

    def dist_to_boundary(self, x) -> float:
        return float(
            self.dist_to_boundary_batch(np.asarray(x, dtype=float)[np.newaxis])[0]
        )

    def dist_to_boundary_batch(self, pts):
        raise NotImplementedError

    def volume(self) -> float:
        raise NotImplementedError

    def diameter(self) -> float:
        raise NotImplementedError

    def bounding_box(self):
        raise NotImplementedError

    def shrink(self, eps):
        raise UnsupportedOperationError(
            f"shrink is not supported for shape {self.shape_name!r}"
        )

    def hull_check_batch(self, tuples):
        """Whether the convex hull of each point tuple lies inside the domain.

        tuples has shape (N, m, n) with every point already a member.  Returns
        a boolean array, or None when this shape cannot decide cheaply.
        Convex domains always contain the hull of member points.
        """
        if self.is_convex:
            return np.ones(len(tuples), dtype=bool)
        return None

    # -- sampling -----------------------------------------------------------

    def sample_uniform(self, count, seed=0):
        """count i.i.d. uniform points via rejection from the bounding box.

        seed may be an integer or a numpy Generator.  Raises
        InefficiencyError if the acceptance rate falls below 1e-3.  Each
        round takes max(4 * missing, 4096) candidates from the stream,
        whatever the acceptance, but draws and tests them 4096 rows at a
        time only until count points are in, then skips the rest.
        """
        rng = _generator(count, seed)
        lo, hi = self.bounding_box()
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        out = np.empty((count, self.dimension))
        got = 0
        attempts = 0
        while got < count:
            batch = max(4 * (count - got), 4096)
            for sub in range(0, batch, 4096):
                rows = min(4096, batch - sub)
                part = uniform_box(rng, lo, hi, rows)
                keep = part[self.contains_batch(part)]
                take = min(len(keep), count - got)
                out[got : got + take] = keep[:take]
                got += take
                if got == count:
                    _skip_uniform(rng, batch - sub - rows, lo, hi)
                    break
            attempts += batch
            if attempts >= _MIN_ATTEMPTS and got / attempts < _REJECTION_FLOOR:
                raise InefficiencyError(
                    f"rejection sampling acceptance {got / attempts:.2e} below "
                    f"{_REJECTION_FLOOR:g} for shape {self.shape_name!r}",
                    acceptance_ratio=got / attempts,
                    samples=got,
                )
        return out

    # -- serialization -------------------------------------------------------

    def to_json(self):
        return {"shape": self.shape_name, "params": self._params()}

    def _params(self):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self._params()})"


class Ball(Domain):
    is_convex = True
    shape_name = "ball"

    def __init__(self, center, radius):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        if self.center.ndim != 1:
            raise ArgumentError("ball center must be a vector")
        if self.radius <= 0:
            raise ArgumentError("ball radius must be positive")
        self.dimension = len(self.center)

    def contains_batch(self, pts):
        return row_norm(pts, self.center) < self.radius

    def dist_to_boundary_batch(self, pts):
        return np.maximum(0.0, self.radius - row_norm(pts, self.center))

    def volume(self):
        return unit_ball_volume(self.dimension) * self.radius**self.dimension

    def diameter(self):
        return 2.0 * self.radius

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def shrink(self, eps):
        if eps >= self.radius:
            raise ArgumentError(f"shrink by {eps} empties ball of radius {self.radius}")
        return Ball(self.center, self.radius - eps)

    def _params(self):
        return {"center": self.center.tolist(), "radius": self.radius}


class AxisBox(Domain):
    is_convex = True
    shape_name = "axis-box"

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ArgumentError("box corners must be vectors of equal length")
        if np.any(self.hi <= self.lo):
            raise ArgumentError("box must have positive side lengths")
        self.dimension = len(self.lo)

    def contains_batch(self, pts):
        pts = np.asarray(pts)
        out = np.ones(pts.shape[:-1], dtype=bool)
        for j, (lo, hi) in enumerate(zip(self.lo, self.hi)):
            out &= pts[..., j] > lo
            out &= pts[..., j] < hi
        return out

    def dist_to_boundary_batch(self, pts):
        pts = np.asarray(pts)
        if self.dimension >= _PAIRWISE:
            # numpy's unrolled min picks between -0.0 and 0.0 its own way
            margins = np.minimum(pts - self.lo, self.hi - pts)
            return np.maximum(0.0, np.min(margins, axis=-1))
        out = None
        for j, (lo, hi) in enumerate(zip(self.lo, self.hi)):
            margin = np.minimum(pts[..., j] - lo, hi - pts[..., j])
            out = margin if out is None else np.minimum(out, margin, out=out)
        return np.maximum(0.0, out, out=out)

    def volume(self):
        return float(np.prod(self.hi - self.lo))

    def diameter(self):
        return float(np.linalg.norm(self.hi - self.lo))

    def bounding_box(self):
        return self.lo.copy(), self.hi.copy()

    def shrink(self, eps):
        lo, hi = self.lo + eps, self.hi - eps
        if np.any(hi <= lo):
            raise ArgumentError(f"shrink by {eps} empties the box")
        return AxisBox(lo, hi)

    def sample_uniform(self, count, seed=0):
        # a box is its own bounding box, skip the rejection loop
        return uniform_box(_generator(count, seed), self.lo, self.hi, count)

    def _params(self):
        return {"lo": self.lo.tolist(), "hi": self.hi.tolist()}


class ConvexPolytope(Domain):
    """Bounded intersection of halfspaces a_i . x <= b_i.

    Rows are normalized at construction and redundant halfspaces dropped, so
    the minimum margin min_i (b_i - a_i . x) is the exact boundary distance
    for interior points.
    """

    is_convex = True
    shape_name = "convex-polytope"

    def __init__(self, normals, offsets):
        a = np.asarray(normals, dtype=float)
        b = np.asarray(offsets, dtype=float)
        if a.ndim != 2 or b.shape != (a.shape[0],):
            raise ArgumentError("need (m, n) normals and (m,) offsets")
        norms = row_norm(a)
        if np.any(norms <= 0):
            raise ArgumentError("zero normal vector")
        # leave rows that are already unit length untouched so that
        # serialization round trips are exact
        scale = np.where(np.abs(norms - 1.0) < 1e-12, 1.0, norms)
        a = a / scale[:, np.newaxis]
        b = b / scale
        self.dimension = a.shape[1]

        from scipy.optimize import linprog
        from scipy.spatial import ConvexHull, HalfspaceIntersection

        # Chebyshev center: maximize r subject to a_i . x + r <= b_i
        m, n = a.shape
        res = linprog(
            c=np.concatenate([np.zeros(n), [-1.0]]),
            A_ub=np.hstack([a, np.ones((m, 1))]),
            b_ub=b,
            bounds=[(None, None)] * n + [(0, None)],
            method="highs",
        )
        if not res.success or res.x[n] <= 1e-12:
            raise ArgumentError("polytope is empty or has empty interior")
        self._chebyshev_center = res.x[:n]
        self._inradius = res.x[n]

        try:
            hs = HalfspaceIntersection(
                np.hstack([a, -b[:, np.newaxis]]), self._chebyshev_center
            )
        except Exception as exc:
            raise ArgumentError(f"polytope is unbounded or degenerate: {exc}")
        self.vertices = hs.intersections
        if not np.all(np.isfinite(self.vertices)):
            raise ArgumentError("polytope is unbounded")

        # keep only facet-defining halfspaces (tight at some vertex)
        tight = np.any(
            np.abs(a @ self.vertices.T - b[:, np.newaxis]) < 1e-9, axis=1
        )
        self.normals = a[tight]
        self.offsets = b[tight]

        hull = ConvexHull(self.vertices)
        # the boundary as simplices (edges in 2-d, triangles in 3-d), (F, n, n)
        self._facets = self.vertices[hull.simplices]
        self._volume = float(hull.volume)
        diffs = self.vertices[:, np.newaxis, :] - self.vertices[np.newaxis, :, :]
        self._diameter = float(np.sqrt(np.max(np.sum(diffs**2, axis=-1))))

    def contains_batch(self, pts):
        margins = self.offsets - pts @ self.normals.T
        return np.all(margins > 0, axis=-1)

    def dist_to_boundary_batch(self, pts):
        margins = self.offsets - pts @ self.normals.T
        return np.maximum(0.0, np.min(margins, axis=-1))

    def volume(self):
        return self._volume

    def diameter(self):
        return self._diameter

    def bounding_box(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def shrink(self, eps):
        if eps >= self._inradius:
            raise ArgumentError(f"shrink by {eps} empties the polytope")
        return ConvexPolytope(self.normals, self.offsets - eps)

    def _params(self):
        return {"normals": self.normals.tolist(), "offsets": self.offsets.tolist()}


class Annulus(Domain):
    shape_name = "annulus"

    def __init__(self, center, r_in, r_out):
        self.center = np.asarray(center, dtype=float)
        self.r_in = float(r_in)
        self.r_out = float(r_out)
        if not 0.0 < self.r_in < self.r_out:
            raise ArgumentError("need 0 < r_in < r_out")
        self.dimension = len(self.center)

    def contains_batch(self, pts):
        r = row_norm(pts, self.center)
        return (r > self.r_in) & (r < self.r_out)

    def dist_to_boundary_batch(self, pts):
        r = row_norm(pts, self.center)
        return np.maximum(0.0, np.minimum(r - self.r_in, self.r_out - r))

    def volume(self):
        v = unit_ball_volume(self.dimension)
        return v * (self.r_out**self.dimension - self.r_in**self.dimension)

    def diameter(self):
        return 2.0 * self.r_out

    def bounding_box(self):
        return self.center - self.r_out, self.center + self.r_out

    def hull_check_batch(self, tuples):
        """Hull of member points stays in the annulus iff it avoids the
        closed inner ball; the outer ball contains it by convexity."""
        tuples = np.asarray(tuples, dtype=float)
        if tuples.shape[1] > self.dimension + 1:
            return None
        return _dist_to_simplices(self.center, tuples) > self.r_in

    def _params(self):
        return {
            "center": self.center.tolist(),
            "r_in": self.r_in,
            "r_out": self.r_out,
        }


class SlitBox(Domain):
    """An axis box minus the closed delta-neighborhood of an axis-aligned
    segment.  delta = 0 removes the bare segment (measure zero)."""

    shape_name = "slit-box"

    def __init__(self, lo, hi, seg_start, seg_end, delta=0.0):
        self.box = AxisBox(lo, hi)
        self.seg_start = np.asarray(seg_start, dtype=float)
        self.seg_end = np.asarray(seg_end, dtype=float)
        self.delta = float(delta)
        self.dimension = self.box.dimension
        if self.seg_start.shape != (self.dimension,) or self.seg_end.shape != (
            self.dimension,
        ):
            raise ArgumentError("segment endpoints must match the box dimension")
        if self.delta < 0:
            raise ArgumentError("delta must be >= 0")
        diff = self.seg_end - self.seg_start
        moving = np.nonzero(np.abs(diff) > 0)[0]
        if len(moving) != 1:
            raise ArgumentError("slit segment must be axis-aligned and nondegenerate")
        self.axis = int(moving[0])
        if np.any(self.seg_start < self.box.lo) or np.any(self.seg_start > self.box.hi):
            raise ArgumentError("segment must lie in the closed box")
        if np.any(self.seg_end < self.box.lo) or np.any(self.seg_end > self.box.hi):
            raise ArgumentError("segment must lie in the closed box")
        # transverse clearance so the capsule is not clipped sideways, and
        # each end is either on the box wall or a full delta inside it
        if self.delta > 0:
            for j in range(self.dimension):
                if j == self.axis:
                    continue
                c = self.seg_start[j]
                if c - self.box.lo[j] < self.delta or self.box.hi[j] - c < self.delta:
                    raise ArgumentError(
                        "slit thickened by delta must clear the box walls sideways"
                    )
            for end in (self.seg_start, self.seg_end):
                gap = min(
                    end[self.axis] - self.box.lo[self.axis],
                    self.box.hi[self.axis] - end[self.axis],
                )
                if 0.0 < gap < self.delta:
                    raise ArgumentError(
                        "segment end must sit on the box wall or at least "
                        "delta inside it"
                    )
            if np.any(self._seg_dist(_convex_vertices(self.box)) <= self.delta):
                raise ArgumentError("slit capsule may not contain box corners")

    def _seg_dist(self, pts):
        return _dist_point_to_segments(pts, self.seg_start, self.seg_end)

    def contains_batch(self, pts):
        return self.box.contains_batch(pts) & (self._seg_dist(pts) > self.delta)

    def dist_to_boundary_batch(self, pts):
        inner = self._seg_dist(pts) - self.delta
        return np.maximum(
            0.0, np.minimum(self.box.dist_to_boundary_batch(pts), inner)
        )

    def volume(self):
        n = self.dimension
        length = float(np.linalg.norm(self.seg_end - self.seg_start))
        removed = length * unit_ball_volume(n - 1) * self.delta ** (n - 1)
        half_ball = 0.5 * unit_ball_volume(n) * self.delta**n
        for end in (self.seg_start, self.seg_end):
            gap = min(
                end[self.axis] - self.box.lo[self.axis],
                self.box.hi[self.axis] - end[self.axis],
            )
            if gap > 0.0:  # interior end carries a full half ball
                removed += half_ball
        return self.box.volume() - removed

    def diameter(self):
        return self.box.diameter()

    def bounding_box(self):
        return self.box.bounding_box()

    def _params(self):
        return {
            "lo": self.box.lo.tolist(),
            "hi": self.box.hi.tolist(),
            "seg_start": self.seg_start.tolist(),
            "seg_end": self.seg_end.tolist(),
            "delta": self.delta,
        }


# outside points per facet-distance call of a polytope hole: in 3-D each
# holds about 2.6 KB while the call runs
_HOLE_BLOCK = 4096


class SetDifference(Domain):
    """outer minus the closure of inner, both convex, inner strictly inside."""

    shape_name = "set-difference"

    def __init__(self, outer, inner):
        if not outer.is_convex or not inner.is_convex:
            raise ArgumentError("set-difference requires convex outer and inner")
        if outer.dimension != inner.dimension:
            raise ArgumentError("dimension mismatch")
        self.outer = outer
        self.inner = inner
        self.dimension = outer.dimension
        if isinstance(inner, Ball):
            if outer.dist_to_boundary(inner.center) <= inner.radius:
                raise ArgumentError("inner ball must lie strictly inside outer")
        else:
            for v in _convex_vertices(inner):
                if outer.dist_to_boundary(v) <= 0:
                    raise ArgumentError("inner shape must lie strictly inside outer")

    def _dist_to_inner(self, pts):
        """Distance from pts to the closed inner set, exactly 0 inside it: a
        polytope hole is 0 where no margin is negative, elsewhere the least
        distance to its boundary facets."""
        inner = self.inner
        if isinstance(inner, Ball):
            return np.maximum(0.0, row_norm(pts, inner.center) - inner.radius)
        if isinstance(inner, AxisBox):
            pts = np.asarray(pts)
            return _column_norm([
                np.maximum(lo - pts[..., j], 0.0) + np.maximum(pts[..., j] - hi, 0.0)
                for j, (lo, hi) in enumerate(zip(inner.lo, inner.hi))
            ])
        pts = np.asarray(pts, dtype=float)
        outside = np.flatnonzero(
            np.any(inner.offsets - pts @ inner.normals.T < 0, axis=-1)
        )
        out = np.zeros(len(pts))
        for lo in range(0, len(outside), _HOLE_BLOCK):
            rows = outside[lo : lo + _HOLE_BLOCK]
            d = _dist_to_simplices(pts[rows, np.newaxis], inner._facets)
            out[rows] = d.min(axis=1)
        return out

    def contains_batch(self, pts):
        return self.outer.contains_batch(pts) & (self._dist_to_inner(pts) > 0)

    def dist_to_boundary_batch(self, pts):
        d = np.minimum(
            self.outer.dist_to_boundary_batch(pts), self._dist_to_inner(pts)
        )
        return np.maximum(0.0, d)

    def volume(self):
        return self.outer.volume() - self.inner.volume()

    def diameter(self):
        # the inner hole is strictly interior, so extremal pairs survive
        return self.outer.diameter()

    def bounding_box(self):
        return self.outer.bounding_box()

    def _params(self):
        return {"outer": self.outer.to_json(), "inner": self.inner.to_json()}


def _convex_vertices(domain):
    if isinstance(domain, AxisBox):
        n = domain.dimension
        return np.array(
            [
                [
                    (domain.hi if (mask >> j) & 1 else domain.lo)[j]
                    for j in range(n)
                ]
                for mask in range(1 << n)
            ]
        )
    if isinstance(domain, ConvexPolytope):
        return domain.vertices
    raise ArgumentError(f"no vertex representation for {domain.shape_name!r}")


def domain_from_json(doc):
    """Rebuild a domain from its {shape, params} document."""
    shape = doc.get("shape")
    params = doc.get("params", {})
    if shape == "ball":
        return Ball(params["center"], params["radius"])
    if shape == "axis-box":
        return AxisBox(params["lo"], params["hi"])
    if shape == "convex-polytope":
        return ConvexPolytope(params["normals"], params["offsets"])
    if shape == "annulus":
        return Annulus(params["center"], params["r_in"], params["r_out"])
    if shape == "slit-box":
        return SlitBox(
            params["lo"],
            params["hi"],
            params["seg_start"],
            params["seg_end"],
            params.get("delta", 0.0),
        )
    if shape == "set-difference":
        return SetDifference(
            domain_from_json(params["outer"]), domain_from_json(params["inner"])
        )
    raise ArgumentError(f"unknown domain shape {shape!r}")
