"""Differential k-forms on R^n as coefficient fields.

A FormField carries one coefficient function per strictly increasing
multi-index.  Three backends:

  polynomial  sparse multivariate polynomials, exact exterior derivative
  analytic    vectorized callables, optionally with exact partials
  rough       vectorized callables with no smoothness; d is refused

An optional support domain extends the form by zero outside it.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np

from .errors import ArgumentError, UnsupportedOperationError
from .estimates import (
    SeminormEstimate,
    check_exponent,
    check_integer,
    delta_method_root,
)
from .exterior import (
    Covector,
    _normalize_index,
    decomposable_degree,
    sort_with_sign,
    sphere_power_constant,
)

__all__ = [
    "Polynomial",
    "FormField",
    "Mollifier",
    "mollify",
    "lp_norm",
    "lp_sphere_norm",
    "form_to_json",
    "form_from_json",
]


class _memo:
    """functools.cached_property without its lock: the first read computes
    the value into the instance's __dict__, which later reads find first.
    (Before Python 3.12 cached_property takes a lock on each first read.)"""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def _power_ladder(pts, tops):
    """powers_of[j][e] = x_j^e for 1 <= e <= tops[j], x_j^e = x_j^(e-1) * x_j."""
    powers_of = []
    for j, top in enumerate(tops):
        ladder = [None, pts[:, j]]
        for _ in range(1, top):
            ladder.append(ladder[-1] * ladder[1])
        powers_of.append(ladder)
    return powers_of


def _monomial(factors, c, out):
    """The left-to-right product of factors, then times c, into out."""
    if len(factors) == 1:
        return np.multiply(factors[0], c, out=out)
    np.multiply(factors[0], factors[1], out=out)
    for factor in factors[2:]:
        out *= factor
    out *= c
    return out


class Polynomial:
    """Sparse multivariate polynomial: {exponent tuple: coefficient}."""

    def __init__(self, dimension, terms=None):
        self.dimension = check_integer(dimension, "polynomial dimension")
        clean = {}
        for powers, c in (terms or {}).items():
            powers = tuple(check_integer(e, "exponent") for e in powers)
            if len(powers) != self.dimension or any(e < 0 for e in powers):
                raise ArgumentError(f"bad exponent tuple {powers}")
            c = float(c)
            if not math.isfinite(c):
                raise ArgumentError(f"coefficient of {powers} must be finite, got {c}")
            if c != 0.0:
                clean[powers] = clean.get(powers, 0.0) + c
        self.terms = clean

    @classmethod
    def _trusted(cls, dimension, terms):
        """The polynomial of terms keyed by distinct valid exponent tuples
        with float coefficients, as __init__ builds it (zeros dropped, the
        rest in their order, a non-finite one refused) without checking
        the keys again: partial, + and * build through here."""
        poly = cls.__new__(cls)
        poly.dimension = dimension
        poly.terms = clean = {}
        for powers, c in terms.items():
            if not math.isfinite(c):
                raise ArgumentError(f"coefficient of {powers} must be finite, got {c}")
            if c != 0.0:
                clean[powers] = c
        return poly

    @classmethod
    def constant(cls, dimension, value):
        return cls(dimension, {(0,) * dimension: value})

    @classmethod
    def coordinate(cls, dimension, j):
        """The polynomial x_j (1-based)."""
        powers = [0] * dimension
        powers[j - 1] = 1
        return cls(dimension, {tuple(powers): 1.0})

    def evaluate_batch(self, pts, out=None, *, powers_of=None):
        """Values at pts (N, dimension): sum over terms of c * monomial,
        added in term order as if to zeros, into out (N,) when it is given.

        A monomial is the left-to-right product of its powers x_j^e (zero
        exponents skipped), then times c, and x_j^e = x_j^(e-1) * x_j is
        built once per coordinate up to its top exponent (_power_ladder),
        or read from powers_of, the ladder of pts that FormField shares
        among its components.  No pow: products are correctly rounded,
        while numpy's pow gives bits that depend on the host.  The first
        term is written straight into out and 0.0 added to it, the zero
        fill's own rule, so a -0.0 becomes 0.0; each later monomial is
        added from one scratch column, allocated only when there is one.
        With out given, the powers above 1 and that column are the only
        arrays a call allocates.
        """
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise ArgumentError(f"expected points of shape (N, {self.dimension})")
        if out is None:
            out = np.empty(pts.shape[0])
        if not self.terms:
            out.fill(0.0)
            return out
        if powers_of is None:
            powers_of = _power_ladder(pts, self._tops)
        scratch = None
        for i, (powers, c) in enumerate(self.terms.items()):
            factors = [powers_of[j][e] for j, e in enumerate(powers) if e]
            if not factors:
                if i:
                    out += c
                else:
                    out.fill(c)  # c is nonzero, so 0.0 + c is c
            elif i:
                if scratch is None:
                    scratch = np.empty(len(out))
                out += _monomial(factors, c, scratch)
            else:
                _monomial(factors, c, out)
                out += 0.0
        return out

    def __call__(self, x):
        return float(self.evaluate_batch(np.asarray(x, dtype=float)[np.newaxis])[0])

    def partial(self, j):
        """Exact partial derivative with respect to x_j (1-based)."""
        out = {}
        for powers, c in self.terms.items():
            e = powers[j - 1]
            if e == 0:
                continue
            lowered = list(powers)
            lowered[j - 1] = e - 1
            out[tuple(lowered)] = c * e
        return Polynomial._trusted(self.dimension, out)

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.dimension, other)
        if other.dimension != self.dimension:
            raise ArgumentError(f"cannot add polynomials in {self.dimension} and "
                                f"{other.dimension} variables")
        out = dict(self.terms)
        for powers, c in other.terms.items():
            out[powers] = out.get(powers, 0.0) + c
        return Polynomial._trusted(self.dimension, out)

    def __mul__(self, scalar):
        scalar = float(scalar)
        return Polynomial._trusted(
            self.dimension, {p: c * scalar for p, c in self.terms.items()}
        )

    __rmul__ = __mul__

    @_memo
    def total_degree(self):
        """The largest exponent sum of a term (0 with no terms), found once."""
        return max(map(sum, self.terms), default=0)

    @_memo
    def _tops(self):
        """The top exponent of each coordinate (() with no terms), found once."""
        return tuple(map(max, zip(*self.terms)))

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        return f"Polynomial({self.dimension}, {self.terms})"


class FormField:
    """A differential k-form with one coefficient function per index."""

    def __init__(self, dimension, degree, components, backend, support=None,
                 partials=None):
        self.dimension = dimension = check_integer(dimension, "form dimension")
        self.degree = degree = check_integer(degree, "form degree")
        if degree < 0:
            raise ArgumentError("degree must be >= 0")
        if degree > dimension and components:
            raise ArgumentError("forms of degree above n are identically zero")
        self.backend = backend
        if backend not in ("polynomial", "analytic", "rough"):
            raise ArgumentError(f"unknown backend {backend!r}")
        self.components = {_normalize_index(idx, dimension, degree): comp
                           for idx, comp in (components or {}).items()}
        self.indices = sorted(self.components)
        self.support = support
        self.partials = partials  # {(index, axis): callable pts -> (N,)} or None
        if support is not None and support.dimension != dimension:
            raise ArgumentError("support domain dimension mismatch")
        if partials is not None and backend != "analytic":
            raise ArgumentError(f"partials apply only to the analytic backend, "
                                f"not {backend!r}")
        if partials is not None:
            need = {(idx, j) for idx in self.indices
                    for j in range(1, self.dimension + 1) if j not in idx}
            missing = sorted(need - partials.keys())
            if missing:
                raise ArgumentError(f"partials lack the (index, axis) keys {missing}")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_polynomials(cls, dimension, degree, components, support=None):
        comps = {}
        for idx, poly in components.items():
            if isinstance(poly, (int, float)):
                poly = Polynomial.constant(dimension, poly)
            elif isinstance(poly, dict):
                poly = Polynomial(dimension, poly)
            if poly.dimension != dimension:
                raise ArgumentError("polynomial dimension mismatch")
            comps[idx] = poly
        return cls(dimension, degree, comps, "polynomial", support=support)

    @classmethod
    def constant_form(cls, dimension, coefficients):
        """Constant-coefficient form from {index: value}."""
        degree = len(next(iter(coefficients)))
        return cls.from_polynomials(
            dimension,
            degree,
            {idx: Polynomial.constant(dimension, c) for idx, c in coefficients.items()},
        )

    @classmethod
    def from_callables(cls, dimension, degree, components, smooth=False,
                       support=None, partials=None):
        """Form from {index: callable pts -> (N,)}; a smooth form's partials
        map (index, axis) to d/dx_axis of that component, pts -> (N,), for
        every axis not in the index (1-based, as in Polynomial.partial).
        Partials given to a form that is not smooth are an ArgumentError.

        The callables receive an (N, n) float array in an unspecified memory
        order; the pullback and the mollifier convolution pass column-major
        views of a buffer they reuse for the next node block, so a callable
        must not keep its argument or cache results on its identity.  For
        reproducible bits, compute each row on its own (numpy elementwise
        operations do; a matrix product may not).
        """
        return cls(dimension, degree, components, "analytic" if smooth else "rough",
                   support=support, partials=partials)

    def with_support(self, domain):
        return FormField(self.dimension, self.degree, self.components,
                         self.backend, support=domain, partials=self.partials)

    # -- evaluation ----------------------------------------------------------

    def coefficients_batch(self, pts, out=None):
        """Coefficient values (N, m) at pts (N, n), by self.indices, into out
        when it is given; a new array is column-major.  Polynomial
        components share one power ladder, built up to the top exponent of
        each coordinate over them all, with the bits of their own."""
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise ArgumentError(f"expected points of shape (N, {self.dimension})")
        if out is None:
            out = np.empty((len(self.indices), pts.shape[0])).T
        if self._tops is None:
            for col, idx in enumerate(self.indices):
                self._component_batch(idx, pts, out[:, col])
        else:
            powers_of = _power_ladder(pts, self._tops)
            for col, idx in enumerate(self.indices):
                self.components[idx].evaluate_batch(pts, out[:, col],
                                                    powers_of=powers_of)
        if self.support is not None:
            out *= self.support.contains_batch(pts)[:, np.newaxis]
        return out

    def _component_batch(self, idx, pts, out=None):
        """Values (N,) of the component idx at pts (N, n), support ignored,
        into out when it is given."""
        comp = self.components[idx]
        if isinstance(comp, Polynomial):
            return comp.evaluate_batch(pts, out)
        if out is None:
            return np.asarray(comp(pts), dtype=float)
        out[...] = comp(pts)
        return out

    @_memo
    def _reads(self):
        """The coordinates (0-based, ascending) the coefficients read."""
        return self._reads_of(self.indices)

    @_memo
    def _tops(self):
        """Each coordinate's top exponent over the components, or None when
        a component is not a Polynomial.  Read from the terms, so that the
        components keep no memo of their own."""
        comps = self.components.values()
        if not all(isinstance(c, Polynomial) for c in comps):
            return None
        return tuple(max((p[j] for c in comps for p in c.terms), default=0)
                     for j in range(self.dimension))

    def _reads_of(self, indices):
        """Coordinates the given components read: those with a nonzero
        exponent in some term; every one for a callable or a support."""
        comps = [self.components[idx] for idx in indices]
        if self.support is None and all(isinstance(c, Polynomial) for c in comps):
            return tuple(j for j in range(self.dimension)
                         if any(p[j] for c in comps for p in c.terms))
        return tuple(range(self.dimension))

    def evaluate(self, x) -> Covector:
        """The covector omega_x."""
        x = np.asarray(x, dtype=float)
        coeffs = self.coefficients_batch(x[np.newaxis])[0]
        return Covector(
            self.dimension,
            self.degree,
            {idx: c for idx, c in zip(self.indices, coeffs)},
        )

    __call__ = evaluate

    def euclidean_norm_batch(self, pts):
        return np.sqrt(np.sum(self.coefficients_batch(pts) ** 2, axis=1))

    def is_constant(self):
        return self.backend == "polynomial" and all(
            p.total_degree == 0 for p in self.components.values()
        )

    def is_zero(self):
        return all(
            isinstance(p, Polynomial) and p.is_zero()
            for p in self.components.values()
        ) or not self.components

    # -- calculus ------------------------------------------------------------

    def has_derivative(self):
        return self.backend == "polynomial" or (
            self.backend == "analytic" and self.partials is not None
        )

    def exterior_derivative(self):
        """The (k+1)-form d(omega); exact for the polynomial backend."""
        if self.backend == "rough":
            raise UnsupportedOperationError(
                "exterior derivative of a rough form is not computed"
            )
        if self.degree >= self.dimension:
            return FormField(self.dimension, self.degree + 1, {}, "polynomial")
        if self.backend == "polynomial":
            out = {}  # merged index -> terms, in the order partial, * and + give
            for idx, poly in self.components.items():
                for a, merged, sign in _d_plan(self.dimension, idx):
                    dj = [(p[:a] + (p[a] - 1,) + p[a + 1 :], c * p[a] * sign)
                          for p, c in poly.terms.items() if p[a]]
                    if not dj:
                        continue
                    terms = out.setdefault(merged, {})
                    for powers, c in dj:
                        terms[powers] = terms.get(powers, 0.0) + c
                        if not terms[powers]:  # + drops a cancelled term
                            del terms[powers]
            out = {idx: Polynomial._trusted(self.dimension, t)
                   for idx, t in out.items() if t}
            return FormField(self.dimension, self.degree + 1, out, "polynomial",
                             support=self.support)
        if self.partials is None:
            raise UnsupportedOperationError(
                "analytic form carries no derivative information"
            )
        # analytic with partials: d omega_merged = sum of sign * d_j omega_idx
        terms = {}  # index -> list of (sign, partial d_j omega_idx)
        for idx in self.indices:
            for a, merged, sign in _d_plan(self.dimension, idx):
                terms.setdefault(merged, []).append((sign, self.partials[(idx, a + 1)]))

        def component(contribs, pts):
            acc = np.zeros(len(pts))
            for sign, partial in contribs:
                acc += sign * np.asarray(partial(pts))
            return acc

        comps = {idx: functools.partial(component, c) for idx, c in terms.items()}
        return FormField(self.dimension, self.degree + 1, comps, "analytic",
                         support=self.support)

    def __repr__(self):
        return (
            f"FormField(n={self.dimension}, k={self.degree}, "
            f"backend={self.backend!r}, indices={self.indices})"
        )


@functools.lru_cache
def _d_plan(n, idx):
    """(axis, merged index, sign) with dx_{axis+1} ^ dx_idx = sign dx_merged,
    for each axis of R^n not in idx, in axis order."""
    plan = []
    for j in range(1, n + 1):
        merged, sign = sort_with_sign((j,) + idx)
        if sign:
            plan.append((j - 1, merged, sign))
    return tuple(plan)


# ---------------------------------------------------------------------------
# node blocks

# Quadrature nodes evaluated per block by the pullback (simplex.edge_integrals)
# and the mollifier convolution.  An array of one double per node of a block
# is 64 KiB, under glibc's default mmap threshold of 128 KiB, so the blocks'
# temporaries come from the heap instead of freshly mapped, faulted pages.
# Rows of more than 2^8 nodes (the 1,024-node rough rule) still get
# _MIN_BLOCK_ROWS rows per block, so their blocks do not multiply.
_NODE_BLOCK = 1 << 13
_MIN_BLOCK_ROWS = 32


def _block_rows(nodes):
    """Rows per node block when each row carries `nodes` quadrature nodes."""
    return max(_MIN_BLOCK_ROWS, _NODE_BLOCK // max(1, nodes))


def _blas_threads():
    """The threads OpenBLAS starts with: the first positive count among
    OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS, capped by
    the CPUs this process may run on.  Read once, at import."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        count = os.environ.get(var, "")
        if count.isdigit() and int(count) > 0:
            return min(int(count), cpus)
    return cpus


# GEMV computes a row of a @ w with its 4-row kernel unless the row is among
# the last (rows mod 4) of its thread's share, and threads share rows evenly.
_ROW_MULTIPLE = 4 * _blas_threads()


def row_dot(a, w):
    """a @ w for a vector w (Q,), with the bits of a 4-row GEMV in every
    row, whatever the batch.

    a is (rows, Q) with contiguous rows.  The leading rows, a multiple of
    _ROW_MULTIPLE, go to one GEMV as they are; the last rows % _ROW_MULTIPLE
    are copied into a zero block of _ROW_MULTIPLE rows for a second GEMV,
    so at most _ROW_MULTIPLE - 1 rows are copied and callers pass plain
    blocks.  tests/test_bit_identity.py checks the premise; should a BLAS
    break it, the fallback is the ordered row sum (a * w).sum(1).
    """
    rows = len(a)
    head = rows - rows % _ROW_MULTIPLE
    out = np.empty(rows)
    if head:
        np.matmul(a[:head], w, out=out[:head])
    if head < rows:
        tail = np.zeros((_ROW_MULTIPLE, a.shape[1]))
        tail[: rows - head] = a[head:]
        out[head:] = (tail @ w)[: rows - head]
    return out


# ---------------------------------------------------------------------------
# mollification


def _grid(dimension, radius, m):
    """(nodes, weights): m Gauss-Legendre nodes per axis, in the open ball."""
    x, w = (a * radius for a in np.polynomial.legendre.leggauss(m))
    grids = np.meshgrid(*([x] * dimension), indexing="ij")
    ys = np.stack([g.reshape(-1) for g in grids], axis=1)
    ws = functools.reduce(np.multiply.outer, [w] * dimension).reshape(-1)
    keep = np.linalg.norm(ys, axis=1) < radius
    return ys[keep], ws[keep]


def _bump(ys, radius):
    u = np.sum((ys / radius) ** 2, axis=1)
    out = np.zeros(len(ys))
    inside = u < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside]))
    return out


@functools.lru_cache(maxsize=32)
def _refined_mass(dimension, radius, nodes):
    """The raw mass on 2 * nodes per axis that Mollifier checks, once per shape."""
    ys, ws = _grid(dimension, radius, 2 * nodes)
    return float(np.sum(ws * _bump(ys, radius)))


class Mollifier:
    """The standard bump exp(-1/(1 - |y/eps|^2)) on |y| < eps, unit mass.

    Quadrature nodes for convolutions are a tensor Gauss-Legendre grid on
    [-eps, eps]^n restricted to the open ball; the normalization is fixed at
    construction and checked to 1e-6 against a refined grid's cached mass.
    """

    def __init__(self, dimension, radius, nodes=48):
        self.dimension = check_integer(dimension, "mollifier dimension")
        self.radius = float(radius)
        self.nodes = check_integer(nodes, "mollifier nodes")
        if self.dimension < 1 or self.nodes < 1 or not 0 < self.radius < math.inf:
            raise ArgumentError("mollifier needs dimension, nodes >= 1 and a finite "
                                f"radius > 0, got {dimension}, {nodes}, {radius}")
        self._ys, self._wraw = _grid(self.dimension, self.radius, self.nodes)
        raw = _bump(self._ys, self.radius)
        self._mass_raw = float(np.sum(self._wraw * raw))
        if self._mass_raw <= 0:
            raise ArgumentError("degenerate mollifier grid")
        mass2 = _refined_mass(self.dimension, self.radius, self.nodes)
        if abs(mass2 / self._mass_raw - 1.0) > 1e-6:
            raise ArgumentError(
                "mollifier quadrature has not converged; increase nodes"
            )
        self._weights = self._wraw * raw / self._mass_raw  # sum = 1

    def profile(self, y):
        """The normalized kernel eta(y) at a point (n,) or at points (N, n)."""
        y = np.asarray(y, dtype=float)
        if y.ndim not in (1, 2) or y.shape[-1] != self.dimension:
            raise ArgumentError(f"expected a point ({self.dimension},) or points "
                                f"(N, {self.dimension}), got shape {y.shape}")
        values = _bump(np.atleast_2d(y), self.radius) / self._mass_raw
        return values if y.ndim == 2 else float(values[0])

    def convolution_rule(self):
        """Nodes y_q and weights w_q with sum_q w_q = 1, so that
        (eta * f)(x) ~= sum_q w_q f(x - y_q)."""
        return self._ys, self._weights

    def gradient_rule(self):
        """Nodes and per-axis weights g_q so that
        (d_j eta * f)(x) ~= sum_q g_q[j] f(x - y_q)."""
        u = np.sum((self._ys / self.radius) ** 2, axis=1)
        factor = -2.0 / (self.radius**2 * (1.0 - u) ** 2)
        grad = self._weights[:, np.newaxis] * factor[:, np.newaxis] * self._ys
        return self._ys, grad


def mollify(omega, eta):
    """The convolved form (eta * omega), coefficient-wise: each component at
    its distinct shifts, against weights summed per shift (_distinct_shifts).
    Returns an analytic-backend field with exact-to-quadrature partials
    (derivatives hit the kernel), one per (index, axis), so the result
    always supports exterior_derivative, even when omega is rough.
    """
    if eta.dimension != omega.dimension:
        raise ArgumentError("mollifier and form dimension mismatch")
    (ys, ws), n = eta.convolution_rule(), omega.dimension

    def convolve(idx, reads, shifts, weights, pts):
        """sum_s omega_idx(pts - s) weights[s] over the component's m distinct
        shifts s, for weights (m,) aggregated per shift.

        One block of points (a node block of shifts) at a time, the shifted
        points are built one read coordinate at a time into a reused
        (n, rows, m) buffer.  The component reads its column-major
        (rows * m, n) view into a reused contiguous column, masked in place
        by the support, and row_dot reduces that (rows, m) block, so a
        point's bits do not depend on its batch.
        """
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != n:
            raise ArgumentError(f"expected points of shape (N, {n})")
        m, rows = len(shifts), _block_rows(len(shifts))
        out = np.empty(len(pts))
        col = np.empty(min(rows, len(pts)) * m)
        buf = np.empty(n * len(col))
        for lo in range(0, len(pts), rows):
            part = pts[lo : lo + rows]
            shifted = buf[: n * len(part) * m].reshape(n, len(part), m)
            for c in reads:
                np.subtract.outer(part[:, c], shifts[:, c], out=shifted[c])
            at = shifted.reshape(n, -1).T
            u = omega._component_batch(idx, at, out=col[: len(at)])
            if omega.support is not None:
                u *= omega.support.contains_batch(at)
            out[lo : lo + len(part)] = row_dot(u.reshape(-1, m), weights)
        return out

    rules = [ws, *eta.gradient_rule()[1].T]
    comps, partials = {}, {}
    for idx in omega.indices:
        reads = omega._reads_of([idx])
        shifts, aggregated = _distinct_shifts(ys, reads, rules)
        comps[idx], *axes = [functools.partial(convolve, idx, reads, shifts, w)
                             for w in aggregated]
        partials.update({(idx, j): f for j, f in enumerate(axes, start=1)})
    return FormField(omega.dimension, omega.degree, comps, "analytic",
                     partials=partials)


def _distinct_shifts(ys, reads, rules):
    """The nodes ys at their distinct rows on the coordinates `reads`, and
    each weight vector (Q,) of `rules` aggregated per row: np.bincount sums
    a row's node weights in node order.  Rows are told apart by their bits,
    so 0.0 and -0.0 differ."""
    bits = np.ascontiguousarray(ys[:, list(reads)]).view(np.uint64)
    _, first, index = np.unique(bits, axis=0, return_index=True, return_inverse=True)
    return ys[first], [np.bincount(index.reshape(-1), w, len(first)) for w in rules]


# ---------------------------------------------------------------------------
# L^p norms over a domain


def lp_norm(omega, domain, p, samples=20000, seed=0):
    """(int_Omega |omega_x|^p dx)^{1/p} with |.| the coefficient norm,
    estimated from `samples` uniform points of the domain."""
    check_exponent(p)
    samples = check_integer(samples, "samples")
    seed = check_integer(seed, "seed")
    if samples < 2:
        raise ArgumentError("need at least 2 samples")
    pts = domain.sample_uniform(samples, seed=seed)
    values = omega.euclidean_norm_batch(pts) ** p
    volume = domain.volume()
    power = volume * float(np.mean(values))
    power_err = volume * (float(np.std(values, ddof=1)) / math.sqrt(len(values)))
    value, err = delta_method_root(power, power_err, p)
    return SeminormEstimate(
        value=value,
        stderr=err,
        power_value=max(power, 0.0),
        power_stderr=power_err,
        samples=samples,
        acceptance_ratio=1.0,
        config={"kind": "lp_norm", "p": p, "samples": samples, "seed": seed},
    )


def lp_sphere_norm(omega, domain, p, samples=20000, seed=0):
    """(int_Omega |omega_x|_{S,p}^p dx)^{1/p}: sphere norm composed with L^p.

    For decomposable degrees (k <= 1 or k >= n - 1) the sphere norm is
    C(n, k, p)^{1/p} times the coefficient norm at every point
    (exterior.sphere_power_constant), so this is lp_norm on the same
    samples, scaled.  Other degrees are not supported.
    """
    n, k = omega.dimension, omega.degree
    if not decomposable_degree(n, k):
        raise UnsupportedOperationError(
            "lp_sphere_norm needs a decomposable degree (k <= 1 or k >= n - 1), "
            f"got k = {k} in R^{n}"
        )
    est = lp_norm(omega, domain, p, samples, seed)
    est = est.scaled(sphere_power_constant(n, k, p) ** (1.0 / p))
    est.config["kind"] = "lp_sphere_norm"
    return est


# ---------------------------------------------------------------------------
# JSON serialization (polynomial backend)


def form_to_json(omega):
    if omega.backend != "polynomial":
        raise UnsupportedOperationError("only polynomial forms serialize to JSON")
    terms = []
    for idx in omega.indices:
        poly = omega.components[idx]
        terms.append(
            {
                "index": list(idx),
                "monomials": [
                    {"powers": list(powers), "coeff": c}
                    for powers, c in sorted(poly.terms.items())
                ],
            }
        )
    doc = {"n": omega.dimension, "k": omega.degree, "terms": terms}
    if omega.support is not None:
        doc["support"] = omega.support.to_json()
    return doc


def form_from_json(doc):
    from .domains import domain_from_json

    n = check_integer(doc["n"], "n")
    k = check_integer(doc["k"], "k")
    comps = {}
    for term in doc.get("terms", []):
        idx = tuple(check_integer(i, "index entry") for i in term["index"])
        poly = Polynomial(
            n,
            {
                tuple(check_integer(e, "powers entry") for e in mono["powers"]):
                    float(mono["coeff"])
                for mono in term.get("monomials", [])
            },
        )
        if idx in comps:
            poly = comps[idx] + poly
        comps[idx] = poly
    support = doc.get("support")
    if support is not None:
        support = domain_from_json(support)
    return FormField.from_polynomials(n, k, comps, support=support)
