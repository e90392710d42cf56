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
from .estimates import SeminormEstimate, delta_method_root
from .exterior import (
    Covector,
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


class Polynomial:
    """Sparse multivariate polynomial: {exponent tuple: coefficient}."""

    def __init__(self, dimension, terms=None):
        self.dimension = int(dimension)
        clean = {}
        for powers, c in (terms or {}).items():
            powers = tuple(int(e) for e in powers)
            if len(powers) != self.dimension or any(e < 0 for e in powers):
                raise ArgumentError(f"bad exponent tuple {powers}")
            c = float(c)
            if c != 0.0:
                clean[powers] = clean.get(powers, 0.0) + c
        self.terms = clean

    @classmethod
    def constant(cls, dimension, value):
        return cls(dimension, {(0,) * dimension: value})

    @classmethod
    def coordinate(cls, dimension, j):
        """The polynomial x_j (1-based)."""
        powers = [0] * dimension
        powers[j - 1] = 1
        return cls(dimension, {tuple(powers): 1.0})

    def evaluate_batch(self, pts):
        """Values at pts (N, dimension): sum over terms of c * monomial.

        A monomial is the left-to-right product of its powers x_j^e (zero
        exponents skipped), and x_j^e = x_j^(e-1) * x_j is built once per
        coordinate up to its top exponent.  No pow: products are correctly
        rounded, while numpy's pow gives bits that depend on the host.
        """
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise ArgumentError(f"expected points of shape (N, {self.dimension})")
        powers_of = []  # powers_of[j][e] = x_j^e for 1 <= e <= top exponent
        for j, top in enumerate(map(max, zip(*self.terms))):
            ladder = [None, pts[:, j]]
            for _ in range(1, top):
                ladder.append(ladder[-1] * pts[:, j])
            powers_of.append(ladder)
        out = np.zeros(pts.shape[0])
        for powers, c in self.terms.items():
            factors = [powers_of[j][e] for j, e in enumerate(powers) if e]
            out += c * functools.reduce(np.multiply, factors) if factors else c
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
            out[tuple(lowered)] = out.get(tuple(lowered), 0.0) + c * e
        return Polynomial(self.dimension, out)

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.dimension, other)
        out = dict(self.terms)
        for powers, c in other.terms.items():
            out[powers] = out.get(powers, 0.0) + c
        return Polynomial(self.dimension, out)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if other.dimension != self.dimension:
                raise ArgumentError("polynomial dimension mismatch")
            out = {}
            for pa, ca in self.terms.items():
                for pb, cb in other.terms.items():
                    key = tuple(a + b for a, b in zip(pa, pb))
                    out[key] = out.get(key, 0.0) + ca * cb
            return Polynomial(self.dimension, out)
        return Polynomial(
            self.dimension, {p: c * float(other) for p, c in self.terms.items()}
        )

    __rmul__ = __mul__

    def compose_affine(self, base, edges):
        """The polynomial s -> self(base + s @ edges), in the s variables.

        edges has shape (k, n); the result lives in dimension k.  Exact
        (symbolic expansion), used as the reference for quadrature tests.
        """
        base = np.asarray(base, dtype=float)
        edges = np.atleast_2d(np.asarray(edges, dtype=float))
        k = edges.shape[0]
        lines = []
        for j in range(self.dimension):
            terms = {(0,) * k: float(base[j])}
            for i in range(k):
                key = tuple(1 if t == i else 0 for t in range(k))
                terms[key] = float(edges[i, j])
            lines.append(Polynomial(k, terms))
        out = Polynomial(k, {})
        for powers, c in self.terms.items():
            term = Polynomial.constant(k, c)
            for j, e in enumerate(powers):
                for _ in range(e):
                    term = term * lines[j]
            out = out + term
        return out

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(p) == 0 for p in self.terms)

    def __repr__(self):
        return f"Polynomial({self.dimension}, {self.terms})"


def _normalize_components(dimension, degree, components):
    out = {}
    for idx, comp in (components or {}).items():
        idx = tuple(int(i) for i in idx)
        if len(idx) != degree or any(not 1 <= i <= dimension for i in idx):
            raise ArgumentError(f"bad index {idx} for degree {degree} in R^{dimension}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ArgumentError(f"index {idx} must be strictly increasing")
        out[idx] = comp
    return out


class FormField:
    """A differential k-form with one coefficient function per index."""

    def __init__(self, dimension, degree, components, backend, support=None,
                 partials=None):
        if degree < 0:
            raise ArgumentError("degree must be >= 0")
        if degree > dimension and components:
            raise ArgumentError("forms of degree above n are identically zero")
        self.dimension = int(dimension)
        self.degree = int(degree)
        self.backend = backend
        if backend not in ("polynomial", "analytic", "rough"):
            raise ArgumentError(f"unknown backend {backend!r}")
        self.components = _normalize_components(dimension, degree, components)
        self.indices = sorted(self.components)
        self.support = support
        self.partials = partials  # {index: callable pts -> (N, n)} or None
        if support is not None and support.dimension != dimension:
            raise ArgumentError("support domain dimension mismatch")

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
        """Form from {index: callable pts -> (N,)} (partials: -> (N, n)).

        The callables receive an (N, n) float array in an unspecified memory
        order; the pullback and the mollifier convolution pass column-major
        views of a buffer they reuse for the next node block, so a callable
        must not keep its argument or cache results on its identity.  For
        reproducible bits, compute each row on its own (numpy elementwise
        operations do; a matrix product may not).
        """
        backend = "analytic" if smooth else "rough"
        if backend == "rough":
            partials = None
        return cls(dimension, degree, components, backend, support=support,
                   partials=partials)

    def with_support(self, domain):
        return FormField(self.dimension, self.degree, self.components,
                         self.backend, support=domain, partials=self.partials)

    # -- evaluation ----------------------------------------------------------

    def coefficients_batch(self, pts):
        """Column-major coefficient values (N, m) at pts (N, n), by self.indices."""
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise ArgumentError(f"expected points of shape (N, {self.dimension})")
        out = np.empty((len(self.indices), pts.shape[0])).T
        for col, idx in enumerate(self.indices):
            out[:, col] = self._component_batch(idx, pts)
        if self.support is not None:
            out *= self.support.contains_batch(pts)[:, np.newaxis]
        return out

    def _component_batch(self, idx, pts):
        """Values (N,) of the component idx at pts (N, n), support ignored."""
        comp = self.components[idx]
        if isinstance(comp, Polynomial):
            return comp.evaluate_batch(pts)
        return np.asarray(comp(pts), dtype=float)

    @functools.cached_property
    def _reads(self):
        """The coordinates (0-based, ascending) the coefficients read."""
        return self._reads_of(self.indices)

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
            p.is_constant() for p in self.components.values()
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
            out = {}
            for idx, poly in self.components.items():
                for j in range(1, self.dimension + 1):
                    dj = poly.partial(j)
                    if dj.is_zero():
                        continue
                    merged, sign = sort_with_sign((j,) + idx)
                    if sign == 0:
                        continue
                    cur = out.get(merged)
                    out[merged] = dj * sign if cur is None else cur + dj * sign
            out = {idx: p for idx, p in out.items() if not p.is_zero()}
            return FormField(self.dimension, self.degree + 1, out, "polynomial",
                             support=self.support)
        if self.partials is None:
            raise UnsupportedOperationError(
                "analytic form carries no derivative information"
            )
        # analytic with partials: assemble d from the stored gradients
        terms = {}  # index -> list of (source index, axis j, sign)
        for idx in self.indices:
            for j in range(1, self.dimension + 1):
                merged, sign = sort_with_sign((j,) + idx)
                if sign == 0:
                    continue
                terms.setdefault(merged, []).append((idx, j, sign))

        def make_component(contribs):
            def component(pts, contribs=contribs):
                acc = np.zeros(len(pts))
                for src, j, sign in contribs:
                    acc += sign * np.asarray(self.partials[src](pts))[:, j - 1]
                return acc

            return component

        comps = {idx: make_component(contribs) for idx, contribs in terms.items()}
        return FormField(self.dimension, self.degree + 1, comps, "analytic",
                         support=self.support)

    def __repr__(self):
        return (
            f"FormField(n={self.dimension}, k={self.degree}, "
            f"backend={self.backend!r}, indices={self.indices})"
        )


# ---------------------------------------------------------------------------
# node blocks

# Quadrature nodes evaluated per block by the pullback (simplex.edge_integrals)
# and the mollifier convolution: a block's node positions and coefficient
# temporaries stay within a few MB, whatever the batch size.
_NODE_BLOCK = 1 << 15


def _block_rows(nodes):
    """Rows per node block when each row carries `nodes` quadrature nodes."""
    return max(1, _NODE_BLOCK // max(1, nodes))


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


def _padded_rows(rows):
    return rows + (-rows % _ROW_MULTIPLE)


def row_dot(a, w):
    """a @ w with the bits of a 4-row GEMV in every row, whatever the batch.

    a is (rows, Q) with contiguous rows, zero-padded to a multiple of
    _ROW_MULTIPLE rows (a copy, unless the caller allocated the padding).
    A (Q, c) right-hand side runs one column at a time: GEMM blocks its sums
    by the batch.  tests/test_bit_identity.py checks the premise; should a
    BLAS break it, the fallback is the ordered row sum (a * w).sum(1).
    """
    rows, padded = len(a), _padded_rows(len(a))
    if padded != rows:
        a = np.concatenate([a, np.zeros((padded - rows, a.shape[1]))])
    if w.ndim == 1:
        return (a @ w)[:rows]
    return np.stack([(a @ np.ascontiguousarray(col))[:rows] for col in w.T], axis=1)


# ---------------------------------------------------------------------------
# mollification


class Mollifier:
    """The standard bump exp(-1/(1 - |y/eps|^2)) on |y| < eps, unit mass.

    Quadrature nodes for convolutions are a tensor Gauss-Legendre grid on
    [-eps, eps]^n restricted to the open ball; the normalization is fixed at
    construction and verified against a refined grid to 1e-6.
    """

    def __init__(self, dimension, radius, nodes=48):
        self.dimension = int(dimension)
        self.radius = float(radius)
        self.nodes = int(nodes)
        if self.dimension < 1 or self.nodes < 1 or not 0 < self.radius < math.inf:
            raise ArgumentError("mollifier needs dimension, nodes >= 1 and a finite "
                                f"radius > 0, got {dimension}, {nodes}, {radius}")
        self._ys, self._wraw = self._grid(self.nodes)
        raw = self._bump(self._ys)
        self._mass_raw = float(np.sum(self._wraw * raw))
        if self._mass_raw <= 0:
            raise ArgumentError("degenerate mollifier grid")
        # verify the normalized mass against a refined grid
        ys2, w2 = self._grid(2 * self.nodes)
        mass2 = float(np.sum(w2 * self._bump(ys2)))
        if abs(mass2 / self._mass_raw - 1.0) > 1e-6:
            raise ArgumentError(
                "mollifier quadrature has not converged; increase nodes"
            )
        self._weights = self._wraw * raw / self._mass_raw  # sum = 1

    def _grid(self, m):
        x, w = np.polynomial.legendre.leggauss(m)
        x = x * self.radius
        w = w * self.radius
        grids = np.meshgrid(*([x] * self.dimension), indexing="ij")
        ys = np.stack([g.reshape(-1) for g in grids], axis=1)
        ws = functools.reduce(np.multiply.outer, [w] * self.dimension).reshape(-1)
        keep = np.linalg.norm(ys, axis=1) < self.radius
        return ys[keep], ws[keep]

    def _bump(self, ys):
        u = np.sum((ys / self.radius) ** 2, axis=1)
        out = np.zeros(len(ys))
        inside = u < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - u[inside]))
        return out

    def profile(self, y):
        """The normalized kernel eta(y)."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        return self._bump(y) / self._mass_raw

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
    """The convolved form (eta * omega), coefficient-wise.

    Returns an analytic-backend field with exact-to-quadrature partials
    (derivatives hit the kernel), so the result always supports
    exterior_derivative, even when omega is rough.
    """
    if eta.dimension != omega.dimension:
        raise ArgumentError("mollifier and form dimension mismatch")
    ys, ws = eta.convolution_rule()
    _, grad_ws = eta.gradient_rule()
    n, nodes = omega.dimension, len(ys)
    chunk = max(1, (1 << 22) // max(1, nodes))

    def convolve(idx, reads, shifts, index, weights, pts):
        """sum_q omega_idx(pts - y_q) weights[q], chunk points at a time.

        The component is evaluated only at x - s for the m distinct rows s of
        the nodes on the coordinates it reads (`shifts`, _distinct_shifts), one
        node block of m shifts at a time: built one read coordinate at a time
        into a reused (n, rows, m) buffer, whose column-major (rows * m, n)
        view the component reads.  np.take gathers a block's values into the
        chunk's (rows, nodes) `vals` by `index`, in place with mode="clip"; the
        default "raise" writes through a temporary.  `vals` carries the zero
        rows that row_dot pads with, so each point's bits are the same in any
        batch.
        """
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != n:
            raise ArgumentError(f"expected points of shape (N, {n})")
        m = len(shifts)
        out = np.empty((len(pts),) + weights.shape[1:])
        rows = _block_rows(m)
        vals = np.empty((_padded_rows(min(chunk, len(pts))), nodes))
        buf = np.empty(n * min(rows, len(pts)) * m)
        for lo in range(0, len(pts), chunk):
            block = pts[lo : lo + chunk]
            padded = _padded_rows(len(block))
            vals[len(block) : padded] = 0.0
            for sub in range(0, len(block), rows):
                part = block[sub : sub + rows]
                shifted = buf[: n * len(part) * m].reshape(n, len(part), m)
                for c in reads:
                    np.subtract.outer(part[:, c], shifts[:, c], out=shifted[c])
                at = shifted.reshape(n, -1).T
                u = omega._component_batch(idx, at)
                if omega.support is not None:
                    u = u * omega.support.contains_batch(at)
                np.take(u.reshape(-1, m), index, axis=1, mode="clip",
                        out=vals[sub : sub + len(part)])
            out[lo : lo + chunk] = row_dot(vals[:padded], weights)[: len(block)]
        return out

    comps, partials = {}, {}
    for idx in omega.indices:
        reads = omega._reads_of([idx])
        rule = (idx, reads, *_distinct_shifts(ys, reads))
        comps[idx] = functools.partial(convolve, *rule, ws)
        partials[idx] = functools.partial(convolve, *rule, grad_ws)
    return FormField(omega.dimension, omega.degree, comps, "analytic",
                     partials=partials)


def _distinct_shifts(ys, reads):
    """The nodes ys at their distinct rows on the coordinates `reads`, and
    the row of each node.  Rows are told apart by their bits, so 0.0 and
    -0.0 differ."""
    bits = np.ascontiguousarray(ys[:, list(reads)]).view(np.uint64)
    _, first, index = np.unique(bits, axis=0, return_index=True, return_inverse=True)
    return ys[first], index.reshape(-1)


# ---------------------------------------------------------------------------
# L^p norms over a domain


def lp_norm(omega, domain, p, samples=20000, seed=0):
    """(int_Omega |omega_x|^p dx)^{1/p} with |.| the coefficient norm,
    estimated from `samples` uniform points of the domain."""
    if p < 1:
        raise ArgumentError("p must be >= 1")
    if samples < 2:
        raise ArgumentError("need at least 2 samples")
    samples, seed = int(samples), int(seed)
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

    n = int(doc["n"])
    k = int(doc["k"])
    comps = {}
    for term in doc.get("terms", []):
        idx = tuple(int(i) for i in term["index"])
        poly = Polynomial(
            n,
            {
                tuple(int(e) for e in mono["powers"]): float(mono["coeff"])
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
