"""Alternating k-covectors on R^n.

A covector of degree k is stored as coefficients over strictly increasing
multi-indices (the basis dx_{I_1} ^ ... ^ dx_{I_k}).  Evaluation on k vectors
sums coefficient times the determinant minor selected by the index.  The
module also provides the wedge product, the Euclidean coefficient norm and
the directional sphere norm

    |alpha|_{S,p}^p = int_{(S^{n-1})^k} |alpha(v_1,...,v_k)|^p dH(v_1)...dH(v_k)

computed by product quadrature (n = 2, 3) or Monte Carlo (any n).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .estimates import Estimate

__all__ = [
    "Covector",
    "SphereNormConfig",
    "wedge",
    "euclidean_norm",
    "sphere_norm",
    "unit_sphere_area",
    "sphere_quadrature",
    "minor_dets",
    "contract_minors",
    "sphere_power_integrals",
]


def _normalize_index(entries, n, k=None):
    """Validate a multi-index: strictly increasing ints in [1, n]."""
    idx = tuple(int(i) for i in entries)
    if k is not None and len(idx) != k:
        raise ArgumentError(f"multi-index {idx} has length {len(idx)}, expected {k}")
    for i in idx:
        if not 1 <= i <= n:
            raise ArgumentError(f"multi-index entry {i} out of range [1, {n}]")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ArgumentError(f"multi-index {idx} is not strictly increasing")
    return idx


def sort_with_sign(entries):
    """Sort a tuple of indices, returning (sorted tuple, permutation sign).

    Returns sign 0 if any index repeats.
    """
    entries = list(entries)
    sign = 1
    # insertion sort, counting swaps; fine for the tiny k used here
    for i in range(1, len(entries)):
        j = i
        while j > 0 and entries[j - 1] > entries[j]:
            entries[j - 1], entries[j] = entries[j], entries[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(entries, entries[1:]):
        if a == b:
            return tuple(entries), 0
    return tuple(entries), sign


class Covector:
    """An alternating k-linear functional on R^n.

    coeffs maps sorted multi-index tuples (1-based) to floats.  Degree 0
    covectors are scalars stored under the empty index ().  Degrees above n
    are identically zero.
    """

    def __init__(self, dimension, degree, coeffs=None):
        if dimension < 1:
            raise ArgumentError("dimension must be >= 1")
        if degree < 0:
            raise ArgumentError("degree must be >= 0")
        self.dimension = int(dimension)
        self.degree = int(degree)
        clean = {}
        if coeffs and self.degree <= self.dimension:
            for idx, c in coeffs.items():
                idx = _normalize_index(idx, self.dimension, self.degree)
                c = float(c)
                if c != 0.0:
                    clean[idx] = clean.get(idx, 0.0) + c
        self.coeffs = clean

    @classmethod
    def basis(cls, dimension, entries, coeff=1.0):
        """The basis covector dx_{i1} ^ ... ^ dx_{ik} scaled by coeff."""
        entries = tuple(entries)
        return cls(dimension, len(entries), {entries: coeff})

    @classmethod
    def zero(cls, dimension, degree):
        return cls(dimension, degree, {})

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        if (
            not isinstance(other, Covector)
            or other.dimension != self.dimension
            or other.degree != self.degree
        ):
            raise ArgumentError("can only add covectors of equal dimension and degree")
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            out[idx] = out.get(idx, 0.0) + c
        return Covector(self.dimension, self.degree, out)

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, scalar):
        scalar = float(scalar)
        return Covector(
            self.dimension,
            self.degree,
            {idx: c * scalar for idx, c in self.coeffs.items()},
        )

    __rmul__ = __mul__

    def __repr__(self):
        if not self.coeffs:
            return f"Covector({self.dimension}, {self.degree}, 0)"
        parts = []
        for idx in sorted(self.coeffs):
            name = "^".join(f"dx{i}" for i in idx) if idx else "1"
            parts.append(f"{self.coeffs[idx]:+g}*{name}")
        return f"Covector({self.dimension}, {self.degree}, {' '.join(parts)})"

    def evaluate(self, vectors):
        """Evaluate on k vectors in R^n (any array-like of shape (k, n))."""
        vs = np.asarray(vectors, dtype=float)
        if self.degree == 0:
            if len(vs) != 0:
                raise ArgumentError("degree-0 covector takes no vectors")
            return self.coeffs.get((), 0.0)
        if vs.shape != (self.degree, self.dimension):
            raise ArgumentError(
                f"expected {self.degree} vectors of dimension {self.dimension}, "
                f"got array of shape {vs.shape}"
            )
        return float(self.evaluate_batch(vs[np.newaxis])[0])

    def evaluate_batch(self, vs):
        """Evaluate on a batch of vector tuples, shape (N, k, n) -> (N,)."""
        vs = np.asarray(vs, dtype=float)
        n_batch = vs.shape[0]
        if self.degree == 0:
            return np.full(n_batch, self.coeffs.get((), 0.0))
        if vs.shape[1:] != (self.degree, self.dimension):
            raise ArgumentError(
                f"expected batch shape (N, {self.degree}, {self.dimension}), "
                f"got {vs.shape}"
            )
        return contract_minors(
            np.array(list(self.coeffs.values())), minor_dets(list(self.coeffs), vs)
        )

    __call__ = evaluate


def _batch_det(m):
    """Determinants of a (N, k, k) stack, with closed forms for k <= 3."""
    k = m.shape[1]
    if k == 1:
        return m[:, 0, 0]
    if k == 2:
        return m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    if k == 3:
        return (
            m[:, 0, 0] * (m[:, 1, 1] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 1])
            - m[:, 0, 1] * (m[:, 1, 0] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 0])
            + m[:, 0, 2] * (m[:, 1, 0] * m[:, 2, 1] - m[:, 1, 1] * m[:, 2, 0])
        )
    return np.linalg.det(m)


def minor_dets(indices, vectors):
    """The minor table of k-tuples of vectors: (N, k, n) -> (N, len(indices)).

    Column m holds det(vectors[:, :, indices[m] - 1]), the value of the basis
    covector dx_{indices[m]} on each tuple.
    """
    out = np.empty((len(vectors), len(indices)))
    for col, idx in enumerate(indices):
        out[:, col] = _batch_det(vectors[:, :, [i - 1 for i in idx]])
    return out


def contract_minors(coeffs, dets, out=None):
    """sum_m coeffs[..., m] * dets[..., m], added in order m = 0, 1, ...

    The one ordered sum behind covector evaluation, the pullback field and
    the pullback kernel; coeffs and dets broadcast against each other.  A
    given out is zero-filled and receives the sum.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(coeffs), dets.shape)[:-1])
    out.fill(0.0)
    product = np.empty_like(out)
    for col in range(dets.shape[-1]):
        out += np.multiply(coeffs[..., col], dets[..., col], out=product)
    return out


def wedge(alpha: Covector, beta: Covector) -> Covector:
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


def euclidean_norm(alpha: Covector) -> float:
    """sqrt of the sum of squared coefficients."""
    return math.sqrt(sum(c * c for c in alpha.coeffs.values()))


@dataclass(frozen=True)
class SphereNormConfig:
    """Configuration for sphere_norm.

    nodes_or_samples is the per-factor node count for product quadrature
    (per angle for n = 3) and the total sample count for Monte Carlo.
    """

    p: float = 2.0
    method: str = "product-quadrature"
    nodes_or_samples: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.p < 1:
            raise ArgumentError("p must be >= 1")
        if self.nodes_or_samples < 1:
            raise ArgumentError("nodes_or_samples must be >= 1")
        if self.method not in ("product-quadrature", "monte-carlo"):
            raise ArgumentError(f"unknown sphere-norm method {self.method!r}")


def unit_sphere_area(n):
    """Surface measure of S^{n-1} in R^n: 2 pi^{n/2} / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def sphere_quadrature(n, nodes):
    """Quadrature points and weights on S^{n-1}, weights summing to its area.

    n = 2: trapezoidal rule on [0, 2pi), spectrally accurate for smooth
    periodic integrands.  n = 3: product of Gauss-Legendre in cos(theta) and
    trapezoid in phi.  Other dimensions are not supported by quadrature; use
    the monte-carlo method instead.
    """
    if n == 1:
        pts = np.array([[1.0], [-1.0]])
        wts = np.array([1.0, 1.0])
        return pts, wts
    if n == 2:
        phi = 2.0 * math.pi * np.arange(nodes) / nodes
        pts = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        wts = np.full(nodes, 2.0 * math.pi / nodes)
        return pts, wts
    if n == 3:
        m_polar = nodes
        m_phi = 2 * nodes
        u, gl_w = np.polynomial.legendre.leggauss(m_polar)  # u = cos(theta)
        phi = 2.0 * math.pi * np.arange(m_phi) / m_phi
        su = np.sqrt(np.maximum(0.0, 1.0 - u**2))
        pts = np.empty((m_polar * m_phi, 3))
        wts = np.empty(m_polar * m_phi)
        idx = 0
        for i in range(m_polar):
            block = slice(idx, idx + m_phi)
            pts[block, 0] = su[i] * np.cos(phi)
            pts[block, 1] = su[i] * np.sin(phi)
            pts[block, 2] = u[i]
            wts[block] = gl_w[i] * (2.0 * math.pi / m_phi)
            idx += m_phi
        return pts, wts
    raise ArgumentError(
        f"product quadrature on S^{n - 1} is unsupported for n = {n}; "
        "use method='monte-carlo'"
    )


# combinations of the sphere grid handled per pass of sphere_power_integrals
_GRID_CHUNK = 1 << 20


def sphere_power_integrals(coeffs, indices, n, p, nodes):
    """int_{(S^{n-1})^k} |alpha_i(v_1,...,v_k)|^p for each coefficient row.

    coeffs is (N, len(indices)), row i holding the coefficients of alpha_i
    over the basis indices (non-empty, all of degree k).  Product quadrature
    on the M^k tensor grid of sphere_quadrature(n, nodes), walked
    _GRID_CHUNK combinations at a time with at most 1 << 24 rows x
    combinations per block, so memory is bounded whatever the node count.

    Returns the integrals and their relative error from a half-resolution
    rule, times 10 for non-even p (|.|^p has a kink at zeros).
    """
    k = len(indices[0])

    def integrate(m):
        pts, wts = sphere_quadrature(n, m)
        total = len(pts) ** k
        out = np.zeros(len(coeffs))
        for lo in range(0, total, _GRID_CHUNK):
            combo = np.stack(
                np.unravel_index(
                    np.arange(lo, min(lo + _GRID_CHUNK, total)), (len(pts),) * k
                ),
                axis=1,
            )
            add(out, minor_dets(indices, pts[combo]), np.prod(wts[combo], axis=1))
        return out

    # a function, so that a chunk's tables are freed before the next is built
    def add(out, dets, w):
        """out += |coeffs @ dets.T|^p @ w, one block of rows at a time."""
        rows = max(1, (1 << 24) // len(dets))
        for r in range(0, len(coeffs), rows):
            block = coeffs[r : r + rows] @ dets.T
            np.abs(block, out=block)
            block **= p
            out[r : r + rows] += block @ w

    full = integrate(nodes)
    half = integrate(max(2, nodes // 2))
    rel = np.abs(full - half) / np.maximum(np.abs(full), 1e-300)
    if p != 2.0 * round(p / 2.0):
        rel *= 10.0
    return full, rel


def sphere_norm(alpha: Covector, cfg: SphereNormConfig = SphereNormConfig()) -> Estimate:
    """The sphere norm |alpha|_{S,p} with a conservative error estimate.

    Degree 0 is the scalar absolute value (empty product of sphere
    integrals).  Degree n reduces by homogeneity to the single top
    coefficient times the sphere norm of the unit top covector, which is
    computed (and cached), not assumed.
    """
    n, k = alpha.dimension, alpha.degree
    if k == 0:
        return Estimate(abs(alpha.coeffs.get((), 0.0)), 0.0)
    if k > n or alpha.is_zero():
        return Estimate(0.0, 0.0)
    if k == n:
        c = alpha.coeffs.get(tuple(range(1, n + 1)), 0.0)
        unit = _unit_top_norm(n, cfg)
        return Estimate(abs(c) * unit.value, abs(c) * unit.error)
    return _sphere_norm(alpha, cfg)


@functools.lru_cache(maxsize=32)
def _unit_top_norm(n, cfg):
    return _sphere_norm(Covector.basis(n, tuple(range(1, n + 1))), cfg)


def _sphere_norm(alpha, cfg):
    """sphere_norm for degrees 1..n, by product quadrature or Monte Carlo."""
    n, k, p = alpha.dimension, alpha.degree, cfg.p
    if cfg.method == "product-quadrature":
        coeffs = np.array([list(alpha.coeffs.values())])
        q, rel = sphere_power_integrals(
            coeffs, list(alpha.coeffs), n, p, cfg.nodes_or_samples
        )
        q, q_err = float(q[0]), float(rel[0] * q[0])
    else:
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
        n_samples = cfg.nodes_or_samples
        g = rng.standard_normal((n_samples, k, n))
        g /= np.linalg.norm(g, axis=2, keepdims=True)
        vals = np.abs(alpha.evaluate_batch(g)) ** p
        area = unit_sphere_area(n) ** k
        q = area * float(np.mean(vals))
        q_err = area * float(np.std(vals, ddof=1)) / math.sqrt(n_samples)

    if q <= 0.0:
        return Estimate(0.0, q_err ** (1.0 / p) if q_err > 0 else 0.0)
    value = q ** (1.0 / p)
    # delta method: d(q^{1/p})/dq = q^{1/p - 1} / p
    err = q_err * value / (p * q)
    return Estimate(value, err)
