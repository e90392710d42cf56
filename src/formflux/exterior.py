"""Alternating k-covectors on R^n.

A covector of degree k is stored as coefficients over strictly increasing
multi-indices (the basis dx_{I_1} ^ ... ^ dx_{I_k}).  Evaluation on k vectors
sums coefficient times the determinant minor selected by the index.  The
module also provides the Euclidean coefficient norm and the directional
sphere norm

    |alpha|_{S,p}^p = int_{(S^{n-1})^k} |alpha(v_1,...,v_k)|^p dH(v_1)...dH(v_k)

which is |alpha|_2^p times the constant C(n, k, p) of sphere_power_constant
when alpha is decomposable (always so for k <= 1 or k >= n - 1, hence for
every covector in n <= 3), and is estimated by Monte Carlo otherwise.

Why C: a Gaussian n x k matrix G is V diag(|g_i|) with V uniform on
(S^{n-1})^k and |g_i| ~ chi_n independent of V, so
E|alpha(G)|^p = E|alpha(V)|^p (E chi_n^p)^k.  By rotation invariance a
decomposable alpha acts like |alpha|_2 times a top k x k minor, which is a
k x k Gaussian determinant with E|det|^p = prod_{j=1..k} E chi_j^p
(Bartlett decomposition).  With E chi_m^p = 2^{p/2} Gamma((m+p)/2) /
Gamma(m/2) the powers of 2 cancel and the area A_n^k turns the mean into
the integral.
"""

from __future__ import annotations

import math
import numpy as np

from .domains import normalize_rows
from .errors import ArgumentError
from .estimates import Estimate, check_exponent, check_integer, delta_method_root

__all__ = [
    "Covector",
    "euclidean_norm",
    "sphere_norm",
    "sphere_power_constant",
    "decomposable_degree",
    "unit_sphere_area",
    "minor_dets",
    "contract_minors",
]


def _normalize_index(entries, n, k=None):
    """Validate a multi-index: strictly increasing integers in [1, n]."""
    idx = tuple(check_integer(i, "multi-index entry") for i in entries)
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
        self.dimension = check_integer(dimension, "dimension")
        self.degree = check_integer(degree, "degree")
        if self.dimension < 1:
            raise ArgumentError("dimension must be >= 1")
        if self.degree < 0:
            raise ArgumentError("degree must be >= 0")
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
    covector dx_{indices[m]} on each tuple.  For k = 1 each minor is an
    entry, and the table is one column gather.  A minor that reads every
    column in order (k = n) takes vectors as they are, with no gathered copy.
    """
    if vectors.shape[1] == 1:
        return vectors[:, 0, [i - 1 for i, in indices]]
    out = np.empty((len(vectors), len(indices)))
    every = list(range(vectors.shape[-1]))
    for col, idx in enumerate(indices):
        cols = [i - 1 for i in idx]
        out[:, col] = _batch_det(vectors if cols == every else vectors[:, :, cols])
    return out


def contract_minors(coeffs, dets, out=None):
    """sum_m coeffs[..., m] * dets[..., m], added in order m = 0, 1, ... as
    if to zeros.

    The one ordered sum behind covector evaluation and the pullback kernel;
    coeffs and dets broadcast against each other.  The first product is
    written straight into out (a new array when none is given) and 0.0 added
    to it, the zero fill's own rule, so a -0.0 becomes 0.0; each later
    product is added from one scratch array.  With no minors out is 0.0.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(coeffs), dets.shape)[:-1])
    if not dets.shape[-1]:
        out.fill(0.0)
        return out
    np.multiply(coeffs[..., 0], dets[..., 0], out=out)
    out += 0.0
    product = np.empty_like(out) if dets.shape[-1] > 1 else None
    for col in range(1, dets.shape[-1]):
        out += np.multiply(coeffs[..., col], dets[..., col], out=product)
    return out


def euclidean_norm(alpha: Covector) -> float:
    """sqrt of the sum of squared coefficients."""
    return math.sqrt(sum(c * c for c in alpha.coeffs.values()))


def unit_sphere_area(n):
    """Surface measure of S^{n-1} in R^n: 2 pi^{n/2} / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def decomposable_degree(n, k):
    """True when every k-covector on R^n is a wedge of 1-covectors."""
    return k <= 1 or k >= n - 1


def sphere_power_constant(n, k, p):
    """C(n, k, p) = |alpha|_{S,p}^p / |alpha|_2^p for decomposable alpha:

        A_n^k prod_{j=1..k} Gamma((j+p)/2) / Gamma(j/2)
              * (Gamma(n/2) / Gamma((n+p)/2))^k

    with A_n = unit_sphere_area(n).  Computed through lgamma, so that large
    p does not overflow.
    """
    log_c = k * (math.lgamma(n / 2.0) - math.lgamma((n + p) / 2.0))
    for j in range(1, k + 1):
        log_c += math.lgamma((j + p) / 2.0) - math.lgamma(j / 2.0)
    return unit_sphere_area(n) ** k * math.exp(log_c)


# Monte Carlo sample count and seed for non-decomposable degrees
_MC_SAMPLES = 200_000
_MC_SEED = 0


def sphere_norm(alpha: Covector, p: float = 2.0) -> Estimate:
    """The sphere norm |alpha|_{S,p}, p >= 1, with its error estimate.

    Exact for decomposable degrees (k <= 1 or k >= n - 1, every covector in
    n <= 3): |alpha|_2 * sphere_power_constant(n, k, p)^{1/p}, error 0.
    Otherwise (n >= 4, 2 <= k <= n - 2) Monte Carlo over _MC_SAMPLES uniform
    k-tuples of directions, with a delta-method standard error.
    """
    check_exponent(p)
    n, k = alpha.dimension, alpha.degree
    if alpha.is_zero():
        return Estimate(0.0, 0.0)
    if decomposable_degree(n, k):
        scale = sphere_power_constant(n, k, p) ** (1.0 / p)
        return Estimate(euclidean_norm(alpha) * scale)
    rng = np.random.default_rng(np.random.SeedSequence(_MC_SEED))
    g = normalize_rows(rng.standard_normal((_MC_SAMPLES, k, n)))
    vals = np.abs(alpha.evaluate_batch(g)) ** p
    area = unit_sphere_area(n) ** k
    q = area * float(np.mean(vals))
    q_err = area * float(np.std(vals, ddof=1)) / math.sqrt(_MC_SAMPLES)
    return Estimate(*delta_method_root(q, q_err, p))
