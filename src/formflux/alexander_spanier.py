"""Multifunctions on tuples of points and the Alexander-Spanier calculus.

A multifunction of degree k maps (k+1)-tuples of points to reals.  The
differential inserts alternating-sign face omissions:

    dF(x_0, ..., x_{k+1}) = sum_i (-1)^i F(..., omit x_i, ...).

One face builder (_faces) and one alternating sum (_alternating_sum)
implement it for every multifunction, and single-tuple evaluation is always
a batch of one.  I_omega integrates a k-form over the simplex spanned by
the tuple through the pullback kernel simplex.edge_integrals; its
differential dI_omega, the discrete boundary pairing that the singular
seminorms probe, is the differential of I_omega plus a scaled-evaluation
policy (CoboundaryMultifunction).

Seminorm estimators evaluate tuples of the shape x_i = x_0 + r_i v_i where
the radii r_i shrink to the float floor as theta -> 1.  Every multifunction
therefore exposes evaluate_scaled_batch, which returns F(tuple) divided by
prod r_i computed without the catastrophic cancellation of forming the
quotient directly: integration multifunctions pull the radii out of the
edge determinants analytically, and coboundaries of derivative-carrying
untruncated forms are rewritten through the simplex Stokes identity
dI_omega = I_{d omega}.  The other coboundaries sum their faces and keep a
cancellation snap guard: face sums smaller than the quadrature resolution
times the face magnitude are floored to zero.
"""

from __future__ import annotations

import math

import numpy as np

from .domains import _face_index, row_product
from .errors import ArgumentError
from .estimates import check_integer
from .forms import FormField
from .simplex import _form_rule, edge_integrals, integrate_form

__all__ = [
    "Multifunction",
    "UserMultifunction",
    "IntegrationMultifunction",
    "CoboundaryMultifunction",
    "DifferentialMultifunction",
    "stokes_residual",
    "StokesResult",
]


def _faces(tuples):
    """Face i of each m-tuple omits point i: (N, m, n) -> (m, N, m-1, n).

    One gather, returned as a transposed view: face i is strided over the
    tuples.
    """
    return np.take(tuples, _face_index(tuples.shape[1]), axis=1).swapaxes(0, 1)


def _alternating_sum(face_values):
    """sum_i (-1)^i face_values[i], added in the order i = 0, 1, ... as if
    to zeros: 0.0 is added to face 0 (so a -0.0 becomes 0.0), and each odd
    face is subtracted in place, which is adding its negation."""
    out = face_values[0] + 0.0
    for i in range(1, len(face_values)):
        if i % 2:
            out -= face_values[i]
        else:
            out += face_values[i]
    return out


def _scaled_tuples(x0, vs, rs):
    """The tuples (x0, x0 + r_1 v_1, ..., x0 + r_k v_k), one per row."""
    x0 = np.asarray(x0, dtype=float)[:, np.newaxis, :]
    vs = np.asarray(vs, dtype=float)
    rs = np.asarray(rs, dtype=float)
    return np.concatenate([x0, x0 + rs[..., np.newaxis] * vs], axis=1)


def _over_radii(values, rs):
    """values / prod_i r_i, and 0 where the product of radii is 0.  Any
    other non-finite value is kept, for the estimator to report."""
    radii = row_product(np.asarray(rs, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = values / radii
    out[radii == 0.0] = 0.0
    return out


class Multifunction:
    """Base class: a measurable function of (degree+1) points in R^n."""

    def __init__(self, dimension, degree):
        self.dimension = check_integer(dimension, "multifunction dimension")
        self.degree = check_integer(degree, "multifunction degree")
        if self.degree < 0:
            raise ArgumentError("multifunction degree must be >= 0")

    @property
    def arity(self):
        return self.degree + 1

    def evaluate(self, points) -> float:
        points = np.asarray(points, dtype=float)
        if points.shape != (self.arity, self.dimension):
            raise ArgumentError(
                f"expected {self.arity} points of dimension {self.dimension}"
            )
        return float(self.evaluate_batch(points[np.newaxis])[0])

    __call__ = evaluate

    def evaluate_batch(self, tuples):
        raise NotImplementedError

    def evaluate_scaled_batch(self, x0, vs, rs):
        """F(x0, x0 + r_1 v_1, ...) / prod_i r_i for each row.

        The generic implementation forms the quotient directly; subclasses
        with analytic structure override it with a stable version.
        """
        return _over_radii(self.evaluate_batch(_scaled_tuples(x0, vs, rs)), rs)

    def __add__(self, other):
        if not isinstance(other, Multifunction):
            return NotImplemented
        return _Combination([(1.0, self), (1.0, other)])

    def __sub__(self, other):
        if not isinstance(other, Multifunction):
            return NotImplemented
        return _Combination([(1.0, self), (-1.0, other)])

    def __mul__(self, scalar):
        return _Combination([(float(scalar), self)])

    __rmul__ = __mul__


class UserMultifunction(Multifunction):
    """Wraps a caller-supplied evaluator; batch form optional."""

    def __init__(self, dimension, degree, func, batch_func=None):
        super().__init__(dimension, degree)
        self._func = func
        self._batch = batch_func

    def evaluate_batch(self, tuples):
        tuples = np.asarray(tuples, dtype=float)
        if self._batch is not None:
            return np.asarray(self._batch(tuples), dtype=float)
        return np.array([float(self._func(t)) for t in tuples])


class _Combination(Multifunction):
    """A finite linear combination of multifunctions of equal shape."""

    def __init__(self, parts):
        terms = []
        for a, f in parts:
            if isinstance(f, _Combination):
                terms.extend((a * b, g) for b, g in f.terms)
            else:
                terms.append((a, f))
        base = terms[0][1]
        for _, f in terms:
            if f.dimension != base.dimension or f.degree != base.degree:
                raise ArgumentError("combined multifunctions must match in shape")
        super().__init__(base.dimension, base.degree)
        self.terms = terms

    def evaluate_batch(self, tuples):
        tuples = np.asarray(tuples, dtype=float)
        out = np.zeros(len(tuples))
        for a, f in self.terms:
            out += a * f.evaluate_batch(tuples)
        return out

    def evaluate_scaled_batch(self, x0, vs, rs):
        out = np.zeros(len(np.asarray(x0)))
        for a, f in self.terms:
            out += a * f.evaluate_scaled_batch(x0, vs, rs)
        return out


class IntegrationMultifunction(Multifunction):
    """I_omega: the tuple is read as a simplex and omega integrated over it.

    For degree 0 this is evaluation: I_f(x) = f(x).
    """

    def __init__(self, omega: FormField, rule=None):
        super().__init__(omega.dimension, omega.degree)
        self.omega = omega
        self.rule = rule or _form_rule(omega)
        if self.rule.order != omega.degree:
            raise ArgumentError("rule order must equal the form degree")

    def evaluate_batch(self, tuples):
        tuples = np.asarray(tuples, dtype=float)
        return edge_integrals(self.omega, self.rule, tuples[:, 0, :],
                              tuples[:, 1:, :] - tuples[:, :1, :])

    def evaluate_batch_with_mass(self, tuples):
        """(integral, quadrature mass) per tuple, the mass being
        sum_q |w_q| |integrand_q|.  The mass dominates |integral| and, unlike
        it, cannot cancel to zero, so it is the right scale for deciding
        whether a small alternating sum is signal or rule noise."""
        tuples = np.asarray(tuples, dtype=float)
        return edge_integrals(self.omega, self.rule, tuples[:, 0, :],
                              tuples[:, 1:, :] - tuples[:, :1, :],
                              with_mass=True)

    def evaluate_scaled_batch(self, x0, vs, rs):
        """I_omega / prod r_i with the radii cancelled inside the pullback:
        the determinant uses the unit directions, positions use r_i v_i.
        Finite for every r_i >= 0, including 0.  A constant form needs only
        the determinants, so r_i v_i is built only for one that reads x."""
        vs = np.asarray(vs, dtype=float)
        rs = np.asarray(rs, dtype=float)[..., np.newaxis]
        return edge_integrals(self.omega, self.rule, np.asarray(x0, dtype=float),
                              rs * vs if self.omega._reads else vs, unit_vectors=vs)


class DifferentialMultifunction(Multifunction):
    """The Alexander-Spanier differential of an arbitrary multifunction.

    All faces of a batch go to the base in one evaluate_batch call, so a
    nested d(dF) reaches its leaves in one call as well.
    """

    def __init__(self, base: Multifunction):
        super().__init__(base.dimension, base.degree + 1)
        self.base = base

    def evaluate_batch(self, tuples):
        faces = _faces(np.asarray(tuples, dtype=float))
        m, N = faces.shape[:2]
        vals = self.base.evaluate_batch(faces.reshape((m * N,) + faces.shape[2:]))
        return _alternating_sum(vals.reshape(m, N))


class CoboundaryMultifunction(DifferentialMultifunction):
    """dI_omega, of degree k+1 for a k-form omega: the differential of
    IntegrationMultifunction(omega, face_rule) with a scaled-evaluation
    policy.

    Two scaled routes.  When omega carries a derivative and is not
    truncated by a support domain, dI_omega = I_{d omega} identically, so
    the scaled evaluation reuses the integration route on d omega, under
    its simplex._form_rule (exact up to rounding for a polynomial omega).
    Otherwise the alternating face sum is formed explicitly; a snap guard
    floors sums below the rule resolution, measured against the quadrature
    mass of the faces, to zero.  Scaled face sums divide by prod(r_i), so
    rule noise that survived the guard would be amplified without bound as
    radii shrink; the mass scale (which never cancels) together with the
    stratified segment rule's hard error bound keeps noise below the guard
    while genuine jumps, whose face sums are a fixed fraction of the mass,
    pass through.

    The face route cannot see a smooth d omega.  It serves a form without
    partials (any from_callables(..., smooth=False)) and a form with a
    support.  Under the stratified rule the guard zeroes every face sum
    below 64/nodes = 1/16 of the face mass, and a smooth d omega gives sums
    of order r^2 against a mass of order r, so at small radii such a form
    reads as closed: x1 dx2 as a callable on the unit square (20,000
    samples, seed 4) gives power 0.0731 at theta 0.9 and 0.00079 at 0.99,
    where the Stokes route gives 0.8411 and 1.1800.

    Each face is integrated by simplex.edge_integrals, which screens it at
    every 16th stratified node and the last.  A face whose screen values
    agree integrates in closed form, its value times sum(W) (exactly the
    value under the default rule, within rounding of summing every node).
    On a face that crosses a jump only the stretches between two screen
    nodes whose values differ are evaluated, and the face keeps the bits of
    evaluating every node, unless a jump pair closer together than the
    screen spacing hides between two screen nodes with equal values.
    """

    def __init__(self, omega: FormField, face_rule=None):
        super().__init__(IntegrationMultifunction(omega, face_rule))
        self.omega = omega
        self.face_rule = self.base.rule
        self.stokes_route = omega.has_derivative() and omega.support is None
        if self.stokes_route:
            self._volume = IntegrationMultifunction(omega.exterior_derivative())
        else:
            self._volume = None
        nodes = len(self.face_rule.weights)
        if omega.degree == 0:
            # faces are point evaluations: only rounding error
            self.snap_tol = 1e-13
        elif self.face_rule.kind == "stratified":
            # jump error <= (few jumps) * sup|f| / nodes, surely
            self.snap_tol = 64.0 / nodes
        elif self.face_rule.kind == "monte-carlo":
            self.snap_tol = 12.0 / math.sqrt(nodes)
        else:
            self.snap_tol = 1e-10

    def evaluate_scaled_batch(self, x0, vs, rs):
        if self.stokes_route:
            return self._volume.evaluate_scaled_batch(x0, vs, rs)
        faces = _faces(_scaled_tuples(x0, vs, rs))
        vals = np.empty(faces.shape[:2])
        mass = np.zeros(faces.shape[1])
        # one call per face: each face already holds N * Q quadrature nodes
        for i, face in enumerate(faces):
            vals[i], face_mass = self.base.evaluate_batch_with_mass(face)
            mass += face_mass
        total = _alternating_sum(vals)
        total = np.where(np.abs(total) < self.snap_tol * mass, 0.0, total)
        return _over_radii(total, rs)


class StokesResult(float):
    """The residual |dI_omega - I_{d omega}| at one tuple.

    containment is True/False when the hull test decided whether the
    simplex stays where omega is untruncated, None when no test applies.
    """

    def __new__(cls, residual, lhs, rhs, containment):
        obj = super().__new__(cls, residual)
        obj.residual = float(residual)
        obj.lhs = float(lhs)
        obj.rhs = float(rhs)
        obj.containment = containment
        return obj

    def __repr__(self):
        return (
            f"StokesResult(residual={self.residual!r}, lhs={self.lhs!r}, "
            f"rhs={self.rhs!r}, containment={self.containment!r})"
        )


def stokes_residual(omega, points, rule=None):
    """|dI_omega(points) - I_{d omega}(points)| for a derivative-carrying form.

    Zero at quadrature precision when the simplex hull avoids any support
    truncation; generically nonzero when the hull straddles the support
    boundary, which the containment field reports when decidable.
    """
    if not omega.has_derivative():
        raise ArgumentError("stokes_residual needs a form with a derivative")
    points = np.asarray(points, dtype=float)
    k = omega.degree
    if points.shape != (k + 2, omega.dimension):
        raise ArgumentError(f"need {k + 2} points of dimension {omega.dimension}")
    lhs = DifferentialMultifunction(IntegrationMultifunction(omega, rule))(points)
    rhs = integrate_form(omega.exterior_derivative(), points)
    if omega.support is None:
        containment = True
    elif omega.support.is_convex:
        containment = bool(np.all(omega.support.contains_batch(points)))
    else:
        flags = omega.support.hull_check_batch(points[np.newaxis])
        containment = None if flags is None else bool(flags[0])
    return StokesResult(abs(lhs - rhs), lhs, rhs, containment)
