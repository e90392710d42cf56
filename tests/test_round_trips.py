"""JSON round trips of domains, forms and experiment specs, as properties.

A document that to_json writes and the matching from_json reads back must
rebuild the same object: the same document again, and for a domain the
same membership and boundary-distance bits.  Replacing any one numeric
parameter of a valid document with NaN or an infinity must be refused as an
ArgumentError, never accepted into a domain, form or spec that then
measures nonsense.  The integers that give a form its shape (n, k, index
entries and powers) must be integers: a fraction, a NaN, an infinity or a
bool there is refused as an ArgumentError that names the field, never
truncated, while an integral float such as 2.0 reads as its integer.  So
are the integer arguments of the library's other entry points: a
covector's shape, a mollifier's dimension and node count, lp_norm's
samples and seed, and the orders, degrees, sample counts and seeds of the
simplex rules.
"""

import copy
import json
import math
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from formflux.domains import (
    Annulus,
    AxisBox,
    Ball,
    ConvexPolytope,
    SetDifference,
    domain_from_json,
)
from formflux.errors import ArgumentError
from formflux.experiments import ExperimentSpec
from formflux.exterior import Covector
from formflux.forms import (
    FormField,
    Mollifier,
    Polynomial,
    form_from_json,
    form_to_json,
    lp_norm,
)
from formflux.simplex import (
    grundmann_moller_rule,
    monte_carlo_rule,
    stratified_segment_rule,
)
from formflux.seminorms import VARIANTS, SeminormConfig

PROPERTY = settings(max_examples=60, deadline=5000)

coordinate = st.floats(-2.0, 2.0, allow_nan=False, width=64)
length = st.floats(0.125, 3.0, allow_nan=False, width=64)
fraction = st.floats(0.1, 0.9, allow_nan=False, width=64)
dimension = st.sampled_from([2, 3])


def vectors(n, elements=coordinate):
    return st.lists(elements, min_size=n, max_size=n)


@st.composite
def balls(draw, n=None):
    n = n or draw(dimension)
    return Ball(draw(vectors(n)), draw(length))


@st.composite
def boxes(draw, n=None):
    n = n or draw(dimension)
    lo = draw(vectors(n))
    return AxisBox(lo, [a + w for a, w in zip(lo, draw(vectors(n, length)))])


@st.composite
def annuli(draw, n=None):
    n = n or draw(dimension)
    r_in = draw(length)
    return Annulus(draw(vectors(n)), r_in, r_in + draw(length))


@st.composite
def polytopes(draw, n=None):
    """The box [-1, 1]^n cut by up to two halfspaces that keep the ball of
    radius 0.2 about the origin."""
    n = n or draw(dimension)
    normals = [row for j in range(n) for row in (np.eye(n)[j], -np.eye(n)[j])]
    offsets = [1.0] * (2 * n)
    for _ in range(draw(st.integers(0, 2))):
        a = np.array(draw(vectors(n, st.floats(-1.0, 1.0, allow_nan=False))))
        if np.linalg.norm(a) < 0.1:
            continue
        normals.append(a)
        offsets.append(draw(st.floats(0.2, 2.0)) * float(np.linalg.norm(a)))
    return ConvexPolytope(np.array(normals), offsets)


@st.composite
def box_minus_ball(draw, n=None):
    box = draw(boxes(n))
    center = [a + t * (b - a) for a, b, t in
              zip(box.lo, box.hi, draw(vectors(box.dimension, fraction)))]
    margin = float(box.dist_to_boundary(np.array(center)))
    return SetDifference(box, Ball(center, draw(fraction) * margin))


def domains(n=None):
    return st.one_of(balls(n), boxes(n), annuli(n), polytopes(n), box_minus_ball(n))


@st.composite
def polynomial_forms(draw):
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, n))
    every = list(combinations(range(1, n + 1), k))
    indices = draw(st.lists(st.sampled_from(every), min_size=1, max_size=len(every),
                            unique=True))
    powers = st.tuples(*[st.integers(0, 3)] * n)
    coeff = st.floats(allow_nan=False, allow_infinity=False, width=64).filter(bool)
    comps = {idx: Polynomial(n, draw(st.dictionaries(powers, coeff, max_size=4)))
             for idx in indices}
    support = draw(st.none() | domains(n)) if n > 1 else None
    return FormField.from_polynomials(n, k, comps, support=support)


@st.composite
def specs(draw):
    n = 2
    form = FormField.from_polynomials(
        n, 1, {(2,): {(1, 0): draw(st.floats(-4.0, 4.0).filter(bool))}})
    variant = draw(st.sampled_from(VARIANTS))
    config = SeminormConfig(
        p=draw(st.floats(1.0, 6.0)),
        variant=variant,
        samples=draw(st.integers(2, 10**6)),
        seed=draw(st.integers(0, 2**32)),
        R=draw(length) if "ball" in variant else None,
        c=draw(length) if "cone" in variant else None,
    )
    thetas = draw(st.lists(st.floats(0.5, 0.999), min_size=3, max_size=5,
                           unique=True))
    kind = draw(st.sampled_from(["closed-form", "oracle", "qualitative"]))
    value = draw(st.floats(-10.0, 10.0)) if kind == "closed-form" else None
    return ExperimentSpec(
        name=draw(st.text(min_size=1, max_size=12)), form=form,
        domain=draw(domains(n)), config=config, thetas=tuple(sorted(thetas)),
        expected_kind=kind, expected_value=value,
        tolerance=draw(st.floats(1e-6, 1.0)),
    )


def through_text(doc):
    return json.loads(json.dumps(doc))


def numeric_leaves(doc, path=()):
    """The paths to every number in a JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from numeric_leaves(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from numeric_leaves(value, path + (i,))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield path


def with_one_number(data, doc):
    """A copy of doc with one of its numeric parameters, drawn by data,
    made NaN or infinite."""
    paths = list(numeric_leaves(doc))
    assume(paths)
    path = data.draw(st.sampled_from(paths), label="path")
    bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]), label="value")
    return replaced(doc, path, lambda _: bad)


def replaced(doc, path, value):
    """A copy of doc with the leaf at path replaced by value(leaf)."""
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value(node[path[-1]])
    return out


@PROPERTY
@given(domains(), st.integers(0, 2**32))
def test_domain_round_trip_keeps_the_document_and_the_bits(domain, seed):
    back = domain_from_json(through_text(domain.to_json()))
    assert type(back) is type(domain)
    assert back.to_json() == domain.to_json()
    lo, hi = domain.bounding_box()
    pad = 0.1 * (hi - lo)
    rng = np.random.default_rng(seed)
    pts = (lo - pad) + (hi - lo + 2 * pad) * rng.random((64, domain.dimension))
    assert np.array_equal(back.contains_batch(pts), domain.contains_batch(pts))
    assert np.array_equal(back.dist_to_boundary_batch(pts),
                          domain.dist_to_boundary_batch(pts))


@PROPERTY
@given(polynomial_forms())
def test_form_round_trip_keeps_every_term(omega):
    back = form_from_json(through_text(form_to_json(omega)))
    assert (back.dimension, back.degree, back.indices) == (
        omega.dimension, omega.degree, omega.indices)
    for idx in omega.indices:
        assert back.components[idx].terms == omega.components[idx].terms
    assert form_to_json(back) == form_to_json(omega)


@PROPERTY
@given(specs())
def test_spec_round_trip_keeps_the_spec(spec):
    back = ExperimentSpec.from_json(through_text(spec.to_json()))
    assert back.to_json() == spec.to_json()
    assert (back.name, back.config, back.thetas, back.expected_kind,
            back.expected_value, back.tolerance) == (
        spec.name, spec.config, spec.thetas, spec.expected_kind,
        spec.expected_value, spec.tolerance)


@PROPERTY
@given(domains(), st.data())
def test_a_non_finite_domain_parameter_is_refused(domain, data):
    doc = with_one_number(data, domain.to_json())
    try:
        domain_from_json(doc)
    except ArgumentError:
        return
    raise AssertionError(f"accepted {doc}")


@PROPERTY
@given(polynomial_forms(), st.data())
def test_a_non_finite_form_number_is_refused(omega, data):
    doc = with_one_number(data, form_to_json(omega))
    try:
        form_from_json(doc)
    except ArgumentError:
        return
    raise AssertionError(f"accepted {doc}")


def shape_leaves(doc):
    """The paths to the integers that shape a form document, each with the
    field name its refusal gives."""
    yield ("n",), "n"
    yield ("k",), "k"
    for i, term in enumerate(doc["terms"]):
        for j, _ in enumerate(term["index"]):
            yield ("terms", i, "index", j), "index entry"
        for m, mono in enumerate(term["monomials"]):
            for j, _ in enumerate(mono["powers"]):
                yield ("terms", i, "monomials", m, "powers", j), "powers entry"


@PROPERTY
@given(polynomial_forms(), st.data())
def test_a_non_integral_form_shape_is_refused_by_name(omega, data):
    doc = form_to_json(omega)
    path, name = data.draw(st.sampled_from(list(shape_leaves(doc))), label="path")
    bad = data.draw(st.sampled_from([
        lambda e: e + 0.5, lambda e: e - 1e-9, lambda e: math.nan,
        lambda e: math.inf, lambda e: -math.inf, lambda e: bool(e % 2),
    ]), label="value")
    doc = replaced(doc, path, bad)
    try:
        form_from_json(doc)
    except ArgumentError as exc:
        assert re.match(f"{name} must be an integer", str(exc)), exc
        return
    raise AssertionError(f"accepted {doc}")


@PROPERTY
@given(polynomial_forms())
def test_an_integral_float_reads_as_its_integer(omega):
    doc = form_to_json(omega)
    for path, _ in shape_leaves(form_to_json(omega)):
        doc = replaced(doc, path, float)
    assert form_to_json(form_from_json(doc)) == form_to_json(omega)


@PROPERTY
@given(specs(), st.data())
def test_a_non_finite_spec_number_is_refused(spec, data):
    doc = with_one_number(data, spec.to_json())
    try:
        ExperimentSpec.from_json(doc)
    except ArgumentError:
        return
    raise AssertionError(f"accepted {doc}")


_SQUARE = AxisBox(np.zeros(2), np.ones(2))
_X1 = FormField.from_polynomials(2, 0, {(): {(1, 0): 1.0}})

# each integer argument of an entry point: the name its refusal gives, an
# integer it accepts, and the call with that argument replaced
INTEGER_ARGUMENTS = {
    "covector dimension": ("dimension", 2, lambda v: Covector(v, 1, {(1,): 1.0})),
    "covector degree": ("degree", 1, lambda v: Covector(2, v, {(2,): 1.0})),
    "mollifier dimension": ("mollifier dimension", 2,
                            lambda v: Mollifier(v, 0.05)),
    "mollifier nodes": ("mollifier nodes", 48,
                        lambda v: Mollifier(2, 0.05, nodes=v)),
    "lp_norm samples": ("samples", 100,
                        lambda v: lp_norm(_X1, _SQUARE, 2.0, samples=v)),
    "lp_norm seed": ("seed", 3, lambda v: lp_norm(_X1, _SQUARE, 2.0, 100, seed=v)),
    "stratified samples": ("samples", 64, lambda v: stratified_segment_rule(v)),
    "stratified seed": ("seed", 3, lambda v: stratified_segment_rule(64, seed=v)),
    "monte-carlo order": ("simplex order", 2, lambda v: monte_carlo_rule(v, 64)),
    "monte-carlo samples": ("samples", 64, lambda v: monte_carlo_rule(2, v)),
    "monte-carlo seed": ("seed", 3, lambda v: monte_carlo_rule(2, 64, seed=v)),
    "grundmann-moller order": ("simplex order", 2,
                               lambda v: grundmann_moller_rule(v)),
    "grundmann-moller degree": ("grundmann-moller degree", 5,
                                lambda v: grundmann_moller_rule(2, v)),
}


@pytest.mark.parametrize("bad", [2.5, 2.0 + 1e-9, math.nan, math.inf, True,
                                 "3"])
@pytest.mark.parametrize("argument", list(INTEGER_ARGUMENTS))
def test_a_non_integral_argument_is_refused_by_name(argument, bad):
    name, _, call = INTEGER_ARGUMENTS[argument]
    with pytest.raises(ArgumentError, match=f"^{name} must be an integer"):
        call(bad)


def _held(obj):
    """What an entry point's result holds, as comparable plain values."""
    if isinstance(obj, Covector):
        return obj.dimension, obj.degree, obj.coeffs
    if isinstance(obj, Mollifier):
        return obj.dimension, obj.nodes, obj.convolution_rule()[1].tobytes()
    if hasattr(obj, "power_value"):
        return obj.value, obj.stderr, obj.samples, obj.config
    return obj.kind, obj.order, obj.points.tobytes(), obj.weights.tobytes()


@pytest.mark.parametrize("argument", list(INTEGER_ARGUMENTS))
def test_an_integral_float_argument_reads_as_its_integer(argument):
    _, value, call = INTEGER_ARGUMENTS[argument]
    want = _held(call(value))
    assert _held(call(float(value))) == want
    assert _held(call(np.int64(value))) == want
