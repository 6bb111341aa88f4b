"""A ``Poly`` stores its coefficients as canonical ``(a, b, d)`` triples.

Every producer of polynomials checked here -- the parser, ``+``, ``-``,
``*``, ``**``, ``shift``, ``restrict``, ``laurent_substitute``, the
numerators of ``weighted_blowup``, ``directional_derivative`` and the basis
of ``formal_first_integral`` -- returns a ``Poly`` whose term dict holds
nonzero canonical triples and whose ``GaussianRational`` view ``terms`` is
not built until it is read.  Once read, the view is read-only, lists its
keys in the term dict's order, holds each triple's value, and rebuilds an
equal polynomial through the public constructor; pickling and deep copies
still work.
"""

from __future__ import annotations

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliations.algebra import GaussianRational, Poly, gr
from foliations.blowup import POINT, BlowupSpec, curve_center, weighted_blowup
from foliations.corpus import sancho_sanz_field, two_integrals_field
from foliations.expressions import parse_expression
from foliations.fields import Chart, VectorField, directional_derivative
from foliations.integrals import formal_first_integral

V2 = ("x", "y")
V3 = ("x", "y", "z")


def check_stored(p: Poly) -> None:
    """The storage contract of one freshly produced polynomial."""
    assert "terms" not in vars(p)
    for a, b, d in p._abd.values():
        assert d > 0 and (a or b) and math.gcd(a, b, d) == 1
    view = p.terms
    assert "terms" in vars(p) and p.terms is view
    assert list(view) == list(p._abd)
    assert all(c._abd == p._abd[e] for e, c in view.items())
    assert Poly(p.vars, view) == p
    assert pickle.loads(pickle.dumps(p)) == p and copy.deepcopy(p) == p
    with pytest.raises(TypeError):
        view[(0,) * len(p.vars)] = gr(1)


small = st.integers(-6, 6)
gaussians = st.builds(lambda a, b, d: GaussianRational(Fraction(a, d), Fraction(b, d)),
                      small, small, st.integers(1, 6))
nonzero = gaussians.filter(bool)


def term_dicts(n: int, values=gaussians):
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), values, max_size=6)


def polys(n: int):
    return term_dicts(n, nonzero).map(lambda t: Poly(V3[:n], t))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), term_dicts(n))))
def test_public_constructor_round_trip(case):
    n, terms = case
    p = Poly(V3[:n], terms)
    assert "terms" not in vars(p)
    assert list(p.terms.items()) == list(terms.items())
    assert list(p._abd) == list(terms)
    assert Poly(p.vars, p.terms) == p
    made = Poly.make(p.vars, terms)
    assert list(made.terms.items()) == [(e, c) for e, c in terms.items() if c]


@settings(max_examples=120, deadline=None)
@given(polys(2), polys(2), st.integers(0, 3), gaussians, gaussians)
def test_ring_and_reshaping_results_store_triples(p, q, k, a, b):
    for r in (p + q, p - q, -p, p * q, p ** k, p.scale(a), p.partial("y"),
              p.shift({"x": a, "y": b}), p.shift({}), p.restrict("x", a),
              p.restrict("y", 0), p.times_monomial((1, 2)), p.jet_truncate(2),
              p.homogeneous_component(2)):
        check_stored(r)


@settings(max_examples=80, deadline=None)
@given(polys(3), nonzero, st.tuples(*[st.integers(-2, 2)] * 3))
def test_laurent_substitute_numerator_stores_triples(p, c, exps):
    f = p.laurent_substitute({"y": (c, exps), "z": (1, (1, 0, 1))})
    check_stored(f.numerator)


def test_parsed_components_store_triples():
    check_stored(parse_expression("(1+2i)*x^2*y - 3/4i*y^3 + x*(x - 1/2)^3", V2))
    check_stored(parse_expression("0", V2))


@pytest.mark.parametrize("center, weights, index", [
    (POINT, None, 0), (POINT, (2, 1, 1), 1), (curve_center("x"), (1, 3), 1)])
def test_blowup_numerators_store_triples(center, weights, index):
    result = weighted_blowup(sancho_sanz_field(2, 1), BlowupSpec(center, weights, index))
    # the raw field and the representative share a numerator where they can
    shared = {id(p): p for p in (*result.representative.polys(),
                                 *(f.numerator for f in result.field.components))}
    for p in shared.values():
        check_stored(p)


def test_directional_derivative_and_jet_basis_store_triples():
    x = two_integrals_field()
    for f in formal_first_integral(x, 4).basis:
        check_stored(f)
    g = Poly.make(V3, {(2, 1, 0): gr("1/3", 1), (0, 1, 3): gr(-2), (1, 0, 0): gr(0, "5/2")})
    check_stored(directional_derivative(x, g))
    field = VectorField.make(Chart.root(V2), [Poly.make(V2, {(0, 1): gr("1/2")}),
                                              Poly.make(V2, {(3, 0): gr(1, 1)})])
    check_stored(directional_derivative(field, Poly.make(V2, {(2, 2): gr(3)}), 3))
