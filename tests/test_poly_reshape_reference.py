"""``Poly``'s reshaping operations against a reference.

The references below are ``shift``, ``restrict``, ``partial``, ``scale``,
negation, subtraction and ``laurent_substitute`` written term by term on
:class:`~foliations.algebra.GaussianRational` coefficients: each product is
summed into one dict in term order, a key whose sum is zero is deleted, and
``laurent_substitute`` skips a term whose image coefficient is zero.  They
are copied here so that the references do not move with the library.

The toolkit must agree with them term for term and in dict order, on random
polynomials in one to three variables with Q(i) coefficients, non-trivial
denominators and terms that cancel: a factor ``(x - a)`` makes every term of
``restrict(x, a)`` cancel and thins out ``shift({x: -a})``, and for
``laurent_substitute`` pairs of terms are drawn whose images cancel.
``laurent_substitute`` is also compared on ``monomial_exponents``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foliations.algebra import GR_ONE, GR_ZERO, ChartFunction, GaussianRational, Poly, _raw
from foliations.errors import StructuralError

# ---------------------------------------------------------------------------
# Reference operations
# ---------------------------------------------------------------------------


def _add_into(out: dict, key, c: GaussianRational) -> None:
    s = out.get(key, GR_ZERO) + c
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


def reference_neg(p: Poly) -> Poly:
    return Poly(p.vars, {e: -c for e, c in p.terms.items()})


def reference_sub(p: Poly, q: Poly) -> Poly:
    out = dict(p.terms)
    for e, c in q.terms.items():
        _add_into(out, e, -c)
    return Poly(p.vars, out)


def reference_scale(p: Poly, c) -> Poly:
    c = GaussianRational.of(c)
    if c.is_zero():
        return Poly.zero(p.vars)
    return Poly(p.vars, {e: k * c for e, k in p.terms.items()})


def reference_partial(p: Poly, var: str) -> Poly:
    i = p.var_index(var)
    out: dict = {}
    for e, c in p.terms.items():
        if e[i] == 0:
            continue
        ne = list(e)
        ne[i] -= 1
        out[tuple(ne)] = c * _raw(e[i], 0, 1)
    return Poly(p.vars, out)


def reference_restrict(p: Poly, var: str, value=0) -> Poly:
    i = p.var_index(var)
    if not value:
        return Poly(p.vars, {e: c for e, c in p.terms.items() if not e[i]})
    value = GaussianRational.of(value)
    out: dict = {}
    for e, c in p.terms.items():
        coeff = c * value ** e[i] if e[i] else c
        if coeff.is_zero():
            continue
        ne = list(e)
        ne[i] = 0
        _add_into(out, tuple(ne), coeff)
    return Poly(p.vars, out)


def reference_shift(p: Poly, offsets) -> Poly:
    for name, a in offsets.items():
        a = GaussianRational.of(a)
        if a.is_zero():
            continue
        i = p.var_index(name)
        rows: dict = {}
        out: dict = {}
        for e, c in p.terms.items():
            k = e[i]
            if k not in rows:
                rows[k] = [a ** (k - j) * _raw(math.comb(k, j), 0, 1)
                           for j in range(k, -1, -1)]
            ne = list(e)
            for j, b in zip(range(k, -1, -1), rows[k]):
                ne[i] = j
                _add_into(out, tuple(ne), c * b)
        p = Poly(p.vars, out)
    return p


def reference_laurent_substitute(p: Poly, assignment) -> ChartFunction:
    n = len(p.vars)
    images = []
    for j, name in enumerate(p.vars):
        if name in assignment:
            c, exps = assignment[name]
            exps = tuple(exps)
            if len(exps) != n:
                raise StructuralError("monomial exponent vector has wrong length")
            images.append((GaussianRational.of(c), exps))
        else:
            e = [0] * n
            e[j] = 1
            images.append((GR_ONE, tuple(e)))
    for name in assignment:
        if name not in p.vars:
            raise StructuralError(f"unknown variable {name!r} for {p.vars}")
    out: dict = {}
    min_exps = [0] * n
    for e, c in p.terms.items():
        coeff = c
        exps = [0] * n
        for j, k in enumerate(e):
            if k == 0:
                continue
            cj, ej = images[j]
            coeff = coeff * cj ** k
            for t in range(n):
                exps[t] += ej[t] * k
        if coeff.is_zero():
            continue
        key = tuple(exps)
        for t in range(n):
            min_exps[t] = min(min_exps[t], exps[t])
        _add_into(out, key, coeff)
    shift = tuple(min(0, m) for m in min_exps)
    num = Poly(p.vars, {tuple(x - s for x, s in zip(e, shift)): c for e, c in out.items()})
    return ChartFunction.make(num, shift)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_VARS = st.sampled_from([("x",), ("x", "y"), ("x", "y", "z"), ("u", "v_1")])

_COEFFICIENTS = [
    GaussianRational.of(c) for c in (1, 1, -1, -1, 2, -3, "1/2", "-1/3", "3/4", "10/7")] + [
    GaussianRational(0, 1), GaussianRational(1, -1), GaussianRational(Fraction(1, 6), 2),
    GaussianRational(Fraction(-5, 4), Fraction(7, 10 ** 20 + 39))]
_coefficients = st.sampled_from(_COEFFICIENTS)

_values = st.one_of(_coefficients, st.sampled_from([GR_ZERO, 0, "0", 2, "-1/2"]))


@st.composite
def _polys(draw, vars, max_exp=3):
    exps = st.tuples(*[st.integers(0, max_exp)] * len(vars))
    return Poly(vars, dict(draw(st.lists(st.tuples(exps, _coefficients), max_size=7))))


@st.composite
def _poly_and_point(draw):
    """``(p, var, value)``; ``p`` is often a multiple of ``(var - value)``."""
    vars = draw(_VARS)
    p = draw(_polys(vars))
    var = draw(st.sampled_from(vars))
    value = draw(_values)
    if draw(st.booleans()):
        factor = Poly.variable(vars, var) - Poly.constant(vars, value)
        p = p * factor
    return p, var, value


@st.composite
def _shifts(draw):
    """``(p, offsets)``; the first offset is often ``-a`` for a factor
    ``(x - a)`` of ``p``, and further variables may be shifted too."""
    p, var, value = draw(_poly_and_point())
    offsets = {var: -GaussianRational.of(value)}
    for name in draw(st.lists(st.sampled_from(p.vars), unique=True)):
        offsets.setdefault(name, draw(_values))
    return p, offsets


@st.composite
def _poly_pairs(draw):
    """``(p, q)``; ``q`` often repeats some of ``p``'s terms, so that
    ``p - q`` cancels them."""
    vars = draw(_VARS)
    p = draw(_polys(vars))
    q = draw(_polys(vars))
    if p.terms and draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(list(p.terms)), unique=True))
        q = Poly(vars, {**{e: p.terms[e] for e in keys}, **q.terms})
    return p, q


_image_coefficients = st.sampled_from(_COEFFICIENTS + [GR_ZERO])


def _image(images, e):
    """Coefficient and exponents of the monomial ``e`` after substitution."""
    n = len(e)
    coeff, exps = GR_ONE, [0] * n
    for (cj, ej), k in zip(images, e):
        coeff = coeff * cj ** k
        for t in range(n):
            exps[t] += ej[t] * k
    return coeff, tuple(exps)


@st.composite
def _substitutions(draw):
    """``(p, assignment)`` with exponents in -1..2 and image coefficients that
    may be zero; pairs of terms whose images cancel are often added."""
    vars = draw(_VARS)
    n = len(vars)
    assignment = {}
    units = [tuple(int(t == j) for t in range(n)) for j in range(n)]
    for name in draw(st.lists(st.sampled_from(vars), unique=True, min_size=1)):
        # a unit vector sends one variable to another, so images collide
        exps = draw(st.one_of(st.tuples(*[st.integers(-1, 2)] * n), st.sampled_from(units)))
        assignment[name] = (draw(_image_coefficients), exps)
    p = draw(_polys(vars, max_exp=2))
    images = [assignment.get(name, (GR_ONE, units[j])) for j, name in enumerate(vars)]
    images = [(GaussianRational.of(c), tuple(e)) for c, e in images]
    by_image: dict = {}
    for e in itertools.product(range(3), repeat=n):
        coeff, exps = _image(images, e)
        if not coeff.is_zero():
            by_image.setdefault(exps, []).append((e, coeff))
    colliding = [group for group in by_image.values() if len(group) > 1]
    terms = dict(p.terms)
    for _ in range(draw(st.integers(1, 2)) if colliding else 0):
        group = draw(st.sampled_from(colliding))
        (e1, k1), (e2, k2) = draw(st.lists(st.sampled_from(group),
                                           min_size=2, max_size=2, unique=True))
        for e, _ in group:  # so that the pair's images cancel to zero
            terms.pop(e, None)
        c1 = draw(_coefficients)
        terms[e1] = c1
        terms[e2] = -(c1 * k1) / k2
    return Poly(vars, terms), assignment


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


def _same(r: Poly, expected: Poly) -> None:
    assert r.vars == expected.vars
    assert list(r.terms.items()) == list(expected.terms.items())


V3 = ("x", "y", "z")
X, Y, Z = (Poly.variable(V3, v) for v in V3)


@settings(max_examples=300, deadline=None)
@given(_poly_and_point())
@example((Poly.zero(V3), "y", 1))
@example((Poly.zero(("x",)), "x", GaussianRational(0, 1)))
@example(((X - Poly.constant(V3, 2)) * (Y + Z), "x", 2))
def test_restrict_matches_reference(case):
    p, var, value = case
    _same(p.restrict(var, value), reference_restrict(p, var, value))


@settings(max_examples=300, deadline=None)
@given(_shifts())
@example((Poly.zero(V3), {"x": 1}))
@example(((X - Poly.constant(V3, "1/2")) ** 3 * Y, {"x": "1/2", "y": 0, "z": -1}))
def test_shift_matches_reference(case):
    p, offsets = case
    _same(p.shift(offsets), reference_shift(p, offsets))


@settings(max_examples=300, deadline=None)
@given(_poly_and_point())
def test_partial_scale_and_negation_match_reference(case):
    p, var, value = case
    _same(p.partial(var), reference_partial(p, var))
    _same(p.scale(value), reference_scale(p, value))
    _same(-p, reference_neg(p))


@settings(max_examples=300, deadline=None)
@given(_poly_pairs())
@example((X + Y, X + Y))
@example((X.scale("1/2") - Y, X.scale("1/2") + Z))
def test_subtraction_matches_reference(pair):
    p, q = pair
    _same(p - q, reference_sub(p, q))
    _same(q - p, reference_sub(q, p))


@settings(max_examples=300, deadline=None)
@given(_substitutions())
@example((X * Y + Z, {"x": (0, (1, 0, 0))}))
@example((X + Y, {"x": (-1, (0, 1, 0))}))
@example((X ** 2 - Y + Poly.constant(V3, 1), {"y": (1, (2, 0, -1)), "z": (3, (0, 0, 1))}))
def test_laurent_substitute_matches_reference(case):
    p, assignment = case
    r = p.laurent_substitute(assignment)
    expected = reference_laurent_substitute(p, assignment)
    _same(r.numerator, expected.numerator)
    assert r.monomial_exponents == expected.monomial_exponents


# ---------------------------------------------------------------------------
# Edge cases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value", [1, "-1/2", GaussianRational(0, 1)])
def test_zero_polynomial_restricted_at_a_nonzero_value_is_zero(value):
    assert Poly.zero(V3).restrict("y", value).terms == {}
    assert Poly.zero(("x",)).restrict("x", value).terms == {}


@pytest.mark.parametrize("offsets", [{"x": 1}, {"y": "1/3", "z": GaussianRational(2, -1)}])
def test_zero_polynomial_shifted_by_a_nonzero_offset_is_zero(offsets):
    r = Poly.zero(V3).shift(offsets)
    assert r.vars == V3 and r.terms == {}


def test_laurent_substitute_with_a_zero_image_coefficient():
    # x -> 0: every term with a positive power of x drops out, and only the
    # x-free terms are left, shifted down by the content of y's image
    p = X * Y + X ** 2 + Y * Z + Z
    r = p.laurent_substitute({"x": (0, (1, 0, 0)), "y": ("1/2", (0, 1, -1))})
    assert list(r.numerator.terms.items()) == [((0, 1, 0), GaussianRational.of("1/2")),
                                                ((0, 0, 1), GR_ONE)]
    assert r.monomial_exponents == (0, 0, 0)
    assert X.laurent_substitute({"x": (0, (0, 0, 1))}).is_zero()
    assert (X ** 2).laurent_substitute({"x": (0, (-1, 0, 0))}).monomial_exponents == (0, 0, 0)
