"""Differential test of the ``Poly`` ring operations against sympy.

Sum, difference, negation, product, small powers, scaling by a constant,
``shift`` (``x := x + c``, for one variable and for several at once) and
``restrict`` (``x := c``, zero included) of random polynomials in one to three variables with Q(i) coefficients,
non-real ones included, are compared with sympy's expanded results term
by term.
"""

from __future__ import annotations

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from foliations.algebra import GaussianRational, Poly

fractions = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))
coefficients = st.builds(GaussianRational, fractions,
                         st.one_of(st.just(Fraction(0)), fractions))


def polys(vars):
    exps = st.lists(st.integers(0, 4), min_size=len(vars), max_size=len(vars)).map(tuple)
    return st.dictionaries(exps, coefficients, max_size=5).map(lambda t: Poly(vars, t))


@st.composite
def operands(draw):
    vars = ("x", "y", "z")[:draw(st.integers(1, 3))]
    return (vars, draw(polys(vars)), draw(polys(vars)), draw(coefficients),
            draw(st.integers(0, 3)), draw(st.sampled_from(vars)),
            draw(st.dictionaries(st.sampled_from(vars), coefficients)))


def to_sympy_number(c: GaussianRational):
    return (sympy.Rational(c.re.numerator, c.re.denominator)
            + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))


def to_sympy(p: Poly, syms):
    return sympy.Add(*[to_sympy_number(c) * sympy.prod([s ** k for s, k in zip(syms, e)])
                       for e, c in p.terms.items()])


def terms(expr, syms) -> dict:
    expr = sympy.expand(expr)
    if expr == 0:
        return {}
    return dict(sympy.Poly(expr, *syms).terms())


def ours(p: Poly) -> dict:
    return {e: to_sympy_number(c) for e, c in p.terms.items()}


@settings(max_examples=60, deadline=None)
@given(operands())
def test_ring_operations_match_sympy(case):
    vars, p, q, c, k, var, offsets = case
    syms = sympy.symbols(vars)
    sp, sq, sc = to_sympy(p, syms), to_sympy(q, syms), to_sympy_number(c)
    assert ours(p + q) == terms(sp + sq, syms)
    assert ours(p - q) == terms(sp - sq, syms)
    assert ours(-p) == terms(-sp, syms)
    assert ours(p * q) == terms(sp * sq, syms)
    assert ours(p ** k) == terms(sp ** k, syms)
    assert ours(p.scale(c)) == terms(sc * sp, syms)
    s = syms[vars.index(var)]
    assert ours(p.shift({var: c})) == terms(sp.subs(s, s + sc), syms)
    moved = {syms[vars.index(name)]: syms[vars.index(name)] + to_sympy_number(a)
             for name, a in offsets.items()}
    assert ours(p.shift(offsets)) == terms(sp.xreplace(moved), syms)


@settings(max_examples=60, deadline=None)
@given(operands())
def test_restrict_matches_sympy(case):
    vars, p, _q, c, _k, var, _offsets = case
    syms = sympy.symbols(vars)
    sp, s = to_sympy(p, syms), syms[vars.index(var)]
    assert ours(p.restrict(var, c)) == terms(sp.subs(s, to_sympy_number(c)), syms)
    # at zero the terms free of ``var`` survive unchanged and in their order
    i = vars.index(var)
    for zero in (0, GaussianRational.of(0)):
        restricted = p.restrict(var, zero)
        assert ours(restricted) == terms(sp.subs(s, 0), syms)
        assert list(restricted.terms.items()) == [
            (e, k) for e, k in p.terms.items() if not e[i]]
