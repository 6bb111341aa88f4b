"""Differential test of the degree-bounded directional derivative.

For random 2-D and 3-D holomorphic fields vanishing at the origin, random
polynomials F and random bounds, ``directional_derivative(x, f, bound)``
must equal both the unbounded image truncated to the bound and sympy's
expanded ``sum_i X^i dF/dx_i`` truncated to the bound.  Coefficients lie
in Q(i), non-real ones included.
"""

from __future__ import annotations

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from foliations.algebra import GaussianRational, Poly
from foliations.fields import Chart, VectorField, directional_derivative

fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
coefficients = st.builds(GaussianRational, fractions,
                         st.one_of(st.just(Fraction(0)), fractions))


def exponents(k: int, low: int, high: int):
    return st.lists(st.integers(0, high), min_size=k, max_size=k).map(tuple).filter(
        lambda e: low <= sum(e) <= high)


def polys(vars, low: int, high: int, max_terms: int):
    return st.dictionaries(exponents(len(vars), low, high), coefficients,
                           max_size=max_terms).map(lambda t: Poly.make(vars, t))


@st.composite
def cases(draw):
    """(field, F, bound): X(0) = 0, deg X^i <= 3, deg F <= 5, bound 0..8."""
    vars = ("x", "y", "z")[:draw(st.sampled_from([2, 3]))]
    comps = [draw(polys(vars, 1, 3, 4)) for _ in vars]
    f = draw(polys(vars, 0, 5, 6))
    return VectorField.make(Chart.root(vars), comps), f, draw(st.integers(0, 8))


def to_sympy(p: Poly, syms):
    return sum((sympy.Rational(c.re.numerator, c.re.denominator)
                + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
               * sympy.prod([s ** k for s, k in zip(syms, e)])
               for e, c in p.terms.items())


def sympy_terms(expr, syms, bound: int) -> dict:
    expr = sympy.expand(expr)
    if expr == 0:
        return {}
    return {e: c for e, c in sympy.Poly(expr, *syms).terms() if sum(e) <= bound}


@settings(max_examples=80, deadline=None)
@given(cases())
def test_bounded_image_is_truncated_full_image(case):
    x, f, bound = case
    bounded = directional_derivative(x, f, bound)
    assert bounded == directional_derivative(x, f).jet_truncate(bound)
    syms = sympy.symbols(x.chart.var_names)
    expected = sympy_terms(sum(to_sympy(comp, syms) * sympy.diff(to_sympy(f, syms), s)
                               for comp, s in zip(x.polys(), syms)), syms, bound)
    assert sympy_terms(to_sympy(bounded, syms), syms, bound) == expected
    assert all(sum(e) <= bound for e in bounded.terms)
