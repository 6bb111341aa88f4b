"""Differential test of ``classify.char_poly`` against sympy's charpoly.

Linear parts are 1x1 to 3x3 matrices with entries in Q(i), non-real ones
included, with numerators and denominators up to 10**6.
"""

from __future__ import annotations

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from foliations.algebra import GaussianRational
from foliations.classify import char_poly
from foliations.fields import LinearPart

BOUND = 10 ** 6

fractions = st.builds(Fraction, st.integers(-BOUND, BOUND), st.integers(1, BOUND))
entries = st.builds(GaussianRational, fractions,
                    st.one_of(st.just(Fraction(0)), fractions))


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 3))
    return [[draw(entries) for _ in range(n)] for _ in range(n)]


def _to_sympy(z: GaussianRational):
    return (sympy.Rational(z.re.numerator, z.re.denominator)
            + sympy.I * sympy.Rational(z.im.numerator, z.im.denominator))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_char_poly_matches_sympy(rows):
    lam = sympy.Symbol("lam")
    expected = sympy.Matrix([[_to_sympy(z) for z in row] for row in rows]).charpoly(lam)
    ours = char_poly(LinearPart(tuple(tuple(row) for row in rows))).univariate_coeffs("t")
    assert [_to_sympy(c) for c in reversed(ours)] == [
        sympy.expand(c) for c in expected.all_coeffs()]
