"""Differential tests of ``classify`` against sympy.

``char_poly`` is checked against sympy's charpoly on 1x1 to 3x3 matrices
with entries in Q(i), non-real ones included, with numerators and
denominators up to 10**6.  ``resonance_rank`` is checked against the rank
of the real and imaginary parts as a sympy matrix, on vectors of length
1 to 3 whose small entries make zeros, repeats and relations common.
"""

from __future__ import annotations

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from foliations.algebra import GaussianRational
from foliations.classify import char_poly, resonance_rank
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


small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
small_entries = st.builds(GaussianRational, small, st.one_of(st.just(Fraction(0)), small))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(small_entries, entries), min_size=1, max_size=3))
def test_resonance_rank_matches_sympy(vals):
    parts = sympy.Matrix([[sympy.Rational(v.re.numerator, v.re.denominator) for v in vals],
                          [sympy.Rational(v.im.numerator, v.im.denominator) for v in vals]])
    assert resonance_rank(vals) == len(vals) - parts.rank()
