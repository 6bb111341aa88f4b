"""Differential tests of ``classify`` against sympy.

``char_poly`` is checked against sympy's charpoly on 1x1 to 3x3 matrices
with entries in Q(i), non-real ones included, with numerators and
denominators up to 10**6.  ``is_nilpotent`` is checked on the linear fields
of such matrices, and of matrices conjugated to strictly upper triangular
ones, against "sympy's charpoly is lam**n and the matrix is nonzero".
``resonance_rank`` is checked against the rank
of the real and imaginary parts as a sympy matrix, on vectors of length
1 to 3 whose small entries make zeros, repeats and relations common.
"""

from __future__ import annotations

from fractions import Fraction

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foliations.algebra import GaussianRational, Poly
from foliations.classify import char_poly, is_nilpotent, resonance_rank
from foliations.fields import Chart, LinearPart, VectorField

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


def _from_sympy(z) -> GaussianRational:
    re, im = (sympy.Rational(part) for part in z.as_real_imag())
    return GaussianRational(Fraction(re.p, re.q), Fraction(im.p, im.q))


@st.composite
def conjugated_nilpotent(draw):
    """``P N P**-1`` for a strictly upper triangular ``N`` and an invertible
    ``P`` drawn from ``matrices()``, computed in sympy."""
    p = draw(matrices())
    n = len(p)
    sp = sympy.Matrix([[_to_sympy(z) for z in row] for row in p])
    if sp.det() == 0:
        sp = sympy.eye(n)
    nil = sympy.Matrix(n, n, lambda i, j: _to_sympy(draw(entries)) if j > i else 0)
    m = sp * nil * sp.inv()
    return [[_from_sympy(sympy.expand(m[i, j])) for j in range(n)] for i in range(n)]


def _linear_field(rows) -> VectorField:
    n = len(rows)
    names = ("x", "y", "z")[:n]
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    return VectorField.make(Chart.root(names), [
        Poly.make(names, dict(zip(units, row))) for row in rows])


def _gr(*parts) -> GaussianRational:
    return GaussianRational(*map(Fraction, parts))


@settings(max_examples=60, deadline=None)
@given(st.one_of(matrices(), conjugated_nilpotent()))
@example([[_gr(0)] * 3 for _ in range(3)])
@example([[_gr("1/2"), _gr("1/3")], [_gr("-3/4"), _gr("-1/2")]])
@example([[_gr(0), _gr(0), _gr(1)], [_gr(1), _gr(0), _gr(0)], [_gr(0), _gr(1), _gr(0)]])
@example([[_gr(1), _gr(0), _gr(0)], [_gr(0), _gr(-1), _gr(0)], [_gr(0), _gr(0), _gr(0)]])
@example([[_gr(0, "1/999983"), _gr("1/2")], [_gr("2/999983") / _gr(999983), _gr(0, "-1/999983")]])
def test_is_nilpotent_matches_sympy(rows):
    lam = sympy.Symbol("lam")
    m = sympy.Matrix([[_to_sympy(z) for z in row] for row in rows])
    coeffs = [sympy.expand(c) for c in m.charpoly(lam).all_coeffs()]
    expected = coeffs == [1] + [0] * len(rows) and not m.is_zero_matrix
    assert is_nilpotent(_linear_field(rows)) == expected


small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
small_entries = st.builds(GaussianRational, small, st.one_of(st.just(Fraction(0)), small))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(small_entries, entries), min_size=1, max_size=3))
def test_resonance_rank_matches_sympy(vals):
    parts = sympy.Matrix([[sympy.Rational(v.re.numerator, v.re.denominator) for v in vals],
                          [sympy.Rational(v.im.numerator, v.im.denominator) for v in vals]])
    assert resonance_rank(vals) == len(vals) - parts.rank()
