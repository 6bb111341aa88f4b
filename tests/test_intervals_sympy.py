"""Differential test of the exact roots of ``certified_roots`` against sympy.

Inputs are products of one to three linear factors over Q(i), whose roots
have numerators and denominators up to 10**12, sometimes with a repeated
factor, times either 1 or a shifted quadratic ``(t - s)**2 - k`` with k not
a square in Q(i).  The Q(i) roots and multiplicities that ``sympy.roots``
finds must equal the exact half of ``certified_roots``, and the two halves
together must account for the whole degree.
"""

from __future__ import annotations

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from foliations.algebra import GaussianRational, gr
from foliations.intervals import certified_roots

BOUND = 10 ** 12
T = sympy.Symbol("t")
NON_SQUARES = [gr(2), gr(3), gr(-2), gr(0, 1), gr(1, 2)]

fractions = st.builds(Fraction, st.integers(-BOUND, BOUND), st.integers(1, BOUND))
gaussians = st.builds(GaussianRational, fractions,
                      st.one_of(st.just(Fraction(0)), fractions))


@st.composite
def products(draw):
    """(coefficients low to high, the linear factors' roots)."""
    roots = draw(st.lists(gaussians, min_size=1, max_size=3))
    if draw(st.booleans()):
        roots.append(roots[0])
    coeffs = [gr(1)]
    for r in roots:
        coeffs = _mul(coeffs, [-r, gr(1)])
    if draw(st.booleans()):
        s, k = draw(gaussians), draw(st.sampled_from(NON_SQUARES))
        coeffs = _mul(coeffs, [s * s - k, -(s + s), gr(1)])
    return coeffs, roots


def _mul(a, b):
    out = [gr(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _to_sympy(z: GaussianRational):
    return (sympy.Rational(z.re.numerator, z.re.denominator)
            + sympy.I * sympy.Rational(z.im.numerator, z.im.denominator))


def _sympy_exact_roots(coeffs) -> dict:
    poly = sympy.Poly([_to_sympy(c) for c in reversed(coeffs)], T)
    out = {}
    for root, mult in sympy.roots(poly).items():
        re, im = sympy.sympify(root).as_real_imag()
        if re.is_Rational and im.is_Rational:
            out[(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))] = mult
    return out


@settings(max_examples=30, deadline=None)
@given(products())
def test_exact_roots_match_sympy(product):
    coeffs, roots = product
    exact, intervals = certified_roots(coeffs)
    assert {(r.re, r.im): m for r, m in exact} == _sympy_exact_roots(coeffs)
    assert len(exact) == len(set(roots))
    degree = len(coeffs) - 1
    assert sum(m for _, m in exact) + sum(c.multiplicity for c in intervals) == degree
