"""Property tests of the integer forms of two classification tests.

``is_nilpotent`` reads the degree-1 coefficients as Gaussian integers over
one denominator and tests trace, principal 2x2 minors and determinant; it
must equal the characteristic-polynomial test
``_nilpotent_class(lp, char_poly(lp)) == CLASS_NILPOTENT`` on random 1-, 2-
and 3-D linear-plus-quadratic fields with Gaussian-rational entries,
conjugated nilpotent (Jordan) linear parts and zero linear parts.  The
examples below include linear parts where exactly one of the three
conditions fails, so a test that skips one of them is caught.  Both sides
read the same elementary symmetric functions
(``classify._symmetric_functions``), so ``tests/test_classify_sympy.py``
also checks ``is_nilpotent`` against sympy.

``char_poly`` must give, term for term and in the same order, the
polynomial of ``reference_char_poly``, the direct ``GaussianRational``
computation kept here, on the same random linear parts.

``siegel_test`` takes each eigenvalue ``(a + b*i)/d`` as the int point
``(a, b)``, a positive multiple of it; it must equal the same hull test on
``Fraction`` points, kept here as ``fraction_siegel_test``, on random
eigenvalue lists of one to three values, zeros included.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from foliations.algebra import GR_ONE, GR_ZERO, GaussianRational, Poly
from foliations.classify import (
    CLASS_NILPOTENT,
    POSITION_POINCARE,
    POSITION_SIEGEL,
    POSITION_SIEGEL_BOUNDARY,
    _nilpotent_class,
    char_poly,
    is_nilpotent,
    siegel_test,
)
from foliations.fields import Chart, LinearPart, VectorField, linear_part

NAMES = ("x", "y", "z")

entries = st.sampled_from([GR_ZERO] * 4 + [
    GaussianRational.of(c) for c in (1, -1, 2, -3, "1/2", "-1/3", "3/4")] + [
    GaussianRational(0, 1), GaussianRational(1, -1), GaussianRational(Fraction(1, 2), 2)])


def field_of(linear, quadratic=()) -> VectorField:
    """The field with linear part ``linear`` (rows of GaussianRationals)
    plus the given ``(component, exponents, coefficient)`` terms."""
    n = len(linear)
    names = NAMES[:n]
    comps = []
    for i, row in enumerate(linear):
        terms = {tuple(int(k == j) for k in range(n)): c for j, c in enumerate(row)}
        for comp, exps, c in quadratic:
            if comp == i:
                terms[exps] = c
        comps.append(Poly(names, terms))
    return VectorField.make(Chart.root(names), comps)


def gr_rows(rows) -> list[list[GaussianRational]]:
    return [[GaussianRational.of(c) if not isinstance(c, GaussianRational) else c
             for c in row] for row in rows]


@st.composite
def quadratic_terms(draw, n):
    exps = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple).filter(
        lambda e: sum(e) == 2)
    return draw(st.lists(st.tuples(st.integers(0, n - 1), exps, entries), max_size=3))


@st.composite
def random_fields(draw):
    n = draw(st.integers(1, 3))
    linear = [[draw(entries) for _ in range(n)] for _ in range(n)]
    return field_of(linear, draw(quadratic_terms(n)))


def _matmul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            s = GR_ZERO
            for k in range(n):
                s = s + a[i][k] * b[k][j]
            row.append(s)
        out.append(row)
    return out


def _det(m):
    if len(m) == 1:
        return m[0][0]
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return sum((m[0][j] * _det([[r[k] for k in range(3) if k != j] for r in m[1:]])
                * GaussianRational.of((-1) ** j) for j in range(3)), GR_ZERO)


def _inverse(m):
    """Adjugate over determinant."""
    n = len(m)
    d = _det(m)
    if n == 1:
        return [[GaussianRational.of(1) / d]]
    inv = [[GR_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[m[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            sign = GaussianRational.of((-1) ** (i + j))
            inv[j][i] = sign * _det(minor) / d
    return inv


@st.composite
def conjugated_nilpotent_fields(draw):
    """``P N P^-1`` with ``N`` strictly upper triangular (a sum of Jordan
    blocks with eigenvalue 0) and ``P`` an invertible Gaussian-rational
    matrix: nilpotent by construction, zero only when ``N`` is."""
    n = draw(st.integers(1, 3))
    p = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if _det(p).is_zero():
        p = [[GaussianRational.of(int(i == j)) for j in range(n)] for i in range(n)]
    nil = [[draw(entries) if j > i else GR_ZERO for j in range(n)] for i in range(n)]
    return field_of(_matmul(_matmul(p, nil), _inverse(p)), draw(quadratic_terms(n)))


@st.composite
def zero_linear_fields(draw):
    n = draw(st.integers(1, 3))
    return field_of([[GR_ZERO] * n for _ in range(n)], draw(quadratic_terms(n)))


def by_char_poly(x: VectorField) -> bool:
    lp = linear_part(x)
    return _nilpotent_class(lp, char_poly(lp)) == CLASS_NILPOTENT


I = GaussianRational(0, 1)


@settings(max_examples=300, deadline=None)
@given(st.one_of(random_fields(), conjugated_nilpotent_fields(), zero_linear_fields()))
# trace 0 and determinant 0, minors -1 (2-D: the determinant is the minor)
@example(field_of(gr_rows([[1, 0, 0], [0, -1, 0], [0, 0, 0]])))
@example(field_of(gr_rows([[1, 0], [0, -1]])))
@example(field_of(gr_rows([[I, 0, 0], [0, -I, 0], [0, 0, 0]])))
# trace 0 and minors 0, determinant 1
@example(field_of(gr_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])))
# trace 0, minors 0 and determinant 0 over denominators 2, 3 and 4
@example(field_of(gr_rows([["1/2", "1/3"], ["-3/4", "-1/2"]])))
# a nonzero trace only
@example(field_of(gr_rows([[0, 1, 0], [0, 0, 0], [0, 0, I]])))
@example(field_of(gr_rows([[2]])))
@example(field_of(gr_rows([[0]]), [(0, (2,), GaussianRational.of(1))]))
def test_is_nilpotent_equals_characteristic_polynomial_test(x):
    assert is_nilpotent(x) == by_char_poly(x)


# ---------------------------------------------------------------------------
# char_poly against the direct GaussianRational computation
# ---------------------------------------------------------------------------

def reference_char_poly(lp: LinearPart) -> Poly:
    """det(t I - L) by the trace, the principal 2x2 minors and the
    determinant, each formed on ``GaussianRational`` entries."""
    n = lp.dim
    a = lp.entries

    def det(rows: list[list[GaussianRational]]) -> GaussianRational:
        if len(rows) == 1:
            return rows[0][0]
        if len(rows) == 2:
            return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        d = GR_ZERO
        sign = GR_ONE
        for j in range(3):
            minor = [[rows[1][k] for k in range(3) if k != j],
                     [rows[2][k] for k in range(3) if k != j]]
            d = d + sign * rows[0][j] * det(minor)
            sign = -sign
        return d

    tr = GR_ZERO
    for i in range(n):
        tr = tr + a[i][i]
    if n == 1:
        coeffs = [-a[0][0], GR_ONE]
    elif n == 2:
        dt = det([list(a[0]), list(a[1])])
        coeffs = [dt, -tr, GR_ONE]
    else:
        dt = det([list(r) for r in a])
        sec = GR_ZERO
        for i, j in ((0, 1), (0, 2), (1, 2)):
            sec = sec + (a[i][i] * a[j][j] - a[i][j] * a[j][i])
        coeffs = [-dt, sec, -tr, GR_ONE]
    terms = {(k,): c for k, c in enumerate(coeffs) if not c.is_zero()}
    return Poly(("t",), terms)


@settings(max_examples=300, deadline=None)
@given(st.one_of(random_fields(), conjugated_nilpotent_fields(), zero_linear_fields()))
@example(field_of(gr_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])))
@example(field_of(gr_rows([["1/2", "1/3"], ["-3/4", "-1/2"]])))
@example(field_of(gr_rows([[I, "1/7", 0], ["2/3", -I, 1], [0, "-5/2", "1/4"]])))
def test_char_poly_matches_reference(x):
    lp = linear_part(x)
    got, expected = char_poly(lp), reference_char_poly(lp)
    assert got.vars == expected.vars
    assert list(got.terms.items()) == list(expected.terms.items())


# ---------------------------------------------------------------------------
# siegel_test against the Fraction hull test
# ---------------------------------------------------------------------------

def fraction_siegel_test(values) -> str:
    if any(v.is_zero() for v in values):
        return POSITION_SIEGEL_BOUNDARY
    pts = [(v.re, v.im) for v in values]
    return POSITION_SIEGEL if _fraction_hull_contains_origin(pts) else POSITION_POINCARE


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _segment_contains_origin(a, b):
    return _cross(a, b) == 0 and a[0] * b[0] + a[1] * b[1] <= 0


def _fraction_hull_contains_origin(pts):
    if len(pts) == 1:
        return pts[0] == (0, 0)
    if any(_segment_contains_origin(a, b) for a, b in itertools.combinations(pts, 2)):
        return True
    if len(pts) == 2:
        return False
    a, b, c = pts
    d = (_cross(a, b), _cross(b, c), _cross(c, a))
    if not any(d):
        return False
    return not (any(v > 0 for v in d) and any(v < 0 for v in d))


parts = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 7, 10**9 + 7]))
eigenvalues = st.one_of(st.just(GR_ZERO), st.builds(GaussianRational, parts, parts))


@settings(max_examples=400, deadline=None)
@given(st.lists(eigenvalues, min_size=1, max_size=3))
@example([GaussianRational(1), GaussianRational(-1), I])
@example([GaussianRational(Fraction(1, 3)), GaussianRational(Fraction(-2, 7)),
          GaussianRational(0, Fraction(5, 2))])
@example([GaussianRational(1, 1), GaussianRational(-2, -2), GaussianRational(1, -1)])
@example([GaussianRational(1, 1), GaussianRational(Fraction(1, 2), Fraction(1, 2)), I])
@example([GaussianRational(1), GR_ZERO, I])
def test_siegel_test_equals_fraction_hull_test(values):
    assert siegel_test(values) == fraction_siegel_test(values)
