"""The directional derivative against a reference.

The reference below is ``X . F`` written term by term on
:class:`~foliations.algebra.GaussianRational` coefficients: for each
component of X in ascending degree and each term of ``dF/dx_i``, the
products are summed into one dict in that order, a key whose sum is zero is
deleted, and with ``bound`` the inner loop stops at the first component
term that would exceed it.

The toolkit must agree with it term for term and in dict order, for
``bound`` None, 0 and small ints, and must raise the same error for a
meromorphic X and for a function on another chart.  The Lie bracket and
the first-integral test, which are built on the derivative, are compared
too.  Coefficients have mixed denominators and imaginary parts, and F may
be zero.
"""

from __future__ import annotations

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliations.algebra import GR_ZERO, ChartFunction, GaussianRational, Poly, _raw
from foliations.errors import ChartMismatchError, FoliationError, PoleEvaluationError
from foliations.fields import Chart, VectorField, directional_derivative, lie_bracket
from foliations.integrals import verify_first_integral


def reference_directional_derivative(x: VectorField, f: Poly, bound=None) -> Poly:
    if f.vars != x.chart.var_names:
        raise ChartMismatchError("function lives on a different chart")
    limit = float("inf") if bound is None else bound
    graded = [sorted(((sum(e), e, c) for e, c in p.terms.items()), key=lambda t: t[:2])
              for p in x.polys()]
    out: dict = {}
    for comp_terms, i in zip(graded, range(len(f.vars))):
        for e, c in f.terms.items():
            if e[i] == 0:
                continue
            eb = e[:i] + (e[i] - 1,) + e[i + 1:]
            cb = c * _raw(e[i], 0, 1)
            room = limit - sum(eb)
            for da, ea, ca in comp_terms:
                if da > room:
                    break
                key = tuple(map(operator.add, ea, eb))
                s = out.get(key, GR_ZERO) + ca * cb
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
    return Poly(f.vars, out)


def reference_lie_bracket(x: VectorField, y: VectorField) -> list[Poly]:
    xp, yp = x.polys(), y.polys()
    return [reference_directional_derivative(x, yp[i]) - reference_directional_derivative(y, xp[i])
            for i in range(x.chart.dim)]


def _terms(p: Poly) -> tuple:
    return p.vars, [(e, c._abd) for e, c in p.terms.items()]


def outcome(fn, *args):
    try:
        return _terms(fn(*args))
    except FoliationError as exc:
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_VARS = st.sampled_from([("x",), ("x", "y"), ("x", "y", "z")])
_fractions = st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 1, 2, 3, 4, 6, 7, 9]))
_coefficients = st.one_of(
    st.builds(GaussianRational, _fractions),
    st.builds(GaussianRational, _fractions, _fractions),
    st.builds(GaussianRational, st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12),
                                          st.integers(1, 10 ** 9)),
              st.builds(Fraction, st.integers(-5, 5), st.integers(1, 10 ** 6))),
)


def _polys(vars, max_terms=6):
    exps = st.lists(st.integers(0, 3), min_size=len(vars), max_size=len(vars)).map(tuple)
    return st.dictionaries(exps, _coefficients, max_size=max_terms).map(
        lambda terms: Poly.make(vars, terms))


@st.composite
def _cases(draw):
    vars = draw(_VARS)
    comps = [draw(_polys(vars)) for _ in vars]
    # a sum that cancels: F is X's first component minus a term of it, so
    # products meet with opposite signs
    f = draw(st.one_of(_polys(vars), st.just(Poly.zero(vars)),
                       st.just(comps[0] - comps[-1])))
    bound = draw(st.one_of(st.none(), st.just(0), st.integers(1, 6)))
    return VectorField.make(Chart.root(vars), comps), f, bound


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(_cases())
def test_directional_derivative_matches_reference(case):
    x, f, bound = case
    assert outcome(directional_derivative, x, f, bound) == \
        outcome(reference_directional_derivative, x, f, bound)
    assert verify_first_integral(x, f) == reference_directional_derivative(x, f).is_zero()


@settings(max_examples=50, deadline=None)
@given(_cases(), st.data())
def test_lie_bracket_matches_reference(case, data):
    x, _f, _bound = case
    vars = x.chart.var_names
    y = VectorField.make(x.chart, [data.draw(_polys(vars)) for _ in vars])
    bracket = lie_bracket(x, y)
    expected = reference_lie_bracket(x, y)
    assert [_terms(c.expand()) for c in bracket.components] == \
        [_terms(ChartFunction.make(p).expand()) for p in expected]


@pytest.mark.parametrize("bound", [None, 0, 3])
def test_meromorphic_field_raises_as_reference(bound):
    vars = ("x", "y")
    pole = ChartFunction.make(Poly.variable(vars, "y"), (-1, 0))
    x = VectorField.make(Chart.root(vars), [pole, Poly.variable(vars, "x")])
    f = Poly.variable(vars, "x")
    expected = outcome(reference_directional_derivative, x, f, bound)
    assert expected == ("PoleEvaluationError", "vector field has meromorphic components")
    assert outcome(directional_derivative, x, f, bound) == expected
    with pytest.raises(PoleEvaluationError):
        verify_first_integral(x, f)


@pytest.mark.parametrize("bound", [None, 0, 3])
def test_chart_mismatch_raises_as_reference(bound):
    x = VectorField.make(Chart.root(("x", "y")), [Poly.variable(("x", "y"), "y")] * 2)
    # checked before the field is expanded: a meromorphic field on another
    # chart is a mismatch too
    pole = ChartFunction.make(Poly.variable(("x", "y"), "y"), (-1, 0))
    meromorphic = VectorField.make(Chart.root(("x", "y")), [pole, pole])
    for field in (x, meromorphic):
        for f in (Poly.variable(("x", "y", "z"), "z"), Poly.variable(("u", "v"), "u")):
            expected = outcome(reference_directional_derivative, field, f, bound)
            assert expected == ("ChartMismatchError", "function lives on a different chart")
            assert outcome(directional_derivative, field, f, bound) == expected
