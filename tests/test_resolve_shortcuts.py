"""The facts two shortcuts of the 3-D resolution path rest on.

The persistent-nilpotent probe tests the last chart of a point blow-up only
at its origin.  Its candidate filter ``range(2)`` leaves nothing else, and
``_terms_divisor_candidates`` keeps that origin exactly when no component of
the chart's representative has a constant term.  Every branch of its case
analysis must agree: the constant early return, the pivot gcd, the whole
singular line, the single monomial and the bivariate fallback.  The
property runs over random 3-D germs, over germs built so that the
restricted system on the last chart is bivariate, and over one example per
branch.

The driver recentres each singular point once: a pending point keeps the
germ its classification built, and its blow-up or the budget check reads
that germ.  On every golden resolution input, a point that was blown up,
escaped or left pending keeps ``germ_at(node.rep, point.coords)``, and every
other point keeps no germ.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from foliations.algebra import _ZERO, _over, _terms_restricted
from foliations.blowup import _terms_blowup
from foliations.errors import FoliationError
from foliations.resolve import (POINT_BLOWN_UP, POINT_ESCAPED, POINT_PENDING,
                                _terms_divisor_candidates, _uses_only, germ_at)

from test_resolve_golden import cases

V3 = ("x", "y", "z")
ORIGIN = (_ZERO,) * 3

# canonical (a, b, d) triples: integers, fractions and non-real values
COEFFICIENTS = [(1, 0, 1), (-1, 0, 1), (2, 0, 1), (-3, 0, 1), (1, 0, 2), (-2, 0, 3),
                (0, 1, 1), (1, 1, 1), (3, -2, 5)]
coefficients = st.sampled_from(COEFFICIENTS)
exponents = st.tuples(*[st.integers(0, 3)] * 3)


@st.composite
def random_germs(draw):
    """Three components of up to four terms, one of them possibly constant."""
    comps = [draw(st.dictionaries(exponents, coefficients, max_size=4)) for _ in range(3)]
    if draw(st.booleans()):
        comps[draw(st.integers(0, 2))][(0, 0, 0)] = draw(coefficients)
    if not any(comps):
        comps[0][(1, 0, 0)] = (1, 0, 1)
    return tuple(comps)


@st.composite
def bivariate_germs(draw):
    """x and y components homogeneous of degree m in monomials holding both
    x and y, and a z component of order above m, so that the restricted
    system on the last chart is bivariate; an x component may also hold
    z**m, a constant on that chart."""
    m = draw(st.integers(2, 3))
    mixed = st.sampled_from([(a, b, m - a - b) for a in range(1, m) for b in range(1, m - a + 1)])
    comps = [draw(st.dictionaries(mixed, coefficients, min_size=1, max_size=3))
             for _ in range(2)]
    if draw(st.booleans()):
        comps[0][(0, 0, m)] = draw(coefficients)
    high = st.tuples(*[st.integers(0, 2)] * 3).filter(lambda e: sum(e) > m)
    z_comp = {(0, 0, m + 1): draw(coefficients)}
    z_comp.update(draw(st.dictionaries(high, coefficients, max_size=2)))
    return (comps[0], comps[1], z_comp)


def _one(*terms):
    return {e: (1, 0, 1) for e in terms}


# one germ per branch of the case analysis on the last chart, by name
BRANCH_EXAMPLES = {
    # x**2 - x*z, x**2 - z**2, z**3: a lone constant leaves no candidate
    "constant": ({(2, 0, 0): (1, 0, 1), (1, 0, 1): (-1, 0, 1)}, _one((0, 0, 2)), _one((0, 0, 3))),
    # x**2 - x*z, x*y - 2*y*z, z**3: the pivot x**2 - x, then y at x = 0
    "pivot": ({(2, 0, 0): (1, 0, 1), (1, 0, 1): (-1, 0, 1)},
              {(1, 1, 0): (1, 0, 1), (0, 1, 1): (-2, 0, 1)}, _one((0, 0, 3))),
    # x**2 - x*z, x**2 - 2*x*z, z**3: the gcd x of two pivot rows, and the
    # whole line x = 0 of the divisor is singular
    "line": ({(2, 0, 0): (1, 0, 1), (1, 0, 1): (-1, 0, 1)},
             {(2, 0, 0): (1, 0, 1), (1, 0, 1): (-2, 0, 1)}, _one((0, 0, 3))),
    # x*y, 0, z**3: one monomial component cuts out coordinate lines
    "monomial": (_one((1, 1, 0)), {}, _one((0, 0, 3))),
    # x*y + x**2*y, x*y**2, z**4 over degree 3 parts: bivariate
    "bivariate": ({(1, 1, 1): (1, 0, 1), (2, 1, 0): (1, 0, 1)}, _one((1, 2, 0)),
                  _one((0, 0, 4))),
    # the same with z**3 in the x component: bivariate with a constant
    "bivariate_constant": ({(1, 1, 1): (1, 0, 1), (2, 1, 0): (1, 0, 1), (0, 0, 3): (1, 0, 1)},
                           _one((1, 2, 0)), _one((0, 0, 4))),
}


def _last_chart(germ):
    numerators, _owns, content = _terms_blowup(germ, 2, (1, 1, 1))
    return [_over(num, content) for num in numerators]


def _branch(rep) -> str:
    """Which branch of the case analysis the restricted system takes;
    "line" is a pivot in whose variable alone every component is written,
    so the line through each common root is singular as a whole."""
    nonzero = [t for t in (_terms_restricted(t, 2) for t in rep) if t]
    if any(len(t) == 1 and (0, 0, 0) in t for t in nonzero):
        return "constant"
    for j in (0, 1):
        if any(_uses_only(t, j) for t in nonzero):
            return "line" if all(_uses_only(t, j) for t in nonzero) else "pivot"
    if len(nonzero) == 1 and len(nonzero[0]) == 1:
        return "monomial"
    return "bivariate_constant" if any((0, 0, 0) in t for t in rep) else "bivariate"


def test_branch_examples_reach_their_branches():
    for name, germ in BRANCH_EXAMPLES.items():
        assert _branch(_last_chart(germ)) == name


@settings(max_examples=300, deadline=None)
@given(st.one_of(random_germs(), bivariate_germs()))
@example(BRANCH_EXAMPLES["constant"])
@example(BRANCH_EXAMPLES["pivot"])
@example(BRANCH_EXAMPLES["line"])
@example(BRANCH_EXAMPLES["monomial"])
@example(BRANCH_EXAMPLES["bivariate"])
@example(BRANCH_EXAMPLES["bivariate_constant"])
def test_last_chart_keeps_only_its_origin_without_a_constant_term(germ):
    rep = _last_chart(germ)
    expected = [] if any((0, 0, 0) in t for t in rep) else [ORIGIN]
    assert _terms_divisor_candidates(V3, rep, 2, range(2))[0] == expected


def test_points_keep_the_germ_their_blow_up_reads():
    kept = 0
    for name, make in cases():
        try:
            tree = make()
        except FoliationError:
            continue
        for node, point in tree.all_points():
            if point.status in (POINT_BLOWN_UP, POINT_ESCAPED, POINT_PENDING):
                assert point.germ == germ_at(node.rep, point.coords), name
                kept += 1
            else:
                assert point.germ is None, name
    assert kept > 0
