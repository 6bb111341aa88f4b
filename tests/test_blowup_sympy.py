"""Differential tests of the chart substitutions against sympy.

``Poly.laurent_substitute`` is compared with sympy's simultaneous
substitution of Laurent monomials.  The raw transform of ``weighted_blowup``
is compared with sympy's pushforward for point centers and invariant
coordinate-axis curve centers, weights 1-3 and every chart:

    v' = X_v(s) / (w_v * v**(w_v - 1))
    u' = X_u(s) / v**w_u - (w_u / w_v) * u * X_v(s) / v**w_v

with ``s`` the substitution ``v_old = v**w_v``, ``u_old = u * v**w_u``; a
free variable's component is ``X(s)``.  The divisor multiplicity is the
lowest ``v`` order of those components, the pole order its negative part,
and the representative is content free and equals the transform divided by
the transform's monomial content.
"""

from __future__ import annotations

import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from foliations.algebra import ChartFunction, Poly
from foliations.blowup import POINT, BlowupSpec, curve_center, weighted_blowup
from foliations.fields import Chart, VectorField

from test_algebra_sympy import coefficients, polys, to_sympy, to_sympy_number


def chart_function_to_sympy(f: ChartFunction, syms):
    return to_sympy(f.numerator, syms) * sympy.prod(
        [s ** e for s, e in zip(syms, f.monomial_exponents)])


def laurent_order(expr, syms, j: int, bound: int = 12) -> int:
    """Lowest exponent of ``syms[j]`` in a nonzero Laurent polynomial."""
    shifted = sympy.expand(expr * sympy.prod([s ** bound for s in syms]))
    return min(m[j] for m in sympy.Poly(shifted, *syms).monoms()) - bound


@st.composite
def substitutions(draw):
    vars = ("x", "y", "z")[:draw(st.integers(1, 3))]
    assignment = {}
    for name in draw(st.lists(st.sampled_from(vars), unique=True)):
        exps = tuple(draw(st.integers(-3, 3)) for _ in vars)
        assignment[name] = (draw(coefficients), exps)
    return vars, draw(polys(vars)), assignment


@settings(max_examples=60, deadline=None)
@given(substitutions())
def test_laurent_substitute_matches_sympy(case):
    vars, p, assignment = case
    syms = sympy.symbols(vars)
    images = {syms[vars.index(name)]: to_sympy_number(c) * sympy.prod(
        [s ** e for s, e in zip(syms, exps)]) for name, (c, exps) in assignment.items()}
    expected = to_sympy(p, syms).xreplace(images)
    ours = chart_function_to_sympy(p.laurent_substitute(assignment), syms)
    assert sympy.expand(ours - expected) == 0


def component(draw, vars, vanishes):
    exps = st.lists(st.integers(0, 3), min_size=len(vars), max_size=len(vars)).map(tuple)
    terms = draw(st.dictionaries(exps.filter(vanishes), coefficients, max_size=4))
    return Poly.make(vars, terms)


@st.composite
def blowups(draw):
    dim = draw(st.integers(2, 3))
    vars = ("x", "y", "z")[:dim]
    free = draw(st.sampled_from((None,) + vars)) if dim == 3 else None
    blown = [v for v in vars if v != free]
    blown_at = [vars.index(v) for v in blown]
    # a point center needs every component to vanish at the origin; a curve
    # center the components transverse to the axis to vanish on it
    on_center = lambda e: any(e[j] for j in blown_at)
    comps = [component(draw, vars, on_center if name != free else lambda e: True)
             for name in vars]
    weights = tuple(draw(st.integers(1, 3)) for _ in blown)
    index = draw(st.integers(0, len(blown) - 1))
    center = POINT if free is None else curve_center(free)
    return vars, comps, BlowupSpec(center, weights, index), blown


@settings(max_examples=80, deadline=None)
@given(blowups())
def test_weighted_blowup_matches_sympy_pushforward(case):
    vars, comps, spec, blown = case
    assume(any(not p.is_zero() for p in comps))
    result = weighted_blowup(VectorField.make(Chart.root(vars), comps), spec)
    syms = sympy.symbols(vars)
    weight = dict(zip(blown, spec.weights))
    v_name = blown[spec.chart_index]
    k = vars.index(v_name)
    v, wv = syms[k], weight[v_name]
    images = {}
    for name, w in weight.items():
        s = syms[vars.index(name)]
        images[s] = v ** w if name == v_name else s * v ** w
    pulled = [to_sympy(p, syms).xreplace(images) for p in comps]
    expected = []
    for name, s, x_s in zip(vars, syms, pulled):
        if name == v_name:
            expected.append(x_s / (wv * v ** (wv - 1)))
        elif name in weight:
            wu = weight[name]
            expected.append(x_s / v ** wu
                            - sympy.Rational(wu, wv) * s * pulled[k] / v ** wv)
        else:
            expected.append(x_s)
    expected = [sympy.expand(e) for e in expected]
    for ours, theirs in zip(result.field.components, expected):
        assert sympy.expand(chart_function_to_sympy(ours, syms) - theirs) == 0

    nonzero = [e for e in expected if e != 0]
    content = [min(laurent_order(e, syms, j) for e in nonzero) for j in range(len(vars))]
    assert result.divisor_multiplicity == content[k]
    assert result.pole_order == max(0, -content[k])
    mono = sympy.prod([s ** c for s, c in zip(syms, content)])
    reps = [c.expand() for c in result.representative.components]
    for rep, theirs in zip(reps, expected):
        assert sympy.expand(to_sympy(rep, syms) * mono - theirs) == 0
    assert all(min(e[j] for r in reps for e in r.terms) == 0 for j in range(len(vars)))
