"""Differential test of the formal solver's dimensions against sympy.

For small random planar and 3-D germs, sympy builds the whole order-d
system ``F -> jet(X . F, d)`` on the monomials of degree 1..d from its own
polynomial arithmetic, and the nullity ``#monomials - rank`` must equal
``dims_by_degree[d-1]``.
"""

from __future__ import annotations

import itertools

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from foliations.algebra import Poly, gr
from foliations.fields import Chart, VectorField
from foliations.integrals import formal_first_integral

COEFFS = [(-2, 0), (-1, 0), (1, 0), (2, 0), (3, 0), ("1/2", 0), (1, 1), (0, -1)]


@st.composite
def germs(draw):
    """(variable names, components as {exponents: (re, im)}, jet order)."""
    vars = ("x", "y", "z")[:draw(st.sampled_from([2, 3]))]
    exps = st.lists(st.integers(0, len(vars) - 1), min_size=1, max_size=3).map(
        lambda idx: tuple(idx.count(i) for i in range(len(vars))))
    comps = [draw(st.dictionaries(exps, st.sampled_from(COEFFS), max_size=3))
             for _ in vars]
    n = draw(st.integers(2, 4))
    return vars, comps, n


def _sympy_dims(vars, comps, n):
    syms = sympy.symbols(vars)
    field = [sum((sympy.Rational(re) + sympy.I * im) * sympy.prod(
        s ** k for s, k in zip(syms, e)) for e, (re, im) in comp.items())
        for comp in comps]
    dims = []
    for d in range(1, n + 1):
        monomials = [sympy.prod(s ** k for s, k in zip(syms, e))
                     for e in itertools.product(range(d + 1), repeat=len(vars))
                     if 1 <= sum(e) <= d]
        columns = []
        for m in monomials:
            image = sympy.expand(sum(xi * sympy.diff(m, s) for xi, s in zip(field, syms)))
            terms = sympy.Poly(image, *syms).terms() if image != 0 else []
            columns.append({e: c for e, c in terms if sum(e) <= d})
        rows = sorted({e for col in columns for e in col})
        matrix = sympy.Matrix([[col.get(e, 0) for col in columns] for e in rows])
        rank = matrix.rank() if rows else 0
        dims.append(len(monomials) - rank)
    return tuple(dims)


@settings(max_examples=30, deadline=None)
@given(germs())
def test_dims_match_sympy_rank(germ):
    vars, comps, n = germ
    polys = [Poly.make(vars, {e: gr(re, im) for e, (re, im) in comp.items()})
             for comp in comps]
    space = formal_first_integral(VectorField.make(Chart.root(vars), polys), n)
    assert space.dims_by_degree == _sympy_dims(vars, comps, n)
