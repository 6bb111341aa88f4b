"""The exact row reduction and the formal solver that runs on it.

``algebra._reduced_echelon`` is compared with sympy's ``Matrix.rref`` on
random sparse Q(i) matrices with zero, duplicate and non-real rows, and on
matrices whose rows often have a single entry, which lands on a fresh
column, on a column that a stored row holds beside its pivot, or on a
pivot.  On the latter it is also compared, row for row, with a reference
copied here: the reduction in which every row, single-entry or not, is
normalised and removed from the stored rows by the general update.  The
formal solver must give the same space for ``c*X`` as for ``X``, which
exercises the scaling of X to Gaussian-integer coefficients, and both of
its residual checks must catch a corrupted kernel row.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import foliations.integrals as integrals
from foliations.algebra import GaussianRational, Poly, _primitive, _reduced_echelon
from foliations.corpus import saddle_node_family
from foliations.errors import StructuralError
from foliations.fields import Chart, VectorField

fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
entries = st.builds(GaussianRational, fractions,
                    st.one_of(st.just(Fraction(0)), fractions))
nonzero = entries.filter(lambda c: not c.is_zero())


@st.composite
def matrices(draw):
    """``(ncols, rows)``: up to 6 sparse rows over up to 8 columns, some
    zero, some (scaled) copies of an earlier row."""
    ncols = draw(st.integers(1, 8))
    rows: list[dict] = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["random", "random", "zero", "copy"]))
        if kind == "zero":
            rows.append({})
        elif kind == "copy" and rows:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            c = draw(nonzero)
            rows.append({j: c * v for j, v in row.items()})
        else:
            rows.append(draw(st.dictionaries(st.integers(0, ncols - 1), nonzero,
                                             max_size=ncols)))
    return ncols, rows


def gaussian_integer_row(row: dict) -> dict:
    """The row times the lcm of its denominators, as ``(re, im)`` ints."""
    scale = math.lcm(*(c._abd[2] for c in row.values()))
    return {j: (c._abd[0] * (scale // c._abd[2]), c._abd[1] * (scale // c._abd[2]))
            for j, c in row.items()}


def to_sympy(c: GaussianRational):
    return sympy.Rational(c.re.numerator, c.re.denominator) \
        + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)


def reference_reduced_echelon(rows):
    """The row reduction with no single-entry path: each remaining row is made
    monic at its leading column, and removed from the stored rows that hold
    that column, by the general update."""
    done = {}
    for r in rows:
        hits = [c for c in r if c in done]
        if hits:
            scale = math.lcm(*(done[c][0] for c in hits))
            out = {j: (scale * a, scale * b) for j, (a, b) in r.items() if j not in done}
            for c in hits:
                den, row = done[c]
                m = scale // den
                fa, fb = r[c]
                fa *= m
                fb *= m
                for j, (a, b) in row.items():
                    if j != c:
                        x, y = out.get(j, (0, 0))
                        out[j] = (x - fa * a + fb * b, y - fa * b - fb * a)
            r = {j: v for j, v in out.items() if v != (0, 0)}
        if not r:
            continue
        p = min(r)
        x, y = r[p]
        if y:
            den = x * x + y * y
            row = {j: (a * x + b * y, b * x - a * y) for j, (a, b) in r.items()}
        else:
            den = abs(x)
            row = r if x > 0 else {j: (-a, -b) for j, (a, b) in r.items()}
        den, row = _primitive(den, row)
        for c, (oden, orow) in list(done.items()):
            f = orow.get(p)
            if f is None:
                continue
            fa, fb = f
            out = {j: (den * a, den * b) for j, (a, b) in orow.items() if j != p}
            for j, (a, b) in row.items():
                if j != p:
                    x, y = out.get(j, (0, 0))
                    out[j] = (x - fa * a + fb * b, y - fa * b - fb * a)
            done[c] = _primitive(oden * den, {j: v for j, v in out.items() if v != (0, 0)})
        done[p] = (den, row)
    return [(c, *done[c]) for c in sorted(done)]


@st.composite
def unit_row_matrices(draw):
    """``(ncols, rows)``: up to 8 rows over up to 8 columns, most of them a
    single entry placed on a fresh column, on a column that a stored row of
    the reduction so far holds beside its pivot, or on a pivot."""
    ncols = draw(st.integers(1, 8))
    rows: list[dict] = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["fresh", "held", "pivot", "random"]))
        if kind == "random":
            rows.append(draw(st.dictionaries(st.integers(0, ncols - 1), nonzero,
                                             min_size=1, max_size=ncols)))
            continue
        reduced = reference_reduced_echelon([gaussian_integer_row(r) for r in rows])
        pivots = {c for c, _, _ in reduced}
        held = {j for _, _, row in reduced for j in row} - pivots
        columns = {"fresh": set(range(ncols)) - pivots - held, "held": held,
                   "pivot": pivots}[kind] or set(range(ncols))
        rows.append({draw(st.sampled_from(sorted(columns))): draw(nonzero)})
    return ncols, rows


def assert_matches_sympy_rref(ncols, rows, reduced):
    expected, pivots = sympy.Matrix(
        [[to_sympy(row[j]) if j in row else 0 for j in range(ncols)] for row in rows]).rref()
    assert [c for c, _, _ in reduced] == list(pivots)
    for k, (c, den, row) in enumerate(reduced):
        assert den > 0 and row[c] == (den, 0)
        assert math.gcd(den, *(v for pair in row.values() for v in pair)) == 1
        assert all(pair != (0, 0) for pair in row.values())
        for j in range(ncols):
            a, b = row.get(j, (0, 0))
            assert expected[k, j].as_real_imag() == (sympy.Rational(a, den),
                                                     sympy.Rational(b, den))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_reduced_echelon_matches_sympy_rref(matrix):
    ncols, rows = matrix
    assert_matches_sympy_rref(ncols, rows,
                              _reduced_echelon([gaussian_integer_row(r) for r in rows]))


@settings(max_examples=150, deadline=None)
@given(unit_row_matrices())
def test_single_entry_rows_match_sympy_rref_and_reference(matrix):
    ncols, rows = matrix
    int_rows = [gaussian_integer_row(r) for r in rows]
    reduced = _reduced_echelon(int_rows)
    assert_matches_sympy_rref(ncols, rows, reduced)
    assert reduced == reference_reduced_echelon(int_rows)


@st.composite
def germs(draw):
    """``(field, n)``: a planar or 3-D germ whose components have 0-3 terms of
    degree 1..3, and a jet order kept small in dimension 3."""
    vars = ("x", "y", "z")[:draw(st.integers(2, 3))]
    exps = st.lists(st.integers(0, 3), min_size=len(vars), max_size=len(vars)).map(
        tuple).filter(lambda e: 1 <= sum(e) <= 3)
    comps = [Poly.make(vars, draw(st.dictionaries(exps, nonzero, max_size=3)))
             for _ in vars]
    n = draw(st.integers(2, 5 if len(vars) == 2 else 4))
    return VectorField.make(Chart.root(vars), comps), n


@settings(max_examples=60, deadline=None)
@given(germs(), nonzero)
def test_formal_solution_space_is_invariant_under_scaling(germ, c):
    x, n = germ
    assert (integrals.formal_first_integral(x.scale(c), n).to_json()
            == integrals.formal_first_integral(x, n).to_json())


@pytest.mark.parametrize("check", ["per degree", "final"])
def test_corrupted_kernel_row_fails_residual_check(monkeypatch, check):
    # saddle_node_family(1, 1, 1) at order 4 reduces four degree blocks and
    # then the canonical basis; blocks 3 and 4 and the canonical basis have
    # rows with entries outside the pivot columns.  One such entry is moved
    # by one: in the first block that has one, or in the canonical basis
    n = 4
    calls = 0
    corrupted = []

    def corrupting(rows):
        nonlocal calls
        calls += 1
        reduced = _reduced_echelon(rows)
        if not corrupted and (calls <= n if check == "per degree" else calls == n + 1):
            pivots = {c for c, _, _ in reduced}
            for k, (c, den, row) in enumerate(reduced):
                j = next((j for j in row if j not in pivots), None)
                if j is not None:
                    a, b = row[j]
                    reduced[k] = (c, den, {**row, j: (a + den, b)})
                    corrupted.append(calls)
                    break
        return reduced

    monkeypatch.setattr(integrals, "_reduced_echelon", corrupting)
    with pytest.raises(StructuralError, match="nullspace element failed residual check"):
        integrals.formal_first_integral(saddle_node_family(1, 1, 1), n)
    # the per-degree check fails in the corrupted block itself
    assert corrupted == [calls] and (calls <= n if check == "per degree" else calls == n + 1)
