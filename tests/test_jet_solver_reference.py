"""The formal jet solver against a reference.

The reference below is the solver with every monomial keyed by its
exponent tuple: the image table maps each monomial of degree 1..n to the
terms of ``(L.X) . m`` by degree, each product key built as a fresh tuple,
and the block rows, the solution vectors and the canonical basis read
those tuples.  It is copied here so that the reference does not move with
the library; it shares with it only the monomial lists, the nullspace and
the exact row reduction, which ``tests/test_exact_kernel.py`` checks
against sympy.

The toolkit must give the same ``to_json()`` on random planar and 3-D
germs with Q(i) coefficients, non-real ones among them, whose linear part
is generic, nilpotent or zero, at jet orders 2 to 7.  One 3-D germ runs at
order 32, the solver's cap, where monomials such as ``z^32`` and
``x^32`` have a coordinate at the top of the range every key covers, and
must agree there too; its packed image table, read back as base-33
digits, must be the reference table, so no key carries into the next
coordinate and no two monomials share a key.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import foliations.integrals as integrals
from foliations.algebra import GaussianRational, Poly, _make, _reduced_echelon, gr
from foliations.errors import NotApplicableError, StructuralError
from foliations.fields import Chart, VectorField, directional_derivative
from foliations.integrals import (
    JetSolutionSpace,
    _add_scaled,
    _monomials,
    _nullspace,
)

# ---------------------------------------------------------------------------
# Reference solver, keyed by exponent tuples
# ---------------------------------------------------------------------------


def reference_image_table(x: VectorField, n: int) -> dict:
    _, comps = x._integer_terms
    table = {}
    for k in range(1, n + 1):
        for m in _monomials(len(comps), k):
            image: dict = {}
            for i, comp in enumerate(comps):
                p = m[i]
                if not p:
                    continue
                base = m[:i] + (p - 1,) + m[i + 1:]
                for da, ea, ca, cb in comp:
                    if k - 1 + da > n:
                        break
                    part = image.setdefault(k - 1 + da, {})
                    e = tuple(map(operator.add, ea, base))
                    a, b = part.get(e, (0, 0))
                    part[e] = (a + p * ca, b + p * cb)
            table[m] = {deg: {e: v for e, v in part.items() if v != (0, 0)}
                        for deg, part in sorted(image.items())}
    return table


def reference_image(table: dict, f: dict, top: int) -> dict:
    out: dict = {}
    for m, (fa, fb) in f.items():
        for deg, part in table[m].items():
            if deg > top:
                break
            _add_scaled(out.setdefault(deg, {}), part, fa, fb)
    return {deg: nonzero for deg, part in out.items()
            if (nonzero := {e: v for e, v in part.items() if v != (0, 0)})}


def reference_canonical_basis(names, n: int, basis: list[dict]) -> list[Poly]:
    order = [e for d in range(1, n + 1) for e in _monomials(len(names), d)]
    col_of = {e: j for j, e in enumerate(order)}
    reduced = _reduced_echelon([{col_of[e]: v for e, v in f.items()} for f in basis])
    return [Poly.make(names, {order[j]: _make(a, b, den) for j, (a, b) in row.items()})
            for _, den, row in reversed(reduced)]


def reference_formal_first_integral(x: VectorField, n: int = 8) -> JetSolutionSpace:
    if not x.is_holomorphic():
        raise NotApplicableError("formal solving needs a holomorphic field")
    if not x.vanishes_at_origin():
        raise NotApplicableError("formal solving needs a singular germ")
    if n < 2:
        raise StructuralError("jet order must be at least 2")
    if n > integrals._MAX_JET_ORDER:
        raise StructuralError(f"jet order must be at most {integrals._MAX_JET_ORDER}")
    names = x.chart.var_names
    table = reference_image_table(x, n)
    dims = []
    basis: list[dict] = []
    tops: list[dict] = []
    for d in range(1, n + 1):
        degree_d = _monomials(len(names), d)
        row_of = {e: i for i, e in enumerate(degree_d)}
        rows = [{} for _ in degree_d]
        for j, image in enumerate(tops + [table[m].get(d, {}) for m in degree_d]):
            for e, v in image.items():
                rows[row_of[e]][j] = v
        old = len(basis)
        solutions = []
        for vec in _nullspace(rows, old + len(degree_d)):
            terms: dict = {}
            for j, (a, b) in vec.items():
                if j < old:
                    _add_scaled(terms, basis[j], a, b)
                else:
                    terms[degree_d[j - old]] = (a, b)
            terms = {e: v for e, v in terms.items() if v != (0, 0)}
            g = math.gcd(*itertools.chain.from_iterable(terms.values()))
            solutions.append({e: (a // g, b // g) for e, (a, b) in terms.items()})
        basis = solutions
        tops = []
        for f in basis:
            image = reference_image(table, f, d + 1)
            if any(deg <= d for deg in image):
                raise StructuralError("nullspace element failed residual check")
            tops.append(image.get(d + 1, {}))
        dims.append(len(basis))
    canonical = reference_canonical_basis(names, n, basis)
    for f in canonical:
        if not directional_derivative(x, f, n).is_zero():
            raise StructuralError("nullspace element failed residual check")
    return JetSolutionSpace(n, tuple(canonical), tuple(dims))


# ---------------------------------------------------------------------------
# Random germs
# ---------------------------------------------------------------------------

fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
coefficients = st.builds(GaussianRational, fractions,
                         st.one_of(st.just(Fraction(0)), fractions)).filter(
    lambda c: not c.is_zero())


@st.composite
def germs(draw):
    """``(field, n)``: a planar or 3-D germ whose linear part is generic,
    nilpotent (strictly upper triangular) or zero, plus up to three terms of
    degree 2 or 3 per component, and a jet order 2..7."""
    k = draw(st.integers(2, 3))
    names = ("x", "y", "z")[:k]
    unit = [tuple(int(i == j) for i in range(k)) for j in range(k)]
    linear = draw(st.sampled_from(["generic", "nilpotent", "zero"]))
    higher = st.lists(st.integers(0, 3), min_size=k, max_size=k).map(tuple).filter(
        lambda e: 2 <= sum(e) <= 3)
    comps = []
    for i in range(k):
        terms = draw(st.dictionaries(higher, coefficients, max_size=3))
        for j in range(k):
            if linear == "generic" or (linear == "nilpotent" and j > i):
                if draw(st.booleans()):
                    terms[unit[j]] = draw(coefficients)
        comps.append(Poly.make(names, terms))
    return VectorField.make(Chart.root(names), comps), draw(st.integers(2, 7))


@settings(max_examples=200, deadline=None)
@given(germs())
def test_formal_first_integral_matches_reference(germ):
    x, n = germ
    assert (integrals.formal_first_integral(x, n).to_json()
            == reference_formal_first_integral(x, n).to_json())


def order_32_germ() -> VectorField:
    # x' = x + xz, y' = -y + x^2 z, z' = 0: every z^k is a first integral,
    # so z^32 is a basis element, and the table holds keys such as x^32
    # (the image of x^32) with a coordinate equal to the order
    names = ("x", "y", "z")
    return VectorField.make(Chart.root(names), [
        Poly.make(names, {(1, 0, 0): gr(1), (1, 0, 1): gr(1)}),
        Poly.make(names, {(0, 1, 0): gr(-1), (2, 0, 1): gr(1)}),
        Poly.zero(names),
    ])


def test_order_32_keys_at_the_top_of_the_range():
    x = order_32_germ()
    space = integrals.formal_first_integral(x, integrals._MAX_JET_ORDER)
    assert space.to_json() == reference_formal_first_integral(
        x, integrals._MAX_JET_ORDER).to_json()
    assert "z^32" in space.to_json()["basis"]


def test_packed_image_table_unpacks_to_the_reference_table():
    # base n + 1 digits, most significant first: a key that carried or two
    # monomials sharing a key would unpack to a different table
    x, n = order_32_germ(), integrals._MAX_JET_ORDER

    def unpack(key: int) -> tuple[int, ...]:
        digits = []
        for _ in range(3):
            key, e = divmod(key, n + 1)
            digits.append(e)
        assert key == 0
        return tuple(reversed(digits))

    packed = integrals._image_table(x, n)
    assert {unpack(m): {deg: {unpack(e): v for e, v in part.items()}
                        for deg, part in image.items()}
            for m, image in packed.items()} == reference_image_table(x, n)
