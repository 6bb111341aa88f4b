from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foliations.algebra import ChartFunction, Poly, gr
from foliations.classify import (
    CLASS_ELEMENTARY,
    CLASS_NILPOTENT,
    CLASS_REGULAR,
    CLASS_SADDLE_NODE,
    CLASS_ZERO_LINEAR,
    POSITION_POINCARE,
    POSITION_SIEGEL,
    POSITION_SIEGEL_BOUNDARY,
    POSITION_UNDECIDED,
    UNDECIDED,
    EigenData,
    char_poly,
    classify_singularity,
    eigen_solve,
    is_nilpotent,
    resonance_rank,
    resonant_relations,
    siegel_test,
)
from foliations.corpus import (
    airy_model_field,
    cusp_hamiltonian,
    linear_saddle,
    quadratic_isolated_field,
    saddle_node_family,
    sancho_sanz_field,
    two_integrals_field,
)
from foliations.errors import FoliationError, NotApplicableError, StructuralError
from foliations.fields import Chart, LinearPart, VectorField, linear_part
from foliations.intervals import CertifiedRoot

from conftest import make_poly

V1 = ("x",)
V2 = ("x", "y")
V3 = ("x", "y", "z")
T = ("t",)


def tpoly(coeffs) -> Poly:
    return Poly(T, {(k,): gr(c) for k, c in enumerate(coeffs) if c})


class TestCharPoly:
    def test_sancho_sanz_is_t_cubed(self):
        cp = char_poly(linear_part(sancho_sanz_field()))
        assert cp == tpoly([0, 0, 0, 1])

    def test_diagonal(self):
        lp = LinearPart(((gr(1), gr(0)), (gr(0), gr(-3))))
        assert char_poly(lp) == tpoly([-3, 2, 1])  # (t-1)(t+3)

    def test_family_char_poly(self):
        cp = char_poly(linear_part(saddle_node_family(1, 1, 1)))
        assert cp == tpoly([0, -1, 0, 1])  # t(t-1)(t+1)


class TestEigenSolve:
    def test_exact_rational_roots(self):
        data = eigen_solve(tpoly([0, -1, 0, 1]))
        values = sorted((v.re, v.im) for v, _ in data.roots)
        assert values == [(-1, 0), (0, 0), (1, 0)]

    def test_triple_zero(self):
        data = eigen_solve(tpoly([0, 0, 0, 1]))
        assert data.roots == ((gr(0), 3),)

    def test_sqrt_two_intervals(self):
        data = eigen_solve(tpoly([-2, 0, 1]))
        boxes = [v for v, _ in data.roots]
        assert all(isinstance(v, CertifiedRoot) for v in boxes)
        import math
        # each box is the float tuple (re_lo, re_hi, im_lo, im_hi) that
        # to_json prints as the interval's value
        assert all(type(b.box) is tuple and len(b.box) == 4
                   and all(type(x) is float for x in b.box) for b in boxes)
        assert [r["value"] for r in data.to_json()] == [list(b.box) for b in boxes]
        mids = sorted(0.5 * (b.box[0] + b.box[1]) for b in boxes)
        assert abs(mids[0] + math.sqrt(2)) < 1e-9
        assert abs(mids[1] - math.sqrt(2)) < 1e-9
        assert all(max(re_hi - re_lo, im_hi - im_lo) <= 1e-10
                   for re_lo, re_hi, im_lo, im_hi in (b.box for b in boxes))
        (a_lo, a_hi, ai_lo, ai_hi), (b_lo, b_hi, bi_lo, bi_hi) = boxes[0].box, boxes[1].box
        assert max(a_lo, b_lo) > min(a_hi, b_hi) or max(ai_lo, bi_lo) > min(ai_hi, bi_hi)

    def test_gaussian_root(self):
        # (t - i)(t + 2i) = t^2 + i t + 2
        p = Poly(T, {(2,): gr(1), (1,): gr(0, 1), (0,): gr(2)})
        data = eigen_solve(p)
        values = sorted((v.re, v.im) for v, _ in data.roots)
        assert values == [(0, -2), (0, 1)]

    def test_interval_roots_contain_zero_of_char_poly(self):
        from foliations import intervals as iv
        p = tpoly([-2, 0, 1])
        data = eigen_solve(p)
        coeffs = [iv._rectangle(*c._abd) for c in p.univariate_coeffs("t")]
        for v, _ in data.roots:
            re_lo, re_hi, im_lo, im_hi = iv._interval_eval(coeffs, v.box)
            assert re_lo <= 0.0 <= re_hi and im_lo <= 0.0 <= im_hi

    def test_exact_roots_annihilate_exactly(self):
        p = tpoly([6, -5, -2, 1])  # (t-1)(t+2)(t-3)
        data = eigen_solve(p)
        for v, _ in data.roots:
            assert isinstance(v, gr(0).__class__)
            total = gr(0)
            coeffs = p.univariate_coeffs("t")
            for k, c in enumerate(coeffs):
                total = total + c * v ** k
            assert total.is_zero()


class TestClassification:
    def test_family_saddle_node(self):
        report = classify_singularity(saddle_node_family(1, 1, 1))
        assert report.klass == CLASS_SADDLE_NODE
        assert report.rank == 1

    def test_sancho_sanz_nilpotent(self):
        report = classify_singularity(sancho_sanz_field())
        assert report.klass == CLASS_NILPOTENT

    def test_one_dimensional_zero_linear(self):
        chart = Chart.root(V1)
        field = VectorField.make(chart, [make_poly(V1, {(2,): 1})])
        report = classify_singularity(field)
        assert report.klass == CLASS_ZERO_LINEAR
        assert report.second_jet_nonzero

    def test_regular_point(self):
        chart = Chart.root(V2)
        field = VectorField.make(chart, [Poly.constant(V2, 1), Poly.zero(V2)])
        report = classify_singularity(field)
        assert report.klass == CLASS_REGULAR

    def test_cusp_nilpotent(self):
        assert classify_singularity(cusp_hamiltonian(1)).klass == CLASS_NILPOTENT

    def test_quadratic_zero_linear(self):
        assert classify_singularity(quadratic_isolated_field(2)).klass == CLASS_ZERO_LINEAR

    def test_airy_saddle_node(self):
        report = classify_singularity(airy_model_field())
        assert report.klass == CLASS_SADDLE_NODE
        assert report.rank == 1

    def test_scale_equivariance(self):
        fields = [saddle_node_family(1, 1, 1), sancho_sanz_field(),
                  cusp_hamiltonian(1), linear_saddle(3),
                  quadratic_isolated_field(3), two_integrals_field()]
        for field in fields:
            base = classify_singularity(field).klass
            for c in (gr(2), gr("1/3"), gr(0, 1), gr(-5, 2)):
                assert classify_singularity(field.scale(c)).klass == base

    def test_large_denominator_eigenvalue_is_exact(self):
        # r x d/dx + 2y d/dy with r = 1234567/1000003
        r = gr("1234567/1000003")
        field = VectorField.make(Chart.root(V2), [
            Poly(V2, {(1, 0): r}), Poly(V2, {(0, 1): gr(2)})])
        report = classify_singularity(field)
        assert report.eigen.all_exact()
        assert sorted(report.eigen.exact_values(), key=lambda v: (v.re, v.im)) == [r, gr(2)]
        assert report.resonance_rank == 1
        assert report.domain_position == POSITION_POINCARE

    def test_large_denominator_spectrum_3d_is_exact(self):
        values = [gr("1234567/1000003"), gr("7654321/1000033"), gr("3333331/1000037")]
        field = VectorField.make(Chart.root(V3), [
            Poly(V3, {e: v}) for e, v in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), values)])
        report = classify_singularity(field)
        assert report.eigen.all_exact()
        assert sorted(report.eigen.exact_values(), key=lambda v: (v.re, v.im)) == sorted(
            values, key=lambda v: (v.re, v.im))
        assert report.resonance_rank == 2
        assert report.domain_position == POSITION_POINCARE

    def test_elementary_iff_char_not_nilpotent(self):
        fields = [saddle_node_family(1, 1, 1), sancho_sanz_field(),
                  cusp_hamiltonian(1), linear_saddle(2),
                  quadratic_isolated_field(2), two_integrals_field(),
                  airy_model_field()]
        for field in fields:
            report = classify_singularity(field)
            n = field.chart.dim
            cp = char_poly(linear_part(field))
            nilpotent_char = cp == Poly(T, {(n,): gr(1)})
            assert report.is_elementary() == (not nilpotent_char)


class TestResonance:
    def test_pair(self):
        assert resonance_rank([gr(1), gr(-1)]) == 1

    def test_strict_siegel_triple(self):
        assert resonance_rank([gr(1), gr(1, 1), gr(-2, -1)]) == 1

    def test_interval_undecided(self):
        data = eigen_solve(tpoly([-2, 0, 1]))
        values = [v for v, _ in data.roots]
        assert resonance_rank(values) == UNDECIDED

    def test_scale_invariance(self):
        for values in ([gr(1), gr(-1)], [gr(1), gr(1, 1), gr(-2, -1)],
                       [gr(2), gr(3), gr(-4)]):
            base = resonance_rank(values)
            for c in (Fraction(2), Fraction(1, 3), Fraction(-7, 2)):
                scaled = [v * gr(c) for v in values]
                assert resonance_rank(scaled) == base

    def test_relations_examples(self):
        assert (1, (2, 0)) in resonant_relations([gr(1), gr(2)])
        assert (0, (2, 1)) in resonant_relations([gr(1), gr(-1)])
        rels = resonant_relations([gr(1), gr(-3)])
        assert (0, (4, 1)) in rels  # 1 = 4*1 + 1*(-3), |I| = 5 <= 6


class TestSiegel:
    def test_examples(self):
        assert siegel_test([gr(1), gr(1, 1), gr(-2, -1)]) == POSITION_SIEGEL
        assert siegel_test([gr(1), gr(1), gr(1)]) == POSITION_POINCARE
        assert siegel_test([gr(1), gr(-3)]) == POSITION_SIEGEL

    def test_zero_eigenvalue_boundary(self):
        assert siegel_test([gr(0), gr(1), gr(-1)]) == POSITION_SIEGEL_BOUNDARY

    def test_positive_scale_invariance(self):
        for values in ([gr(1), gr(1, 1), gr(-2, -1)], [gr(1), gr(2), gr(3)],
                       [gr(1), gr(-3)], [gr(0, 1), gr(1), gr(-1, -2)]):
            base = siegel_test(values)
            for c in (Fraction(3), Fraction(2, 5)):
                assert siegel_test([v * gr(c) for v in values]) == base

    def test_collinear_one_side(self):
        assert siegel_test([gr(1), gr(2), gr(3)]) == POSITION_POINCARE


class TestReportSerialization:
    def test_json_shape(self):
        report = classify_singularity(saddle_node_family(1, 1, 1))
        data = report.to_json()
        assert data["class"] == CLASS_SADDLE_NODE
        assert data["rank"] == 1
        assert isinstance(data["eigenvalues"], list)
        assert data["second_jet_nonzero"] is True

    def test_interval_serialization(self):
        chart = Chart.root(V2)
        field = VectorField.make(chart, [
            make_poly(V2, {(1, 0): 1, (0, 1): -2}),
            make_poly(V2, {(1, 0): 1, (0, 1): 1}),
        ])
        data = classify_singularity(field).to_json()
        kinds = {e["type"] for e in data["eigenvalues"]}
        assert kinds <= {"exact", "interval"}
        for e in data["eigenvalues"]:
            if e["type"] == "interval":
                assert len(e["value"]) == 4


class TestEigenFactorReconstruction:
    def test_exact_roots_rebuild_char_poly(self):
        for coeffs in ([0, -1, 0, 1], [6, -5, -2, 1], [0, 0, 0, 1], [1, 2, 1]):
            p = tpoly(coeffs)
            data = eigen_solve(p)
            if not data.all_exact():
                continue
            product = Poly(T, {(0,): gr(1)})
            t = Poly(T, {(1,): gr(1)})
            for value, mult in data.roots:
                factor = t - Poly(T, {(0,): value})
                product = product * factor ** mult
            assert product == p


# ---------------------------------------------------------------------------
# The nilpotency test against the full classification
# ---------------------------------------------------------------------------

small = st.integers(-3, 3)
monomials3 = st.lists(st.integers(0, 3), min_size=3, max_size=3).map(tuple)


def _terms(draw, min_degree: int) -> dict:
    return {e: c for e, c in draw(st.dictionaries(monomials3, small, max_size=4)).items()
            if sum(e) >= min_degree and c}


@st.composite
def random_germs(draw):
    """Random 3-D fields, constant terms included (non-vanishing ones)."""
    return VectorField.make(Chart.root(V3), [
        make_poly(V3, _terms(draw, 0)) for _ in range(3)])


@st.composite
def conjugated_nilpotent_germs(draw):
    """Linear part P N P^-1 (N strictly upper triangular, P an invertible
    small integer matrix), plus higher-order terms and maybe a constant
    term; also says whether the field is nilpotent (N nonzero, no constant)."""
    # P = L U with unit triangular integer factors, so det P = 1
    lower = [[draw(small) if j < i else int(i == j) for j in range(3)] for i in range(3)]
    upper = [[draw(small) if j > i else int(i == j) for j in range(3)] for i in range(3)]
    p = _product(lower, upper)
    n = [[draw(small) if j > i else 0 for j in range(3)] for i in range(3)]
    p_inv = _inverse([[Fraction(v) for v in row] for row in p])
    lin = _product(_product(p, n), p_inv)
    constant = draw(st.booleans()) and draw(st.integers(1, 3))
    comps = []
    for i in range(3):
        terms = _terms(draw, 2)
        for j in range(3):
            if lin[i][j]:
                terms[tuple(int(k == j) for k in range(3))] = lin[i][j]
        if constant and i == 0:
            terms[(0, 0, 0)] = constant
        comps.append(make_poly(V3, terms))
    return VectorField.make(Chart.root(V3), comps), any(any(row) for row in n) and not constant


def _product(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def _inverse(m):
    rows = [row + [Fraction(int(i == j)) for j in range(3)] for i, row in enumerate(m)]
    for col in range(3):
        pivot = next(r for r in range(col, 3) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(3):
            if r != col and rows[r][col]:
                rows[r] = [v - rows[r][col] * w for v, w in zip(rows[r], rows[col])]
    return [row[3:] for row in rows]


def _classified_nilpotent(field: VectorField) -> bool:
    try:
        return classify_singularity(field).klass == CLASS_NILPOTENT
    except FoliationError:
        return False


# x d/dx + y/x d/dy + z d/dz: meromorphic along x = 0
MEROMORPHIC = VectorField(Chart.root(V3), (
    ChartFunction.make(Poly.variable(V3, "x")),
    ChartFunction(Poly.variable(V3, "y"), (-1, 0, 0)),
    ChartFunction.make(Poly.variable(V3, "z"))))


@settings(max_examples=80, deadline=None)
@given(random_germs())
@example(sancho_sanz_field())
@example(MEROMORPHIC)
def test_is_nilpotent_agrees_with_classification(field):
    assert is_nilpotent(field) == _classified_nilpotent(field)


@settings(max_examples=80, deadline=None)
@given(conjugated_nilpotent_germs())
def test_conjugated_nilpotent_linear_parts(case):
    field, nilpotent = case
    assert is_nilpotent(field) == nilpotent == _classified_nilpotent(field)


SQRT2 = eigen_solve(tpoly([-2, 0, 1]))    # roots +-sqrt(2): intervals


@pytest.mark.parametrize("call, error, message", [
    (lambda: char_poly(LinearPart(((gr(0),) * 4,) * 4)), StructuralError,
     "only dimensions up to 3"),
    (lambda: eigen_solve(tpoly([1, 0, 0, 0, 1])), StructuralError, "degree at most 3"),
    (lambda: eigen_solve(tpoly([1, 2])), StructuralError, "expects a monic polynomial"),
    (lambda: SQRT2.exact_values(), NotApplicableError, "not all exact"),
    (lambda: resonant_relations([v for v, _ in SQRT2.roots]), NotApplicableError,
     "need exact eigenvalues"),
    (lambda: siegel_test([gr(1), gr(2), gr(3), gr(4)]), StructuralError,
     "up to three eigenvalues"),
])
def test_guards_raise_typed_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_siegel_position_of_certified_eigenvalues_is_undecided():
    assert siegel_test([v for v, _ in SQRT2.roots]) == POSITION_UNDECIDED


def test_quadratic_isolated_family_has_two_members():
    with pytest.raises(ValueError, match="variant must be 2 or 3"):
        quadratic_isolated_field(4)
