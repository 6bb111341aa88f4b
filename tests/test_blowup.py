from __future__ import annotations

import pytest

from foliations.algebra import GR_ONE, ChartFunction, Poly
from foliations.blowup import (
    POINT,
    BlowupSpec,
    all_charts,
    curve_center,
    weighted_blowup,
)
from foliations.corpus import (
    commuting_pair,
    cusp_hamiltonian,
    jouanolou_field,
    meromorphic_transform_example,
    radial,
    two_integrals_field,
)
from foliations.errors import InvalidCenterError, NotApplicableError
from foliations.fields import Chart, VectorField, directional_derivative

from conftest import make_poly

V2 = ("x", "y")
V3 = ("x", "y", "z")


class TestPointBlowup:
    def test_radial_multiplicity_and_dicritical(self):
        for result in all_charts(radial(2)):
            assert result.divisor_multiplicity == 1
            assert result.dicritical

    def test_cusp_divisor_invariant(self):
        for result in all_charts(cusp_hamiltonian(1)):
            assert not result.dicritical
        first = all_charts(cusp_hamiltonian(1))[0]
        # transformed representative in the chart where old y = x*y
        assert first.representative.render() == "2*x*y, -2*y^2 + 3*x"

    def test_degree_two_nonradial_multiplicity(self):
        field = VectorField.make(Chart.root(V2), [
            make_poly(V2, {(0, 2): 1}), make_poly(V2, {(2, 0): 1})])
        for result in all_charts(field):
            assert result.divisor_multiplicity == 1

    def test_regular_point_rejected(self):
        field = VectorField.make(Chart.root(V2), [
            Poly.constant(V2, 1), Poly.zero(V2)])
        with pytest.raises(NotApplicableError):
            weighted_blowup(field, BlowupSpec())

    def test_multiplicity_rule_homogeneous(self, rng):
        # k = 1, 2, 3; radial multiples get k, others k-1
        for k in (1, 2, 3):
            radial_mult = VectorField.make(Chart.root(V2), [
                make_poly(V2, {(k, 0): 1}), make_poly(V2, {(k - 1, 1): 1})])
            for result in all_charts(radial_mult):
                assert result.divisor_multiplicity == k
        for k, field_terms in (
            (1, ([{(0, 1): 2}, {(1, 0): 5}])),
            (2, ([{(0, 2): 1, (1, 1): 1}, {(2, 0): 3}])),
            (3, ([{(0, 3): 1}, {(3, 0): 2, (2, 1): 1}])),
        ):
            field = VectorField.make(Chart.root(V2), [
                make_poly(V2, t) for t in field_terms])
            for result in all_charts(field):
                assert result.divisor_multiplicity == k - 1, f"k={k}"

    def test_jouanolou_blowup_invariant(self):
        for result in all_charts(jouanolou_field(2)):
            assert not result.dicritical


class TestChartCompatibility:
    """The two charts of a point blow-up agree under the gluing map."""

    @staticmethod
    def _push_to_first_chart(result1):
        # gluing: x0 = x1*y1, y0 = 1/x1; pushforward of d/dx1, d/dy1
        comps = result1.field.components
        x1 = ChartFunction.make(Poly.variable(V2, "x"))
        dx0 = comps[0] * ChartFunction.make(Poly.variable(V2, "y")) \
            + x1 * comps[1]
        dy0 = comps[0] * ChartFunction.make(Poly.constant(V2, -1), (-2, 0))
        return dx0, dy0

    def test_total_transforms_glue_exactly(self):
        for field in (cusp_hamiltonian(1), radial(2),
                      VectorField.make(Chart.root(V2), [
                          make_poly(V2, {(0, 2): 1, (2, 0): 2}),
                          make_poly(V2, {(2, 0): 1, (1, 1): -1})])):
            result0 = weighted_blowup(field, BlowupSpec(POINT, None, 0))
            result1 = weighted_blowup(field, BlowupSpec(POINT, None, 1))
            glue = {"x": (GR_ONE, (1, 1)), "y": (GR_ONE, (-1, 0))}
            dx0, dy0 = self._push_to_first_chart(result1)
            for pushed, comp in ((dx0, result0.field.components[0]),
                                 (dy0, result0.field.components[1])):
                pulled = _compose_chart_function(comp, glue)
                assert pushed == pulled

    def test_blow_down_collinearity(self):
        for field in (cusp_hamiltonian(1), two_integrals_field()):
            result = weighted_blowup(field, BlowupSpec(POINT, None, 0))
            dim = field.chart.dim
            point = tuple(0.31 + 0.11j * (k + 1) for k in range(dim))
            down = [point[0]] + [point[0] * point[k] for k in range(1, dim)]
            rep_val = [c.eval_complex(point) for c in result.representative.components]
            # d(pi): old_1 = x, old_k = x * u_k
            pushed = [rep_val[0]]
            for k in range(1, dim):
                pushed.append(rep_val[0] * point[k] + point[0] * rep_val[k])
            original = [c.eval_complex(tuple(down)) for c in field.components]
            # collinearity: cross products vanish
            for i in range(dim):
                for j in range(i + 1, dim):
                    cross = pushed[i] * original[j] - pushed[j] * original[i]
                    scale = max(1.0, *(abs(v) for v in pushed + original))
                    assert abs(cross) <= 1e-9 * scale * scale


def _compose_chart_function(cf: ChartFunction, assignment) -> ChartFunction:
    out = cf.numerator.laurent_substitute(assignment)
    mono = Poly.constant(cf.vars, GR_ONE)
    exps = [0] * len(cf.vars)
    for name, e in zip(cf.vars, cf.monomial_exponents):
        if name in assignment:
            c, image = assignment[name]
            for k in range(len(exps)):
                exps[k] += image[k] * e
        else:
            exps[cf.vars.index(name)] += e
    return out * ChartFunction.make(mono, tuple(exps))


class TestFirstIntegralPullback:
    def test_cusp_level_pullback(self):
        field = cusp_hamiltonian(1)
        level = make_poly(V2, {(0, 2): 1, (3, 0): -1})
        assert directional_derivative(field, level).is_zero()
        for idx in range(2):
            result = weighted_blowup(field, BlowupSpec(POINT, None, idx))
            sub = _chart_substitution(V2, idx)
            pulled = level.substitute_monomials(sub)
            assert directional_derivative(result.representative, pulled).is_zero()

    def test_three_dim_pullback(self):
        field = two_integrals_field()
        integral = make_poly(V3, {(1, 0, 1): 1})
        for idx in range(3):
            result = weighted_blowup(field, BlowupSpec(POINT, None, idx))
            sub = _chart_substitution(V3, idx)
            pulled = integral.substitute_monomials(sub)
            assert directional_derivative(result.representative, pulled).is_zero()


def _chart_substitution(vars, chart_index):
    n = len(vars)
    sub = {}
    for j, name in enumerate(vars):
        if j == chart_index:
            continue
        exps = [0] * n
        exps[j] = 1
        exps[chart_index] += 1
        sub[name] = (GR_ONE, tuple(exps))
    return sub


class TestCurveBlowup:
    def test_invariant_axis(self):
        x, _ = commuting_pair(1)
        # x-axis {y = z = 0} is invariant for zy d/dy + z^2 d/dz; the field
        # is z times the radial field of the (y, z) planes, so its foliation
        # meets the new divisor transversally (dicritical) and the
        # representative is regular at generic divisor points
        result = weighted_blowup(x, BlowupSpec(curve_center("x"), None, 0))
        assert result.dicritical
        assert result.representative.is_holomorphic()
        comp = result.representative.component("y").expand().restrict(
            result.divisor_var, 0)
        assert not comp.is_zero()

    def test_partner_regular_at_generic_points(self):
        _, y = commuting_pair(1)
        result = weighted_blowup(y, BlowupSpec(curve_center("x"), None, 0))
        comp = result.representative.component("x").expand().restrict(
            result.divisor_var, 0)
        assert not comp.is_zero()

    def test_non_invariant_center_rejected(self):
        field = VectorField.make(Chart.root(V3), [
            Poly.constant(V3, 1), Poly.variable(V3, "y"), Poly.variable(V3, "z")])
        with pytest.raises(InvalidCenterError):
            weighted_blowup(field, BlowupSpec(curve_center("z"), None, 0))


class TestWeightedBlowup:
    def test_meromorphic_example(self):
        field = meromorphic_transform_example()
        result = weighted_blowup(field, BlowupSpec(curve_center("z"), (2, 1), 0))
        assert result.pole_order == 1
        assert not result.field.is_holomorphic()
        # the d/dy component carries the strictly meromorphic -y^2/(2x) + x term
        comp = result.field.component("y")
        assert comp.monomial_exponents[0] == -1

    def test_weight_one_matches_standard(self):
        # weights default to ones: the standard blow-up
        for field in (cusp_hamiltonian(1), radial(2)):
            for idx in range(2):
                standard = weighted_blowup(field, BlowupSpec(POINT, None, idx))
                weighted = weighted_blowup(field, BlowupSpec(POINT, (1, 1), idx))
                assert standard.field == weighted.field
                assert standard.representative == weighted.representative
                assert standard.divisor_multiplicity == weighted.divisor_multiplicity
                assert standard.pole_order == weighted.pole_order
                assert standard.dicritical == weighted.dicritical

    def test_weighted_escape_chart(self):
        from foliations.corpus import sancho_sanz_field
        field = sancho_sanz_field()
        result = weighted_blowup(field, BlowupSpec(curve_center("z"), (2, 1), 0))
        assert result.pole_order == 0
        assert result.divisor_multiplicity == 1
        from foliations.classify import classify_singularity
        report = classify_singularity(result.representative)
        assert report.is_elementary()

    def test_divisor_labels(self):
        field = cusp_hamiltonian(1)
        result = all_charts(field, POINT, None, "E7")[0]
        assert result.representative.chart.divisor_labels == ("E7", None)
