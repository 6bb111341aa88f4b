from __future__ import annotations

import pytest

from foliations.algebra import Poly, gr
from foliations.corpus import (
    commuting_pair,
    diagonal_two_integrals_field,
    jouanolou_field,
    jouanolou_form,
    saddle_node_family,
    sancho_sanz_field,
    two_integrals_field,
)
from foliations.errors import ChartMismatchError, NotApplicableError, PoleEvaluationError
from foliations.fields import (
    Chart,
    OneForm,
    VectorField,
    contract,
    directional_derivative,
    euler_test,
    integrability_check,
    lie_bracket,
    linear_part,
    radial_field,
)

from conftest import make_poly, random_poly

V2 = ("x", "y")
V3 = ("x", "y", "z")


def random_field(rng, vars, max_degree=3) -> VectorField:
    chart = Chart.root(vars)
    return VectorField.make(
        chart, [random_poly(rng, vars, max_degree=max_degree) for _ in vars])


class TestDirectionalDerivative:
    def test_two_integral_field(self):
        x = two_integrals_field()
        assert directional_derivative(x, make_poly(V3, {(1, 0, 1): 1})).is_zero()
        assert directional_derivative(
            x, make_poly(V3, {(0, 2, 2): 1, (3, 0, 2): -1})).is_zero()

    def test_diagonal_field(self):
        x = diagonal_two_integrals_field()
        assert directional_derivative(x, make_poly(V3, {(1, 1, 0): 1})).is_zero()

    def test_chart_mismatch(self):
        x = two_integrals_field()
        with pytest.raises(ChartMismatchError):
            directional_derivative(x, Poly.variable(V2, "x"))

    def test_leibniz_randomized(self, rng):
        for _ in range(40):
            x = random_field(rng, V2)
            f = random_poly(rng, V2, max_degree=3)
            g = random_poly(rng, V2, max_degree=3)
            lhs = directional_derivative(x, f * g)
            rhs = f * directional_derivative(x, g) + g * directional_derivative(x, f)
            assert lhs == rhs


class TestLieBracket:
    def test_commuting_pair(self):
        x, y = commuting_pair(1)
        assert lie_bracket(x, y).is_zero()

    def test_coordinate_bracket(self):
        chart = Chart.root(("x",))
        ddx = VectorField.make(chart, [Poly.constant(("x",), 1)])
        x_ddx = VectorField.make(chart, [Poly.variable(("x",), "x")])
        assert lie_bracket(ddx, x_ddx) == ddx

    def test_euler_relation_bracket(self):
        r = radial_field(Chart.root(V3))
        z = jouanolou_field(2)
        assert lie_bracket(r, z) == z.scale(gr(1))

    def test_antisymmetry_randomized(self, rng):
        for _ in range(30):
            x = random_field(rng, V2)
            y = random_field(rng, V2)
            assert (lie_bracket(x, y) + lie_bracket(y, x)).is_zero()

    def test_jacobi_randomized(self, rng):
        for _ in range(12):
            x = random_field(rng, V2, max_degree=2)
            y = random_field(rng, V2, max_degree=2)
            z = random_field(rng, V2, max_degree=2)
            total = (lie_bracket(x, lie_bracket(y, z))
                     + lie_bracket(y, lie_bracket(z, x))
                     + lie_bracket(z, lie_bracket(x, y)))
            assert total.is_zero()


class TestLinearPart:
    def test_saddle_node_family(self):
        lp = linear_part(saddle_node_family(1, 1, 1))
        rows = [[e.text() for e in row] for row in lp.entries]
        assert rows == [["0", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]]

    def test_sancho_sanz_nilpotent_entries(self):
        lp = linear_part(sancho_sanz_field())
        rows = [[e.text() for e in row] for row in lp.entries]
        assert rows == [["0", "0", "0"], ["0", "0", "0"], ["0", "1", "0"]]
        assert not lp.is_zero()

    def test_radial_identity(self):
        lp = linear_part(radial_field(Chart.root(V3)))
        for i in range(3):
            for j in range(3):
                assert lp.entries[i][j] == (gr(1) if i == j else gr(0))

    def test_meromorphic_rejected(self):
        from foliations.algebra import ChartFunction
        chart = Chart.root(V2)
        mero = ChartFunction.make(Poly.constant(V2, 1), (-1, 0))
        field = VectorField(chart, (mero, ChartFunction.zero(V2)))
        with pytest.raises(PoleEvaluationError):
            linear_part(field)


class TestContract:
    def test_radial_in_kernel(self):
        assert contract(jouanolou_form(2), radial_field(Chart.root(V3))).is_zero()

    def test_dx_of_ddx(self):
        chart = Chart.root(V3)
        dx = OneForm.make(chart, [Poly.constant(V3, 1), Poly.zero(V3), Poly.zero(V3)])
        ddx = VectorField.make(chart, [Poly.constant(V3, 1), Poly.zero(V3), Poly.zero(V3)])
        assert contract(dx, ddx).expand() == Poly.constant(V3, 1)

    def test_first_coefficient_read_off(self):
        chart = Chart.root(V3)
        ddx = VectorField.make(chart, [Poly.constant(V3, 1), Poly.zero(V3), Poly.zero(V3)])
        value = contract(jouanolou_form(1), ddx)
        assert value.expand() == make_poly(V3, {(1, 1, 0): 1, (0, 0, 2): -1})

    def test_bilinearity(self, rng):
        chart = Chart.root(V3)
        for _ in range(20):
            omega = OneForm.make(chart, [random_poly(rng, V3, 2) for _ in V3])
            x = random_field(rng, V3, 2)
            f = random_poly(rng, V3, 2)
            scaled = VectorField.make(chart, [f * c.expand() for c in x.components])
            lhs = contract(omega, scaled).expand()
            rhs = f * contract(omega, x).expand()
            assert lhs == rhs


class TestIntegrability:
    def test_jouanolou_forms(self):
        for n in (1, 2, 3):
            assert integrability_check(jouanolou_form(n))

    def test_contact_form_fails(self):
        chart = Chart.root(V3)
        omega = OneForm.make(chart, [
            Poly.variable(V3, "z"), Poly.constant(V3, 1), Poly.zero(V3)])
        assert not integrability_check(omega)

    def test_exact_forms_integrable(self):
        chart = Chart.root(V3)
        f = make_poly(V3, {(1, 1, 1): 1})
        assert integrability_check(
            OneForm.make(chart, [f.partial(v) for v in V3]))

    def test_exact_forms_integrable_randomized(self, rng):
        chart = Chart.root(V3)
        for _ in range(50):
            f = random_poly(rng, V3, max_degree=4)
            assert integrability_check(
                OneForm.make(chart, [f.partial(v) for v in V3]))

    def test_dimension_two_always(self):
        chart = Chart.root(V2)
        omega = OneForm.make(chart, [Poly.variable(V2, "y"), Poly.variable(V2, "x")])
        assert integrability_check(omega)


class TestEuler:
    def test_jouanolou_degrees(self):
        for n in (1, 2, 3):
            assert euler_test(jouanolou_field(n)) == n

    def test_radial_is_degree_one(self):
        assert euler_test(radial_field(Chart.root(V3))) == 1

    def test_diagonal_quadratic(self):
        chart = Chart.root(V2)
        z = VectorField.make(chart, [make_poly(V2, {(2, 0): 1}),
                                     make_poly(V2, {(0, 2): 1})])
        assert euler_test(z) == 2

    def test_non_homogeneous_rejected(self):
        chart = Chart.root(V2)
        z = VectorField.make(chart, [make_poly(V2, {(2, 0): 1, (1, 0): 1}),
                                     Poly.zero(V2)])
        with pytest.raises(NotApplicableError):
            euler_test(z)


class TestChart:
    def test_dimension_guard(self):
        with pytest.raises(Exception):
            Chart.root(("a", "b", "c", "d"))

    def test_labels_default(self):
        chart = Chart.root(V2)
        assert chart.divisor_labels == (None, None)
