from __future__ import annotations

import random

import pytest

from foliations.algebra import GR_ONE, ChartFunction, Poly, gr
from foliations.blowup import POINT, BlowupSpec, weighted_blowup
from foliations.corpus import (
    diagonal_two_integrals_field,
    radial,
    saddle_node_family,
    two_integrals_field,
)
from foliations.errors import NotApplicableError, StructuralError
from foliations.fields import Chart, VectorField, directional_derivative
from foliations.integrals import (
    FactoredFunction,
    JetSolutionSpace,
    formal_first_integral,
    independence_check,
    meromorphic_quotient,
    verify_first_integral,
)

from conftest import make_poly

V2 = ("x", "y")
V3 = ("x", "y", "z")


class TestVerify:
    def test_two_integral_field(self):
        x = two_integrals_field()
        assert verify_first_integral(x, make_poly(V3, {(1, 0, 1): 1}))
        assert verify_first_integral(x, make_poly(V3, {(0, 2, 2): 1, (3, 0, 2): -1}))

    def test_radial_counterexample(self):
        x = radial(2)
        assert not verify_first_integral(x, make_poly(V2, {(1, 1): 1}))

    def test_closure_under_product_and_sum(self):
        x = two_integrals_field()
        f = make_poly(V3, {(1, 0, 1): 1})
        g = make_poly(V3, {(0, 2, 2): 1, (3, 0, 2): -1})
        assert verify_first_integral(x, f * g)
        assert verify_first_integral(x, f + g)
        assert verify_first_integral(x, f * f + g.scale(gr(3)))

    def test_pullback_under_blowup(self):
        x = two_integrals_field()
        f = make_poly(V3, {(1, 0, 1): 1})
        for idx in range(3):
            result = weighted_blowup(x, BlowupSpec(POINT, None, idx))
            sub = {}
            for j, name in enumerate(V3):
                if j == idx:
                    continue
                exps = [0, 0, 0]
                exps[j] = 1
                exps[idx] += 1
                sub[name] = (GR_ONE, tuple(exps))
            pulled = f.substitute_monomials(sub)
            assert verify_first_integral(result.representative, pulled)


class TestIndependence:
    def test_examples(self):
        f = make_poly(V3, {(1, 0, 1): 1})
        g = make_poly(V3, {(0, 2, 2): 1, (3, 0, 2): -1})
        assert independence_check(f, g)
        xy = make_poly(V2, {(1, 1): 1})
        assert not independence_check(xy, xy * xy)
        assert independence_check(Poly.variable(V2, "x"), Poly.variable(V2, "y"))


class TestFormal:
    def test_diagonal_saddle_monomial_solutions(self):
        field = VectorField.make(Chart.root(V2), [
            make_poly(V2, {(1, 0): 1}), make_poly(V2, {(0, 1): -1})])
        space = formal_first_integral(field, 4)
        assert space.dims_by_degree == (0, 1, 1, 2)
        assert space.basis == (make_poly(V2, {(2, 2): 1}),
                               make_poly(V2, {(1, 1): 1}))

    def test_radial_zero_dimensional(self):
        space = formal_first_integral(radial(2), 5)
        assert space.dimension == 0
        assert all(d == 0 for d in space.dims_by_degree)

    def test_family_residuals_and_monotone_dims(self):
        x = saddle_node_family(1, 1, 1)
        previous = None
        for n in (2, 4, 6):
            space = formal_first_integral(x, n)
            assert space.dims_by_degree[n - 1] > 0
            for f in space.basis:
                assert directional_derivative(x, f).jet_truncate(n).is_zero()
                assert f.constant_term().is_zero()
            if previous is not None:
                assert space.dims_by_degree[:len(previous)] == previous
                assert all(a <= b for a, b in
                           zip(previous, space.dims_by_degree))
            previous = space.dims_by_degree

    def test_truncation_embeds(self):
        # degree-(n+1) solutions truncate to degree-n solutions
        x = saddle_node_family(1, 1, 1)
        big = formal_first_integral(x, 5)
        for f in big.basis:
            g = f.jet_truncate(4)
            assert directional_derivative(x, g).jet_truncate(4).is_zero()

    def test_regular_field_rejected(self):
        field = VectorField.make(Chart.root(V2), [
            Poly.constant(V2, 1), Poly.zero(V2)])
        with pytest.raises(NotApplicableError):
            formal_first_integral(field, 3)

    def test_jet_order_limit(self):
        # one variable keeps every order cheap, so only the limit refuses 33
        field = VectorField.make(Chart.root(("x",)), [make_poly(("x",), {(2,): 1})])
        assert len(formal_first_integral(field, 32).dims_by_degree) == 32
        with pytest.raises(StructuralError, match="jet order must be at most 32"):
            formal_first_integral(field, 33)


class TestQuotient:
    def test_basic_example(self):
        x_poly = Poly.variable(V3, "x")
        f = FactoredFunction.make([(x_poly, 1), (Poly.variable(V3, "y"), 1)])
        g = FactoredFunction.make([(x_poly, 1), (Poly.variable(V3, "z"), 1)])
        q = meromorphic_quotient(f, g)
        assert (q.power_num, q.power_den) == (1, 1)
        assert q.numerator == Poly.variable(V3, "y")
        assert q.denominator == Poly.variable(V3, "z")
        assert q.restricted == (Poly.variable(V3, "y"), Poly.variable(V3, "z"))

    def test_minimal_power_cancellation(self):
        x_poly = Poly.variable(V3, "x")
        f = FactoredFunction.make([(x_poly, 2), (Poly.variable(V3, "y"), 1)])
        g = FactoredFunction.make([(x_poly, 1), (Poly.variable(V3, "z"), 1)])
        q = meromorphic_quotient(f, g)
        assert (q.power_num, q.power_den) == (1, 2)
        assert q.numerator == Poly.variable(V3, "y")
        assert q.denominator == Poly.variable(V3, "z") ** 2

    def test_not_shared_rejected(self):
        f = FactoredFunction.make([(Poly.variable(V3, "y"), 1)])
        g = FactoredFunction.make([(Poly.variable(V3, "z"), 1)])
        with pytest.raises(NotApplicableError, match="^first factors are not equal$"):
            meromorphic_quotient(f, g)

    def test_restriction_annihilated_numerically(self):
        # F = xy, G = xz for x d/dx - y d/dy - z d/dz: on {x = 0} the
        # quotient y/z is constant along the restricted field
        field = diagonal_two_integrals_field()
        f = FactoredFunction.make([(Poly.variable(V3, "x"), 1),
                                   (Poly.variable(V3, "y"), 1)])
        g = FactoredFunction.make([(Poly.variable(V3, "x"), 1),
                                   (Poly.variable(V3, "z"), 1)])
        q = meromorphic_quotient(f, g)
        num, den = q.restricted
        rng = random.Random(4242)
        restricted_comps = [c.expand().restrict("x", 0)
                            for c in field.components]
        for _ in range(20):
            point = (0.0 + 0.0j,
                     complex(rng.uniform(0.2, 1.0), rng.uniform(-0.5, 0.5)),
                     complex(rng.uniform(0.2, 1.0), rng.uniform(-0.5, 0.5)))
            # derivative of num/den along the field at the point
            dnum = sum(
                restricted_comps[i].eval_complex(point)
                * num.partial(V3[i]).eval_complex(point) for i in range(3))
            dden = sum(
                restricted_comps[i].eval_complex(point)
                * den.partial(V3[i]).eval_complex(point) for i in range(3))
            nv = num.eval_complex(point)
            dv = den.eval_complex(point)
            derivative = (dnum * dv - nv * dden) / (dv * dv)
            assert abs(derivative) < 1e-9

    def test_empty_factorization_rejected(self):
        # make([]) is a valid factorization, but one with no first factor
        # to share; either side refuses the same way
        x_only = FactoredFunction.make([(Poly.variable(V3, "x"), 1)])
        empty = FactoredFunction.make([])
        for f, g in [(empty, x_only), (x_only, empty), (empty, empty)]:
            with pytest.raises(NotApplicableError,
                               match="^empty factorization: no first factor to share$"):
                meromorphic_quotient(f, g)


X3 = Poly.variable(V3, "x")
SADDLE = diagonal_two_integrals_field()


@pytest.mark.parametrize("call, error, message", [
    (lambda: independence_check(Poly.variable(V2, "x"), X3), StructuralError,
     "different variable lists"),
    (lambda: formal_first_integral(VectorField.make(SADDLE.chart, [
        ChartFunction.make(X3, (0, -1, 0)), X3, X3]), 3), NotApplicableError,
     "needs a holomorphic field"),
    (lambda: formal_first_integral(SADDLE, 1), StructuralError, "jet order must be at least 2"),
    (lambda: FactoredFunction.make([(X3, 0)]), StructuralError, "exponents must be positive"),
    (lambda: FactoredFunction.make([(Poly.zero(V3), 1)]), StructuralError, "zero factor"),
])
def test_guards_raise_typed_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("shared", [X3 + Poly.variable(V3, "y"), X3.scale(2)])
def test_quotient_by_a_non_coordinate_factor_is_not_restricted(shared):
    f = FactoredFunction.make([(shared, 1), (Poly.variable(V3, "y"), 1)])
    g = FactoredFunction.make([(shared, 1), (Poly.variable(V3, "z"), 1)])
    q = meromorphic_quotient(f, g)
    assert (q.numerator, q.denominator, q.restricted) == (
        Poly.variable(V3, "y"), Poly.variable(V3, "z"), None)
