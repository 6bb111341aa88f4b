from __future__ import annotations

import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foliations.algebra import (
    _OVERFLOW,
    GR_ONE,
    GR_ZERO,
    ChartFunction,
    GaussianRational,
    Poly,
    gr,
    monomial_content,
)
from foliations.errors import (
    DegenerateInputError,
    EvaluationOverflowError,
    PoleEvaluationError,
    StructuralError,
)

from conftest import make_poly, random_poly

V2 = ("x", "y")
V3 = ("x", "y", "z")


class TestGaussianRational:
    def test_field_operations(self):
        a = gr(1, 2)
        b = gr("3/4", -1)
        assert (a * b) / b == a
        assert a + (-a) == gr(0)
        assert (a / b) * b == a
        assert a.conjugate().im == Fraction(-2)

    def test_norm_and_power(self):
        z = gr(1, 1)
        assert z.norm2() == Fraction(2)
        assert z ** 4 == gr(-4)
        assert z ** -2 == gr(0, "-1/2")

    def test_text(self):
        assert gr(0).text() == "0"
        assert gr(-1, 0).text() == "-1"
        assert gr(0, 1).text() == "i"
        assert gr(0, -1).text() == "-i"
        assert gr(1, 2).text() == "1+2i"
        assert gr("1/2", "-3/4").text() == "1/2-3/4i"


class TestRingArithmetic:
    def test_product_of_conjugate_linears(self):
        x_plus_y = make_poly(V2, {(1, 0): 1, (0, 1): 1})
        x_minus_y = make_poly(V2, {(1, 0): 1, (0, 1): -1})
        assert x_plus_y * x_minus_y == make_poly(V2, {(2, 0): 1, (0, 2): -1})

    def test_cancellation(self):
        cusp = make_poly(V2, {(0, 2): 1, (3, 0): -1})
        cube = make_poly(V2, {(3, 0): 1})
        assert cusp + cube == make_poly(V2, {(0, 2): 1})

    def test_monomial_inverse_cancels(self):
        x = ChartFunction.make(Poly.variable(V2, "x"))
        inv = ChartFunction.make(Poly.constant(V2, 1), (-1, 0))
        assert x * inv == ChartFunction.make(Poly.constant(V2, 1))

    def test_variable_mismatch_rejected(self):
        with pytest.raises(StructuralError):
            Poly.variable(V2, "x") + Poly.variable(("u", "v"), "u")

    def test_ring_axioms_randomized(self, rng):
        for _ in range(200):
            a = random_poly(rng, V3)
            b = random_poly(rng, V3)
            c = random_poly(rng, V3)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
        # degree / order contracts
        for _ in range(80):
            a = random_poly(rng, V3)
            b = random_poly(rng, V3)
            if not (a + b).is_zero():
                assert (a + b).degree() <= max(a.degree(), b.degree())
            if not a.is_zero() and not b.is_zero():
                assert (a * b).order() == a.order() + b.order()


def _schoolbook_product(p: Poly, q: Poly) -> Poly:
    """The generic double loop over the terms of ``p`` and then of ``q``."""
    out = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, GR_ZERO) + ca * cb
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
    return Poly(p.vars, out)


_small_fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
_nonzero_coefficients = st.builds(GaussianRational, _small_fractions,
                                  st.one_of(st.just(Fraction(0)), _small_fractions)
                                  ).filter(bool)


@st.composite
def _poly_and_monomial(draw):
    vars = V3[:draw(st.integers(1, 3))]
    exps = st.lists(st.integers(0, 4), min_size=len(vars), max_size=len(vars)).map(tuple)
    p = Poly(vars, draw(st.dictionaries(exps, _nonzero_coefficients, max_size=6)))
    q = Poly(vars, {draw(exps): draw(_nonzero_coefficients)})
    return p, q


@settings(max_examples=200, deadline=None)
@given(_poly_and_monomial())
def test_product_with_one_term_keeps_term_order(operands):
    # term order decides eval_complex's float order and every rendering
    # digest, so it is compared as a list, not as a dict
    p, q = operands
    for a, b in ((p, q), (q, p)):
        assert list((a * b).terms.items()) == list(_schoolbook_product(a, b).terms.items())


class TestDerivative:
    def test_simple(self):
        cusp = make_poly(V2, {(0, 2): 1, (3, 0): -1})
        assert cusp.partial("y") == make_poly(V2, {(0, 1): 2})

    def test_form_coefficient_derivative(self):
        # d/dx of (y x^2 - z^3)
        p = make_poly(V3, {(2, 1, 0): 1, (0, 0, 3): -1})
        assert p.partial("x") == make_poly(V3, {(1, 1, 0): 2})

    def test_absent_variable(self):
        p = make_poly(V3, {(3, 0, 0): 1, (0, 2, 0): 2})
        assert p.partial("z").is_zero()

    def test_unknown_variable(self):
        with pytest.raises(StructuralError):
            make_poly(V2, {(1, 0): 1}).partial("w")

    def test_leibniz_randomized(self, rng):
        for _ in range(60):
            p = random_poly(rng, V2, max_degree=4)
            q = random_poly(rng, V2, max_degree=4)
            lhs = (p * q).partial("x")
            rhs = p * q.partial("x") + q * p.partial("x")
            assert lhs == rhs


class TestSubstitution:
    def test_blowup_chart(self):
        cusp = make_poly(V2, {(0, 2): 1, (3, 0): -1})
        image = cusp.substitute_monomials({"y": (GR_ONE, (1, 1))})
        assert image == make_poly(V2, {(2, 2): 1, (3, 0): -1})

    def test_identity(self):
        cusp = make_poly(V2, {(0, 2): 1, (3, 0): -1})
        assert cusp.substitute_monomials({}) == cusp

    def test_weighted_chart(self):
        y = Poly.variable(V3, "y")
        image = y.substitute_monomials({
            "x": (GR_ONE, (2, 0, 0)),
            "y": (GR_ONE, (1, 1, 0)),
        })
        assert image == make_poly(V3, {(1, 1, 0): 1})

    def test_homomorphism_randomized(self, rng):
        assignment = {
            "x": (gr(2), (1, 1, 0)),
            "y": (gr(-1, 1), (0, 0, 2)),
        }
        for _ in range(60):
            p = random_poly(rng, V3, max_degree=4)
            q = random_poly(rng, V3, max_degree=4)
            sub = lambda r: r.substitute_monomials(assignment)
            assert sub(p + q) == sub(p) + sub(q)
            assert sub(p * q) == sub(p) * sub(q)

    def test_eval_after_substitution(self, rng):
        assignment = {"x": (gr(3), (0, 2)), "y": (gr("1/2"), (1, 1))}
        for _ in range(40):
            p = random_poly(rng, V2, max_degree=5)
            point = (0.37 + 0.21j, -0.55 + 0.4j)
            substituted_point = (
                3 * point[1] ** 2,
                0.5 * point[0] * point[1],
            )
            direct = p.eval_complex(substituted_point)
            via = p.substitute_monomials(assignment).eval_complex(point)
            assert abs(direct - via) <= 1e-10 * max(1.0, abs(direct))


class TestMonomialContent:
    def test_gcd_of_exponents(self):
        a = make_poly(V2, {(2, 2): 1})
        b = make_poly(V2, {(2, 1): 1})
        content, reduced = monomial_content([a, b])
        assert content == (2, 1)
        assert reduced[0] == make_poly(V2, {(0, 1): 1})
        assert reduced[1] == Poly.constant(V2, 1)

    def test_zero_components_pass_through(self):
        a = make_poly(V2, {(1, 0): 1})
        content, reduced = monomial_content([a, Poly.zero(V2)])
        assert content == (1, 0)
        assert reduced[1].is_zero()

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            monomial_content([Poly.zero(V2), Poly.zero(V2)])

    def test_idempotent(self, rng):
        for _ in range(40):
            polys = [random_poly(rng, V3, max_degree=4) for _ in range(2)]
            mono = make_poly(V3, {(1, 2, 0): 1})
            polys = [p * mono for p in polys]
            _, reduced = monomial_content(polys)
            second, _ = monomial_content(reduced)
            assert second == (0, 0, 0)


class TestJets:
    def test_truncate(self):
        cusp = make_poly(V2, {(0, 2): 1, (3, 0): -1})
        assert cusp.jet_truncate(2) == make_poly(V2, {(0, 2): 1})

    def test_homogeneous_component(self):
        p = make_poly(V2, {(0, 2): 1, (3, 0): -1})
        assert p.homogeneous_component(1).is_zero()
        assert p.homogeneous_component(2) == make_poly(V2, {(0, 2): 1})
        q = make_poly(V3, {(2, 0, 0): 1})
        assert q.homogeneous_component(2) == q


def _reference_poly_eval(p: Poly, point) -> complex:
    """The term-by-term loop the compiled evaluators replaced."""
    if len(point) != len(p.vars):
        raise StructuralError("point dimension mismatch")
    terms = p._complex_terms
    total = 0j
    try:
        for term, powers in terms:
            for j, k in powers:
                term *= point[j] ** k
            total += term
    except OverflowError:
        raise EvaluationOverflowError(_OVERFLOW) from None
    return total


def _reference_chart_eval(f: ChartFunction, point) -> complex:
    value = _reference_poly_eval(f.numerator, point)
    for j, e in f._powers:
        x = point[j]
        if e < 0 and x == 0:
            raise PoleEvaluationError("evaluation at a pole")
        try:
            value *= x ** e
        except (OverflowError, ZeroDivisionError):
            raise EvaluationOverflowError(_OVERFLOW) from None
    return value


def _outcome(evaluate, fun, point):
    """The value's type and bits, or the exception's type and message."""
    try:
        z = evaluate(fun, point)
    except Exception as exc:
        return type(exc), str(exc)
    return type(z), struct.pack("<dd", z.real, z.imag)


_COORDINATE = st.one_of(
    st.sampled_from([0, 1, -2, 10 ** 160, -(10 ** 400), 0.0, -0.0, 1e-200, -1e200,
                     math.inf, math.nan, 0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                     complex(-0.0, -0.0), complex(1e200, -0.0), complex(-0.0, 1e-170),
                     complex(math.inf, 0.0), complex(math.nan, 1.0)]),
    st.integers(-5, 5),
    st.floats(allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=1e6))
_COEFFICIENT = st.one_of(
    st.builds(GaussianRational, st.fractions(max_denominator=50), st.fractions(max_denominator=50)),
    st.sampled_from([gr(10 ** 400), gr(0, -(10 ** 309)), gr(1, -1)]))


def _coefficients_overflow(fun) -> bool:
    try:
        (fun.numerator if isinstance(fun, ChartFunction) else fun)._complex_terms
    except EvaluationOverflowError:
        return True
    return False


@st.composite
def _function_twin_and_point(draw):
    """A function, its twin of the same shape (the same exponents, other
    nonzero coefficients) and a point."""
    n = draw(st.integers(1, 3))
    vars = ("x", "y", "z")[:n]
    exps = st.tuples(*[st.integers(0, 4)] * n)
    terms = draw(st.dictionaries(exps, _COEFFICIENT, max_size=6))
    fun = Poly(vars, terms)
    nonzero = _COEFFICIENT.filter(lambda c: not c.is_zero())
    twin = Poly(vars, {e: draw(nonzero) for e in fun.terms})
    if draw(st.booleans()):
        monomial = draw(st.tuples(*[st.integers(-3, 3)] * n))
        fun, twin = ChartFunction.make(fun, monomial), ChartFunction.make(twin, monomial)
    return fun, twin, tuple(draw(_COORDINATE) for _ in range(n))


class TestEvalComplex:
    @settings(max_examples=400, deadline=None)
    @given(_function_twin_and_point())
    @example((make_poly(V2, {(2, 0): 3, (0, 1): 1}),
              make_poly(V2, {(2, 0): gr("1/7", 2), (0, 1): -5}), (0.5 - 2j, 3.0)))
    # a bare first coefficient is added to 0j when the source is written:
    # a constant alone, a constant first, and a constant numerator over a pole
    @example((make_poly(V2, {(0, 0): -3}), make_poly(V2, {(0, 0): gr("1/7", -2)}),
              (complex(-0.0, -0.0), -0.0)))
    @example((make_poly(V2, {(0, 0): -3}), make_poly(V2, {(0, 0): gr("1/7", -2)}),
              (math.inf, complex(-math.inf, -0.0))))
    @example((make_poly(V2, {(0, 0): gr(0, -1), (1, 0): 2, (0, 2): -1}),
              make_poly(V2, {(0, 0): 5, (1, 0): gr(-1, 3), (0, 2): "1/3"}),
              (complex(-0.0, -0.0), complex(0.0, -0.0))))
    @example((make_poly(V2, {(0, 0): gr(0, -1), (1, 0): 2, (0, 2): -1}),
              make_poly(V2, {(0, 0): 5, (1, 0): gr(-1, 3), (0, 2): "1/3"}),
              (complex(math.inf, -0.0), -math.inf)))
    @example((ChartFunction.make(Poly.constant(V2, gr(-2, 1)), (-1, 2)),
              ChartFunction.make(Poly.constant(V2, gr("1/3", 0)), (-1, 2)),
              (complex(-0.0, 2.0), complex(-0.0, -0.0))))
    @example((ChartFunction.make(Poly.constant(V2, gr(-2, 1)), (-1, 2)),
              ChartFunction.make(Poly.constant(V2, gr("1/3", 0)), (-1, 2)),
              (complex(-math.inf, -0.0), math.inf)))
    def test_compiled_evaluator_matches_term_loop_bit_for_bit(self, case):
        fun, twin, point = case
        for f in (fun, twin):
            reference = (_reference_chart_eval if isinstance(f, ChartFunction)
                         else _reference_poly_eval)
            assert (_outcome(type(f).eval_complex, f, point)
                    == _outcome(reference, f, point))
            wrong_length = point + (1.0,)
            assert (_outcome(type(f).eval_complex, f, wrong_length)
                    == (StructuralError, "point dimension mismatch"))
        # one source text, so one code object, whatever the coefficients;
        # a coefficient with no double is written as a raise instead
        shared = fun._evaluator.__code__ is twin._evaluator.__code__
        assert shared == (_coefficients_overflow(fun) == _coefficients_overflow(twin))

    def test_sum_longer_than_one_compiled_expression(self):
        # 3375 terms: as one expression the sum exceeds the compiler's
        # nesting limit (RecursionError at about 3000 terms)
        p = Poly(V3, {(a, b, c): gr(a - b, c + 1) for a in range(15)
                           for b in range(15) for c in range(15)})
        point = (0.5, -0.25j, 1 + 0.125j)
        assert (_outcome(Poly.eval_complex, p, point)
                == _outcome(_reference_poly_eval, p, point))

    def test_tiny_complex_coordinate_near_a_pole_overflows(self):
        # a complex x**-2 is 1 / x**2, and x**2 underflows to zero: the
        # error is the one a float coordinate that close to the pole raises
        inv = ChartFunction.make(Poly.constant(("x",), 1), (-2,))
        expected = (EvaluationOverflowError, _OVERFLOW)
        for x in (1e-200, 1e-200 + 0j, 1e-170j):
            assert _outcome(ChartFunction.eval_complex, inv, (x,)) == expected

    def test_polynomial(self):
        p = make_poly(("x",), {(2,): 1, (0,): -1})
        assert abs(p.eval_complex((2.0,)) - 3.0) < 1e-12

    def test_pole(self):
        inv = ChartFunction.make(Poly.constant(("x",), 1), (-1,))
        with pytest.raises(PoleEvaluationError):
            inv.eval_complex((0.0,))

    def test_point_on_curve(self):
        cusp = make_poly(V2, {(0, 2): 1, (3, 0): -1})
        assert abs(cusp.eval_complex((1.0, 1.0))) < 1e-12


class TestChartFunction:
    def test_full_extraction(self):
        p = make_poly(V2, {(2, 0): 1, (1, 1): 1})  # x^2 + xy = x(x+y)
        cf = ChartFunction.make(p)
        assert cf.monomial_exponents == (1, 0)
        assert cf.numerator == make_poly(V2, {(1, 0): 1, (0, 1): 1})
        assert cf.expand() == p

    def test_holomorphy_flag(self):
        cf = ChartFunction.make(Poly.variable(V2, "x"), (-1, 0))
        assert cf.is_holomorphic()  # x/x normalizes to 1
        cf2 = ChartFunction.make(Poly.variable(V2, "y"), (-1, 0))
        assert not cf2.is_holomorphic()

    def test_add_with_denominators(self):
        one_over_x = ChartFunction.make(Poly.constant(V2, 1), (-1, 0))
        x = ChartFunction.make(Poly.variable(V2, "x"))
        s = one_over_x + x
        assert s.monomial_exponents == (-1, 0)
        assert s.numerator == make_poly(V2, {(2, 0): 1, (0, 0): 1})

    def test_order_in(self):
        cf = ChartFunction.make(make_poly(V2, {(2, 1): 1}), (0, -3))
        assert cf.order_in("x") == 2
        assert cf.order_in("y") == -2
        assert ChartFunction.zero(V2).order_in("x") == math.inf


X, Y = Poly.variable(V2, "x"), Poly.variable(V2, "y")
POLE = ChartFunction.make(Poly.constant(V2, 1), (-1, 0))


@pytest.mark.parametrize("call, error, message", [
    (lambda: GaussianRational.of(0.5), StructuralError, "cannot coerce 0.5"),
    (lambda: Poly.variable(V2, "z"), StructuralError, "unknown variable 'z'"),
    (lambda: X ** -1, StructuralError, "negative polynomial power"),
    (lambda: X.jet_truncate(-1), StructuralError, "jet order must be nonnegative"),
    (lambda: X.homogeneous_component(-1), StructuralError, "degree must be nonnegative"),
    (lambda: X.substitute_monomials({"x": (1, (-1, 0))}), StructuralError,
     "substitution produced negative exponents"),
    (lambda: X.laurent_substitute({"x": (1, (1,))}), StructuralError,
     "monomial exponent vector has wrong length"),
    (lambda: X.laurent_substitute({"z": (1, (1, 0))}), StructuralError,
     "unknown variable 'z'"),
    (lambda: (X * Y).univariate_coeffs("x"), StructuralError, "not univariate in x"),
    (lambda: monomial_content([X, Poly.variable(("u", "v"), "u")]), StructuralError,
     "different variable lists"),
    (lambda: ChartFunction.make(X, (0,)), StructuralError, "exponent vector has wrong length"),
    (lambda: POLE.expand(), PoleEvaluationError, "chart function is meromorphic"),
    (lambda: POLE + ChartFunction.make(Poly.variable(("u", "v"), "u")), StructuralError,
     "variable lists differ"),
])
def test_guards_raise_typed_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_poly_is_immutable_and_equal_only_to_polys():
    with pytest.raises(AttributeError, match="immutable"):
        X.vars = V3
    with pytest.raises(AttributeError, match="immutable"):
        del X.vars
    assert X != 1 and ChartFunction.make(X) != X
    assert Poly.zero(V2).univariate_coeffs("x") == [GR_ZERO]


class TestRendering:
    def test_canonical_examples(self):
        p = Poly(V2, {(2, 1): gr(1, 2)})
        assert p.render() == "(1+2i)*x^2*y"
        q = make_poly(V2, {(1, 0): -1, (0, 0): "1/2"})
        assert q.render() == "-x + 1/2"
        assert Poly.zero(V2).render() == "0"

    def test_order_is_graded_lex(self):
        p = make_poly(V2, {(0, 2): -2, (1, 0): 3})
        assert p.render() == "-2*y^2 + 3*x"
