from __future__ import annotations

import cmath
import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from foliations import cli, dynamics
from foliations.algebra import ChartFunction, Poly, gr
from foliations.classify import second_jet_check
from foliations.corpus import linear_saddle, strict_siegel_diagonal
from foliations.dynamics import (
    NOT_SEMICOMPLETE,
    SEMICOMPLETE,
    CircularArc,
    LogSpiral,
    Polyline,
    Segment,
    adaptive_quadrature,
    full_circle,
    half_circle,
    lift_path,
    loop_lift_ratio,
    omega1_integral,
    semicomplete_order_test,
    separating_direction,
    spiral_path,
    time_form_integral,
    trace_descent,
)
from foliations.errors import (
    DegenerateInputError,
    EvaluationOverflowError,
    IterationCapError,
    PoleEvaluationError,
    SingularLiftError,
    SingularPathError,
    StructuralError,
)
from foliations.fields import Chart, VectorField

from conftest import make_poly

V1 = ("x",)
V2 = ("x", "y")
V3 = ("x", "y", "z")


def upoly(terms) -> Poly:
    return make_poly(V1, {(k,): c for k, c in terms.items()})


# nonzero Gaussian rationals whose parts have denominators 1..3 and
# numerators -4..4, so 1/3 <= |c| <= 4*sqrt(2)
gaussian_coefficients = st.builds(
    gr, st.fractions(-4, 4, max_denominator=3), st.fractions(-4, 4, max_denominator=3)).filter(
    lambda c: not c.is_zero())


class TestTimeForm:
    def test_cubic_half_circle_vanishes(self):
        value, err = time_form_integral(upoly({3: 1}), half_circle(0.1))
        assert abs(value) < 1e-9

    def test_quadratic_half_circle(self):
        value, _ = time_form_integral(upoly({2: 1}), half_circle(0.1))
        assert abs(value - 20.0) <= 1e-6 * 20.0

    def test_linear_residue(self):
        value, _ = time_form_integral(upoly({1: 1}), full_circle(1.0))
        assert abs(value - 2j * math.pi) < 1e-8

    def test_singular_path_rejected(self):
        with pytest.raises(SingularPathError):
            time_form_integral(upoly({1: 1}), Segment(-1.0 + 0j, 1.0 + 0j))

    def test_additivity(self):
        x2 = upoly({2: 1})
        whole = CircularArc(0j, 0.1, 0.0, math.pi)
        first = CircularArc(0j, 0.1, 0.0, 1.2)
        second = CircularArc(0j, 0.1, 1.2, math.pi)
        v, e = time_form_integral(x2, whole)
        v1, e1 = time_form_integral(x2, first)
        v2, e2 = time_form_integral(x2, second)
        assert abs(v - (v1 + v2)) <= 2 * (e + e1 + e2) + 1e-10

    def test_homotopy_invariance(self):
        # two arcs with the same endpoints avoiding the origin
        x2 = upoly({2: 1})
        upper = CircularArc(0j, 0.1, 0.0, math.pi)
        lower = CircularArc(0j, 0.1, 0.0, -math.pi)
        vu, _ = time_form_integral(x2, upper)
        vl, _ = time_form_integral(x2, lower)
        assert abs(vu - vl) < 1e-6

    def test_nonfinite_integrand_stops_bisection(self):
        # a NaN estimate is never within tolerance; bisecting it would
        # evaluate the integrand about 2^41 times
        calls = []

        def integrand(t):
            calls.append(t)
            if len(calls) > 1000:
                raise AssertionError("bisection went on past a NaN estimate")
            return complex(math.nan, 0.0)

        value, err = adaptive_quadrature(integrand, 0.0, 1.0)
        assert cmath.isnan(value) and math.isnan(err)
        assert len(calls) == 15     # the nodes of one Gauss-Kronrod panel

    @pytest.mark.parametrize("tolerances, message", [
        ({"abs_tol": 0.0, "rel_tol": 0.0}, "tolerances must not both be zero"),
        ({"rel_tol": -1.0}, "relative tolerance must be nonnegative, got -1.0"),
        ({"abs_tol": -1e-10}, "absolute tolerance must be nonnegative, got -1e-10")])
    def test_tolerance_without_error_control_rejected(self, tolerances, message):
        # no estimate meets such a tolerance, so every panel would be
        # bisected to the depth limit (about 2^41 evaluations)
        calls = []

        def integrand(t):
            calls.append(t)
            if len(calls) > 10 ** 4:
                raise AssertionError("bisection ran on without error control")
            return t * t

        with pytest.raises(DegenerateInputError, match=message):
            adaptive_quadrature(integrand, 0.0, 1.0, **tolerances)
        assert calls == []


    def test_relative_tolerance_alone_on_zero_integral(self):
        # the loop integral of dx/x^2 is 0, so rel_tol * |value| is about 0
        # and only the rounding floor ends the bisection (about 2^41
        # evaluations without it)
        path = full_circle(1.0)
        calls = []

        def integrand(t):
            calls.append(t)
            if len(calls) > 10 ** 5:
                raise AssertionError("bisection ran on below rounding")
            z, v = path.at(t)
            return v / (z * z)

        value, err = adaptive_quadrature(integrand, *path.t_range, abs_tol=0.0)
        assert abs(value) < 1e-12 and err < 1e-12


class TestSemicomplete:
    def test_order_rule(self):
        assert semicomplete_order_test(upoly({1: 1})).verdict == SEMICOMPLETE
        assert semicomplete_order_test(upoly({2: 1})).verdict == SEMICOMPLETE
        v3 = semicomplete_order_test(upoly({3: 1}))
        assert v3.verdict == NOT_SEMICOMPLETE
        assert abs(v3.evidence_integral) < 1e-9
        v4 = semicomplete_order_test(upoly({4: 1}))
        assert v4.verdict == NOT_SEMICOMPLETE
        assert abs(v4.evidence_integral) < 1e-9

    def test_order_two_with_a_nonzero_residue_is_not_semicomplete(self):
        # x^2 + x^3: the residue of dx/f at 0 is -a3/a2^2 = -1, and the
        # integral of the time form over the circle is 2*pi*i times it
        v = semicomplete_order_test(upoly({2: 1, 3: 1}))
        assert (v.verdict, v.order, v.evidence_radius) == (NOT_SEMICOMPLETE, 2, 0.1)
        assert abs(v.evidence_integral + 2j * math.pi) < 1e-9
        # a term of degree 4 or more leaves the residue zero
        v = semicomplete_order_test(upoly({2: 3, 4: 1, 5: gr(0, 1)}))
        assert (v.verdict, v.evidence_integral) == (SEMICOMPLETE, None)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(st.just(gr(0)), gaussian_coefficients), min_size=3, max_size=3),
           gaussian_coefficients)
    def test_order_two_verdict_matches_the_sympy_residue(self, higher, a2):
        # f = a2 x^2 + a3 x^3 + a4 x^4 + a5 x^5; the other zeros of f lie
        # outside |x| = 1/(1 + 12*sqrt(2)) > 0.01 (Cauchy's bound), so the
        # circle integral is 2*pi*i times the residue of 1/f at 0
        f = upoly({2: a2, **{k: c for k, c in zip((3, 4, 5), higher) if not c.is_zero()}})
        t = sympy.Symbol("t")
        expr = sum(sympy.Rational(c.re.numerator, c.re.denominator) * t ** e[0]
                   + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator) * t ** e[0]
                   for e, c in f.terms.items())
        residue = complex(sympy.residue(1 / expr, t, 0))
        v = semicomplete_order_test(f, radius=0.01)
        assert v.verdict == (SEMICOMPLETE if residue == 0 else NOT_SEMICOMPLETE)
        if residue:
            assert abs(v.evidence_integral - 2j * math.pi * residue) < 1e-7 * abs(residue)

    @pytest.mark.parametrize("terms, order", [({2: 1, 3: 10}, 2), ({3: 1, 4: 10}, 3)])
    def test_evidence_path_through_another_zero_keeps_the_verdict(self, terms, order):
        # x^2 + 10*x^3 and x^3 + 10*x^4 vanish at -1/10, on the circle and at
        # the end of the arc of radius 0.1: the exact verdict stands, with
        # no evidence integral
        v = semicomplete_order_test(upoly(terms))
        assert (v.verdict, v.order, v.evidence_integral, v.evidence_radius) == (
            NOT_SEMICOMPLETE, order, None, None)
        # a radius whose path misses the zero keeps the evidence
        assert semicomplete_order_test(upoly(terms), radius=0.05).evidence_radius == 0.05

    def test_degenerate(self):
        with pytest.raises(DegenerateInputError):
            semicomplete_order_test(Poly.zero(V1))


class TestLifts:
    def test_saddle_third_root(self):
        ratio, err = loop_lift_ratio(linear_saddle(3), "y", 0.1, 0.01)
        assert abs(ratio - cmath.exp(-2j * math.pi / 3)) < 1e-4
        assert 0 <= err < 1e-4

    def test_saddle_half_turn(self):
        ratio, _ = loop_lift_ratio(linear_saddle(2), "y", 0.1, 0.01)
        assert abs(ratio - cmath.exp(-1j * math.pi)) < 1e-4

    def test_holonomy_orders_return_to_identity(self):
        for k in (2, 3):
            ratio, _ = loop_lift_ratio(linear_saddle(k), "y", 0.1, 0.01)
            assert abs(ratio ** k - 1.0) < 1e-3
        # eigenvalues (1, -3/2): ratio is a primitive cube root of unity
        chart = Chart.root(V2)
        field = VectorField.make(chart, [
            Poly.variable(V2, "x"),
            Poly.make(V2, {(0, 1): gr("-3/2")})])
        ratio, _ = loop_lift_ratio(field, "y", 0.1, 0.01)
        assert abs(ratio ** 3 - 1.0) < 1e-3

    def test_sample_count_and_error_estimate(self):
        result = lift_path(linear_saddle(3), "y", full_circle(0.1), [0.01])
        assert len(result.samples) >= 64
        assert result.est_error < 1e-6
        assert not result.escaped

    def test_escape_reported(self):
        # strongly expanding fiber leaves a tiny polydisc without failing
        chart = Chart.root(V2)
        field = VectorField.make(chart, [
            Poly.variable(V2, "x"),
            Poly.make(V2, {(0, 1): gr(-40)})])
        result = lift_path(field, "x",
                           LogSpiral(0.1, -1.0, 0.0, 4.0), [0.5],
                           escape_radius=2.0)
        assert result.escaped
        # final is the last in-domain sample
        assert abs(result.final[0]) <= 2.0
        # no tighter re-run is made after an escape, so there is no estimate
        assert result.est_error is None

    def test_overflowing_base_speed_raises(self):
        # y*z overflows to inf at y = z = 1e200 while the fiber components
        # stay finite; dividing by the base speed would make every velocity
        # 0 and return the starting fiber as the lift
        chart = Chart.root(V3)
        field = VectorField.make(chart, [
            Poly.make(V3, {(0, 1, 1): gr(1)}),
            Poly.variable(V3, "y"),
            Poly.make(V3, {(0, 0, 1): gr(-1)})])
        with pytest.raises(EvaluationOverflowError, match="overflow"):
            lift_path(field, "x", full_circle(0.1), [1e200, 1e200],
                      escape_radius=1e300)

    def test_iteration_cap_raises(self, monkeypatch):
        # a full circle needs at least 64 steps: a cap of 10 must not
        # return a truncated path as if it had reached the end
        monkeypatch.setattr(dynamics, "_RK45_MAX_ITER", 10)
        with pytest.raises(SingularLiftError, match="10 iterations"):
            lift_path(linear_saddle(3), "y", full_circle(0.1), [0.01])

    def test_zero_fiber_seed_rejected(self):
        # the zero fiber is fixed by the lift: final/initial is 0/0
        with pytest.raises(DegenerateInputError, match="fiber seed"):
            loop_lift_ratio(linear_saddle(3), "x", 0.1, 0.0)

    def test_one_variable_field_rejected(self):
        field = VectorField.make(Chart.root(V1), [upoly({2: 1})])
        with pytest.raises(StructuralError, match="fiber variable"):
            loop_lift_ratio(field, "x")

    def test_zero_loop_radius_rejected(self):
        # a point loop would report the identity ratio 1
        with pytest.raises(DegenerateInputError, match="loop radius"):
            loop_lift_ratio(linear_saddle(3), "y", 0.0, 0.01)

    def test_nan_error_rejects_step(self, monkeypatch):
        # a NaN in the second of two components makes the error NaN, which
        # rejects the step, so no step past t = 0.5 is accepted and the cap
        # is reached instead of returning NaN samples
        monkeypatch.setattr(dynamics, "_RK45_MAX_ITER", 50)

        def rhs(t, y0, y1):
            return -y0, complex(math.nan, 0.0) if t > 0.5 else 0j

        with pytest.raises(SingularLiftError, match="50 iterations"):
            dynamics._rk45(rhs, 0.0, 1.0, [1.0, 0.0], 1e-8, 1e-10, 0.125)

    def test_first_stage_reused(self, monkeypatch):
        # Dormand-Prince is first-same-as-last: each integration evaluates
        # the right-hand side 6 times per iteration plus once.  Both runs of
        # this lift (the lift and its tighter re-run) reject one step, so
        # they take 201 and 504 iterations for 200 and 503 accepted steps.
        calls = []
        rk45 = dynamics._rk45

        def counting_rk45(rhs, *args, **kwargs):
            calls.append(0)

            def counted(t, *y):
                calls[-1] += 1
                return rhs(t, *y)

            return rk45(counted, *args, **kwargs)

        monkeypatch.setattr(dynamics, "_rk45", counting_rk45)
        result = lift_path(linear_saddle(3), "x", full_circle(0.9), [0.5])
        assert len(result.samples) == 201
        assert calls == [6 * 201 + 1, 6 * 504 + 1]

    def test_order5_state_formed_once(self):
        # the last tableau row is the order-5 weights at c = 1, so the last
        # stage's arguments are the order-5 state: an accepted step stores
        # those very objects, not a second evaluation of the same sums
        assert dynamics._DP_ROWS[-1] == dynamics._DP_W5
        assert dynamics._DP_C[-2:] == (1.0, 1.0)
        calls = []

        def rhs(t, y0, y1):
            calls.append((t, (y0, y1)))
            return -3j * y0 + y1, (1 + 1j) * y1 - y0 * y0

        samples, escaped = dynamics._rk45(rhs, 0.0, 2.0, [0.5, 0.25j], 1e-9, 1e-12, 0.1)
        assert not escaped and samples[-1][0] == 2.0
        # calls 6, 12, 18, ... are the last stages; each accepted step is one
        last_stages = iter(calls[6::6])
        for t, y in samples[1:]:
            for t_stage, args in last_stages:
                if all(u is v for u, v in zip(y, args)):
                    assert t_stage == t
                    break
            else:
                pytest.fail(f"no last stage took the state accepted at t = {t!r}")

    def test_rerun_escape_marks_lift_escaped(self):
        # the lift of this seed stays inside the polydisc (largest fiber
        # modulus 9.999999998928) while its tighter re-run leaves it
        # (10.00000000047) and stops at its last sample inside, short of the
        # loop's end: an error measured against that point would read 0.79
        field = VectorField.make(Chart.root(V2), [
            Poly.variable(V2, "x"), Poly.make(V2, {(0, 1): gr("-1/2", "-1/2")})])
        result = lift_path(field, "x", full_circle(0.1), [0.43213918265919726])
        assert result.escaped and result.est_error is None
        assert abs(result.samples[-1][0] - 2.0 * math.pi) < 1e-12
        assert max(result.fiber_moduli("y")) < 10.0
        with pytest.raises(SingularLiftError, match="escaped the polydisc"):
            loop_lift_ratio(field, "x", 0.1, 0.43213918265919726)
        # a seed 1% smaller keeps both runs inside
        ratio, err = loop_lift_ratio(field, "x", 0.1, 0.4278)
        assert err < 1e-7

    def test_rerun_escape_fails_holonomy_command(self, tmp_path, capsys):
        path = tmp_path / "field.field"
        path.write_text("vars: x, y\nkind: field\nx, (-1/2-1/2*i)*y\n", encoding="utf-8")
        code = cli.main(["dynamics", "holonomy", str(path), "--base", "x",
                         "--fiber-seed", "0.43213918265919726"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == ("error: lift or its tighter re-run escaped the polydisc before "
                       "closing the loop\n")

    @pytest.mark.parametrize("tolerances, message", [
        ({"rtol": -1.0}, "relative tolerance must be nonnegative, got -1.0"),
        ({"atol": -1e-10}, "absolute tolerance must be nonnegative, got -1e-10"),
        ({"rtol": 0.0, "atol": 0.0}, "tolerances must not both be zero")])
    def test_tolerance_without_error_control_rejected(self, monkeypatch, tolerances,
                                                      message):
        # a negative tolerance accepts every step, and two zero tolerances
        # divide the error by zero.  Each is rejected before any step.
        monkeypatch.setattr(dynamics, "_RK45_MAX_ITER", 0)
        with pytest.raises(DegenerateInputError, match=message):
            lift_path(linear_saddle(3), "y", full_circle(0.1), [0.01], **tolerances)

    def test_zero_state_with_zero_atol(self):
        # the error scale atol + rtol * |y| is 0 on the zero fiber: a zero
        # difference there is no error, not 0/0
        result = lift_path(linear_saddle(3), "y", full_circle(0.1), [0], atol=0.0)
        assert result.final == (0j,)
        assert result.est_error == 0.0

    def test_nan_fiber_rejected(self):
        with pytest.raises(DegenerateInputError, match="fiber values"):
            lift_path(linear_saddle(3), "y", full_circle(0.1), [complex(math.nan, 0)])

    @pytest.mark.parametrize("tolerances, message", [
        ({"rtol": math.nan}, "relative tolerance must be finite, got nan"),
        ({"atol": math.inf}, "absolute tolerance must be finite, got inf")])
    def test_nonfinite_tolerance_rejected(self, monkeypatch, tolerances, message):
        # rejected before any step: without the check a NaN tolerance runs
        # to the iteration cap, here 0
        monkeypatch.setattr(dynamics, "_RK45_MAX_ITER", 0)
        with pytest.raises(DegenerateInputError, match=message):
            lift_path(linear_saddle(3), "y", full_circle(0.1), [0.01], **tolerances)

    def test_singular_base_rejected(self):
        chart = Chart.root(V2)
        field = VectorField.make(chart, [
            Poly.variable(V2, "y"), Poly.variable(V2, "x")])
        with pytest.raises(SingularLiftError):
            lift_path(field, "x", Segment(0.5, -0.5), [0.0])


class TestLiftExceptionOrder:
    """Where two checks of the right-hand side collide at a segment's start,
    the one the evaluation order reaches first raises: the base component,
    then the base-speed floor, then the fibers in chart order."""

    def test_base_zero_before_fiber_pole(self):
        field = VectorField.make(Chart.root(V2), [
            Poly.variable(V2, "x"),
            ChartFunction.make(Poly.variable(V2, "y"), (-1, 0))])
        with pytest.raises(SingularLiftError, match="base component vanished"):
            lift_path(field, "x", Segment(0j, 0.5), [1.0])

    def test_base_zero_before_fiber_power_overflow(self):
        field = VectorField.make(Chart.root(V2), [
            Poly.variable(V2, "x"), make_poly(V2, {(0, 2): 1})])
        with pytest.raises(SingularLiftError, match="base component vanished"):
            lift_path(field, "x", Segment(0j, 0.5), [1e200], escape_radius=1e300)

    def test_base_zero_before_fiber_coefficient_overflow(self):
        field = VectorField.make(Chart.root(V2), [
            Poly.variable(V2, "x"), make_poly(V2, {(0, 1): 10 ** 400})])
        with pytest.raises(SingularLiftError, match="base component vanished"):
            lift_path(field, "x", Segment(0j, 0.5), [1.0])

    def test_base_pole_before_fiber_power_overflow(self):
        field = VectorField.make(Chart.root(V2), [
            ChartFunction.make(Poly.constant(V2, 1), (-1, 0)),
            make_poly(V2, {(0, 2): 1})])
        with pytest.raises(PoleEvaluationError, match="evaluation at a pole"):
            lift_path(field, "x", Segment(0j, 0.5), [1e200], escape_radius=1e300)

    def test_tolerance_before_coefficient_overflow(self):
        field = VectorField.make(Chart.root(V2), [
            make_poly(V2, {(0, 0): 10 ** 400}), Poly.variable(V2, "y")])
        with pytest.raises(DegenerateInputError, match="relative tolerance"):
            lift_path(field, "x", Segment(0j, 0.5), [1.0], rtol=math.nan)


class TestOmegaOne:
    def test_constant_form(self):
        one = upoly({0: 1})
        value, _ = omega1_integral(one, one, Segment(0j, 0.8 + 0j))
        assert abs(value - 0.8) < 1e-9

    def test_zero_numerator(self):
        value, _ = omega1_integral(upoly({0: 1}), Poly.zero(V1),
                                   Segment(0j, 1.0 + 0j))
        assert value == 0

    def test_agreement_with_lift(self):
        rng = random.Random(20260808)
        agreements = 0
        for _ in range(10):
            f = upoly({0: 1, 1: gr(rng.randint(1, 3), 0) * gr("1/8")})
            h = upoly({0: 1, 1: gr(rng.randint(-2, 2), 0) * gr("1/4")})
            t1 = rng.uniform(0.5, 2.5)
            path = CircularArc(0j, rng.uniform(0.3, 0.6), 0.0, t1)
            value, _ = omega1_integral(f, h, path)
            vars_ = ("x", "z")
            chart = Chart.root(vars_)
            fb = Poly.make(vars_, {(e[0], 0): c for e, c in f.terms.items()})
            hz = Poly.make(vars_, {(e[0], 1): c for e, c in h.terms.items()})
            field = VectorField.make(chart, [fb, hz])
            lift = lift_path(field, "x", path, [1.0 + 0j])
            expected = cmath.exp(value)
            assert abs(lift.final[0] - expected) / abs(expected) <= 1e-6
            agreements += 1
        assert agreements == 10


class TestDescent:
    def test_radial_rays(self):
        traj = trace_descent(upoly({1: 1}), upoly({0: 1}), 0.0, 0.4 + 0.3j, 2.0)
        pts = [z for _, z in traj.samples]
        for z in pts:
            assert abs((z / pts[0]).imag) < 1e-8

    def test_log_spiral_pitch(self):
        traj = trace_descent(upoly({1: 1}), upoly({0: 1}), math.pi / 4,
                             0.4 + 0.3j, 1.5)
        pts = [z for _, z in traj.samples]
        increments = [cmath.phase(b / a) for a, b in zip(pts, pts[1:])]
        assert max(increments) - min(increments) < 1e-6

    def test_translation_flow(self):
        traj = trace_descent(upoly({0: 1}), upoly({0: 1}), 0.0, 0.1 + 0.2j, 1.0)
        pts = [z for _, z in traj.samples]
        assert abs(pts[-1] - pts[0] - 1.0) < 1e-8
        assert all(abs(z.imag - 0.2) < 1e-9 for z in pts)

    def test_start_at_singularity_rejected(self):
        with pytest.raises(SingularPathError):
            trace_descent(upoly({1: 1}), upoly({0: 1}), 0.0, 0j, 1.0)

    def test_nan_start_rejected(self):
        with pytest.raises(DegenerateInputError, match="start must be finite"):
            trace_descent(upoly({2: 1}), upoly({0: 1}), 0.0, complex(math.nan, 0), 1.0)

    @pytest.mark.parametrize("t_max, tolerances, message", [
        (math.nan, {}, "end time must be finite, got nan"),
        (math.inf, {}, "end time must be finite, got inf"),
        (1.0, {"rtol": math.nan}, "relative tolerance must be finite, got nan")])
    def test_nonfinite_end_time_or_tolerance_rejected(self, monkeypatch, t_max,
                                                      tolerances, message):
        monkeypatch.setattr(dynamics, "_RK45_MAX_ITER", 0)
        with pytest.raises(DegenerateInputError, match=message):
            trace_descent(upoly({2: 1}), upoly({0: 1}), 0.0, 0.5 + 0.5j, t_max,
                          **tolerances)

    def test_negative_t_max_rejected(self, monkeypatch):
        # a negative t_max made every step point away from it until the
        # iteration cap, reported as a singularity of the form
        monkeypatch.setattr(dynamics, "_RK45_MAX_ITER", 0)
        with pytest.raises(DegenerateInputError, match="t_max must be nonnegative, got -1.0"):
            trace_descent(upoly({2: 1}), upoly({0: 1}), 0.0, 0.5 + 0.5j, -1.0)

    def test_zero_first_step_rejected(self):
        # t_max / 64 underflows to 0: the zero-length steps stayed at t = 0
        # until the iteration cap, reported as a singularity of the form
        with pytest.raises(DegenerateInputError, match="step underflows to zero: span 5e-324"):
            trace_descent(upoly({2: 1}), upoly({1: 1}), 0.0, 0.5, 5e-324)
        assert len(trace_descent(upoly({2: 1}), upoly({1: 1}), 0.0, 0.5, 1e-320).samples) > 1

    def test_first_step_below_half_an_ulp_of_t0_rejected(self):
        # span 3 ulp(1e10) over 64 is a nonzero step that leaves t = 1e10
        # unchanged: every step stayed there until the iteration cap
        arc = CircularArc(0j, 0.1, 1e10, 1e10 + 3 * math.ulp(1e10))
        message = r"step underflows to zero: span 5\.72.*, t0 10000000000\.0$"
        with pytest.raises(DegenerateInputError, match=message):
            lift_path(linear_saddle(3), "x", arc, [0.01])

    def test_iteration_cap_names_itself(self, monkeypatch):
        # a descent needs at least 64 steps; running out of iterations is
        # not a singularity of the form
        monkeypatch.setattr(dynamics, "_RK45_MAX_ITER", 5)
        with pytest.raises(IterationCapError, match="5 iterations reached"):
            trace_descent(upoly({2: 1}), upoly({0: 1}), 0.0, 0.5 + 0.5j, 1.0)

    @pytest.mark.parametrize("start", [1e200 + 1e200j, 1e160 + 1e160j])
    def test_nonfinite_right_hand_side_raises(self, start):
        # x^2 off the real axis overflows to a NaN real part; every step
        # was rejected with a NaN error until the iteration cap
        with pytest.raises(EvaluationOverflowError, match="floating-point overflow"):
            trace_descent(upoly({2: 1}), upoly({0: 1}), 0.0, start, 2.0)

    def test_theta_range_enforced(self):
        with pytest.raises(StructuralError):
            trace_descent(upoly({1: 1}), upoly({0: 1}), math.pi / 2, 0.5, 1.0)

    def test_csv(self):
        traj = trace_descent(upoly({0: 1}), upoly({0: 1}), 0.0, 0j, 1.0)
        csv = traj.to_csv()
        assert csv.splitlines()[0] == "t,re,im"


class TestSaddleBehavior:
    def test_radial_decay(self):
        x = strict_siegel_diagonal()
        ray = LogSpiral(0.1, -1.0, 0.0, 3.0)
        lift = lift_path(x, "x", ray, [0.01, 0.01])
        m2 = lift.fiber_moduli("y")
        assert all(a > b for a, b in zip(m2, m2[1:]))

    def test_spiral_growth_256_samples(self):
        x = strict_siegel_diagonal()
        v = separating_direction([1, 1 + 1j, -2 - 1j])
        lift = lift_path(x, "x", spiral_path(0.1, 0.3, v, -10.0),
                         [0.01, 0.01], escape_radius=1e9, min_samples=256)
        assert len(lift.samples) >= 256
        m2 = lift.fiber_moduli("y")
        m3 = lift.fiber_moduli("z")
        assert all(a < b for a, b in zip(m2, m2[1:]))
        assert all(a < b for a, b in zip(m3, m3[1:]))

    def test_separating_direction_margins(self):
        values = [1 + 0j, 1 + 1j, -2 - 1j]
        v = separating_direction(values)
        assert (values[0] / v).real > 0
        assert (values[1] / v).real < 0
        assert (values[2] / v).real < 0


class TestSecondJet:
    def test_examples(self):
        from foliations.corpus import cusp_hamiltonian, quadratic_isolated_field
        assert second_jet_check(cusp_hamiltonian(1))
        assert second_jet_check(quadratic_isolated_field(2))
        cubic = VectorField.make(Chart.root(V2), [
            make_poly(V2, {(3, 0): 1}), make_poly(V2, {(0, 3): 1})])
        assert not second_jet_check(cubic)


class TestPaths:
    def test_polyline(self):
        p = Polyline((0j, 1 + 0j, 1 + 1j))
        assert p.at(0.5)[0] == 0.5 + 0j
        assert p.at(1.5)[0] == 1 + 0.5j
        assert p.at(1.2)[1] == 1j

    def test_quadrature_of_polynomial(self):
        value, err = adaptive_quadrature(lambda t: t * t, 0.0, 1.0)
        assert abs(value - 1.0 / 3.0) < 1e-12


def _bits(z: complex) -> tuple[float, ...]:
    """``z``'s parts with the sign of zero made visible to ``==``."""
    return (z.real, z.imag, math.copysign(1.0, z.real), math.copysign(1.0, z.imag))


def _polyline_point(p: Polyline, t: float) -> complex:
    k = min(int(t), len(p.points) - 2)
    s = t - k
    return p.points[k] + s * (p.points[k + 1] - p.points[k])


def _polyline_velocity(p: Polyline, t: float) -> complex:
    k = min(int(t), len(p.points) - 2)
    return p.points[k + 1] - p.points[k]


# each path kind and the point and velocity formulas it had before ``at``
# computed both at once
_finite = st.floats(-1e3, 1e3)
_complex = st.builds(complex, _finite, _finite)
PATH_FORMULAS = [
    (st.builds(Segment, _complex, _complex),
     lambda p, t: p.z0 + t * (p.z1 - p.z0),
     lambda p, t: p.z1 - p.z0),
    (st.builds(CircularArc, _complex, _finite, _finite, _finite),
     lambda p, t: p.center + p.radius * complex(math.cos(t), math.sin(t)),
     lambda p, t: 1j * p.radius * complex(math.cos(t), math.sin(t))),
    (st.builds(LogSpiral, _complex, _complex.filter(lambda z: abs(z) > 0.1),
               st.floats(-30, 5), st.floats(-30, 5)),
     lambda p, t: p.anchor * cmath.exp(t / p.direction),
     lambda p, t: p.anchor * cmath.exp(t / p.direction) / p.direction),
    (st.builds(Polyline, st.lists(_complex, min_size=2, max_size=6).map(tuple)),
     _polyline_point, _polyline_velocity),
]


@pytest.mark.parametrize("paths, point, velocity", PATH_FORMULAS,
                         ids=["segment", "arc", "spiral", "polyline"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_at_matches_point_and_velocity_formulas(paths, point, velocity, data):
    path = data.draw(paths)
    # not sorted(): it keeps (0.0, -0.0) in that order, which hypothesis
    # reads as an empty range
    t = data.draw(st.floats(min(path.t_range), max(path.t_range)))
    z, v = path.at(t)
    assert _bits(z) == _bits(point(path, t))
    assert _bits(v) == _bits(velocity(path, t))
