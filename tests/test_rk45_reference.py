"""Bit identity of the Dormand-Prince integrator against its loop form.

``reference_rk45`` is the integrator written with generic loops over the
tableau, kept here as the reference: every sample (value and sign of
zero), the escape flag and every raised error of ``dynamics._rk45`` must
equal it over random complex linear and quadratic systems of one to four
components, with zero states under ``atol = 0`` (the ``ZeroDivisionError``
branch of the error ratio), NaN components (rejected steps) and escape
radii.

``reference_lift`` is ``lift_path`` on ``reference_rk45``, with a
right-hand side that evaluates each component by ``Poly.eval_complex`` and
the path formulas written out: every lift of a random 2-D or 3-D
polynomial field along a segment, an arc, a logarithmic spiral or a
polyline must equal it bit for bit, or raise the same error (the base
component vanishing, a floating-point overflow, the iteration cap).  A
lift whose tighter re-run escapes is escaped, with no error estimate.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliations import dynamics
from foliations.algebra import _OVERFLOW, Poly, gr
from foliations.dynamics import CircularArc, LogSpiral, Polyline, Segment, lift_path
from foliations.errors import (
    DegenerateInputError,
    EvaluationOverflowError,
    IterationCapError,
    SingularLiftError,
)
from foliations.fields import Chart, VectorField

# iterations per integration here: a system that rejects every step or
# never escapes ends at this cap in both integrators
MAX_ITER = 300

_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
       187 / 2100, 1 / 40)
_ROWS = tuple(tuple((j, a) for j, a in enumerate(row) if a) for row in _A[1:])
_W5 = tuple((j, b) for j, b in enumerate(_B5) if b)
_W4 = tuple((j, b) for j, b in enumerate(_B4) if b)


def reference_rk45(rhs, t0, t1, y0, rtol, atol, max_step, escape_radius=None):
    """``_rk45`` with its stages and error norm as loops over the tableau."""
    if not math.isfinite(t1):
        raise DegenerateInputError(
            f"integration end time must be finite, got {t1!r}")
    dynamics._check_tolerances("integration", rtol, atol)
    direction = 1.0 if t1 >= t0 else -1.0
    span = abs(t1 - t0)
    y = [complex(v) for v in y0]
    if span == 0:
        return [(t0, y)], False
    h = direction * min(max_step, span / 64.0)
    t = t0
    n = len(y)
    samples = [(t, y)]
    escaped = False
    first = None
    for _ in range(dynamics._RK45_MAX_ITER):
        remaining = t1 - t
        if remaining * direction <= 1e-14 * span:
            break
        if abs(h) >= abs(remaining):
            h = remaining
        if first is None:
            first = rhs(t, y)
        k = [first]
        for c, row in zip(_C[1:], _ROWS):
            stage = []
            for i in range(n):
                acc = 0j
                for j, a in row:
                    acc = acc + a * k[j][i]
                stage.append(y[i] + h * acc)
            k.append(rhs(t + c * h, stage))
        y5 = []
        err = 0.0
        for i in range(n):
            s5 = s4 = 0j
            for j, b in _W5:
                s5 = s5 + b * k[j][i]
            for j, b in _W4:
                s4 = s4 + b * k[j][i]
            u = y[i] + h * s5
            y5.append(u)
            d = abs(u - (y[i] + h * s4))
            try:
                r = d / (atol + rtol * max(abs(y[i]), abs(u)))
            except ZeroDivisionError:
                r = d * math.inf if d else 0.0
            if i == 0 or r > err or r != r:
                err = r
        if err <= 1.0:
            if escape_radius is not None and any(abs(u) > escape_radius for u in y5):
                escaped = True
                break
            t = t + h
            y = y5
            samples.append((t, y))
            first = k[6]
        factor = 0.9 * (err ** -0.2) if err > 0 else 5.0
        h = h * min(5.0, max(0.2, factor))
        if abs(h) > max_step:
            h = direction * max_step
        if err > 1.0 and abs(h) < 1e-15 * max(1.0, abs(t)):
            raise SingularLiftError("step size underflow (singular right-hand side?)")
    else:
        if (t1 - t) * direction > 1e-14 * span:
            raise IterationCapError(
                f"RK45 stopped at t = {t:.6g} before t1 = {t1:.6g}: "
                f"{dynamics._RK45_MAX_ITER} iterations reached")
    return samples, escaped


def _bits(x: float) -> tuple[float, float]:
    """``x`` with the sign of zero made visible to ``==``."""
    return x, math.copysign(1.0, x)


def outcome(integrate, rhs, *args):
    """Samples as (t, re, im) bits and the escape flag, or the raised error.

    The hand-written ``rhs(t, y)`` here takes and returns lists, as
    ``reference_rk45`` calls it; ``dynamics._rk45`` gets it through a thin
    adapter to its own convention, the state as positional scalars and a
    tuple returned."""
    if integrate is dynamics._rk45:
        listed = rhs

        def rhs(t, *y):
            return tuple(listed(t, list(y)))

    try:
        samples, escaped = integrate(rhs, *args)
    except Exception as exc:    # the rhs's own errors, such as a division by zero, too
        return type(exc), str(exc)
    return [(_bits(t), [(_bits(z.real), _bits(z.imag)) for z in y])
            for t, y in samples], escaped


coefficients = st.one_of(
    st.just(0j),
    st.builds(complex, st.floats(-3, 3), st.floats(-3, 3)),
    st.builds(complex, st.integers(-2, 2), st.just(0)))


@st.composite
def systems(draw):
    """(rhs, t0, t1, y0, rtol, atol, max_step, escape_radius) for a random
    linear or quadratic complex system of one to four components."""
    n = draw(st.integers(1, 4))
    linear = [[draw(coefficients) for _ in range(n)] for _ in range(n)]
    quadratic = ([[draw(coefficients) for _ in range(n)] for _ in range(n)]
                 if draw(st.booleans()) else None)
    # a component that turns NaN past a time rejects every step reaching it
    nan_at = draw(st.one_of(st.none(), st.tuples(st.integers(0, n - 1),
                                                 st.floats(-1.0, 1.0))))
    # a pole in time shrinks the steps toward it until they underflow
    pole = draw(st.one_of(st.none(), st.floats(-1.0, 1.0)))

    def rhs(t, y):
        out = []
        for i in range(n):
            v = 0j
            for a, z in zip(linear[i], y):
                v = v + a * z
            if quadratic is not None:
                v = v + quadratic[i][i] * y[i] * y[(i + 1) % n]
            out.append(v)
        if pole is not None:
            out[0] = out[0] + 1.0 / (t - pole) ** 2
        if nan_at is not None and t > nan_at[1]:
            out[nan_at[0]] = complex(math.nan, 0.0)
        return out

    t0 = draw(st.floats(-2.0, 2.0))
    # spans whose first step span/64 underflows to zero are left out: they
    # are rejected before any step, where the loop form stepped in place
    t1 = t0 + draw(st.one_of(st.floats(1e-6, 3.0), st.floats(-3.0, -1e-6)))
    y0 = [draw(st.one_of(st.just(0j), coefficients)) for _ in range(n)]
    rtol = draw(st.sampled_from([1e-6, 1e-9, 1e-3, 0.0]))
    atol = draw(st.sampled_from([1e-8, 1e-12, 1e-4, 0.0]))
    max_step = draw(st.floats(0.01, 4.0))
    escape = draw(st.one_of(st.none(), st.floats(0.5, 20.0)))
    return rhs, t0, t1, y0, rtol, atol, max_step, escape


@settings(max_examples=300, deadline=None)
@given(systems())
def test_rk45_matches_reference(case):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_RK45_MAX_ITER", MAX_ITER)
        assert outcome(dynamics._rk45, *case) == outcome(reference_rk45, *case)


@pytest.mark.parametrize("y0", [[0j], [0j, 0j, 0j], [1.0, 0j]])
def test_zero_state_without_absolute_tolerance(y0):
    # atol = 0 at a zero component divides its error by zero: only a zero
    # error passes, and a zero state stays zero
    def rhs(t, y):
        return [-y[0]] + [0j] * (len(y) - 1)

    case = (rhs, 0.0, 1.0, y0, 1e-8, 0.0, 0.25)
    assert outcome(dynamics._rk45, *case) == outcome(reference_rk45, *case)
    assert outcome(dynamics._rk45, *case)[1] is False


def test_nan_component_ends_at_cap(monkeypatch):
    monkeypatch.setattr(dynamics, "_RK45_MAX_ITER", 40)

    def rhs(t, y):
        return [-y[0], complex(math.nan, 0.0) if t > 0.5 else 0j]

    case = (rhs, 0.0, 1.0, [1.0, 0.0], 1e-8, 1e-10, 0.125)
    expected = outcome(reference_rk45, *case)
    assert expected[0] is IterationCapError
    assert outcome(dynamics._rk45, *case) == expected


def test_escape_matches_reference():
    def rhs(t, y):
        return [y[0] * y[0], 1j * y[1]]

    case = (rhs, 0.0, 2.0, [1.0, 0.5j], 1e-8, 1e-10, 0.05, 10.0)
    expected = outcome(reference_rk45, *case)
    assert expected[1] is True
    assert outcome(dynamics._rk45, *case) == expected


# ---------------------------------------------------------------------------
# Lifts
# ---------------------------------------------------------------------------

def reference_point(path, t):
    """(point, velocity) of a path at the parameter t."""
    if isinstance(path, Segment):
        d = path.z1 - path.z0
        return path.z0 + t * d, d
    if isinstance(path, CircularArc):
        e = complex(math.cos(t), math.sin(t))
        return path.center + path.radius * e, 1j * path.radius * e
    if isinstance(path, LogSpiral):
        p = path.anchor * cmath.exp(t / path.direction)
        return p, p / path.direction
    k = min(int(t), len(path.points) - 2)
    d = path.points[k + 1] - path.points[k]
    return path.points[k] + (t - k) * d, d


def reference_lift(x, base_var, path, fiber, rtol, atol, escape_radius, min_samples):
    """``lift_path`` as (samples, est_error, escaped), on ``reference_rk45``."""
    b = x.chart.var_index(base_var)
    fibers = [j for j in range(x.chart.dim) if j != b]

    def rhs(t, y):
        z, v = reference_point(path, t)
        point = list(y)
        point.insert(b, z)
        speed = x.components[b].eval_complex(point)
        if abs(speed) < dynamics.ZERO_FLOOR:
            raise SingularLiftError("base component vanished along the lift")
        vel = v / speed
        out = [x.components[j].eval_complex(point) * vel for j in fibers]
        if not all(cmath.isfinite(w) for w in [speed, *out]):
            raise EvaluationOverflowError(_OVERFLOW)
        return out

    t0, t1 = path.t_range
    max_step = abs(t1 - t0) / max(min_samples, 1)
    samples, escaped = reference_rk45(rhs, t0, t1, fiber, rtol, atol, max_step,
                                      escape_radius)
    if escaped:
        return samples, None, True
    tight, tight_escaped = reference_rk45(rhs, t0, t1, fiber, rtol / 100.0, atol / 100.0,
                                          max_step / 2.0, escape_radius)
    if tight_escaped:   # the re-run ends short of t1: no estimate
        return samples, None, True
    final = samples[-1][1]
    return samples, max((abs(u - v) for u, v in zip(final, tight[-1][1])), default=0.0), False


def lift_outcome(lift, *args):
    """Samples as (t, re, im) bits, the error estimate's bits and the escape
    flag, or the raised error."""
    try:
        samples, est, escaped = lift(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return ([(_bits(t), [(_bits(z.real), _bits(z.imag)) for z in y]) for t, y in samples],
            None if est is None else _bits(est), escaped)


def toolkit_lift(*args):
    result = lift_path(*args)
    return result.samples, result.est_error, result.escaped


points = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
paths = st.one_of(
    st.builds(Segment, points, points),
    st.builds(CircularArc, points, st.floats(0.05, 1.0), st.floats(-3.0, 3.0),
              st.floats(-3.0, 3.0)),
    st.builds(LogSpiral, points.filter(lambda z: abs(z) > 0.05),
              points.filter(lambda z: abs(z) > 0.2), st.floats(-2.0, 2.0),
              st.floats(-2.0, 2.0)),
    st.builds(Polyline, st.lists(points, min_size=2, max_size=4).map(tuple)))
coefficients_q = st.builds(lambda a, b, d: gr(Fraction(a, d), Fraction(b, d)),
                           st.integers(-3, 3), st.integers(-2, 2), st.integers(1, 3))
# rare: a coefficient past the float range, which raises on evaluation, and
# fiber values whose squares overflow
HUGE_COEFFICIENT = gr(10 ** 400)
HUGE_FIBERS = (1e160 + 1e160j, 1e200 + 0j)


@st.composite
def lifts(draw):
    """(field, base_var, path, fiber, rtol, atol, escape_radius, min_samples)
    for a random 2-D or 3-D polynomial field of degree at most 2; the base
    component mostly has a nonzero constant term."""
    vars_ = draw(st.sampled_from([("x", "y"), ("x", "y", "z")]))
    n = len(vars_)
    exponents = st.tuples(*[st.integers(0, 2)] * n)
    components = [draw(st.dictionaries(exponents, coefficients_q, max_size=3))
                  for _ in vars_]
    b = draw(st.integers(0, n - 1))
    if draw(st.integers(0, 7)):
        components[b][(0,) * n] = draw(coefficients_q.filter(lambda c: not c.is_zero()))
    if not draw(st.integers(0, 15)):
        components[draw(st.integers(0, n - 1))][draw(exponents)] = HUGE_COEFFICIENT
    field = VectorField.make(Chart.root(vars_),
                             [Poly(vars_, terms) for terms in components])
    fiber = [draw(points) for _ in range(n - 1)]
    if not draw(st.integers(0, 7)):
        fiber[0] = draw(st.sampled_from(HUGE_FIBERS))
    return (field, vars_[b], draw(paths), fiber,
            draw(st.sampled_from([1e-6, 1e-9, 1e-3])),
            draw(st.sampled_from([1e-8, 1e-12, 0.0])),
            draw(st.sampled_from([10.0, 1e300])),
            draw(st.sampled_from([4, 16, 64])))


@settings(max_examples=200, deadline=None)
@given(lifts(), st.sampled_from([MAX_ITER, 40]))
def test_lift_matches_reference(case, cap):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_RK45_MAX_ITER", cap)
        assert lift_outcome(toolkit_lift, *case) == lift_outcome(reference_lift, *case)


V2, V3 = ("x", "y"), ("x", "y", "z")


@pytest.mark.parametrize("components, base, path, fiber, escape, error, cap", [
    # x vanishes at the segment's start
    ([{(1, 0): 1}, {(0, 1): 1}], "x", Segment(0j, 0.5), [1.0], 10.0, SingularLiftError,
     MAX_ITER),
    # y*z overflows at y = z = 1e200
    ([{(0, 1, 1): 1}, {(0, 1, 0): 1}, {(0, 0, 1): -1}], "x", CircularArc(0j, 0.1, 0.0, 6.0),
     [1e200, 1e200], 1e300, EvaluationOverflowError, MAX_ITER),
    # a polyline of three unit segments at 4 samples each needs 12 steps
    ([{(1, 0): 1}, {(0, 1): -3}], "y", Polyline((0.1, 0.2j, -0.1, -0.2j)), [0.01], 10.0,
     IterationCapError, 10)])
def test_lift_errors_match_reference(monkeypatch, components, base, path, fiber, escape,
                                     error, cap):
    monkeypatch.setattr(dynamics, "_RK45_MAX_ITER", cap)
    vars_ = V2 if len(components) == 2 else V3
    field = VectorField.make(Chart.root(vars_), [
        Poly(vars_, {e: gr(c) for e, c in terms.items()}) for terms in components])
    case = (field, base, path, fiber, 1e-8, 1e-10, escape, 4)
    expected = lift_outcome(reference_lift, *case)
    assert expected[0] is error
    assert lift_outcome(toolkit_lift, *case) == expected


def test_rerun_escape_matches_reference():
    # the lift stays inside the polydisc of radius 10 and its tighter re-run
    # leaves it: the lift is escaped, with its own samples and no estimate
    field = VectorField.make(Chart.root(V2), [
        Poly(V2, {(1, 0): gr(1)}), Poly(V2, {(0, 1): gr("-1/2", "-1/2")})])
    case = (field, "x", CircularArc(0j, 0.1, 0.0, 2.0 * math.pi), [0.43213918265919726],
            1e-8, 1e-10, 10.0, 64)
    expected = lift_outcome(reference_lift, *case)
    assert expected[1:] == (None, True)
    assert lift_outcome(toolkit_lift, *case) == expected
