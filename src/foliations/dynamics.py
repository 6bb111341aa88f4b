"""Numeric engine: path integrals, lifts, holonomy and descent tracing.

Everything here is floating point, driven by the exact objects of the other
modules: time-form integrals ``int dx / X(x)`` along paths, the
one-dimensional semicompleteness verdict (exact vanishing order rule with a
corroborating integral), leaf-path lifting by an adaptive embedded
Runge-Kutta 5(4) pair whose error estimate compares the lift with a re-run
at hundredfold tighter tolerances, quadrature of the holonomy form
``(H/F) dx`` cross-validated against lifts, and tracing of the real
trajectories on which that form has prescribed phase.

Conventions: lifting the base equation ``dz/dx = z H(x)/F(x)`` gives
``z = z0 * exp(int (H/F) dx)``; the derivative of the holonomy return map
is ``exp(-I)`` for the same integral ``I``, so ``Re I > 0`` means the
holonomy contracts.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import _OVERFLOW, ChartFunction, Poly
from .errors import (
    DegenerateInputError,
    EvaluationOverflowError,
    NotApplicableError,
    SingularLiftError,
    SingularPathError,
    StructuralError,
)
from .fields import VectorField

DEFAULT_ABS_TOL = 1e-10
DEFAULT_REL_TOL = 1e-8
ZERO_FLOOR = 1e-13


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    """Straight path from z0 to z1, parameter in [0, 1]."""

    z0: complex
    z1: complex

    @property
    def t_range(self) -> tuple[float, float]:
        return (0.0, 1.0)

    def point(self, t: float) -> complex:
        return self.z0 + t * (self.z1 - self.z0)

    def velocity(self, t: float) -> complex:
        return self.z1 - self.z0


@dataclass(frozen=True)
class CircularArc:
    """Arc ``center + radius * exp(i t)`` for t from angle0 to angle1."""

    center: complex
    radius: float
    angle0: float
    angle1: float

    @property
    def t_range(self) -> tuple[float, float]:
        return (self.angle0, self.angle1)

    def point(self, t: float) -> complex:
        return self.center + self.radius * complex(math.cos(t), math.sin(t))

    def velocity(self, t: float) -> complex:
        return 1j * self.radius * complex(math.cos(t), math.sin(t))


@dataclass(frozen=True)
class LogSpiral:
    """``anchor * exp(t / direction)``; descends to 0 as t -> -inf when
    Re(1/direction) > 0."""

    anchor: complex
    direction: complex
    t0: float
    t1: float

    @property
    def t_range(self) -> tuple[float, float]:
        return (self.t0, self.t1)

    def point(self, t: float) -> complex:
        return self.anchor * np.exp(t / self.direction)

    def velocity(self, t: float) -> complex:
        return self.point(t) / self.direction


@dataclass(frozen=True)
class Polyline:
    """Piecewise segments through the given points, unit parameter each."""

    points: tuple[complex, ...]

    def __post_init__(self):
        if len(self.points) < 2:
            raise StructuralError("polyline needs at least two points")

    @property
    def t_range(self) -> tuple[float, float]:
        return (0.0, float(len(self.points) - 1))

    def point(self, t: float) -> complex:
        k = min(int(t), len(self.points) - 2)
        s = t - k
        return self.points[k] + s * (self.points[k + 1] - self.points[k])

    def velocity(self, t: float) -> complex:
        k = min(int(t), len(self.points) - 2)
        return self.points[k + 1] - self.points[k]


PathSpec = Segment | CircularArc | LogSpiral | Polyline


def full_circle(radius: float, center: complex = 0j) -> CircularArc:
    return CircularArc(center, radius, 0.0, 2.0 * math.pi)


def half_circle(radius: float) -> CircularArc:
    """Open upper half circle from +radius to -radius."""
    return CircularArc(0j, radius, 0.0, math.pi)


# ---------------------------------------------------------------------------
# Adaptive quadrature
# ---------------------------------------------------------------------------

# bisection depth at which adaptive Simpson accepts an estimate as it is
_QUADRATURE_MAX_DEPTH = 40

# relative rounding floor of adaptive Simpson: a difference this small
# against the integral of |f| over the interval is rounding, not error
_QUADRATURE_ROUNDOFF = 50.0 * sys.float_info.epsilon


def _check_tolerances(kind: str, rel_tol: float, abs_tol: float) -> None:
    """Reject tolerances under which no error estimate is ever accepted
    (or every one is): non-finite, negative, or both zero."""
    for name, value in (("relative", rel_tol), ("absolute", abs_tol)):
        if not math.isfinite(value):
            raise DegenerateInputError(f"{kind} {name} tolerance must be finite, got {value!r}")
        if value < 0:
            raise DegenerateInputError(
                f"{kind} {name} tolerance must be nonnegative, got {value!r}")
    if rel_tol == 0 and abs_tol == 0:
        raise DegenerateInputError(f"{kind} tolerances must not both be zero")


def adaptive_quadrature(
    f: Callable[[float], complex],
    a: float,
    b: float,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
) -> tuple[complex, float]:
    """Adaptive Simpson integration of a complex integrand; (value, error).

    A non-finite or negative tolerance, or two zero tolerances, raise
    :class:`DegenerateInputError`: no estimate meets a NaN, negative or zero
    tolerance, so every interval would be bisected to the depth limit.  An
    interval is also accepted when its Simpson difference is within
    ``50 * eps`` of the composite-Simpson integral of ``|f|`` over it: a
    relative tolerance alone on an integral that is zero would otherwise
    be met by no estimate either.
    """
    _check_tolerances("quadrature", rel_tol, abs_tol)

    def simpson(x0, f0, x2, f2):
        x1 = 0.5 * (x0 + x2)
        f1 = f(x1)
        return x1, f1, (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, f0, x2, f2, whole, x1, f1, tol, depth):
        lm, flm, left = simpson(x0, f0, x1, f1)
        rm, frm, right = simpson(x1, f1, x2, f2)
        delta = left + right - whole
        # a non-finite estimate never meets the tolerance: stop bisecting it
        if depth >= _QUADRATURE_MAX_DEPTH or not cmath.isfinite(delta):
            return left + right + delta / 15.0, abs(delta)
        gap = abs(delta)
        # the size of |f| on the interval is formed only past the tolerance
        if gap <= 15.0 * tol or gap <= _QUADRATURE_ROUNDOFF * abs(x2 - x0) / 12.0 * (
                abs(f0) + 4.0 * abs(flm) + 2.0 * abs(f1) + 4.0 * abs(frm) + abs(f2)):
            return left + right + delta / 15.0, gap / 15.0
        lv, le = recurse(x0, f0, x1, f1, left, lm, flm, tol / 2.0, depth + 1)
        rv, re_ = recurse(x1, f1, x2, f2, right, rm, frm, tol / 2.0, depth + 1)
        return lv + rv, le + re_

    f0, f2 = f(a), f(b)
    x1, f1, whole = simpson(a, f0, b, f2)
    # first pass with the absolute tolerance, then tighten relative to size
    value, err = recurse(a, f0, b, f2, whole, x1, f1,
                         max(abs_tol, rel_tol * abs(whole)), 0)
    tol = max(abs_tol, rel_tol * abs(value))
    if err > tol:
        value, err = recurse(a, f0, b, f2, whole, x1, f1, tol, 0)
    return value, err


# ---------------------------------------------------------------------------
# Time-form integrals and 1-D semicompleteness
# ---------------------------------------------------------------------------

def _univariate_eval(fun: "Poly | ChartFunction") -> Callable[[complex], complex]:
    if not isinstance(fun, (Poly, ChartFunction)):
        raise StructuralError("expected Poly or ChartFunction")
    if len(fun.vars) != 1:
        raise StructuralError("expected a univariate function")
    return lambda z: fun.eval_complex((z,))


def time_form_integral(
    x_1d: "Poly | ChartFunction",
    path: PathSpec,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
) -> tuple[complex, float]:
    """Integral of the time form ``dx / X(x)`` along a path; (value, error).

    The path must avoid zeros of X: hitting one raises
    :class:`SingularPathError`.
    """
    evaluate = _univariate_eval(x_1d)

    def integrand(t: float) -> complex:
        z = path.point(t)
        w = evaluate(z)
        if abs(w) < ZERO_FLOOR:
            raise SingularPathError("path runs through a zero of the field")
        return path.velocity(t) / w

    a, b = path.t_range
    return adaptive_quadrature(integrand, a, b, abs_tol, rel_tol)


SEMICOMPLETE = "semicomplete"
NOT_SEMICOMPLETE = "not_semicomplete"


@dataclass(frozen=True)
class SemicompletenessVerdict:
    verdict: str
    order: int
    evidence_integral: complex | None       # vanishing loop integral, order >= 3
    evidence_radius: float | None

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "order": self.order,
            "evidence_integral": None if self.evidence_integral is None else
            [self.evidence_integral.real, self.evidence_integral.imag],
            "evidence_radius": self.evidence_radius,
        }


def semicomplete_order_test(x_1d: Poly, radius: float = 0.1) -> SemicompletenessVerdict:
    """One-dimensional semicompleteness by the vanishing-order rule.

    Order at most 2 at the origin is semicomplete; order k >= 3 is not, and
    the verdict attaches the vanishing integral of the time form over an
    open arc of angle 2*pi/(k-1) as numeric corroboration.  The exact order
    rule is authoritative; the integral is evidence only.
    """
    if len(x_1d.vars) != 1:
        raise StructuralError("expected a univariate polynomial")
    if x_1d.is_zero():
        raise DegenerateInputError("zero field")
    if not x_1d.constant_term().is_zero():
        raise NotApplicableError("field does not vanish at the origin")
    order = int(x_1d.order())
    if order <= 2:
        return SemicompletenessVerdict(SEMICOMPLETE, order, None, None)
    arc = CircularArc(0j, radius, 0.0, 2.0 * math.pi / (order - 1))
    value, _err = time_form_integral(x_1d, arc)
    return SemicompletenessVerdict(NOT_SEMICOMPLETE, order, value, radius)


# ---------------------------------------------------------------------------
# Embedded Runge-Kutta 5(4) (Dormand-Prince)
# ---------------------------------------------------------------------------

_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40)


# the nonzero entries of the tableau rows and weights as (stage, coefficient)
_DP_ROWS = tuple(tuple((j, a) for j, a in enumerate(row) if a) for row in _DP_A[1:])
_DP_W5 = tuple((j, b) for j, b in enumerate(_DP_B5) if b)
_DP_W4 = tuple((j, b) for j, b in enumerate(_DP_B4) if b)

# iterations (accepted or rejected steps) one integration may take
_RK45_MAX_ITER = 200000

# the plain ``complex`` of a complex or NumPy complex scalar, faster than
# the ``complex()`` constructor (``complex.__complex__`` is new in 3.11)
_plain_complex = getattr(complex, "__complex__", complex)


def _rk45(rhs, t0: float, t1: float, y0: Sequence[complex],
          rtol: float, atol: float, max_step: float,
          escape_radius: float | None = None):
    """Adaptive Dormand-Prince integration of a complex system.

    The state and the stages are lists of Python ``complex``; ``rhs(t, y)``
    returns one.  Returns ``(samples, escaped)`` with samples at every
    accepted step; raises SingularLiftError if ``_RK45_MAX_ITER`` iterations
    end before ``t1`` without an escape, and DegenerateInputError before
    any step when ``t1``, ``rtol`` or ``atol`` is not finite, when a
    tolerance is negative or when both are zero.

    The pair is first-same-as-last: the last stage of an accepted step is
    ``rhs(t + h, y5)`` bit for bit (``c = 1`` and its tableau row is the
    order-5 weights, with the same nonzero terms in the same order), so it
    is the next step's first stage; a rejected step keeps its first stage.
    One integration therefore calls ``rhs`` 6 times per iteration plus once.

    The step sequence, and so every output, depends on the last bit of
    each stage and error value, and the outputs are pinned to the rounding
    of the NumPy array form ``y + h * sum(a_j * k_j)``.  Python ``complex``
    ``+``, ``-``, ``*`` and float-by-complex products round as NumPy's do,
    so the stages are plain lists, and every sum starts from ``0j`` and
    adds its nonzero terms in tableau order.  Complex division and modulus
    do not round alike: NumPy's kernels differ from Python's ``/`` and
    ``abs()`` in the last bit for a large share of operands.  So the error
    norm and the escape test take their moduli from one ``np.abs`` call per
    step, the error is a maximum that a NaN wins (as in ``np.max``, so a
    NaN rejects the step), and a right-hand side that divides does so on
    the operand types it had on arrays (see ``lift_path``).
    """
    if not math.isfinite(t1):
        raise DegenerateInputError(f"integration end time must be finite, got {t1!r}")
    _check_tolerances("integration", rtol, atol)
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
    first = None    # rhs(t, y), carried over from the previous step
    for _ in range(_RK45_MAX_ITER):
        remaining = t1 - t
        if remaining * direction <= 1e-14 * span:
            break
        if abs(h) >= abs(remaining):
            h = remaining
        if first is None:
            first = rhs(t, y)
        k = [first]
        for c, row in zip(_DP_C[1:], _DP_ROWS):
            stage = []
            for i in range(n):
                acc = 0j
                for j, a in row:
                    acc = acc + a * k[j][i]
                stage.append(y[i] + h * acc)
            k.append(rhs(t + c * h, stage))
        y5 = []
        diff = []
        for i in range(n):
            s5 = s4 = 0j
            for j, b in _DP_W5:
                s5 = s5 + b * k[j][i]
            for j, b in _DP_W4:
                s4 = s4 + b * k[j][i]
            u = y[i] + h * s5
            y5.append(u)
            diff.append(u - (y[i] + h * s4))
        moduli = np.abs(y + y5 + diff).tolist()
        err = 0.0
        for i in range(n):
            m, m5 = moduli[i], moduli[n + i]
            if not m >= m5 and m == m:      # np.maximum: a NaN wins
                m = m5
            try:
                r = moduli[2 * n + i] / (atol + rtol * m)
            except ZeroDivisionError:   # atol = 0 at a zero state: only 0 passes
                d = moduli[2 * n + i]
                r = d * math.inf if d else 0.0
            if i == 0 or r > err or r != r:  # np.max: a NaN wins
                err = r
        if err <= 1.0:
            if escape_radius is not None and any(
                    m5 > escape_radius for m5 in moduli[n:2 * n]):
                escaped = True      # final stays the last in-domain sample
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
            raise SingularLiftError(
                f"RK45 stopped at t = {t:.6g} before t1 = {t1:.6g}: "
                f"{_RK45_MAX_ITER} iterations reached")
    return samples, escaped


# ---------------------------------------------------------------------------
# Path lifting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiftResult:
    """Lift of a base path to the leaf through a fiber point."""

    base_var: str
    fiber_vars: tuple[str, ...]
    samples: tuple[tuple[float, tuple[complex, ...]], ...]
    final: tuple[complex, ...]
    est_error: float | None     # None when the lift escaped: nothing estimated
    escaped: bool

    def fiber_moduli(self, var: str) -> list[float]:
        i = self.fiber_vars.index(var)
        return [abs(y[i]) for _, y in self.samples]

    def to_json(self) -> dict:
        return {
            "base_var": self.base_var,
            "fiber_vars": list(self.fiber_vars),
            "final": [[z.real, z.imag] for z in self.final],
            "est_error": self.est_error,
            "escaped": self.escaped,
            "samples": len(self.samples),
        }

    def to_csv(self) -> str:
        header = ["t"]
        for v in self.fiber_vars:
            header += [f"re_{v}", f"im_{v}"]
        lines = [",".join(header)]
        for t, y in self.samples:
            cells = [repr(t)]
            for z in y:
                cells += [repr(z.real), repr(z.imag)]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def lift_path(
    x: VectorField,
    base_var: str,
    path: PathSpec,
    fiber: Sequence[complex],
    rtol: float = DEFAULT_REL_TOL,
    atol: float = DEFAULT_ABS_TOL,
    escape_radius: float = 10.0,
    min_samples: int = 64,
) -> LiftResult:
    """Lift a path in the ``base_var`` coordinate to the leaf through a point.

    Integrates ``dy_j/dt = (X^j / X^base)(p(t), y) * p'(t)`` with an
    embedded 5(4) pair; the a-posteriori error estimate compares against a
    re-run at hundredfold tighter tolerances.  A zero of the base component
    along the lift raises :class:`SingularLiftError`; leaving the escape
    polydisc sets ``escaped`` instead of failing, and then ``est_error`` is
    ``None`` because no estimate is made.  A non-finite fiber value raises
    :class:`DegenerateInputError`, and a floating-point overflow along the
    lift :class:`EvaluationOverflowError`.
    """
    chart = x.chart
    b = chart.var_index(base_var)
    fiber_vars = tuple(v for v in chart.var_names if v != base_var)
    if len(fiber) != len(fiber_vars):
        raise StructuralError("one fiber value per non-base variable required")
    if not all(cmath.isfinite(v) for v in fiber):
        raise DegenerateInputError(f"fiber values must be finite, got {list(fiber)!r}")
    comp_fns = [c.eval_complex for c in x.components]
    fiber_fns = [f for i, f in enumerate(comp_fns) if i != b]
    base_fn = comp_fns[b]
    complex128 = np.complex128

    def rhs(t: float, y: list[complex]) -> list[complex]:
        # fiber coordinates enter the components as NumPy scalars, so powers
        # of them, and the division by a base speed that depends on them,
        # keep NumPy's rounding (see _rk45)
        point = [complex128(v) for v in y]
        point.insert(b, path.point(t))
        base_speed = base_fn(point)
        if abs(base_speed) < ZERO_FLOOR:
            raise SingularLiftError("base component vanished along the lift")
        vel = path.velocity(t) / base_speed
        return [_plain_complex(f(point) * vel) for f in fiber_fns]

    t0, t1 = path.t_range
    max_step = abs(t1 - t0) / max(min_samples, 1)
    y0 = [complex(v) for v in fiber]
    # NumPy scalar arithmetic only warns on overflow and goes on with inf
    # and NaN, so a huge fiber value would reject steps until the iteration
    # cap; raising turns it into the error a Python complex gives
    try:
        with np.errstate(over="raise"):
            samples, escaped = _rk45(rhs, t0, t1, y0, rtol, atol, max_step,
                                     escape_radius)
            final = samples[-1][1]
            if escaped:
                est = None
            else:
                tight, _ = _rk45(rhs, t0, t1, y0, rtol / 100.0, atol / 100.0,
                                 max_step / 2.0, escape_radius)
                est = (float(np.max(np.abs(np.subtract(final, tight[-1][1]))))
                       if final else 0.0)
    except FloatingPointError:
        raise EvaluationOverflowError(_OVERFLOW) from None
    return LiftResult(
        base_var=base_var,
        fiber_vars=fiber_vars,
        samples=tuple((t, tuple(y)) for t, y in samples),
        final=tuple(final),
        est_error=est,
        escaped=escaped,
    )


def loop_lift_ratio(
    x: VectorField,
    base_var: str,
    radius: float = 0.1,
    fiber_seed: complex = 0.01,
    **kwargs,
) -> complex:
    """final/initial fiber ratio after lifting a full circle in the base.

    For a linearizable saddle this estimates the derivative of the holonomy
    return map of the separatrix ``{others = 0}``.  A field without a fiber
    variable raises :class:`StructuralError`; a zero or non-finite radius or
    fiber seed (no loop, or no ratio final/initial) raises
    :class:`DegenerateInputError`.
    """
    if x.chart.dim < 2:
        raise StructuralError("holonomy needs at least one fiber variable")
    if radius == 0 or not math.isfinite(radius):
        raise DegenerateInputError(f"loop radius must be finite and nonzero, got {radius!r}")
    if fiber_seed == 0 or not cmath.isfinite(fiber_seed):
        raise DegenerateInputError(f"fiber seed must be finite and nonzero, got {fiber_seed!r}")
    path = full_circle(radius)
    fiber = [fiber_seed] * (x.chart.dim - 1)
    result = lift_path(x, base_var, path, fiber, **kwargs)
    if result.escaped:
        raise SingularLiftError("lift escaped the polydisc before closing the loop")
    return result.final[0] / fiber[0]


# ---------------------------------------------------------------------------
# Holonomy form quadrature and descent tracing
# ---------------------------------------------------------------------------

def omega1_integral(
    f: Poly,
    h: Poly,
    path: PathSpec,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
) -> tuple[complex, float]:
    """Quadrature of the holonomy form ``(H/F) dx`` along a base path."""
    fe = _univariate_eval(f)
    he = _univariate_eval(h)

    def integrand(t: float) -> complex:
        z = path.point(t)
        fv = fe(z)
        if abs(fv) < ZERO_FLOOR:
            raise SingularPathError("denominator vanished on the path")
        return he(z) / fv * path.velocity(t)

    a, b = path.t_range
    return adaptive_quadrature(integrand, a, b, abs_tol, rel_tol)


def contraction_check(f: Poly, h: Poly, path: PathSpec, **kwargs) -> bool:
    """True when the holonomy derivative ``exp(-I)`` contracts (Re I > 0)."""
    value, _ = omega1_integral(f, h, path, **kwargs)
    return value.real > 0


@dataclass(frozen=True)
class Trajectory:
    """A traced real trajectory in one complex coordinate."""

    samples: tuple[tuple[float, complex], ...]
    stop_reason: str

    def points(self) -> list[complex]:
        return [z for _, z in self.samples]

    def to_csv(self) -> str:
        lines = ["t,re,im"]
        for t, z in self.samples:
            lines.append(f"{t!r},{z.real!r},{z.imag!r}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "stop_reason": self.stop_reason,
            "samples": [[t, z.real, z.imag] for t, z in self.samples],
        }


def trace_descent(
    f: Poly,
    h: Poly,
    theta: float,
    start: complex,
    t_max: float,
    rtol: float = DEFAULT_REL_TOL,
    atol: float = DEFAULT_ABS_TOL,
    domain_radius: float = 10.0,
) -> Trajectory:
    """Trace the oriented trajectory with ``(H/F) dx . phi' == exp(i theta)``.

    For theta = 0 these are the curves on which the holonomy form is real
    and positive (steepest holonomy contraction); |theta| < pi/2 rotates the
    family.  Tracing stops at ``t_max``, at singularities of the form, or on
    leaving the domain disc.  A non-finite start, a negative ``t_max`` and
    the tolerances ``_rk45`` rejects raise :class:`DegenerateInputError`.
    """
    if not -math.pi / 2 < theta < math.pi / 2:
        raise StructuralError("theta must lie strictly between -pi/2 and pi/2")
    if not cmath.isfinite(start):
        raise DegenerateInputError(f"descent start must be finite, got {start!r}")
    if t_max < 0:
        raise DegenerateInputError(f"descent t_max must be nonnegative, got {t_max!r}")
    fe = _univariate_eval(f)
    he = _univariate_eval(h)
    if abs(fe(start)) < ZERO_FLOOR or abs(he(start)) < ZERO_FLOOR:
        raise SingularPathError("descent started at a singularity of the form")
    phase = complex(math.cos(theta), math.sin(theta))

    stop_reason = "t_max"
    def rhs(t: float, y: list[complex]) -> list[complex]:
        fv, hv = fe(y[0]), he(y[0])
        if abs(hv) < ZERO_FLOOR or abs(fv) < ZERO_FLOOR:
            raise SingularLiftError("hit a singularity of the form")
        return [phase * fv / hv]

    try:
        samples, escaped = _rk45(rhs, 0.0, t_max, [start], rtol, atol,
                                 max_step=t_max / 64.0,
                                 escape_radius=domain_radius)
        if escaped:
            stop_reason = "domain_exit"
    except SingularLiftError:
        raise SingularPathError("descent ran into a singularity of the form") from None
    return Trajectory(
        samples=tuple((t, y[0]) for t, y in samples),
        stop_reason=stop_reason,
    )


# ---------------------------------------------------------------------------
# Separating directions
# ---------------------------------------------------------------------------

def separating_direction(eigenvalues: Sequence[complex], distinguished: int = 0) -> complex:
    """A unit vector v with Re(l_d / v) > 0 and Re(l_j / v) < 0 for j != d.

    Used to build the logarithmic spiral along which lifts show saddle
    behavior; the choice maximizes the angular margin and is deterministic.
    Raises :class:`NotApplicableError` when no separating line exists.
    """
    values = [complex(z) for z in eigenvalues]
    lead = values[distinguished]
    others = [z for k, z in enumerate(values) if k != distinguished]
    if abs(lead) == 0 or any(abs(z) == 0 for z in others):
        raise NotApplicableError("zero eigenvalues admit no separating direction")

    def margin(psi: float) -> float:
        v = complex(math.cos(psi), math.sin(psi))
        m = (lead / v).real / abs(lead)
        for z in others:
            m = min(m, -(z / v).real / abs(z))
        return m

    grid = 4096
    best = max(range(grid), key=lambda k: margin(2 * math.pi * k / grid))
    lo = 2 * math.pi * (best - 1) / grid
    hi = 2 * math.pi * (best + 1) / grid
    for _ in range(80):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if margin(m1) < margin(m2):
            lo = m1
        else:
            hi = m2
    psi = 0.5 * (lo + hi)
    if margin(psi) <= 0:
        raise NotApplicableError("no direction separates the eigenvalues")
    return complex(math.cos(psi), math.sin(psi))


def spiral_path(epsilon: float, y_angle: float, direction: complex,
                t_min: float) -> LogSpiral:
    """The logarithmic spiral ``eps * exp(i y + t/direction)`` traced from
    t = 0 down to t = t_min (toward the singular point)."""
    anchor = epsilon * complex(math.cos(y_angle), math.sin(y_angle))
    return LogSpiral(anchor, direction, 0.0, t_min)
