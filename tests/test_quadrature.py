"""Accuracy and cost of the adaptive Gauss-Kronrod quadrature.

Time-form integrals ``int dx / (x^k - a)`` along arcs about the origin and
along segments are compared with their closed forms: a power of ``x`` for
``a = 0`` and ``k >= 2``, otherwise the partial fractions
``sum_j 1 / (k r_j^(k-1) (x - r_j))`` over the k-th roots ``r_j`` of ``a``,
whose logarithms are followed continuously along the path.  The reported
error must cover the true one up to a rounding floor of ``1e-14`` times the
integral of the integrand's modulus plus the moduli of the closed form's
terms, and the arcs the ``dynamics`` benchmark
draws must take few integrand evaluations.
"""

from __future__ import annotations

import cmath
import math
import random

import pytest

from foliations import dynamics
from foliations.algebra import Poly, gr
from foliations.dynamics import (
    DEFAULT_ABS_TOL,
    CircularArc,
    Segment,
    adaptive_quadrature,
    omega1_integral,
    time_form_integral,
)
from foliations.errors import EvaluationOverflowError

V1 = ("x",)
ROUNDING = 1e-14


def power_minus(k: int, a: complex) -> Poly:
    """``x^k - a``; the parts of ``a`` are doubles, so exact rationals."""
    terms = {(k,): gr(1)}
    if a:
        terms[(0,)] = -gr(a.real, a.imag)
    return Poly.make(V1, terms)


def log_change(path, r: complex) -> complex:
    """The change of a continuous ``log(x - r)`` along the path."""
    if isinstance(path, Segment):
        # seen from r, a segment turns by less than pi: the principal log
        return cmath.log((path.z1 - r) / (path.z0 - r))
    z0, z1 = (cmath.rect(path.radius, t) for t in path.t_range)
    if abs(r) > path.radius:     # 1 - x/r stays in the right half plane
        return cmath.log(1 - z1 / r) - cmath.log(1 - z0 / r)
    return 1j * (path.angle1 - path.angle0) + cmath.log(1 - r / z1) - cmath.log(1 - r / z0)


def closed_form(k: int, a: complex, path) -> tuple[complex, float]:
    """The integral in doubles, and the sum of the moduli of its terms:
    the scale of its own rounding."""
    if a == 0 and k >= 2:
        z0, z1 = (path.at(t)[0] for t in path.t_range)
        terms = [z1 ** (1 - k) / (1 - k), -z0 ** (1 - k) / (1 - k)]
    elif a == 0:
        terms = [log_change(path, 0j)]
    else:
        terms = [log_change(path, r) / (k * r ** (k - 1)) for r in roots(k, a)]
    return sum(terms), sum(map(abs, terms))


def roots(k: int, a: complex) -> list[complex]:
    return [abs(a) ** (1 / k) * cmath.exp(1j * (cmath.phase(a) + 2 * math.pi * j) / k)
            for j in range(k)]


def modulus_integral(poly: Poly, path, n: int = 400) -> float:
    """Midpoint sum of ``|v / X|`` over the path: the rounding scale."""
    a, b = path.t_range
    h = (b - a) / n
    total = 0.0
    for i in range(n):
        z, v = path.at(a + (i + 0.5) * h)
        total += abs(v / poly.eval_complex((z,)))
    return total * abs(h)


def random_case(rng: random.Random):
    """x^k - a (a = 0 in one case of three) on an arc or a segment that keeps
    a quarter of its scale away from every root."""
    k = rng.randint(1, 5)
    a = 0j if rng.random() < 1 / 3 else cmath.rect(rng.uniform(0.05, 2.0),
                                                   rng.uniform(-math.pi, math.pi))
    poly = power_minus(k, a)
    rho = abs(a) ** (1 / k)
    poles = roots(k, a) if a else [0j]
    while True:
        if rng.random() < 0.5:
            radius = rng.uniform(0.2, 1.5)
            a0 = rng.uniform(-math.pi, math.pi)
            path = CircularArc(0j, radius, a0, a0 + rng.uniform(0.3, 3.0))
            clearance = abs(rho - radius) / radius
        else:
            ends = [cmath.rect(rng.uniform(0.2, 1.5), rng.uniform(-math.pi, math.pi))
                    for _ in range(2)]
            path = Segment(*ends)
            clearance = min(distance(path, r) for r in poles) / abs(path.z1 - path.z0)
        if clearance >= 0.25:
            return k, a, poly, path


def distance(segment: Segment, r: complex) -> float:
    d = segment.z1 - segment.z0
    s = min(1.0, max(0.0, ((r - segment.z0) * d.conjugate()).real / abs(d) ** 2))
    return abs(segment.z0 + s * d - r)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_closed_form_within_reported_error(seed):
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(150):
        k, a, poly, path = random_case(rng)
        value, err = time_form_integral(poly, path)
        exact, scale = closed_form(k, a, path)
        miss = abs(value - exact)
        assert miss <= err + ROUNDING * (modulus_integral(poly, path) + scale), (k, a, path)
        worst = max(worst, miss)
    assert worst < 1e-11


def workload_arcs(seed: int, count: int):
    """Time-form arcs of ``x^k`` drawn as the ``dynamics`` benchmark draws
    them: k in 1..5, radius in [0.2, 1], start angle in [-pi, pi] and an
    opening in [0.3, 3], each printed to six decimals."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(1, 5)
        radius = float(f"{rng.uniform(0.2, 1.0):.6f}")
        a0 = float(f"{rng.uniform(-math.pi, math.pi):.6f}")
        a1 = float(f"{a0 + rng.uniform(0.3, 3.0):.6f}")
        yield k, CircularArc(0j, radius, a0, a1)


def test_workload_arcs_take_few_evaluations(monkeypatch):
    quadrature = dynamics.adaptive_quadrature
    calls = []

    def counted_quadrature(f, *args):
        def counted(t):
            calls.append(t)
            return f(t)
        return quadrature(counted, *args)

    monkeypatch.setattr(dynamics, "adaptive_quadrature", counted_quadrature)
    arcs = list(workload_arcs(7, 400))
    worst = 0.0
    for k, arc in arcs:
        poly = power_minus(k, 0j)
        value, err = time_form_integral(poly, arc)
        exact, scale = closed_form(k, 0j, arc)
        miss = abs(value - exact)
        assert miss <= err + ROUNDING * (modulus_integral(poly, arc) + scale)
        worst = max(worst, miss)
    assert worst < 1e-11
    assert len(calls) / len(arcs) < 40


def test_depth_cap_keeps_its_error(monkeypatch):
    # |t - 1/3| has a kink at no dyadic point: the panel holding it is
    # bisected to the cap and every other panel is exact at once
    monkeypatch.setattr(dynamics, "_QUADRATURE_MAX_DEPTH", 3)
    calls = []

    def kink(t):
        calls.append(t)
        return complex(abs(t - 1 / 3))

    value, err = adaptive_quadrature(kink, 0.0, 1.0)
    assert len(calls) == 15 * (1 + 2 * 3)
    assert err > DEFAULT_ABS_TOL            # the cap shows in the estimate
    assert abs(value - 5 / 18) <= err


@pytest.mark.parametrize("f_power, h_power", [(1, 2), (2, 1)],
                         ids=["numerator", "denominator"])
def test_holonomy_form_overflow_raises(f_power, h_power):
    # off the real axis, x^2 at radius 1e200 is NaN, and no power raises
    f = Poly.make(V1, {(f_power,): gr(1)})
    h = Poly.make(V1, {(h_power,): gr(1)})
    with pytest.raises(EvaluationOverflowError):
        omega1_integral(f, h, CircularArc(0j, 1e200, 0.5, 1.0))
