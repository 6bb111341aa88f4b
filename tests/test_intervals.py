from __future__ import annotations

import math

import pytest

from foliations.algebra import GR_ZERO, GaussianRational, gr
from foliations.errors import DegenerateInputError
from foliations.intervals import (
    ComplexInterval,
    Interval,
    certified_roots,
    deflate,
    gaussian_rational_roots,
    poly_divmod,
    poly_gcd,
)


def coeffs(*values):
    return [gr(v) if not isinstance(v, GaussianRational) else v for v in values]


class TestIntervalArithmetic:
    def test_outward_rounding_contains_truth(self):
        a = Interval.of_fraction(gr("1/3").re)
        assert a.lo <= 1 / 3 <= a.hi
        b = a * a
        assert b.lo <= 1 / 9 <= b.hi

    def test_inverse_requires_no_zero(self):
        with pytest.raises(ZeroDivisionError):
            Interval(-1.0, 1.0).inv()
        inv = Interval(2.0, 4.0).inv()
        assert inv.lo <= 0.25 and 0.5 <= inv.hi

    def test_complex_multiplication_encloses(self):
        z = ComplexInterval.box(1 + 1j, 1e-12)
        w = z * z
        assert w.contains((1 + 1j) ** 2)


class TestExactPolynomialHelpers:
    def test_divmod(self):
        # (t-1)(t+2) = t^2 + t - 2 divided by (t-1)
        q, r = poly_divmod(coeffs(-2, 1, 1), coeffs(-1, 1))
        assert q == coeffs(2, 1)
        assert r == [GR_ZERO]

    def test_gcd(self):
        a = coeffs(-1, 0, 1)       # t^2 - 1
        b = coeffs(1, 1)           # t + 1
        assert poly_gcd(a, b) == coeffs(1, 1)

    def test_deflate_rejects_non_root(self):
        with pytest.raises(DegenerateInputError):
            deflate(coeffs(1, 1), gr(1))


class TestRationalRoots:
    def test_integer_roots(self):
        roots = gaussian_rational_roots(coeffs(6, -5, -2, 1))
        values = sorted((r.re, r.im) for r in roots)
        assert values == [(-2, 0), (1, 0), (3, 0)]

    def test_gaussian_roots(self):
        # (t - i)(t + 2i): coefficients 2, i, 1
        roots = gaussian_rational_roots([gr(2), gr(0, 1), gr(1)])
        values = sorted((r.re, r.im) for r in roots)
        assert values == [(0, -2), (0, 1)]

    def test_fractional_roots(self):
        # (2t - 1)(3t + 1) = 6t^2 - t - 1
        roots = gaussian_rational_roots(coeffs(-1, -1, 6))
        values = sorted((r.re, r.im) for r in roots)
        assert [str(v[0]) for v in values] == ["-1/3", "1/2"]

    def test_multiplicity_by_deflation(self):
        # (t-1)^2
        roots = gaussian_rational_roots(coeffs(1, -2, 1))
        assert roots == [gr(1), gr(1)]


class TestCertifiedRoots:
    def test_width_and_disjointness(self):
        exact, intervals = certified_roots(coeffs(-2, 0, 1))
        assert not exact
        assert len(intervals) == 2
        for c in intervals:
            assert c.box.width() <= 1e-10
            assert not c.clustered
        assert not intervals[0].box.overlaps(intervals[1].box)
        mids = sorted(c.box.mid().real for c in intervals)
        assert abs(mids[0] + math.sqrt(2)) < 1e-9

    def test_mixed_exact_and_certified(self):
        # (t - 1)(t^2 - 2)
        poly = [gr(2), gr(-2), gr(-1), gr(1)]
        exact, intervals = certified_roots(poly)
        assert [r.text() for r, _m in exact] == ["1"]
        assert len(intervals) == 2

    def test_multiple_certified_root(self):
        # (t^2 - 2)^2 = t^4 - 4 t^2 + 4
        poly = coeffs(4, 0, -4, 0, 1)
        exact, intervals = certified_roots(poly)
        assert not exact
        assert sorted(c.multiplicity for c in intervals) == [2, 2]

    def test_zero_polynomial_rejected(self):
        with pytest.raises(DegenerateInputError):
            certified_roots([GR_ZERO])

    def test_linear_remainder_is_exact(self):
        # (t - 2)(t - r): after deflating 2 the remainder t - r has a
        # denominator above the float-recognition cap and a norm above the
        # divisor-search cap, and is still solved exactly
        r = gr("1234567/1000003")
        exact, intervals = certified_roots([gr(2) * r, -(r + gr(2)), gr(1)])
        assert exact == [(r, 1), (gr(2), 1)]
        assert intervals == []
